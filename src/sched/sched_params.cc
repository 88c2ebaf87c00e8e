#include "sched/sched_params.hh"

#include "common/log.hh"

namespace p5 {

const char *
allocPolicyName(AllocPolicy policy)
{
    switch (policy) {
      case AllocPolicy::Pinned:
        return "pinned";
      case AllocPolicy::Random:
        return "random";
      case AllocPolicy::Symbiosis:
        return "symbiosis";
    }
    fatal("allocPolicyName: bad policy %d", static_cast<int>(policy));
}

AllocPolicy
allocPolicyFromName(const std::string &name)
{
    if (name == "pinned")
        return AllocPolicy::Pinned;
    if (name == "random")
        return AllocPolicy::Random;
    if (name == "symbiosis")
        return AllocPolicy::Symbiosis;
    fatal("unknown allocation policy '%s' (expected 'pinned', 'random' "
          "or 'symbiosis')",
          name.c_str());
}

std::string
SchedParams::tryValidate() const
{
    if (quantum < 256)
        return "SchedParams::quantum " + std::to_string(quantum) +
               " too small (min 256 cycles)";
    if (historyQuanta < 1 || historyQuanta > 64)
        return "SchedParams::historyQuanta " +
               std::to_string(historyQuanta) + " out of range [1, 64]";
    return {};
}

} // namespace p5
