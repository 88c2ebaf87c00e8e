#include "config/config.hh"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "common/artifact.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "core/chip.hh"
#include "program/trace.hh"
#include "ubench/ubench.hh"

namespace p5 {

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    std::vector<std::size_t> prev(m + 1);
    std::vector<std::size_t> cur(m + 1);
    for (std::size_t j = 0; j <= m; ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= m; ++j) {
            const std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[m];
}

namespace {

std::int64_t
parseIntText(const std::string &path, const std::string &value)
{
    std::int64_t out = 0;
    const ParseStatus status = parseInt64(value, out);
    if (status != ParseStatus::Ok)
        fatal("config key '%s' expects an integer, got '%s' (%s)",
              path.c_str(), value.c_str(), parseStatusName(status));
    return out;
}

double
parseDoubleText(const std::string &path, const std::string &value)
{
    double out = 0.0;
    const ParseStatus status = parseFloat64(value, out);
    if (status != ParseStatus::Ok)
        fatal("config key '%s' expects a number, got '%s' (%s)",
              path.c_str(), value.c_str(), parseStatusName(status));
    return out;
}

bool
parseBoolText(const std::string &path, const std::string &value)
{
    if (value == "true" || value == "1" || value == "yes" ||
        value == "on")
        return true;
    if (value == "false" || value == "0" || value == "no" ||
        value == "off")
        return false;
    fatal("config key '%s' expects a boolean, got '%s'", path.c_str(),
          value.c_str());
}

std::uint64_t
parseU64Text(const std::string &path, const std::string &value)
{
    std::uint64_t out = 0;
    const ParseStatus status = parseUint64(value, out);
    if (status != ParseStatus::Ok)
        fatal("config key '%s' expects an unsigned integer, got '%s' "
              "(%s)",
              path.c_str(), value.c_str(), parseStatusName(status));
    return out;
}

std::vector<std::string>
splitPath(const std::string &path, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    for (char c : path) {
        if (c == sep) {
            out.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    out.push_back(cur);
    return out;
}

const char *
balanceActionName(BalanceAction action)
{
    return action == BalanceAction::Flush ? "flush" : "stall";
}

BalanceAction
balanceActionFromName(const std::string &path, const std::string &name)
{
    if (name == "stall")
        return BalanceAction::Stall;
    if (name == "flush")
        return BalanceAction::Flush;
    fatal("config key '%s' expects 'stall' or 'flush', got '%s'",
          path.c_str(), name.c_str());
}

} // namespace

ConfigTree::ConfigTree(ExpConfig &config) : config_(config)
{
    bindAll();
}

// --- binding helpers ---------------------------------------------------

void
ConfigTree::bindBool(const std::string &path, bool &ref, const char *help,
                     bool identity)
{
    Field f;
    f.path = path;
    f.help = help;
    f.identity = identity;
    bool *p = &ref;
    f.get = [p] { return std::string(*p ? "true" : "false"); };
    f.set = [p, path](const std::string &value) {
        *p = parseBoolText(path, value);
    };
    f.writeValue = [p](JsonWriter &w) { w.value(*p); };
    f.setFromJson = [p, path](const JsonValue &v) {
        if (!v.isBool())
            fatal("config key '%s' expects a JSON boolean",
                  path.c_str());
        *p = v.asBool();
    };
    fields_.push_back(std::move(f));
}

void
ConfigTree::bindInt(const std::string &path, int &ref, int lo, int hi,
                    const char *help, bool identity)
{
    Field f;
    f.path = path;
    f.help = help;
    f.identity = identity;
    int *p = &ref;
    auto assign = [p, path, lo, hi](std::int64_t v) {
        if (v < lo || v > hi)
            fatal("config key '%s' = %lld out of range [%d, %d]",
                  path.c_str(), static_cast<long long>(v), lo, hi);
        *p = static_cast<int>(v);
    };
    f.get = [p] { return std::to_string(*p); };
    f.set = [assign, path](const std::string &value) {
        assign(parseIntText(path, value));
    };
    f.writeValue = [p](JsonWriter &w) { w.value(*p); };
    f.setFromJson = [assign, path](const JsonValue &v) {
        if (!v.isInt())
            fatal("config key '%s' expects a JSON integer",
                  path.c_str());
        assign(v.asInt());
    };
    fields_.push_back(std::move(f));
}

void
ConfigTree::bindU64(const std::string &path, std::uint64_t &ref,
                    std::uint64_t lo, std::uint64_t hi, const char *help,
                    bool identity)
{
    Field f;
    f.path = path;
    f.help = help;
    f.identity = identity;
    std::uint64_t *p = &ref;
    auto assign = [p, path, lo, hi](std::uint64_t v) {
        if (v < lo || v > hi)
            fatal("config key '%s' = %llu out of range [%llu, %llu]",
                  path.c_str(), static_cast<unsigned long long>(v),
                  static_cast<unsigned long long>(lo),
                  static_cast<unsigned long long>(hi));
        *p = v;
    };
    f.get = [p] { return std::to_string(*p); };
    f.set = [assign, path](const std::string &value) {
        assign(parseU64Text(path, value));
    };
    f.writeValue = [p](JsonWriter &w) { w.value(*p); };
    f.setFromJson = [assign, path](const JsonValue &v) {
        if (!v.isInt() || v.asInt() < 0)
            fatal("config key '%s' expects a non-negative JSON integer",
                  path.c_str());
        assign(static_cast<std::uint64_t>(v.asInt()));
    };
    fields_.push_back(std::move(f));
}

void
ConfigTree::bindUnsigned(const std::string &path, unsigned &ref,
                         unsigned lo, unsigned hi, const char *help,
                         bool identity)
{
    Field f;
    f.path = path;
    f.help = help;
    f.identity = identity;
    unsigned *p = &ref;
    auto assign = [p, path, lo, hi](std::int64_t v) {
        if (v < static_cast<std::int64_t>(lo) ||
            v > static_cast<std::int64_t>(hi))
            fatal("config key '%s' = %lld out of range [%u, %u]",
                  path.c_str(), static_cast<long long>(v), lo, hi);
        *p = static_cast<unsigned>(v);
    };
    f.get = [p] { return std::to_string(*p); };
    f.set = [assign, path](const std::string &value) {
        assign(parseIntText(path, value));
    };
    f.writeValue = [p](JsonWriter &w) { w.value(*p); };
    f.setFromJson = [assign, path](const JsonValue &v) {
        if (!v.isInt())
            fatal("config key '%s' expects a JSON integer",
                  path.c_str());
        assign(v.asInt());
    };
    fields_.push_back(std::move(f));
}

void
ConfigTree::bindDouble(const std::string &path, double &ref, double lo,
                       double hi, const char *help, bool identity)
{
    Field f;
    f.path = path;
    f.help = help;
    f.identity = identity;
    double *p = &ref;
    auto assign = [p, path, lo, hi](double v) {
        if (!(v >= lo && v <= hi))
            fatal("config key '%s' = %s out of range [%s, %s]",
                  path.c_str(), formatDouble(v).c_str(),
                  formatDouble(lo).c_str(), formatDouble(hi).c_str());
        *p = v;
    };
    f.get = [p] { return formatDouble(*p); };
    f.set = [assign, path](const std::string &value) {
        assign(parseDoubleText(path, value));
    };
    f.writeValue = [p](JsonWriter &w) { w.value(*p); };
    f.setFromJson = [assign, path](const JsonValue &v) {
        if (!v.isNumber())
            fatal("config key '%s' expects a JSON number",
                  path.c_str());
        assign(v.asDouble());
    };
    fields_.push_back(std::move(f));
}

void
ConfigTree::bindTrace(const std::string &path_key,
                      const std::string &fp_key, std::string &path_ref,
                      std::string &fp_ref, const char *help)
{
    std::string *pp = &path_ref;
    std::string *fp = &fp_ref;
    {
        // The path is where the bytes live, not what they are: it is
        // execution-only. Assigning it reads the trace header (fatal on
        // a missing or corrupt file) and derives the fingerprint field
        // below, which carries the content identity.
        Field f;
        f.path = path_key;
        f.help = help;
        f.identity = false;
        const std::string key = path_key;
        auto assign = [pp, fp](const std::string &value) {
            if (value.empty()) {
                pp->clear();
                fp->clear();
                return;
            }
            *pp = value;
            *fp = readTraceHeader(value).fingerprint();
        };
        f.get = [pp] { return *pp; };
        f.set = assign;
        f.writeValue = [pp](JsonWriter &w) { w.value(*pp); };
        f.setFromJson = [assign, key](const JsonValue &v) {
            if (!v.isString())
                fatal("config key '%s' expects a JSON string",
                      key.c_str());
            assign(v.asString());
        };
        fields_.push_back(std::move(f));
    }
    {
        Field f;
        f.path = fp_key;
        f.help = "content fingerprint of the companion trace path "
                 "(derived; identity)";
        f.identity = true;
        const std::string key = fp_key;
        auto assign = [fp, key](const std::string &value) {
            if (!value.empty()) {
                if (value.size() != 16 ||
                    value.find_first_not_of("0123456789abcdef") !=
                        std::string::npos)
                    fatal("config key '%s' = '%s' is not a 16-digit "
                          "lowercase hex fingerprint",
                          key.c_str(), value.c_str());
            }
            *fp = value;
        };
        f.get = [fp] { return *fp; };
        f.set = assign;
        f.writeValue = [fp](JsonWriter &w) { w.value(*fp); };
        f.setFromJson = [assign, key](const JsonValue &v) {
            if (!v.isString())
                fatal("config key '%s' expects a JSON string",
                      key.c_str());
            assign(v.asString());
        };
        fields_.push_back(std::move(f));
    }
}

// --- the schema --------------------------------------------------------

void
ConfigTree::bindAll()
{
    CoreParams &core = config_.core;

    bindInt("core.core_id", core.coreId, 0, 7,
            "identity of this core on the chip (affects address spaces)");
    bindInt("core.decode_width", core.decodeWidth, 1, 8,
            "instructions per decode slot (one thread/cycle)");
    bindInt("core.minority_slot_width", core.minoritySlotWidth, 1, 8,
            "instructions deliverable in the lower-priority thread's "
            "single slot");
    bindInt("core.group_size", core.groupSize, 1, 8,
            "max instructions per GCT group");
    bindInt("core.gct_groups", core.gctGroups, 2, 1024,
            "shared GCT capacity in groups");
    bindInt("core.fu_fx", core.fuCount[static_cast<int>(FuClass::FX)], 1,
            8, "fixed-point functional units");
    bindInt("core.fu_fp", core.fuCount[static_cast<int>(FuClass::FP)], 1,
            8, "floating-point functional units");
    bindInt("core.fu_ls", core.fuCount[static_cast<int>(FuClass::LS)], 1,
            8, "load/store functional units");
    bindInt("core.fu_br", core.fuCount[static_cast<int>(FuClass::BR)], 1,
            8, "branch functional units");
    bindInt("core.lmq_entries", core.lmqEntries, 1, 64,
            "load-miss-queue entries shared by both threads");
    bindInt("core.mispredict_penalty", core.mispredictPenalty, 0, 1000,
            "decode-redirect delay after a mispredicted branch");
    bindBool("core.work_conserving_slots", core.workConservingSlots,
             "give forfeited decode slots to the sibling (ablation)");
    bindInt("core.asid_shift", core.asidShift, 16, 56,
            "per-thread address-space separation (bits)");
    bindBool("core.priority_aware_walker", core.priorityAwareWalker,
             "schedule the shared table-walk engine by thread priority");
    bindInt("core.walker_port_gap", core.walkerPortGap, 0, 64,
            "sibling LSU port-gate cycles while the walker is busy");
    bindBool("core.fast_forward", core.fastForward,
             "skip verified-idle cycles in SmtCore::run()");

    BalancerParams &bal = core.balancer;
    bindBool("core.balancer.enabled", bal.enabled,
             "dynamic hardware resource balancer");
    bindDouble("core.balancer.gct_share_threshold", bal.gctShareThreshold,
               0.01, 1.0, "GCT share above which a thread is offending");
    bindBool("core.balancer.priority_aware_gct", bal.priorityAwareGct,
             "scale the GCT threshold by decode-slot share");
    bindDouble("core.balancer.min_gct_share_threshold",
               bal.minGctShareThreshold, 0.01, 1.0,
               "lower clamp of the priority-scaled GCT threshold");
    bindDouble("core.balancer.max_gct_share_threshold",
               bal.maxGctShareThreshold, 0.01, 1.0,
               "upper clamp of the priority-scaled GCT threshold");
    bindBool("core.balancer.priority_aware_lmq", bal.priorityAwareLmq,
             "scale the LMQ threshold by decode-slot share");
    bindInt("core.balancer.min_gct_groups", bal.minGctGroups, 0, 1024,
            "GCT groups a thread may always hold");
    bindInt("core.balancer.lmq_threshold", bal.lmqThreshold, 1, 64,
            "LMQ entries by one thread counting as too many L2 misses");
    bindBool("core.balancer.block_on_tlb_miss", bal.blockOnTlbMiss,
             "block decode of a thread with an outstanding TLB walk");
    {
        Field f;
        f.path = "core.balancer.action";
        f.help = "corrective action: 'stall' or 'flush'";
        BalanceAction *p = &bal.action;
        const std::string path = f.path;
        f.get = [p] { return std::string(balanceActionName(*p)); };
        f.set = [p, path](const std::string &value) {
            *p = balanceActionFromName(path, value);
        };
        f.writeValue = [p](JsonWriter &w) {
            w.value(balanceActionName(*p));
        };
        f.setFromJson = [p, path](const JsonValue &v) {
            if (!v.isString())
                fatal("config key '%s' expects a JSON string",
                      path.c_str());
            *p = balanceActionFromName(path, v.asString());
        };
        fields_.push_back(std::move(f));
    }

    HierarchyParams &mem = core.mem;
    const struct
    {
        const char *prefix;
        CacheParams *params;
    } levels[] = {
        {"core.mem.l1d", &mem.l1d},
        {"core.mem.l2", &mem.l2},
        {"core.mem.l3", &mem.l3},
    };
    for (const auto &lvl : levels) {
        const std::string prefix = lvl.prefix;
        CacheParams &c = *lvl.params;
        bindU64(prefix + ".size_bytes", c.sizeBytes, 1024,
                std::uint64_t{1} << 40, "capacity in bytes");
        bindInt(prefix + ".assoc", c.assoc, 1, 128, "associativity");
        bindInt(prefix + ".line_bytes", c.lineBytes, 16, 4096,
                "line size in bytes");
        bindInt(prefix + ".hit_latency", c.hitLatency, 0, 10000,
                "hit latency in cycles");
        bindInt(prefix + ".service_gap", c.serviceGap, 0, 100000,
                "min cycles between serviced requests");
    }

    TlbParams &tlb = mem.tlb;
    bindInt("core.mem.tlb.entries", tlb.entries, 1, 1 << 20,
            "TLB entries");
    bindInt("core.mem.tlb.assoc", tlb.assoc, 1, 128,
            "TLB associativity");
    bindU64("core.mem.tlb.page_bytes", tlb.pageBytes, 256,
            std::uint64_t{1} << 30, "page size in bytes");
    bindInt("core.mem.tlb.walk_latency", tlb.walkLatency, 0, 100000,
            "table-walk latency in cycles");

    bindInt("core.mem.dram_latency", mem.dramLatency, 1, 100000,
            "DRAM access latency in cycles");
    bindInt("core.mem.dram_service_gap", mem.dramServiceGap, 0, 100000,
            "min cycles between serviced DRAM requests");

    bindInt("core.bht.entries", core.bht.entries, 1, 1 << 26,
            "branch-history-table 2-bit counters");

    FameParams &fame = config_.fame;
    bindU64("fame.min_repetitions", fame.minRepetitions, 1,
            std::uint64_t{1} << 32,
            "minimum complete executions per thread");
    bindDouble("fame.maiv", fame.maiv, 1e-6, 1.0,
               "maximum allowable IPC variation");
    bindU64("fame.warmup_repetitions", fame.warmupRepetitions, 0,
            std::uint64_t{1} << 32,
            "warm-up repetitions before the measurement window");
    bindDouble("fame.warmup_tolerance", fame.warmupTolerance, 1e-6, 10.0,
               "per-repetition IPC change below which warm-up ends");
    bindU64("fame.max_cycles", fame.maxCycles, 1000,
            std::uint64_t{1} << 40, "hard cycle guard");
    bindU64("fame.check_period", fame.checkPeriod, 1,
            std::uint64_t{1} << 32,
            "simulation chunk between convergence checks");

    bindInt("chip.num_cores", config_.numCores, 1, max_cores,
            "SMT cores per chip in chip-level studies");

    SchedParams &sched = config_.sched;
    {
        Field f;
        f.path = "sched.policy";
        f.help = "allocation policy: 'pinned', 'random' or 'symbiosis'";
        AllocPolicy *p = &sched.policy;
        const std::string path = f.path;
        f.get = [p] { return std::string(allocPolicyName(*p)); };
        f.set = [p](const std::string &value) {
            *p = allocPolicyFromName(value);
        };
        f.writeValue = [p](JsonWriter &w) {
            w.value(allocPolicyName(*p));
        };
        f.setFromJson = [p, path](const JsonValue &v) {
            if (!v.isString())
                fatal("config key '%s' expects a JSON string",
                      path.c_str());
            *p = allocPolicyFromName(v.asString());
        };
        fields_.push_back(std::move(f));
    }
    bindU64("sched.quantum", sched.quantum, 256,
            std::uint64_t{1} << 32, "cycles between allocation decisions");
    bindInt("sched.history_quanta", sched.historyQuanta, 1, 64,
            "per-thread counter samples the allocator may look back over");

    bindTrace("workload.trace", "workload.trace_fingerprint",
              config_.workloadTrace, config_.workloadTraceFp,
              "trace file replayed as the primary thread's workload "
              "('' = synthetic generator)");
    bindTrace("workload.trace_secondary",
              "workload.trace_secondary_fingerprint",
              config_.workloadTraceSecondary,
              config_.workloadTraceSecondaryFp,
              "trace file replayed as the secondary thread's workload "
              "('' = synthetic generator)");

    bindDouble("exp.ubench_scale", config_.ubenchScale, 0.001, 1000.0,
               "work multiplier per micro-benchmark repetition");
    bindU64("exp.seed", config_.seed, 0,
            ~std::uint64_t{0},
            "master seed folded into the config fingerprint");
    bindUnsigned("exp.jobs", config_.jobs, 0, 1024,
                 "simulation worker threads (0 = hardware concurrency)",
                 /*identity=*/false);
    {
        // Benchmark selection: "presented" (the paper's six), "all"
        // (all fifteen), or a comma-separated list of paper names.
        // Execution-only: it selects which jobs run, never how one
        // simulates, so it stays out of the fingerprint.
        Field f;
        f.path = "exp.benchmarks";
        f.help = "'presented', 'all', or comma-separated paper names";
        f.identity = false;
        std::vector<UbenchId> *p = &config_.benchmarks;
        const std::string path = f.path;
        auto render = [p]() -> std::string {
            if (*p == presentedUbench())
                return "presented";
            if (*p == allUbench())
                return "all";
            std::string out;
            for (std::size_t i = 0; i < p->size(); ++i) {
                if (i)
                    out += ',';
                out += ubenchName((*p)[i]);
            }
            return out;
        };
        auto assign = [p, path](const std::string &value) {
            if (value == "presented") {
                *p = presentedUbench();
                return;
            }
            if (value == "all") {
                *p = allUbench();
                return;
            }
            if (value.empty())
                fatal("config key '%s' must name at least one "
                      "benchmark", path.c_str());
            std::vector<UbenchId> ids;
            for (const std::string &name : splitPath(value, ','))
                ids.push_back(ubenchFromName(name));
            *p = std::move(ids);
        };
        f.get = render;
        f.set = assign;
        f.writeValue = [render](JsonWriter &w) { w.value(render()); };
        f.setFromJson = [assign, path](const JsonValue &v) {
            if (!v.isString())
                fatal("config key '%s' expects a JSON string",
                      path.c_str());
            assign(v.asString());
        };
        fields_.push_back(std::move(f));
    }
}

// --- field access ------------------------------------------------------

std::vector<std::string>
ConfigTree::paths() const
{
    std::vector<std::string> out;
    out.reserve(fields_.size());
    for (const Field &f : fields_)
        out.push_back(f.path);
    return out;
}

bool
ConfigTree::has(const std::string &path) const
{
    return findField(path) != nullptr;
}

const ConfigTree::Field *
ConfigTree::findField(const std::string &path) const
{
    for (const Field &f : fields_)
        if (f.path == path)
            return &f;
    return nullptr;
}

const ConfigTree::Field &
ConfigTree::requireField(const std::string &path) const
{
    const Field *f = findField(path);
    if (!f) {
        const std::string near = suggest(path);
        if (near.empty())
            fatal("unknown config key '%s'", path.c_str());
        fatal("unknown config key '%s'; did you mean '%s'?",
              path.c_str(), near.c_str());
    }
    return *f;
}

std::string
ConfigTree::get(const std::string &path) const
{
    return requireField(path).get();
}

void
ConfigTree::set(const std::string &path, const std::string &value)
{
    requireField(path).set(value);
}

void
ConfigTree::applyOverride(const std::string &assignment)
{
    const auto eq = assignment.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("--set expects key=value, got '%s'", assignment.c_str());
    set(assignment.substr(0, eq), assignment.substr(eq + 1));
}

std::string
ConfigTree::suggest(const std::string &path) const
{
    std::string best;
    std::size_t best_dist = ~std::size_t{0};
    for (const Field &f : fields_) {
        const std::size_t d = editDistance(path, f.path);
        if (d < best_dist) {
            best_dist = d;
            best = f.path;
        }
    }
    return best;
}

std::string
ConfigTree::help(const std::string &path) const
{
    return requireField(path).help;
}

// --- JSON --------------------------------------------------------------

void
ConfigTree::save(JsonWriter &w) const
{
    // Fields are declared grouped by object prefix, so emitting them in
    // order while tracking the open-object stack yields one nested
    // object per dotted component without ever reopening a key.
    std::vector<std::string> open;
    w.beginObject();
    for (const Field &f : fields_) {
        std::vector<std::string> comps = splitPath(f.path, '.');
        const std::string leaf = comps.back();
        comps.pop_back();

        std::size_t common = 0;
        while (common < open.size() && common < comps.size() &&
               open[common] == comps[common])
            ++common;
        while (open.size() > common) {
            w.endObject();
            open.pop_back();
        }
        while (open.size() < comps.size()) {
            w.key(comps[open.size()]);
            w.beginObject();
            open.push_back(comps[open.size()]);
        }
        w.key(leaf);
        f.writeValue(w);
    }
    while (!open.empty()) {
        w.endObject();
        open.pop_back();
    }
    w.endObject();
}

std::string
ConfigTree::saveString() const
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        save(w);
    }
    return os.str();
}

void
ConfigTree::saveFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write config file '%s'", path.c_str());
    os << saveString();
}

void
ConfigTree::loadObject(const JsonValue &node, const std::string &prefix)
{
    for (const JsonValue::Member &m : node.members()) {
        const std::string path =
            prefix.empty() ? m.first : prefix + "." + m.first;
        if (m.second.isObject()) {
            loadObject(m.second, path);
            continue;
        }
        requireField(path).setFromJson(m.second);
    }
}

void
ConfigTree::load(const JsonValue &root)
{
    if (!root.isObject())
        fatal("config document must be a JSON object");
    loadObject(root, "");
}

void
ConfigTree::loadString(const std::string &text, const std::string &where)
{
    load(parseJson(text, where));
}

void
ConfigTree::loadFile(const std::string &path)
{
    load(parseJsonFile(path));
}

// --- identity ----------------------------------------------------------

std::string
ConfigTree::canonical() const
{
    std::string out = "p5sim-config schema=" +
                      std::to_string(config_schema_version) + "\n";
    for (const Field &f : fields_) {
        if (!f.identity)
            continue;
        out += f.path;
        out += '=';
        out += f.get();
        out += '\n';
    }
    return out;
}

std::uint64_t
ConfigTree::fingerprint() const
{
    return hashText(0, canonical());
}

std::string
ConfigTree::fingerprintHex() const
{
    return hex16(fingerprint());
}

namespace {

/**
 * Identity fields that cannot influence the warm-up phase: the
 * measurement-convergence knobs (warm-up ends before they are ever
 * consulted) and the master seed (per-job randomness is measurement
 * provenance; the warm trajectory is a pure function of programs and
 * core geometry). Everything else that is identity is warm identity.
 */
bool
warmExcluded(const std::string &path)
{
    return path == "fame.min_repetitions" || path == "fame.maiv" ||
           path == "exp.seed";
}

} // namespace

std::string
ConfigTree::warmCanonical() const
{
    std::string out = "p5sim-warm schema=" +
                      std::to_string(config_schema_version) + "\n";
    for (const Field &f : fields_) {
        if (!f.identity || warmExcluded(f.path))
            continue;
        out += f.path;
        out += '=';
        out += f.get();
        out += '\n';
    }
    return out;
}

std::uint64_t
ConfigTree::warmFingerprint() const
{
    return hashText(0, warmCanonical());
}

std::string
ConfigTree::warmFingerprintHex() const
{
    return hex16(warmFingerprint());
}

void
ConfigTree::stampTag()
{
    config_.configTag = fingerprintHex();
    config_.warmTag = warmFingerprintHex();
}

void
ConfigTree::validate() const
{
    // Trace path/fingerprint coherence: the fingerprint is derived
    // whenever the path is assigned, so a mismatch means the file
    // changed underneath a keyed config (or the fingerprint was set by
    // hand) — either way the identity is a lie and must not propagate
    // into job keys. Checked before the set(get()) roundtrip below,
    // which re-derives the fingerprint and would mask the mismatch.
    auto checkTrace = [](const char *path_key, const std::string &path,
                         const char *fp_key, const std::string &fp) {
        if (path.empty()) {
            if (!fp.empty())
                fatal("config key '%s' is set but '%s' is empty: a "
                      "trace fingerprint without a trace is "
                      "meaningless", fp_key, path_key);
            return;
        }
        const std::string actual = readTraceHeader(path).fingerprint();
        if (fp != actual)
            fatal("config key '%s' = '%s' does not match trace '%s' "
                  "(fingerprint %s): the file changed since it was "
                  "keyed", fp_key, fp.c_str(), path.c_str(),
                  actual.c_str());
    };
    checkTrace("workload.trace", config_.workloadTrace,
               "workload.trace_fingerprint", config_.workloadTraceFp);
    checkTrace("workload.trace_secondary",
               config_.workloadTraceSecondary,
               "workload.trace_secondary_fingerprint",
               config_.workloadTraceSecondaryFp);
    // Per-field ranges were enforced at set time; re-check them here so
    // a config mutated directly through the structs is covered too.
    for (const Field &f : fields_)
        f.set(f.get());
    // Cross-field invariants.
    config_.core.validate();
    config_.sched.validate();
    if (config_.numCores < 1 || config_.numCores > max_cores)
        fatal("chip.num_cores must be in [1, %d]", max_cores);
    if (config_.fame.maiv <= 0.0)
        fatal("fame.maiv must be positive");
    if (config_.benchmarks.empty())
        fatal("exp.benchmarks must name at least one benchmark");
}

} // namespace p5
