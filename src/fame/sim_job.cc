#include "fame/sim_job.hh"

#include <cstdio>

#include "common/log.hh"
#include "common/rng.hh"
#include "program/trace.hh"
#include "sched/alloc_engine.hh"
#include "sched/workload.hh"

namespace p5 {

namespace {

/** Append "name=value;" with doubles rendered exactly (%.17g). */
void
kv(std::string &out, const char *name, double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s=%.17g;", name, v);
    out += buf;
}

void
kv(std::string &out, const char *name, std::uint64_t v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s=%llu;", name,
                  static_cast<unsigned long long>(v));
    out += buf;
}

void
kv(std::string &out, const char *name, int v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%s=%d;", name, v);
    out += buf;
}

void
kv(std::string &out, const char *name, bool v)
{
    out += name;
    out += v ? "=1;" : "=0;";
}

void
appendKey(std::string &out, const CacheParams &p)
{
    kv(out, "size", static_cast<std::uint64_t>(p.sizeBytes));
    kv(out, "assoc", p.assoc);
    kv(out, "line", p.lineBytes);
    kv(out, "hit", p.hitLatency);
    kv(out, "gap", p.serviceGap);
}

void
appendKey(std::string &out, const CoreParams &p)
{
    kv(out, "coreId", p.coreId);
    kv(out, "decodeWidth", p.decodeWidth);
    kv(out, "minoritySlotWidth", p.minoritySlotWidth);
    kv(out, "groupSize", p.groupSize);
    kv(out, "gctGroups", p.gctGroups);
    for (int i = 0; i < static_cast<int>(FuClass::NumFuClasses); ++i)
        kv(out, "fu", p.fuCount[i]);
    kv(out, "lmqEntries", p.lmqEntries);
    kv(out, "mispredict", p.mispredictPenalty);
    kv(out, "workConserving", p.workConservingSlots);
    kv(out, "asidShift", p.asidShift);
    kv(out, "prioWalker", p.priorityAwareWalker);
    kv(out, "walkerPortGap", p.walkerPortGap);
    // Part of the key although stats are bit-identical either way:
    // cached results must record exactly how they were produced.
    kv(out, "fastForward", p.fastForward);

    const BalancerParams &b = p.balancer;
    kv(out, "balEnabled", b.enabled);
    kv(out, "balGctShare", b.gctShareThreshold);
    kv(out, "balPrioGct", b.priorityAwareGct);
    kv(out, "balMinShare", b.minGctShareThreshold);
    kv(out, "balMaxShare", b.maxGctShareThreshold);
    kv(out, "balPrioLmq", b.priorityAwareLmq);
    kv(out, "balMinGroups", b.minGctGroups);
    kv(out, "balLmqThresh", b.lmqThreshold);
    kv(out, "balTlbBlock", b.blockOnTlbMiss);
    kv(out, "balAction", static_cast<int>(b.action));

    out += "l1d{";
    appendKey(out, p.mem.l1d);
    out += "}l2{";
    appendKey(out, p.mem.l2);
    out += "}l3{";
    appendKey(out, p.mem.l3);
    out += "}";
    kv(out, "tlbEntries", p.mem.tlb.entries);
    kv(out, "tlbAssoc", p.mem.tlb.assoc);
    kv(out, "tlbPage", static_cast<std::uint64_t>(p.mem.tlb.pageBytes));
    kv(out, "tlbWalk", p.mem.tlb.walkLatency);
    kv(out, "dramLat", p.mem.dramLatency);
    kv(out, "dramGap", p.mem.dramServiceGap);
    kv(out, "bhtEntries", p.bht.entries);
}

void
appendKey(std::string &out, const FameParams &p)
{
    kv(out, "minReps", p.minRepetitions);
    kv(out, "maiv", p.maiv);
    kv(out, "warmReps", p.warmupRepetitions);
    kv(out, "warmTol", p.warmupTolerance);
    kv(out, "maxCycles", static_cast<std::uint64_t>(p.maxCycles));
    kv(out, "checkPeriod", static_cast<std::uint64_t>(p.checkPeriod));
}

void
appendKey(std::string &out, const SchedParams &p)
{
    out += "policy=";
    out += allocPolicyName(p.policy);
    out += ";";
    kv(out, "quantum", static_cast<std::uint64_t>(p.quantum));
    kv(out, "historyQuanta", p.historyQuanta);
}

void
appendKey(std::string &out, const PipelineParams &p)
{
    kv(out, "prioFft", p.prioFft);
    kv(out, "prioLu", p.prioLu);
    kv(out, "iterations", p.iterations);
    kv(out, "scale", p.scale);
    kv(out, "maxIterCycles",
       static_cast<std::uint64_t>(p.maxCyclesPerIteration));
}

} // namespace

ProgramSpec
ProgramSpec::ubench(UbenchId id, double scale)
{
    ProgramSpec s;
    s.kind = Kind::Ubench;
    s.id = static_cast<int>(id);
    s.scale = scale;
    return s;
}

ProgramSpec
ProgramSpec::spec(SpecProxyId id, double scale)
{
    ProgramSpec s;
    s.kind = Kind::SpecProxy;
    s.id = static_cast<int>(id);
    s.scale = scale;
    return s;
}

ProgramSpec
ProgramSpec::trace(const std::string &path)
{
    const TraceHeader h = readTraceHeader(path);
    ProgramSpec s;
    s.kind = Kind::Trace;
    s.tracePath = path;
    s.traceFingerprint = h.fingerprint();
    s.traceName = h.name;
    return s;
}

std::unique_ptr<InstrSource>
ProgramSpec::build() const
{
    switch (kind) {
      case Kind::Ubench:
        return std::make_unique<SyntheticProgram>(
            makeUbench(static_cast<UbenchId>(id), scale));
      case Kind::SpecProxy:
        return std::make_unique<SyntheticProgram>(
            makeSpecProxy(static_cast<SpecProxyId>(id), scale));
      case Kind::Trace: {
        std::unique_ptr<TraceProgram> prog = loadTrace(tracePath);
        // A swapped file under the same path must not impersonate the
        // identity this spec (and any cached result) was keyed under.
        if (prog->header().fingerprint() != traceFingerprint)
            fatal("trace '%s' changed since it was keyed "
                  "(fingerprint %s, expected %s)",
                  tracePath.c_str(),
                  prog->header().fingerprint().c_str(),
                  traceFingerprint.c_str());
        return prog;
      }
      case Kind::None:
        break;
    }
    fatal("ProgramSpec::build on an absent program");
}

std::string
ProgramSpec::key() const
{
    std::string out;
    switch (kind) {
      case Kind::None:
        return "none";
      case Kind::Ubench:
        out = "ub:";
        break;
      case Kind::SpecProxy:
        out = "spec:";
        break;
      case Kind::Trace:
        // The content fingerprint alone: the path is a location, not
        // an identity.
        return "trace:fp=" + traceFingerprint + ";";
    }
    kv(out, "id", id);
    kv(out, "scale", scale);
    return out;
}

SimJob
SimJob::fameSingle(ProgramSpec prog, const CoreParams &core,
                   const FameParams &fame, int prio)
{
    SimJob job;
    job.kind = SimJobKind::FamePair;
    job.primary = prog;
    job.secondary = ProgramSpec::none();
    job.prioPrimary = prio;
    job.prioSecondary = 0;
    job.core = core;
    job.fame = fame;
    return job;
}

SimJob
SimJob::famePair(ProgramSpec prog_p, ProgramSpec prog_s, int prio_p,
                 int prio_s, const CoreParams &core, const FameParams &fame)
{
    SimJob job;
    job.kind = SimJobKind::FamePair;
    job.primary = prog_p;
    job.secondary = prog_s;
    job.prioPrimary = prio_p;
    job.prioSecondary = prio_s;
    job.core = core;
    job.fame = fame;
    return job;
}

SimJob
SimJob::pipelineSingleThread(const PipelineParams &pipeline,
                             const CoreParams &core)
{
    SimJob job;
    job.kind = SimJobKind::PipelineSingleThread;
    job.pipeline = pipeline;
    job.core = core;
    return job;
}

SimJob
SimJob::pipelineSmt(const PipelineParams &pipeline, const CoreParams &core)
{
    SimJob job;
    job.kind = SimJobKind::PipelineSmt;
    job.pipeline = pipeline;
    job.core = core;
    return job;
}

SimJob
SimJob::allocMix(std::vector<ProgramSpec> mix, const SchedParams &sched,
                 int num_cores, Cycle cycles, const CoreParams &core)
{
    SimJob job;
    job.kind = SimJobKind::AllocMix;
    job.mix = std::move(mix);
    job.sched = sched;
    job.numCores = num_cores;
    job.allocCycles = cycles;
    job.core = core;
    return job;
}

std::string
SimJob::key() const
{
    std::string out;
    switch (kind) {
      case SimJobKind::FamePair:
        out = "fame|p{" + primary.key() + "}s{" + secondary.key() + "}";
        kv(out, "prioP", prioPrimary);
        kv(out, "prioS", prioSecondary);
        out += "fame{";
        appendKey(out, fame);
        out += "}";
        break;
      case SimJobKind::PipelineSingleThread:
      case SimJobKind::PipelineSmt:
        out = kind == SimJobKind::PipelineSmt ? "pipe-smt|" : "pipe-st|";
        out += "pipe{";
        appendKey(out, pipeline);
        out += "}";
        break;
      case SimJobKind::AllocMix:
        out = "alloc|mix{";
        for (const ProgramSpec &spec : mix) {
            out += spec.key();
            out += "|";
        }
        out += "}sched{";
        appendKey(out, sched);
        out += "}";
        kv(out, "numCores", numCores);
        kv(out, "cycles", static_cast<std::uint64_t>(allocCycles));
        break;
    }
    out += "core{";
    appendKey(out, core);
    out += "}";
    if (!configTag.empty()) {
        out += "cfg{";
        out += configTag;
        out += "}";
    }
    return out;
}

std::string
SimJob::warmKey() const
{
    if (kind != SimJobKind::FamePair)
        fatal("warmKey() on a non-FAME job");
    // Mirrors key()'s FamePair arm minus the priority pair and the
    // measurement-only FAME knobs: exactly the inputs the warm-up
    // trajectory depends on under the canonical-warm protocol.
    std::string out =
        "warm|p{" + primary.key() + "}s{" + secondary.key() + "}";
    kv(out, "warmPrio", canonical_warm_priority);
    out += "fame-warm{";
    kv(out, "warmReps", fame.warmupRepetitions);
    kv(out, "warmTol", fame.warmupTolerance);
    kv(out, "maxCycles", static_cast<std::uint64_t>(fame.maxCycles));
    kv(out, "checkPeriod", static_cast<std::uint64_t>(fame.checkPeriod));
    out += "}core{";
    appendKey(out, core);
    out += "}";
    if (!warmTag.empty()) {
        out += "wcfg{";
        out += warmTag;
        out += "}";
    }
    return out;
}

std::uint64_t
SimJob::rngSeed() const
{
    // SplitMix64 chain over the canonical key, so the seed is a pure
    // function of the simulated configuration.
    return hashText(0, key());
}

SimResult
SimJob::execute(CkptManager *ckpts) const
{
    SimResult res;
    res.kind = kind;
    res.rngSeed = rngSeed();

    switch (kind) {
      case SimJobKind::FamePair: {
        const std::string warm_key = ckpts ? warmKey() : std::string();
        const std::unique_ptr<InstrSource> prog_p = primary.build();
        const std::unique_ptr<InstrSource> prog_s =
            secondary.present() ? secondary.build() : nullptr;
        res.fame = runFame(core, prog_p.get(), prog_s.get(), prioPrimary,
                           prioSecondary, fame, ckpts, warm_key);
        break;
      }
      case SimJobKind::PipelineSingleThread: {
        PipelineApp app(pipeline);
        res.pipeline = app.runSingleThread(core);
        break;
      }
      case SimJobKind::PipelineSmt: {
        PipelineApp app(pipeline);
        res.pipeline = app.runSmt(core);
        break;
      }
      case SimJobKind::AllocMix: {
        Workload workload;
        for (const ProgramSpec &spec : mix)
            workload.add(spec);
        ChipParams cp;
        cp.numCores = numCores;
        cp.core = core;
        Chip chip(cp);
        AllocEngine engine(chip, workload, sched, rngSeed());
        res.alloc = engine.run(allocCycles);
        break;
      }
    }
    return res;
}

} // namespace p5
