/**
 * @file
 * google-benchmark micro-benchmarks of the simulator itself: raw cycle
 * throughput of the core loop under different workloads, the cost of
 * the primitives (cache lookups, slot grants, program materialization,
 * checkpoint save and restore), a forked FAME pair, and job-runner
 * scaling.
 *
 * The end-to-end fast/slow comparisons (FAME pairs and the chip with
 * fast-forward on and off, cold vs forked matrices, trace replay) are
 * `p5sim perf --json=FILE`, which times both arms of each, checks
 * their stats identical and is gated against BENCH_sim_perf.json; the
 * per-stage profile is `p5sim perf --profile-stages`.
 */

#include <benchmark/benchmark.h>

#include "ckpt/ckpt_io.hh"
#include "ckpt/ckpt_manager.hh"
#include "core/smt_core.hh"
#include "fame/fame.hh"
#include "fame/sim_runner.hh"
#include "mem/cache.hh"
#include "prio/slot_allocator.hh"
#include "ubench/ubench.hh"

namespace {

using namespace p5;

void
BM_CacheLookup(benchmark::State &state)
{
    Cache cache(CacheParams{"bench", 32 * 1024, 4, 128, 2, 1});
    Addr addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.lookup(addr));
        addr += 128;
        if (addr >= 64 * 1024)
            addr = 0;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheLookup);

void
BM_SlotGrant(benchmark::State &state)
{
    DecodeSlotAllocator alloc(5, 2);
    alloc.setPriorities(6, 2);
    Cycle c = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(alloc.grantAt(c++));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_SlotGrant);

void
BM_Materialize(benchmark::State &state)
{
    const SyntheticProgram prog = makeUbench(UbenchId::CpuInt);
    SeqNum seq = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(prog.materialize(seq++, 0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_Materialize);

void
coreCycles(benchmark::State &state, UbenchId p, UbenchId s)
{
    const SyntheticProgram pp = makeUbench(p);
    const SyntheticProgram ps = makeUbench(s);
    CoreParams params;
    SmtCore core(params);
    core.attachThread(0, &pp, 4);
    core.attachThread(1, &ps, 4);
    for (auto _ : state)
        core.tick();
    state.SetItemsProcessed(state.iterations());
    state.counters["ipc"] = core.totalIpc();
}

void
BM_CoreCpuPair(benchmark::State &state)
{
    coreCycles(state, UbenchId::CpuInt, UbenchId::CpuInt);
}
BENCHMARK(BM_CoreCpuPair);

void
BM_CoreMemPair(benchmark::State &state)
{
    coreCycles(state, UbenchId::LdintMem, UbenchId::LdintMem);
}
BENCHMARK(BM_CoreMemPair);

void
BM_CoreMixedPair(benchmark::State &state)
{
    coreCycles(state, UbenchId::LdintL1, UbenchId::LdintL2);
}
BENCHMARK(BM_CoreMixedPair);

/** FAME setup of the checkpoint benches (p5sim perf's pair cases). */
FameParams
endToEndFame()
{
    FameParams fame;
    fame.minRepetitions = 5;
    return fame;
}

/**
 * Checkpoint primitives: the cost of snapshotting a warmed core into
 * a byte stream and of rebuilding a fresh core from that stream.
 * Restore is the per-fork overhead every checkpointed priority point
 * pays instead of re-simulating the warm-up, so its wall clock (a few
 * ms for the ~2.6 MB ldint_mem image) against the warm phase of a
 * cold FAME run is the whole economics of the fork engine.
 */
void
BM_CkptSaveState(benchmark::State &state)
{
    const SyntheticProgram pp = makeUbench(UbenchId::LdintMem);
    const SyntheticProgram ps = makeUbench(UbenchId::LdintMem);
    CoreParams params;
    params.fastForward = true;
    SmtCore core(params);
    core.attachThread(0, &pp, canonical_warm_priority);
    core.attachThread(1, &ps, canonical_warm_priority);
    FameRunner runner(endToEndFame());
    runner.runWarmup(core);
    std::size_t bytes = 0;
    for (auto _ : state) {
        CkptWriter w;
        core.saveState(w);
        bytes = w.data().size();
        benchmark::DoNotOptimize(w);
    }
    state.counters["stateBytes"] = static_cast<double>(bytes);
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(bytes));
}
BENCHMARK(BM_CkptSaveState)->Unit(benchmark::kMillisecond);

void
BM_CkptRestoreState(benchmark::State &state)
{
    const SyntheticProgram pp = makeUbench(UbenchId::LdintMem);
    const SyntheticProgram ps = makeUbench(UbenchId::LdintMem);
    CoreParams params;
    params.fastForward = true;
    SmtCore warm_core(params);
    warm_core.attachThread(0, &pp, canonical_warm_priority);
    warm_core.attachThread(1, &ps, canonical_warm_priority);
    FameRunner runner(endToEndFame());
    runner.runWarmup(warm_core);
    CkptWriter w;
    warm_core.saveState(w);
    const std::vector<std::uint8_t> image = w.data();
    for (auto _ : state) {
        SmtCore core(params);
        core.attachThread(0, &pp, canonical_warm_priority);
        core.attachThread(1, &ps, canonical_warm_priority);
        CkptReader r(image);
        core.restoreState(r);
        r.expectEnd();
        benchmark::DoNotOptimize(core);
    }
    state.SetBytesProcessed(state.iterations() *
                            static_cast<std::int64_t>(image.size()));
}
BENCHMARK(BM_CkptRestoreState)->Unit(benchmark::kMillisecond);

/**
 * A forked ldint_mem pair at a skewed priority: a warm image is
 * created once outside the timed loop, so each iteration is restore +
 * measure — what every priority point after the first costs under
 * `--checkpoint-dir` (a cold run re-simulates the warm-up each time;
 * `p5sim perf`'s ckpt case times the two against each other).
 */
void
BM_FameMemPairForked(benchmark::State &state)
{
    const SyntheticProgram pp = makeUbench(UbenchId::LdintMem);
    const SyntheticProgram ps = makeUbench(UbenchId::LdintMem);
    CoreParams core;
    core.fastForward = true;
    const FameParams fame = endToEndFame();
    CkptManager ckpts;
    const char *key = "bench:ckpt:ldint_mem+ldint_mem";
    runFame(core, &pp, &ps, 4, 4, fame, &ckpts, key); // warms once
    std::uint64_t sim_cycles = 0;
    for (auto _ : state) {
        FameResult res = runFame(core, &pp, &ps, 6, 2, fame, &ckpts,
                                 key);
        sim_cycles = res.totalCycles;
        benchmark::DoNotOptimize(res);
    }
    state.counters["simCycles"] = static_cast<double>(sim_cycles);
    state.counters["forks"] = static_cast<double>(ckpts.memForks());
}
BENCHMARK(BM_FameMemPairForked)->Unit(benchmark::kMillisecond);

/**
 * Parallel-runner scaling: a fixed batch of 8 distinct fast FAME jobs
 * executed with jobs=1,2,4,8 workers. A fresh private cache per
 * iteration forces every job to actually simulate, so the reported
 * time tracks runner speedup (and regressions) on the host.
 */
void
BM_RunnerScaling(benchmark::State &state)
{
    const unsigned workers = static_cast<unsigned>(state.range(0));

    FameParams fame;
    fame.minRepetitions = 3;
    fame.warmupRepetitions = 1;
    fame.maiv = 0.05;
    fame.warmupTolerance = 0.25;
    CoreParams core;

    const UbenchId partners[4] = {UbenchId::CpuInt, UbenchId::LdintL1,
                                  UbenchId::LdintL2, UbenchId::CpuFp};
    std::vector<SimJob> batch;
    for (int prio = 3; prio <= 4; ++prio)
        for (UbenchId partner : partners)
            batch.push_back(SimJob::famePair(
                ProgramSpec::ubench(UbenchId::CpuInt, 0.5),
                ProgramSpec::ubench(partner, 0.5), prio,
                default_priority, core, fame));

    for (auto _ : state) {
        ResultCache cache;
        SimRunner runner(workers, &cache);
        auto results = runner.run(batch);
        benchmark::DoNotOptimize(results);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(batch.size()));
    state.counters["workers"] = workers;
}
BENCHMARK(BM_RunnerScaling)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
