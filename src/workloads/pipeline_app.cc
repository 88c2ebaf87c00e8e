#include "workloads/pipeline_app.hh"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/log.hh"
#include "program/builder.hh"

namespace p5 {

namespace {

constexpr RegIndex rIter = 1;
constexpr RegIndex rT0 = 3;
constexpr RegIndex fA = 32;
constexpr RegIndex fB = 33;
constexpr RegIndex fW = 34; // twiddle factor
constexpr RegIndex fT0 = 35;
constexpr RegIndex fT1 = 36;
constexpr RegIndex fV = 43;

std::uint64_t
scaledIters(std::uint64_t base, double scale)
{
    auto v = static_cast<std::uint64_t>(
        std::llround(static_cast<double>(base) * scale));
    return std::max<std::uint64_t>(1, v);
}

} // namespace

SyntheticProgram
makeFftStage(double scale)
{
    // Radix-2 butterflies: strided loads (bit-reversed order defeats
    // L1, stays in L2), twiddle multiplies and cross-feeding adds.
    ProgramBuilder b("fft_stage");
    int back = b.alwaysTaken();
    constexpr int units = 8;
    b.beginPhase(scaledIters(700, scale));
    for (int s = 0; s < units; ++s) {
        const auto off = static_cast<std::uint64_t>(s) * 128;
        // Sequential butterflies: four consecutive iterations reuse a
        // fetched line before moving on (stride 32 within 128B lines),
        // as a real radix-2 pass over packed doubles does.
        int data = b.memPattern(0, units * 32, 512 * 1024, off);
        int twiddle =
            b.memPattern(1ULL << 28, units * 32, 32 * 1024, off);
        b.load(fV, data);
        b.load(fT0, twiddle);
        b.fpMul(fT1, fV, fW);
        b.fpAlu(fA, fA, fT1);
        b.fpAlu(fB, fB, fT0);
        b.store(data, fA);
        b.intAlu(rT0, rIter);
    }
    b.intAlu(rIter, rIter);
    b.branch(back);
    return b.build();
}

SyntheticProgram
makeLuStage(double scale)
{
    // Column elimination: FP multiply-subtract chains over a panel that
    // fits in L1; latency-bound like cpu_fp (moderate IPC).
    ProgramBuilder b("lu_stage");
    int back = b.alwaysTaken();
    constexpr int units = 12;
    b.beginPhase(scaledIters(180, scale));
    for (int s = 0; s < units; ++s) {
        const auto off = static_cast<std::uint64_t>(s) * 128;
        int panel = b.memPattern(0, units * 32, 16 * 1024, off);
        b.load(fV, panel);
        b.fpMul(fT0, fV, fB);
        b.fpAlu(fA, fA, fT0); // pivot-row accumulation chain
    }
    b.intAlu(rIter, rIter);
    b.branch(back);
    return b.build();
}

PipelineApp::PipelineApp(const PipelineParams &params) : params_(params)
{
    if (params_.iterations <= 0)
        fatal("pipeline needs at least one measured iteration");
    if (!isValidPriority(params_.prioFft) ||
        !isValidPriority(params_.prioLu))
        fatal("pipeline: invalid priorities (%d,%d)", params_.prioFft,
              params_.prioLu);
}

PipelineResult
PipelineApp::runSmt(const CoreParams &core_params,
                    const std::function<void(const SmtCore &)> &inspect)
    const
{
    const SyntheticProgram fft = makeFftStage(params_.scale);
    const SyntheticProgram lu = makeLuStage(params_.scale);

    SmtCore core(core_params);
    core.attachThread(0, &fft, params_.prioFft,
                      PrivilegeLevel::Supervisor);
    core.attachThread(1, &lu, params_.prioLu,
                      PrivilegeLevel::Supervisor);

    PipelineResult res;
    double fft_sum = 0.0;
    double lu_sum = 0.0;
    double iter_sum = 0.0;

    const int total_iters = params_.iterations + 1; // +1 warm-up
    Cycle iter_start = core.cycle();

    for (int iter = 0; iter < total_iters; ++iter) {
        const auto target = static_cast<std::uint64_t>(iter) + 1;
        // Cycle at which each stage reached the barrier (0: not yet).
        std::array<Cycle, num_hw_threads> at{};
        const auto arrived = [&](std::size_t t) {
            return at[t] == 0 &&
                   core.executionsOf(static_cast<ThreadId>(t)) >= target;
        };
        const Cycle guard = core.cycle() + params_.maxCyclesPerIteration;

        while (at[0] == 0 || at[1] == 0) {
            if (!core.runUntil(guard,
                               [&] { return arrived(0) || arrived(1); })) {
                res.hitCycleLimit = true;
                warn("pipeline iteration hit its cycle guard");
                break;
            }
            for (std::size_t t = 0; t < at.size(); ++t)
                if (arrived(t))
                    at[t] = core.cycle();
            // A stage alone at the barrier blocks in MPI send/receive:
            // the kernel idles its hardware thread and the sibling
            // continues in ST mode.
            if ((at[0] == 0) != (at[1] == 0))
                core.setPriorityPair(at[0] ? 0 : params_.prioFft,
                                     at[1] ? 0 : params_.prioLu);
        }

        // Barrier: both stages restart under the configured priorities.
        core.setPriorityPair(params_.prioFft, params_.prioLu);

        const Cycle iter_end = std::max(at[0], at[1]);
        if (iter > 0) { // skip the pipeline-fill iteration
            fft_sum += static_cast<double>(at[0] - iter_start);
            lu_sum += static_cast<double>(at[1] - iter_start);
            iter_sum += static_cast<double>(iter_end - iter_start);
        }
        iter_start = iter_end;
        if (res.hitCycleLimit)
            break;
    }
    if (inspect)
        inspect(core);

    const double n = params_.iterations;
    res.fftCycles = fft_sum / n;
    res.luCycles = lu_sum / n;
    res.iterationCycles = iter_sum / n;
    return res;
}

PipelineResult
PipelineApp::runSingleThread(
    const CoreParams &core_params,
    const std::function<void(const SmtCore &)> &inspect) const
{
    const SyntheticProgram fft = makeFftStage(params_.scale);
    const SyntheticProgram lu = makeLuStage(params_.scale);
    const auto reps = static_cast<std::uint64_t>(params_.iterations);
    const Cycle deadline = (reps + 1) * params_.maxCyclesPerIteration;

    PipelineResult res;

    // Skip the first (cold-cache) execution, like runSmt() skips its
    // pipeline-fill iteration: note where it ends, then run on to the
    // same deadline.
    auto measure = [&](const SyntheticProgram &prog) {
        SmtCore core(core_params);
        core.attachThread(0, &prog, default_priority);
        core.runUntilExecutions(0, 1, deadline);
        const Cycle first = core.lastExecutionCycleOf(0);
        if (!core.runUntilExecutions(0, reps + 1, deadline - core.cycle()))
            res.hitCycleLimit = true;
        if (inspect)
            inspect(core);
        return (static_cast<double>(core.lastExecutionCycleOf(0)) -
                static_cast<double>(first)) /
               static_cast<double>(core.executionsOf(0) - 1);
    };
    res.fftCycles = measure(fft);
    res.luCycles = measure(lu);
    res.iterationCycles = res.fftCycles + res.luCycles;
    return res;
}

} // namespace p5
