/**
 * @file
 * Experiment producers, job-based: every producer *enumerates* the
 * simulations its table/figure needs as SimJobs, submits them as one
 * batch to a SimRunner (parallel across ExpConfig::jobs workers), and
 * assembles the returned results. No simulation runs inline here, and
 * identical configurations — across producers or within a batch — are
 * coalesced by the runner's keyed result cache.
 */

#include "exp/experiments.hh"

#include "common/log.hh"
#include "fame/sim_runner.hh"

namespace p5 {

ExpConfig
ExpConfig::fast()
{
    ExpConfig c;
    c.fame.minRepetitions = 3;
    c.fame.warmupRepetitions = 1;
    c.fame.maiv = 0.05;
    c.fame.warmupTolerance = 0.25;
    c.ubenchScale = 0.5;
    c.benchmarks = {UbenchId::CpuInt, UbenchId::LdintMem};
    return c;
}

std::pair<int, int>
prioPairForDiff(int diff)
{
    if (diff == 0)
        return {default_priority, default_priority};
    const int mag = diff > 0 ? diff : -diff;
    if (mag > 5)
        fatal("priority difference %d out of range", diff);
    // +1 -> (5,4); larger differences pin the high side at 6 and walk
    // the low side down to 1, all within the supervisor range.
    const int high = mag == 1 ? 5 : 6;
    const int low = high - mag;
    return diff > 0 ? std::make_pair(high, low)
                    : std::make_pair(low, high);
}

namespace {

SimRunner
makeRunner(const ExpConfig &config)
{
    SimRunner runner(config.jobs, config.cache);
    runner.setCheckpoints(config.checkpoints);
    return runner;
}

ProgramSpec
ubSpec(const ExpConfig &config, UbenchId id)
{
    return ProgramSpec::ubench(id, config.ubenchScale);
}

/** Single-thread job for one micro-benchmark at default priority. */
SimJob
stJob(const ExpConfig &config, UbenchId id)
{
    SimJob job = SimJob::fameSingle(ubSpec(config, id), config.core,
                                    config.fame);
    job.configTag = config.configTag;
    job.warmTag = config.warmTag;
    return job;
}

/** Two-thread job for a micro-benchmark pair under (prio_p, prio_s). */
SimJob
pairJob(const ExpConfig &config, UbenchId p, UbenchId s, int prio_p,
        int prio_s)
{
    SimJob job = SimJob::famePair(ubSpec(config, p), ubSpec(config, s),
                                  prio_p, prio_s, config.core,
                                  config.fame);
    job.configTag = config.configTag;
    job.warmTag = config.warmTag;
    return job;
}

} // namespace

Table3Data
runTable3(const ExpConfig &config)
{
    Table3Data data;
    data.benchmarks = config.benchmarks;
    const std::size_t n = data.benchmarks.size();

    // Job layout: [0, n) ST runs, then the n x n (4,4) pair matrix.
    std::vector<SimJob> jobs;
    jobs.reserve(n + n * n);
    for (std::size_t i = 0; i < n; ++i)
        jobs.push_back(stJob(config, data.benchmarks[i]));
    for (std::size_t i = 0; i < n; ++i)
        for (std::size_t j = 0; j < n; ++j)
            jobs.push_back(pairJob(config, data.benchmarks[i],
                                   data.benchmarks[j], default_priority,
                                   default_priority));

    SimRunner runner = makeRunner(config);
    const std::vector<SimResult> res = runner.run(jobs);

    for (std::size_t i = 0; i < n; ++i)
        data.stIpc.push_back(res[i].fame.thread[0].avgIpc());

    data.pt.assign(n, std::vector<double>(n, 0.0));
    data.tt.assign(n, std::vector<double>(n, 0.0));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const FameResult &r = res[n + i * n + j].fame;
            data.pt[i][j] = r.thread[0].avgIpc();
            data.tt[i][j] = r.totalIpc();
        }
    }
    return data;
}

namespace {

PrioCurveData
runPrioCurve(const ExpConfig &config, const std::vector<int> &diffs)
{
    PrioCurveData data;
    data.benchmarks = config.benchmarks;
    data.diffs = diffs;
    const std::size_t n = data.benchmarks.size();
    const std::size_t nd = diffs.size();

    // Per (i, j): the (4,4) baseline followed by one job per diff.
    std::vector<SimJob> jobs;
    jobs.reserve(n * n * (1 + nd));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            jobs.push_back(pairJob(config, data.benchmarks[i],
                                   data.benchmarks[j], default_priority,
                                   default_priority));
            for (int d : diffs) {
                auto [pp, ps] = prioPairForDiff(d);
                jobs.push_back(pairJob(config, data.benchmarks[i],
                                       data.benchmarks[j], pp, ps));
            }
        }
    }

    SimRunner runner = makeRunner(config);
    const std::vector<SimResult> res = runner.run(jobs);

    data.rel.assign(n, std::vector<std::vector<double>>(
                           n, std::vector<double>(nd, 0.0)));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const std::size_t block = (i * n + j) * (1 + nd);
            const double base_time =
                res[block].fame.thread[0].avgExecTime();
            for (std::size_t d = 0; d < nd; ++d) {
                const double t =
                    res[block + 1 + d].fame.thread[0].avgExecTime();
                data.rel[i][j][d] = t > 0.0 ? base_time / t : 0.0;
            }
        }
    }
    return data;
}

} // namespace

PrioCurveData
runFig2(const ExpConfig &config)
{
    return runPrioCurve(config, {1, 2, 3, 4, 5});
}

PrioCurveData
runFig3(const ExpConfig &config)
{
    return runPrioCurve(config, {-1, -2, -3, -4, -5});
}

ThroughputData
runFig4(const ExpConfig &config)
{
    ThroughputData data;
    data.benchmarks = config.benchmarks;
    data.diffs = {-4, -3, -2, -1, 0, 1, 2, 3, 4};
    const std::size_t n = data.benchmarks.size();
    const std::size_t nd = data.diffs.size();

    // Layout: n ST runs, then per (i, j) the (4,4) baseline followed by
    // one job per *non-zero* diff (diff 0 is the baseline itself).
    std::vector<SimJob> jobs;
    jobs.reserve(n + n * n * nd);
    for (std::size_t i = 0; i < n; ++i)
        jobs.push_back(stJob(config, data.benchmarks[i]));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            jobs.push_back(pairJob(config, data.benchmarks[i],
                                   data.benchmarks[j], default_priority,
                                   default_priority));
            for (int d : data.diffs) {
                if (d == 0)
                    continue;
                auto [pp, ps] = prioPairForDiff(d);
                jobs.push_back(pairJob(config, data.benchmarks[i],
                                       data.benchmarks[j], pp, ps));
            }
        }
    }

    SimRunner runner = makeRunner(config);
    const std::vector<SimResult> res = runner.run(jobs);

    for (std::size_t i = 0; i < n; ++i)
        data.stIpc.push_back(res[i].fame.thread[0].avgIpc());

    data.ratio.assign(n, std::vector<std::vector<double>>(
                             n, std::vector<double>(nd, 0.0)));
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            const std::size_t block = n + (i * n + j) * nd;
            const double base_tt = res[block].fame.totalIpc();
            std::size_t next = block + 1;
            for (std::size_t d = 0; d < nd; ++d) {
                if (data.diffs[d] == 0) {
                    data.ratio[i][j][d] = 1.0;
                    continue;
                }
                const double tt = res[next++].fame.totalIpc();
                data.ratio[i][j][d] =
                    base_tt > 0.0 ? tt / base_tt : 0.0;
            }
        }
    }
    return data;
}

std::vector<CaseStudyData>
runFig5(const std::vector<std::pair<SpecProxyId, SpecProxyId>> &pairs,
        const ExpConfig &config)
{
    // Layout: one run of diffs per pair, pairs in the given order.
    std::vector<CaseStudyData> data(pairs.size());
    std::vector<SimJob> jobs;
    for (std::size_t i = 0; i < pairs.size(); ++i) {
        CaseStudyData &d = data[i];
        d.primary = pairs[i].first;
        d.secondary = pairs[i].second;
        d.diffs = {0, 1, 2, 3, 4, 5};

        const ProgramSpec p =
            ProgramSpec::spec(d.primary, config.ubenchScale);
        const ProgramSpec s =
            ProgramSpec::spec(d.secondary, config.ubenchScale);
        for (int diff : d.diffs) {
            auto [pp, ps] = prioPairForDiff(diff);
            SimJob job =
                SimJob::famePair(p, s, pp, ps, config.core, config.fame);
            job.configTag = config.configTag;
            job.warmTag = config.warmTag;
            jobs.push_back(std::move(job));
        }
    }

    SimRunner runner = makeRunner(config);
    const std::vector<SimResult> res = runner.run(jobs);

    std::size_t next = 0;
    for (CaseStudyData &d : data) {
        for (std::size_t k = 0; k < d.diffs.size(); ++k) {
            const FameResult &r = res[next++].fame;
            d.ipcPrimary.push_back(r.thread[0].avgIpc());
            d.ipcSecondary.push_back(r.thread[1].avgIpc());
            d.ipcTotal.push_back(r.totalIpc());
        }
    }
    return data;
}

CaseStudyData
runFig5(SpecProxyId primary, SpecProxyId secondary,
        const ExpConfig &config)
{
    return runFig5({{primary, secondary}}, config).front();
}

Table4Data
runTable4(const ExpConfig &config)
{
    Table4Data data;

    const std::vector<std::pair<int, int>> prio_rows = {
        {4, 4}, {5, 4}, {6, 4}, {6, 3}};

    // Layout: the single-thread reference, then one SMT job per row.
    std::vector<SimJob> jobs;
    {
        PipelineParams pp;
        pp.scale = config.ubenchScale;
        SimJob job = SimJob::pipelineSingleThread(pp, config.core);
        job.configTag = config.configTag;
        jobs.push_back(std::move(job));
    }
    for (auto [pf, pl] : prio_rows) {
        PipelineParams pp;
        pp.prioFft = pf;
        pp.prioLu = pl;
        pp.scale = config.ubenchScale;
        SimJob job = SimJob::pipelineSmt(pp, config.core);
        job.configTag = config.configTag;
        jobs.push_back(std::move(job));
    }

    SimRunner runner = makeRunner(config);
    const std::vector<SimResult> res = runner.run(jobs);

    {
        Table4Row row;
        row.singleThread = true;
        row.fftCycles = res[0].pipeline.fftCycles;
        row.luCycles = res[0].pipeline.luCycles;
        row.iterationCycles = res[0].pipeline.iterationCycles;
        data.rows.push_back(row);
    }
    for (std::size_t i = 0; i < prio_rows.size(); ++i) {
        const PipelineResult &r = res[1 + i].pipeline;
        Table4Row row;
        row.prioFft = prio_rows[i].first;
        row.prioLu = prio_rows[i].second;
        row.fftCycles = r.fftCycles;
        row.luCycles = r.luCycles;
        row.iterationCycles = r.iterationCycles;
        data.rows.push_back(row);
    }
    return data;
}

TransparencyData
runFig6(const ExpConfig &config)
{
    TransparencyData data;
    data.foregrounds = config.benchmarks;
    data.backgrounds = config.benchmarks;
    data.panelCPriorities = {6, 5, 4, 3, 2};
    data.panelCForegrounds = {UbenchId::LdintL2, UbenchId::CpuFp,
                              UbenchId::LngChainCpuint,
                              UbenchId::LdintMem};

    const std::size_t nf = data.foregrounds.size();
    const std::size_t nb = data.backgrounds.size();
    const std::size_t np = data.panelCPriorities.size();
    const std::size_t nc = data.panelCForegrounds.size();

    // Layout:
    //   [0, nf)                       ST baselines of the foregrounds
    //   nf + (p*nf + f)*nb + b        (fg f, bg b) at fg prio
    //                                 panelCPriorities[p], bg prio 1
    //                                 (panels a/b read p = 0/1, panel d
    //                                 reads all p)
    //   cst + f                       panel (c) ST baselines
    //   cpair + p*nc + f              panel (c) fg vs ldint_mem runs
    // The shared keyed cache coalesces any panel-(c) job that also
    // appears in the main grid.
    const std::size_t pair0 = nf;
    const std::size_t cst = pair0 + np * nf * nb;
    const std::size_t cpair = cst + nc;

    std::vector<SimJob> jobs;
    jobs.reserve(cpair + np * nc);
    for (std::size_t f = 0; f < nf; ++f)
        jobs.push_back(stJob(config, data.foregrounds[f]));
    for (std::size_t p = 0; p < np; ++p)
        for (std::size_t f = 0; f < nf; ++f)
            for (std::size_t b = 0; b < nb; ++b)
                jobs.push_back(pairJob(config, data.foregrounds[f],
                                       data.backgrounds[b],
                                       data.panelCPriorities[p], 1));
    for (std::size_t f = 0; f < nc; ++f)
        jobs.push_back(stJob(config, data.panelCForegrounds[f]));
    for (std::size_t p = 0; p < np; ++p)
        for (std::size_t f = 0; f < nc; ++f)
            jobs.push_back(pairJob(config, data.panelCForegrounds[f],
                                   UbenchId::LdintMem,
                                   data.panelCPriorities[p], 1));

    SimRunner runner = makeRunner(config);
    const std::vector<SimResult> res = runner.run(jobs);

    auto pairResult = [&](std::size_t p, std::size_t f,
                          std::size_t b) -> const FameResult & {
        return res[pair0 + (p * nf + f) * nb + b].fame;
    };

    // ST execution-time baselines for the foregrounds.
    std::vector<double> st_time(nf, 0.0);
    for (std::size_t f = 0; f < nf; ++f)
        st_time[f] = res[f].fame.thread[0].avgExecTime();

    // Panels (a)/(b): foreground at priority 6 / 5, background at 1.
    for (std::size_t pi = 0; pi < 2; ++pi) {
        data.relExec[pi].assign(nf, std::vector<double>(nb, 0.0));
        for (std::size_t f = 0; f < nf; ++f)
            for (std::size_t b = 0; b < nb; ++b)
                data.relExec[pi][f][b] =
                    pairResult(pi, f, b).thread[0].avgExecTime() /
                    st_time[f];
    }

    // Panel (c): worst-case background (ldint_mem) as fg prio drops.
    data.panelCRelExec.assign(np, std::vector<double>(nc, 0.0));
    for (std::size_t p = 0; p < np; ++p) {
        for (std::size_t f = 0; f < nc; ++f) {
            const FameResult &st = res[cst + f].fame;
            const FameResult &r = res[cpair + p * nc + f].fame;
            data.panelCRelExec[p][f] = r.thread[0].avgExecTime() /
                                       st.thread[0].avgExecTime();
        }
    }

    // Panel (d): average background IPC over the foreground partners.
    data.bgIpc.assign(np, std::vector<double>(nb, 0.0));
    for (std::size_t p = 0; p < np; ++p) {
        for (std::size_t b = 0; b < nb; ++b) {
            double sum = 0.0;
            for (std::size_t f = 0; f < nf; ++f)
                sum += pairResult(p, f, b).thread[1].avgIpc();
            data.bgIpc[p][b] = sum / static_cast<double>(nf);
        }
    }
    return data;
}

AllocStudyData
runAllocStudy(const std::vector<UbenchId> &mix,
              const std::vector<AllocPolicy> &policies, Cycle cycles,
              const ExpConfig &config)
{
    if (mix.empty())
        fatal("runAllocStudy: empty mix");
    if (policies.empty())
        fatal("runAllocStudy: no policies");

    AllocStudyData data;
    data.numCores = config.numCores;
    data.cycles = cycles;

    std::vector<ProgramSpec> specs;
    specs.reserve(mix.size());
    for (UbenchId id : mix) {
        specs.push_back(ubSpec(config, id));
        data.mixNames.push_back(ubenchName(id));
    }

    // One job per policy; the runner coalesces repeated policies.
    std::vector<SimJob> jobs;
    jobs.reserve(policies.size());
    for (AllocPolicy policy : policies) {
        SchedParams sched = config.sched;
        sched.policy = policy;
        SimJob job = SimJob::allocMix(specs, sched, config.numCores,
                                      cycles, config.core);
        job.configTag = config.configTag;
        jobs.push_back(std::move(job));
    }

    SimRunner runner = makeRunner(config);
    const std::vector<SimResult> res = runner.run(jobs);

    for (std::size_t i = 0; i < policies.size(); ++i) {
        const AllocRunResult &r = res[i].alloc;
        AllocPolicyOutcome out;
        out.policy = policies[i];
        out.aggregateIpc = r.aggregateIpc;
        out.migrations = r.migrations;
        out.quanta = r.quanta;
        out.checkViolations = r.checkViolations;
        out.rngSeed = res[i].rngSeed;
        for (const AllocThreadTotals &t : r.threads)
            out.threadIpc.push_back(t.ipc());
        data.outcomes.push_back(std::move(out));
    }
    return data;
}

} // namespace p5
