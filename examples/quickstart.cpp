/**
 * @file
 * Quickstart: measure two micro-benchmarks co-scheduled on one SMT core
 * under a chosen software-controlled priority pair, FAME-style.
 *
 *   ./quickstart --pthread cpu_int --sthread ldint_mem --priop 6 --prios 2
 */

#include <cstdio>

#include "common/cli.hh"
#include "common/log.hh"
#include "fame/fame.hh"
#include "ubench/ubench.hh"

int
main(int argc, char **argv)
try {
    p5::Cli cli;
    cli.declare("pthread", "cpu_int", "primary thread micro-benchmark");
    cli.declare("sthread", "ldint_mem",
                "secondary micro-benchmark, or 'none' for ST mode");
    cli.declare("priop", "4", "primary thread priority (0-7)");
    cli.declare("prios", "4", "secondary thread priority (0-7)");
    cli.declare("reps", "10", "minimum FAME repetitions");
    cli.parse(argc, argv);
    if (cli.helpRequested()) {
        std::fputs(cli.usage(argv[0]).c_str(), stdout);
        return 0;
    }

    const auto prog_p =
        p5::makeUbench(p5::ubenchFromName(cli.str("pthread")));
    const bool smt = cli.str("sthread") != "none";

    p5::CoreParams params;
    p5::FameParams fame;
    fame.minRepetitions =
        static_cast<std::uint64_t>(cli.integer("reps"));

    p5::FameResult res;
    if (smt) {
        const auto prog_s =
            p5::makeUbench(p5::ubenchFromName(cli.str("sthread")));
        res = p5::runFame(params, &prog_p, &prog_s,
                          static_cast<int>(cli.integer("priop")),
                          static_cast<int>(cli.integer("prios")), fame);
    } else {
        res = p5::runFame(params, &prog_p, nullptr,
                          static_cast<int>(cli.integer("priop")), 0,
                          fame);
    }

    std::printf("workload: %s (PThread)%s%s\n", cli.str("pthread").c_str(),
                smt ? " + " : " in ST mode",
                smt ? cli.str("sthread").c_str() : "");
    if (smt)
        std::printf("priorities: (%lld,%lld)\n",
                    static_cast<long long>(cli.integer("priop")),
                    static_cast<long long>(cli.integer("prios")));
    std::printf("simulated cycles: %llu (converged: %s)\n",
                static_cast<unsigned long long>(res.totalCycles),
                res.converged ? "yes" : "NO");
    for (int t = 0; t < p5::num_hw_threads; ++t) {
        const auto &m = res.thread[static_cast<size_t>(t)];
        if (!m.present)
            continue;
        std::printf(
            "thread %d: %llu reps, avg exec time %.0f cycles, IPC %.3f\n",
            t, static_cast<unsigned long long>(m.executions),
            m.avgExecTime(), m.avgIpc());
    }
    std::printf("total IPC: %.3f\n", res.totalIpc());
    return 0;
} catch (const p5::Error &e) {
    // Every library error (a bad flag, name or configuration) is a
    // p5::Error carrying its message.
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
}
