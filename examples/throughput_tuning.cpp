/**
 * @file
 * Throughput tuning (paper Sec. 5.3): given two co-scheduled workloads,
 * sweep the priority pairs the kernel patch allows and report the one
 * that maximizes aggregate IPC — the paper's h264ref+mcf case study as
 * a reusable tool.
 *
 *   ./throughput_tuning --primary h264ref --secondary mcf
 */

#include <cstdio>
#include <iostream>

#include "common/cli.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "exp/experiments.hh"
#include "fame/fame.hh"
#include "workloads/spec_proxy.hh"

int
main(int argc, char **argv)
try {
    p5::Cli cli;
    cli.declare("primary", "h264ref",
                "first workload (h264ref, mcf, applu, equake)");
    cli.declare("secondary", "mcf", "second workload");
    cli.declare("maxdiff", "5", "largest priority difference to try");
    cli.parse(argc, argv);
    if (cli.helpRequested()) {
        std::fputs(cli.usage(argv[0]).c_str(), stdout);
        return 0;
    }

    const auto prog_p = p5::makeSpecProxy(
        p5::specProxyFromName(cli.str("primary")));
    const auto prog_s = p5::makeSpecProxy(
        p5::specProxyFromName(cli.str("secondary")));

    p5::CoreParams core_params;
    p5::FameParams fame;

    p5::Table t("Priority sweep: " + cli.str("primary") + " + " +
                cli.str("secondary"));
    t.setColumns({"(PrioP,PrioS)", cli.str("primary") + " IPC",
                  cli.str("secondary") + " IPC", "total IPC",
                  "vs (4,4)"});

    const int maxdiff = static_cast<int>(cli.integer("maxdiff"));
    double base_total = 0.0;
    double best_total = 0.0;
    int best_diff = 0;

    for (int diff = -maxdiff; diff <= maxdiff; ++diff) {
        auto [pp, ps] = p5::prioPairForDiff(diff);
        p5::FameResult r =
            p5::runFame(core_params, &prog_p, &prog_s, pp, ps, fame);
        const double total = r.totalIpc();
        if (diff == 0)
            base_total = total;
        if (total > best_total) {
            best_total = total;
            best_diff = diff;
        }
        t.addRow({"(" + std::to_string(pp) + "," + std::to_string(ps) +
                      ")",
                  p5::Table::fmt(r.thread[0].avgIpc(), 3),
                  p5::Table::fmt(r.thread[1].avgIpc(), 3),
                  p5::Table::fmt(total, 3),
                  base_total > 0.0
                      ? p5::Table::fmtPercent(total / base_total - 1.0)
                      : "-"});
    }

    t.printAscii(std::cout);
    auto [bp, bs] = p5::prioPairForDiff(best_diff);
    std::printf("\nbest pair: (%d,%d), total IPC %.3f (%.1f%% over "
                "default priorities)\n",
                bp, bs, best_total,
                (best_total / base_total - 1.0) * 100.0);
    return 0;
} catch (const p5::Error &e) {
    // Every library error (a bad flag, name or configuration) is a
    // p5::Error carrying its message.
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
}
