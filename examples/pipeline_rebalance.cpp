/**
 * @file
 * Rebalancing an unbalanced software pipeline with priorities (paper
 * Sec. 5.4.1, Table 4): an FFT producer feeds an LU consumer across an
 * iteration barrier; raising the long stage's priority shortens the
 * iteration until over-prioritization inverts the imbalance.
 *
 *   ./pipeline_rebalance --scale 0.5
 */

#include <cstdio>
#include <iostream>

#include "common/cli.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "workloads/pipeline_app.hh"

int
main(int argc, char **argv)
try {
    p5::Cli cli;
    cli.declare("scale", "1.0", "work multiplier for both stages");
    cli.declare("iterations", "6", "measured pipeline iterations");
    cli.parse(argc, argv);
    if (cli.helpRequested()) {
        std::fputs(cli.usage(argv[0]).c_str(), stdout);
        return 0;
    }

    p5::CoreParams core_params;

    p5::Table t("FFT -> LU pipeline: iteration time under priorities");
    t.setColumns({"config", "FFT cycles", "LU cycles",
                  "iteration cycles", "vs single-thread"});

    p5::PipelineParams base;
    base.scale = cli.real("scale");
    base.iterations = static_cast<int>(cli.integer("iterations"));

    const p5::PipelineResult st =
        p5::PipelineApp(base).runSingleThread(core_params);
    t.addRow({"single-thread", p5::Table::fmt(st.fftCycles, 0),
              p5::Table::fmt(st.luCycles, 0),
              p5::Table::fmt(st.iterationCycles, 0), "1.000"});

    double best = st.iterationCycles;
    std::pair<int, int> best_pair{-1, -1};
    for (auto [pf, pl] : {std::pair{4, 4}, std::pair{5, 4},
                          std::pair{6, 4}, std::pair{6, 3}}) {
        p5::PipelineParams pp = base;
        pp.prioFft = pf;
        pp.prioLu = pl;
        p5::PipelineResult r = p5::PipelineApp(pp).runSmt(core_params);
        t.addRow({"SMT (" + std::to_string(pf) + "," +
                      std::to_string(pl) + ")",
                  p5::Table::fmt(r.fftCycles, 0),
                  p5::Table::fmt(r.luCycles, 0),
                  p5::Table::fmt(r.iterationCycles, 0),
                  p5::Table::fmt(r.iterationCycles / st.iterationCycles,
                                 3)});
        if (r.iterationCycles < best) {
            best = r.iterationCycles;
            best_pair = {pf, pl};
        }
    }
    t.printAscii(std::cout);

    if (best_pair.first > 0) {
        std::printf("\nbest configuration: (%d,%d), %.1f%% faster than "
                    "single-thread mode\n",
                    best_pair.first, best_pair.second,
                    (1.0 - best / st.iterationCycles) * 100.0);
    }
    return 0;
} catch (const p5::Error &e) {
    // Every library error (a bad flag, name or configuration) is a
    // p5::Error carrying its message.
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
}
