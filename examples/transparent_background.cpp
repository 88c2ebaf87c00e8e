/**
 * @file
 * Transparent execution (paper Sec. 5.5): run a background job at
 * priority 1 under a foreground job and report the foreground's
 * slowdown versus single-thread mode plus the background's achieved
 * IPC — the data behind "can I soak up spare cycles for free?".
 *
 *   ./transparent_background --foreground ldint_mem --background cpu_int
 */

#include <cstdio>
#include <iostream>

#include "common/cli.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "fame/fame.hh"
#include "ubench/ubench.hh"

int
main(int argc, char **argv)
try {
    p5::Cli cli;
    cli.declare("foreground", "ldint_mem", "foreground micro-benchmark");
    cli.declare("background", "cpu_int", "background micro-benchmark");
    cli.parse(argc, argv);
    if (cli.helpRequested()) {
        std::fputs(cli.usage(argv[0]).c_str(), stdout);
        return 0;
    }

    const auto fg =
        p5::makeUbench(p5::ubenchFromName(cli.str("foreground")));
    const auto bg =
        p5::makeUbench(p5::ubenchFromName(cli.str("background")));

    p5::CoreParams core_params;
    p5::FameParams fame;

    // Single-thread reference for the foreground.
    p5::FameResult st =
        p5::runFame(core_params, &fg, nullptr, 4, 0, fame);
    const double st_time = st.thread[0].avgExecTime();

    p5::Table t("Transparent execution: fg " + cli.str("foreground") +
                ", bg " + cli.str("background") + " at priority 1");
    t.setColumns({"fg priority", "fg exec time vs ST", "bg IPC"});

    for (int fg_prio : {6, 5, 4, 3, 2}) {
        p5::FameResult r =
            p5::runFame(core_params, &fg, &bg, fg_prio, 1, fame);
        t.addRow({std::to_string(fg_prio),
                  p5::Table::fmt(r.thread[0].avgExecTime() / st_time,
                                 3),
                  p5::Table::fmt(r.thread[1].avgIpc(), 3)});
    }
    t.printAscii(std::cout);

    std::printf("\nA ratio near 1.000 means the background is "
                "transparent to the foreground.\n");
    return 0;
} catch (const p5::Error &e) {
    // Every library error (a bad flag, name or configuration) is a
    // p5::Error carrying its message.
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
}
