/**
 * @file
 * The operating system's role (paper Sec. 4.3): demonstrates why the
 * stock Linux kernel makes priority experiments impossible — it resets
 * every thread to MEDIUM on each kernel entry — and what the paper's
 * kernel patch changes. Also shows the or-nop user-space interface and
 * the idle/spin-lock priority drops.
 */

#include <cstdio>
#include <iostream>

#include "common/cli.hh"
#include "common/log.hh"
#include "common/table.hh"
#include "os/kernel.hh"
#include "ubench/ubench.hh"

namespace {

/** Run a prioritized pair under a kernel and report the achieved IPCs. */
void
demo(bool patched, p5::Table &t)
{
    const auto cpu = p5::makeUbench(p5::UbenchId::CpuInt);
    const auto mem = p5::makeUbench(p5::UbenchId::LdintMem);

    p5::CoreParams core_params;
    p5::SmtCore core(core_params);
    core.attachThread(0, &cpu, 4, p5::PrivilegeLevel::User);
    core.attachThread(1, &mem, 4, p5::PrivilegeLevel::User);

    p5::KernelParams kp;
    kp.patched = patched;
    kp.timerPeriod = 50'000; // frequent timer ticks
    p5::KernelSim kernel(&core, kp);

    // The experimenter asks for (6,2) through the /sys interface.
    bool p_ok = kernel.sysSetPriority(0, 6);
    bool s_ok = kernel.sysSetPriority(1, 2);

    kernel.run(400'000);

    t.addRow({patched ? "patched (paper Sec. 4.3)" : "stock 2.6.23",
              std::string(p_ok ? "yes" : "no (needs supervisor)"),
              std::string(s_ok ? "yes" : "yes (user level)"),
              "(" + std::to_string(core.priorityOf(0)) + "," +
                  std::to_string(core.priorityOf(1)) + ")",
              p5::Table::fmt(core.ipcOf(0), 3),
              std::to_string(kernel.priorityResets())});
}

} // namespace

int
main(int argc, char **argv)
try {
    p5::Cli cli;
    cli.parse(argc, argv);
    if (cli.helpRequested()) {
        std::fputs(cli.usage(argv[0]).c_str(), stdout);
        return 0;
    }

    p5::Table t("Setting priorities (6,2) under stock vs patched kernel");
    t.setColumns({"kernel", "prio 6 applied?", "prio 2 applied?",
                  "priorities after run", "cpu_int IPC",
                  "kernel priority resets"});
    demo(false, t);
    demo(true, t);
    t.printAscii(std::cout);

    std::printf(
        "\nThe stock kernel rejects priority 6 (supervisor-only) and "
        "resets priorities\nto MEDIUM at every interrupt; the patch "
        "exposes 1..6 and removes the resets,\nwhich is what makes the "
        "paper's characterization possible.\n");
    return 0;
} catch (const p5::Error &e) {
    // Every library error (a bad flag, name or configuration) is a
    // p5::Error carrying its message.
    std::fprintf(stderr, "fatal: %s\n", e.what());
    return 1;
}
