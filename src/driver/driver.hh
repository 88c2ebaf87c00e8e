/**
 * @file
 * The unified p5sim driver: every paper table/figure, the ablation
 * studies, the simulator perf report, single-pair runs with full stat
 * dumps and multi-axis config sweeps behind one binary with
 * subcommands (tools/p5sim).
 *
 * All per-invocation state (output streams, the --csv preference, the
 * --json destination, config provenance) lives in an explicit
 * DriverContext that is threaded through the subcommand handlers —
 * there are no process-wide mutable globals, so tests drive the whole
 * CLI in-process and concurrently.
 */

#ifndef P5SIM_DRIVER_DRIVER_HH
#define P5SIM_DRIVER_DRIVER_HH

#include <cstdint>
#include <iostream>
#include <istream>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace p5 {

/**
 * Per-invocation driver state (replaces the old bench_common.hh
 * csvFlag()/jsonPath() process-wide statics).
 */
struct DriverContext
{
    /** Emit CSV instead of ASCII tables. */
    bool csv = false;

    /** Destination of the machine-readable report ("" = off). */
    std::string jsonPath;

    /** Human-readable output (tables, run summaries). */
    std::ostream *out = &std::cout;

    /** Diagnostics. */
    std::ostream *err = &std::cerr;

    /** Query input for the serve subcommand's line protocol. */
    std::istream *in = &std::cin;

    // Provenance stamped into every JSON report.
    std::string fingerprint;     ///< hex config-tree fingerprint
    std::uint64_t seed = 0;      ///< exp.seed of the effective config
    /** Sweep coordinates ("" outside the sweep subcommand). */
    std::vector<std::pair<std::string, std::string>> sweep;
};

/**
 * Entry point of the p5sim binary: argv[1] selects the subcommand
 * (table1..table4, fig2..fig6, ablation, perf, run, sweep, serve), the
 * rest are its flags. Returns the process exit code; all user errors
 * are fatal() (exit 1) like the rest of the CLI surface. @p in feeds
 * the serve subcommand's line protocol (tests inject a stringstream).
 */
int driverMain(int argc, const char *const *argv,
               std::ostream &out = std::cout,
               std::ostream &err = std::cerr,
               std::istream &in = std::cin);

} // namespace p5

#endif // P5SIM_DRIVER_DRIVER_HH
