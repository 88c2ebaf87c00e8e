/**
 * @file
 * The unified p5sim driver: every paper table and figure, the ablation
 * studies, single-pair runs with full stat dumps, multi-axis config
 * sweeps, allocation studies, the result-store server and collector,
 * the simulator perf report and the trace verbs, behind one binary
 * with subcommands (tools/p5sim). `p5sim help` lists them.
 *
 * All per-invocation state lives in the call, so tests drive the
 * whole CLI in-process and concurrently.
 */

#ifndef P5SIM_DRIVER_DRIVER_HH
#define P5SIM_DRIVER_DRIVER_HH

#include <iostream>

namespace p5 {

/**
 * Entry point of the p5sim binary: argv[1] (with argv[2] for a verb
 * such as "trace dump") selects the subcommand, the rest are its
 * operand and flags. Returns the process exit code. It is the one
 * place an error becomes one: a p5::Error (what fatal() throws) from
 * any step is written to @p err as "fatal: <msg>" and returns 1. @p in
 * feeds the serve subcommand's line protocol (tests inject a
 * stringstream).
 */
int driverMain(int argc, const char *const *argv,
               std::ostream &out = std::cout,
               std::ostream &err = std::cerr,
               std::istream &in = std::cin);

} // namespace p5

#endif // P5SIM_DRIVER_DRIVER_HH
