/**
 * @file
 * What the p5sim driver's source files share: the per-invocation
 * context, the output helpers and the subcommand handlers that
 * driver.cc's subcommand table names. Private to src/driver.
 */

#ifndef P5SIM_DRIVER_COMMANDS_HH
#define P5SIM_DRIVER_COMMANDS_HH

#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "exp/report.hh"

namespace p5 {

class Cli;

/**
 * Per-invocation driver state. There are no process-wide mutable
 * globals, so tests drive the whole CLI in-process and concurrently.
 */
struct DriverContext
{
    std::string command; ///< subcommand name; the report's "experiment"
    std::string operand; ///< positional operand ("" = none)
    bool csv = false;     ///< emit CSV instead of ASCII tables
    std::string jsonPath; ///< report destination ("" = off)
    std::ostream *out = &std::cout; ///< tables, run summaries
    std::ostream *err = &std::cerr; ///< diagnostics
    std::istream *in = &std::cin;   ///< serve's query input
    /** Sweep coordinates stamped into the report's provenance. */
    std::vector<std::pair<std::string, std::string>> sweep;
};

/** A subcommand handler; its return value is the exit code. */
using CommandFn = int (*)(const Cli &, DriverContext &, ExpConfig &);

// --- driver.cc ----------------------------------------------------------

/** Print tables per the context's --csv preference. */
void printTable(const DriverContext &ctx, const Table &table);
void printTable(const DriverContext &ctx, const std::vector<Table> &tables);

/**
 * When --json=FILE was given, write the report envelope (experiment,
 * run settings, provenance) around a payload emitted under "data".
 */
void writeReport(const DriverContext &ctx, const ExpConfig &config,
                 const std::function<void(JsonWriter &)> &payload);

// --- cmd_paper.cc: the paper's tables and figures, the ablation ---------

/**
 * The handler of one paper view: @p Produce simulates its data on the
 * effective config, @p Render turns the data into the printed tables,
 * and the data itself is the report's payload.
 */
template <auto Produce, auto Render>
int
paperView(const Cli &, DriverContext &ctx, ExpConfig &config)
{
    const auto data = Produce(config);
    printTable(ctx, Render(data));
    writeReport(ctx, config, [&](JsonWriter &w) { writeJson(w, data); });
    return 0;
}

// Producers and renderers that give the other views paperView's shape.
/** Tables 1 and 2 simulate nothing: the table is the data. */
template <auto Render>
Table
fixed(const ExpConfig &)
{
    return Render();
}
const Table &asIs(const Table &table);
std::vector<Table> renderFig2(const PrioCurveData &data);
std::vector<Table> renderFig3(const PrioCurveData &data);
/** Figure 5's two case-study pairs. */
std::vector<CaseStudyData> runFig5Pairs(const ExpConfig &config);
std::vector<Table> renderFig5Pairs(const std::vector<CaseStudyData> &data);
void writeJson(JsonWriter &w, const std::vector<CaseStudyData> &data);

int cmdAblation(const Cli &cli, DriverContext &ctx, ExpConfig &config);

// --- cmd_pair.cc: one pair, a sweep of pairs, an allocation study -------

int cmdRun(const Cli &cli, DriverContext &ctx, ExpConfig &config);
int cmdSweep(const Cli &cli, DriverContext &ctx, ExpConfig &config);
int cmdAlloc(const Cli &cli, DriverContext &ctx, ExpConfig &config);

// --- cmd_store.cc: result-store queries and collection ------------------

int cmdServe(const Cli &cli, DriverContext &ctx, ExpConfig &config);
int cmdStoreGc(const Cli &cli, DriverContext &ctx, ExpConfig &config);

// --- cmd_trace.cc: the trace verbs --------------------------------------

int cmdTraceDump(const Cli &cli, DriverContext &ctx, ExpConfig &config);
int cmdTraceInfo(const Cli &cli, DriverContext &ctx, ExpConfig &config);
int cmdTraceCheck(const Cli &cli, DriverContext &ctx, ExpConfig &config);

// --- perf.cc ------------------------------------------------------------

int cmdPerf(const Cli &cli, DriverContext &ctx, ExpConfig &config);

} // namespace p5

#endif // P5SIM_DRIVER_COMMANDS_HH
