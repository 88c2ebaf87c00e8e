#include <cstdint>
#include <memory>
#include <string>

#include "common/artifact.hh"
#include "common/cli.hh"
#include "common/log.hh"
#include "driver/commands.hh"
#include "program/trace.hh"
#include "ubench/ubench.hh"

namespace p5 {

/** Record a synthetic micro-benchmark as a replayable trace. */
int
cmdTraceDump(const Cli &cli, DriverContext &ctx, ExpConfig &)
{
    const std::string path = cli.str("out");
    if (path.empty())
        fatal("p5sim trace dump requires --out FILE");
    const std::int64_t executions = cli.integer("executions");
    if (executions < 1)
        fatal("--executions must be at least 1, got %lld",
              static_cast<long long>(executions));
    const SyntheticProgram prog = makeUbench(
        ubenchFromName(cli.str("benchmark")), cli.real("scale"));
    dumpTrace(prog, static_cast<std::uint64_t>(executions), path);
    const TraceHeader h = readTraceHeader(path);
    *ctx.out << "trace dump: " << h.name << ", " << h.records
             << " records (" << h.executions << " executions of "
             << h.instrsPerExecution << "), " << h.bytes
             << " payload bytes, fingerprint " << h.fingerprint()
             << " -> " << path << "\n";
    return 0;
}

/** Print a trace's header and content fingerprint. */
int
cmdTraceInfo(const Cli &, DriverContext &ctx, ExpConfig &)
{
    const std::string &path = ctx.operand;
    const TraceHeader h = readTraceHeader(path);
    *ctx.out << "trace " << path << ":\n"
             << "  name                   " << h.name << "\n"
             << "  instructions/execution " << h.instrsPerExecution
             << "\n"
             << "  records                " << h.records << " ("
             << h.executions << " executions)\n"
             << "  payload bytes          " << h.bytes << "\n"
             << "  checksum               " << hex16(h.checksum) << "\n"
             << "  fingerprint            " << h.fingerprint() << "\n";
    return 0;
}

/**
 * Validate a trace's header, checksum and record bounds; a corrupt
 * trace is quarantined to FILE.bad unless --keep is given.
 */
int
cmdTraceCheck(const Cli &cli, DriverContext &ctx, ExpConfig &)
{
    const std::string &path = ctx.operand;
    try {
        const std::unique_ptr<TraceProgram> prog = loadTrace(path);
        *ctx.out << "trace check: " << path << " ok (" << prog->records()
                 << " records, fingerprint "
                 << prog->header().fingerprint() << ")\n";
        return 0;
    } catch (const Error &e) {
        *ctx.err << "trace check: " << path << ": " << e.what() << "\n";
    }
    // A missing file is a miss, not a corrupt artifact.
    if (!cli.boolean("keep") && fileExists(path))
        quarantineTrace(path); // warns with the .bad name
    return 1;
}

} // namespace p5
