#include "store/result_io.hh"

#include "common/log.hh"
#include "common/parse.hh"

namespace p5 {

namespace {

// A full-range uint64 (e.g. the SplitMix64 rngSeed) is stored as a
// decimal string. That form predates the parser keeping a wide
// integer's digits (JsonValue::numberText()) and stays because it is
// the stored documents' schema: a JSON number would change every file.
std::uint64_t
readU64String(const JsonValue &v)
{
    std::uint64_t out = 0;
    if (parseUint64(v.asString(), out) != ParseStatus::Ok)
        fatal("stored value '%s' is not an unsigned integer",
              v.asString().c_str());
    return out;
}

void
writeFame(JsonWriter &w, const FameResult &fame)
{
    w.beginObject();
    w.member("totalCycles", static_cast<std::uint64_t>(fame.totalCycles));
    w.member("converged", fame.converged);
    w.member("hitCycleLimit", fame.hitCycleLimit);
    w.key("threads");
    w.beginArray();
    for (const ThreadMeasurement &t : fame.thread) {
        w.beginObject();
        w.member("present", t.present);
        w.member("executions", t.executions);
        w.member("accountedCycles",
                 static_cast<std::uint64_t>(t.accountedCycles));
        w.member("accountedInstrs", t.accountedInstrs);
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

FameResult
readFame(const JsonValue &node)
{
    FameResult out;
    out.totalCycles = node.at("totalCycles").asUint();
    out.converged = node.at("converged").asBool();
    out.hitCycleLimit = node.at("hitCycleLimit").asBool();
    const std::vector<JsonValue> &threads = node.at("threads").elements();
    if (threads.size() != out.thread.size())
        fatal("stored result has %zu threads, expected %zu",
              threads.size(), out.thread.size());
    for (std::size_t i = 0; i < out.thread.size(); ++i) {
        const JsonValue &t = threads[i];
        ThreadMeasurement &m = out.thread[i];
        m.present = t.at("present").asBool();
        m.executions = t.at("executions").asUint();
        m.accountedCycles = t.at("accountedCycles").asUint();
        m.accountedInstrs = t.at("accountedInstrs").asUint();
    }
    return out;
}

void
writePipeline(JsonWriter &w, const PipelineResult &pipe)
{
    w.beginObject();
    w.member("fftCycles", pipe.fftCycles);
    w.member("luCycles", pipe.luCycles);
    w.member("iterationCycles", pipe.iterationCycles);
    w.member("hitCycleLimit", pipe.hitCycleLimit);
    w.endObject();
}

PipelineResult
readPipeline(const JsonValue &node)
{
    PipelineResult out;
    out.fftCycles = node.at("fftCycles").asDouble();
    out.luCycles = node.at("luCycles").asDouble();
    out.iterationCycles = node.at("iterationCycles").asDouble();
    out.hitCycleLimit = node.at("hitCycleLimit").asBool();
    return out;
}

} // namespace

const char *
simJobKindName(SimJobKind kind)
{
    switch (kind) {
      case SimJobKind::FamePair:
        return "fame";
      case SimJobKind::PipelineSingleThread:
        return "pipeline-st";
      case SimJobKind::PipelineSmt:
        return "pipeline-smt";
      case SimJobKind::AllocMix:
        return "alloc";
    }
    return "?";
}

bool
simJobKindFromName(const std::string &name, SimJobKind &out)
{
    for (SimJobKind kind :
         {SimJobKind::FamePair, SimJobKind::PipelineSingleThread,
          SimJobKind::PipelineSmt, SimJobKind::AllocMix}) {
        if (name == simJobKindName(kind)) {
            out = kind;
            return true;
        }
    }
    return false;
}

bool
storableKind(SimJobKind kind)
{
    switch (kind) {
      case SimJobKind::FamePair:
      case SimJobKind::PipelineSingleThread:
      case SimJobKind::PipelineSmt:
        return true;
      case SimJobKind::AllocMix:
        return false;
    }
    return false;
}

void
writeSimResult(JsonWriter &w, const SimResult &result)
{
    w.beginObject();
    w.member("kind", simJobKindName(result.kind));
    w.member("rngSeed", std::to_string(result.rngSeed));
    switch (result.kind) {
      case SimJobKind::FamePair:
        w.key("fame");
        writeFame(w, result.fame);
        break;
      case SimJobKind::PipelineSingleThread:
      case SimJobKind::PipelineSmt:
        w.key("pipeline");
        writePipeline(w, result.pipeline);
        break;
      case SimJobKind::AllocMix:
        // Not storable (see header); writing one is a caller bug.
        panic("writeSimResult on a non-storable AllocMix result");
    }
    w.endObject();
}

SimResult
readSimResult(const JsonValue &node)
{
    SimResult out;
    const std::string &kind = node.at("kind").asString();
    if (!simJobKindFromName(kind, out.kind) || !storableKind(out.kind))
        fatal("stored result has kind '%s', not a storable job kind",
              kind.c_str());
    out.rngSeed = readU64String(node.at("rngSeed"));
    if (out.kind == SimJobKind::FamePair)
        out.fame = readFame(node.at("fame"));
    else
        out.pipeline = readPipeline(node.at("pipeline"));
    return out;
}

} // namespace p5
