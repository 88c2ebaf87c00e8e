#include "store/result_io.hh"

#include "common/log.hh"
#include "common/parse.hh"

namespace p5 {

namespace {

// --- non-fatal JsonValue readers ---------------------------------------
//
// JsonValue's asInt()/asString() accessors are fatal() on kind
// mismatch, which is right for config files (the user must fix them)
// and wrong for store files (the store must quarantine them). These
// helpers probe kind first and report failure through their return
// value.

const JsonValue *
member(const JsonValue &obj, const char *name)
{
    if (!obj.isObject())
        return nullptr;
    return obj.find(name);
}

bool
readU64(const JsonValue &obj, const char *name, std::uint64_t &out)
{
    const JsonValue *v = member(obj, name);
    if (!v || !v->isInt() || v->asInt() < 0)
        return false;
    out = static_cast<std::uint64_t>(v->asInt());
    return true;
}

bool
readBool(const JsonValue &obj, const char *name, bool &out)
{
    const JsonValue *v = member(obj, name);
    if (!v || !v->isBool())
        return false;
    out = v->asBool();
    return true;
}

bool
readDouble(const JsonValue &obj, const char *name, double &out)
{
    const JsonValue *v = member(obj, name);
    if (!v || !v->isNumber())
        return false;
    out = v->asDouble();
    return true;
}

// A full-range uint64 (e.g. the SplitMix64 rngSeed) is stored as a
// decimal string. That form predates the parser keeping a wide
// integer's digits (JsonValue::numberText()) and stays because it is
// the stored documents' schema: a JSON number would change every file.
bool
readU64String(const JsonValue &obj, const char *name, std::uint64_t &out)
{
    const JsonValue *v = member(obj, name);
    if (!v || !v->isString())
        return false;
    return parseUint64(v->asString(), out) == ParseStatus::Ok;
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

bool
readFame(const JsonValue &node, FameResult &out)
{
    if (!readU64(node, "totalCycles", out.totalCycles) ||
        !readBool(node, "converged", out.converged) ||
        !readBool(node, "hitCycleLimit", out.hitCycleLimit))
        return false;
    const JsonValue *threads = member(node, "threads");
    if (!threads || !threads->isArray() ||
        threads->elements().size() != out.thread.size())
        return false;
    for (std::size_t i = 0; i < out.thread.size(); ++i) {
        const JsonValue &t = threads->elements()[i];
        ThreadMeasurement &m = out.thread[i];
        if (!readBool(t, "present", m.present) ||
            !readU64(t, "executions", m.executions) ||
            !readU64(t, "accountedCycles", m.accountedCycles) ||
            !readU64(t, "accountedInstrs", m.accountedInstrs))
            return false;
    }
    return true;
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

bool
readPipeline(const JsonValue &node, PipelineResult &out)
{
    return readDouble(node, "fftCycles", out.fftCycles) &&
           readDouble(node, "luCycles", out.luCycles) &&
           readDouble(node, "iterationCycles", out.iterationCycles) &&
           readBool(node, "hitCycleLimit", out.hitCycleLimit);
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

bool
readSimResult(const JsonValue &node, SimResult &out)
{
    const JsonValue *kind = member(node, "kind");
    if (!kind || !kind->isString() ||
        !simJobKindFromName(kind->asString(), out.kind) ||
        !storableKind(out.kind))
        return false;
    if (!readU64String(node, "rngSeed", out.rngSeed))
        return false;
    switch (out.kind) {
      case SimJobKind::FamePair: {
        const JsonValue *fame = member(node, "fame");
        return fame && readFame(*fame, out.fame);
      }
      case SimJobKind::PipelineSingleThread:
      case SimJobKind::PipelineSmt: {
        const JsonValue *pipe = member(node, "pipeline");
        return pipe && readPipeline(*pipe, out.pipeline);
      }
      case SimJobKind::AllocMix:
        break;
    }
    return false;
}

} // namespace p5
