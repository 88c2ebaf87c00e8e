#include "config/config.hh"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/artifact.hh"
#include "common/log.hh"
#include "common/parse.hh"
#include "common/rng.hh"
#include "core/chip.hh"
#include "program/trace.hh"
#include "ubench/ubench.hh"

namespace p5 {

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    const std::size_t n = a.size();
    const std::size_t m = b.size();
    std::vector<std::size_t> prev(m + 1);
    std::vector<std::size_t> cur(m + 1);
    for (std::size_t j = 0; j <= m; ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= n; ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= m; ++j) {
            const std::size_t sub =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1, sub});
        }
        std::swap(prev, cur);
    }
    return prev[m];
}

namespace {

/** BalanceAction and AllocPolicy spellings, in enumerator order. */
const char *const balance_action_names[] = {"stall", "flush"};
const char *const alloc_policy_names[] = {"pinned", "random", "symbiosis"};

/** Canonical text of a bound scalar. */
template <class T>
std::string
valueText(T v)
{
    if constexpr (std::is_same_v<T, bool>)
        return v ? "true" : "false";
    else if constexpr (std::is_floating_point_v<T>)
        return formatDouble(v);
    else
        return std::to_string(v);
}

/**
 * What a bound scalar's text parses into before its range check: int
 * and unsigned widen to int64, so "99999999999" or "-1" is reported
 * out of range instead of wrapping.
 */
template <class T>
using Wide = std::conditional_t<std::is_same_v<T, int> ||
                                    std::is_same_v<T, unsigned>,
                                std::int64_t, T>;

std::string
parseError(const char *what, const std::string &text, ParseStatus status)
{
    if (status == ParseStatus::Ok)
        return {};
    return std::string("expects ") + what + ", got '" + text + "' (" +
           parseStatusName(status) + ")";
}

std::string
parseValue(const std::string &text, bool &out)
{
    return parseBool(text, out) ? ""
                                : "expects a boolean, got '" + text + "'";
}

std::string
parseValue(const std::string &text, std::int64_t &out)
{
    return parseError("an integer", text, parseInt64(text, out));
}

std::string
parseValue(const std::string &text, std::uint64_t &out)
{
    return parseError("an unsigned integer", text, parseUint64(text, out));
}

std::string
parseValue(const std::string &text, double &out)
{
    return parseError("a number", text, parseFloat64(text, out));
}

std::string
unknownKey(const ConfigTree &tree, const std::string &path)
{
    return "unknown config key '" + path + "'; did you mean '" +
           tree.suggest(path) + "'?";
}

} // namespace

ConfigTree::ConfigTree(ExpConfig &config) : config_(config)
{
    bindAll();
}

// --- binders -----------------------------------------------------------

template <class T>
void
ConfigTree::bind(std::string path, T &ref, std::type_identity_t<T> lo,
                 std::type_identity_t<T> hi, const char *help, bool identity)
{
    T *p = &ref;
    const JsonKind kind = std::is_same_v<T, bool> ? JsonKind::Bool
                          : std::is_floating_point_v<T> ? JsonKind::Number
                                                        : JsonKind::Integer;
    fields_.push_back(
        {std::move(path), help, identity, kind,
         [p] { return valueText(*p); },
         [p, lo, hi](const std::string &text) {
             Wide<T> v{};
             std::string error = parseValue(text, v);
             if (error.empty() && !(v >= Wide<T>(lo) && v <= Wide<T>(hi)))
                 error = "= " + valueText(v) + " out of range [" +
                         valueText(lo) + ", " + valueText(hi) + "]";
             if (error.empty())
                 *p = static_cast<T>(v);
             return error;
         }});
}

template <class E, std::size_t N>
void
ConfigTree::bindEnum(const char *path, E &ref,
                     const char *const (&names)[N], const char *help)
{
    E *p = &ref;
    const char *const *spelled = names;
    fields_.push_back(
        {path, help, true, JsonKind::String,
         [p, spelled] {
             return std::string(spelled[static_cast<std::size_t>(*p)]);
         },
         [p, spelled](const std::string &text) {
             std::string expected;
             for (std::size_t i = 0; i < N; ++i) {
                 if (text == spelled[i]) {
                     *p = static_cast<E>(i);
                     return std::string();
                 }
                 expected += i == 0 ? "'" : i + 1 < N ? ", '" : " or '";
                 expected += spelled[i];
                 expected += '\'';
             }
             return "expects " + expected + ", got '" + text + "'";
         }});
}

void
ConfigTree::bindTrace(const char *path_key, const char *fp_key,
                      std::string &path_ref, std::string &fp_ref,
                      const char *help)
{
    std::string *pp = &path_ref;
    std::string *fp = &fp_ref;
    // The path is where the bytes live, not what they are: it is
    // execution-only. Assigning it reads the trace header (fatal on a
    // missing or corrupt file) and derives the fingerprint field below,
    // which carries the content identity.
    fields_.push_back(
        {path_key, help, false, JsonKind::String, [pp] { return *pp; },
         [pp, fp](const std::string &text) {
             *fp = text.empty() ? std::string()
                                : readTraceHeader(text).fingerprint();
             *pp = text;
             return std::string();
         }});
    fields_.push_back(
        {fp_key,
         "content fingerprint of the companion trace path (derived; "
         "identity)",
         true, JsonKind::String, [fp] { return *fp; },
         [fp](const std::string &text) {
             std::uint64_t value = 0;
             if (!text.empty() && !parseHex16(text, value))
                 return "= '" + text +
                        "' is not a 16-digit lowercase hex fingerprint";
             *fp = text;
             return std::string();
         }});
}

// --- the schema --------------------------------------------------------

void
ConfigTree::bindAll()
{
    CoreParams &core = config_.core;

    bind("core.core_id", core.coreId, 0, 7,
         "identity of this core on the chip (affects address spaces)");
    bind("core.decode_width", core.decodeWidth, 1, 8,
         "instructions per decode slot (one thread/cycle)");
    bind("core.minority_slot_width", core.minoritySlotWidth, 1, 8,
         "instructions deliverable in the lower-priority thread's "
         "single slot");
    bind("core.group_size", core.groupSize, 1, 8,
         "max instructions per GCT group");
    bind("core.gct_groups", core.gctGroups, 2, 1024,
         "shared GCT capacity in groups");
    bind("core.fu_fx", core.fuCount[static_cast<int>(FuClass::FX)], 1, 8,
         "fixed-point functional units");
    bind("core.fu_fp", core.fuCount[static_cast<int>(FuClass::FP)], 1, 8,
         "floating-point functional units");
    bind("core.fu_ls", core.fuCount[static_cast<int>(FuClass::LS)], 1, 8,
         "load/store functional units");
    bind("core.fu_br", core.fuCount[static_cast<int>(FuClass::BR)], 1, 8,
         "branch functional units");
    bind("core.lmq_entries", core.lmqEntries, 1, 64,
         "load-miss-queue entries shared by both threads");
    bind("core.mispredict_penalty", core.mispredictPenalty, 0, 1000,
         "decode-redirect delay after a mispredicted branch");
    bind("core.work_conserving_slots", core.workConservingSlots, false, true,
         "give forfeited decode slots to the sibling (ablation)");
    bind("core.asid_shift", core.asidShift, 16, 56,
         "per-thread address-space separation (bits)");
    bind("core.priority_aware_walker", core.priorityAwareWalker, false, true,
         "schedule the shared table-walk engine by thread priority");
    bind("core.walker_port_gap", core.walkerPortGap, 0, 64,
         "sibling LSU port-gate cycles while the walker is busy");
    bind("core.fast_forward", core.fastForward, false, true,
         "skip verified-idle cycles in SmtCore::run()");

    BalancerParams &bal = core.balancer;
    bind("core.balancer.enabled", bal.enabled, false, true,
         "dynamic hardware resource balancer");
    bind("core.balancer.gct_share_threshold", bal.gctShareThreshold, 0.01, 1.0,
         "GCT share above which a thread is offending");
    bind("core.balancer.priority_aware_gct", bal.priorityAwareGct, false, true,
         "scale the GCT threshold by decode-slot share");
    bind("core.balancer.min_gct_share_threshold", bal.minGctShareThreshold,
         0.01, 1.0, "lower clamp of the priority-scaled GCT threshold");
    bind("core.balancer.max_gct_share_threshold", bal.maxGctShareThreshold,
         0.01, 1.0, "upper clamp of the priority-scaled GCT threshold");
    bind("core.balancer.priority_aware_lmq", bal.priorityAwareLmq, false, true,
         "scale the LMQ threshold by decode-slot share");
    bind("core.balancer.min_gct_groups", bal.minGctGroups, 0, 1024,
         "GCT groups a thread may always hold");
    bind("core.balancer.lmq_threshold", bal.lmqThreshold, 1, 64,
         "LMQ entries by one thread counting as too many L2 misses");
    bind("core.balancer.block_on_tlb_miss", bal.blockOnTlbMiss, false, true,
         "block decode of a thread with an outstanding TLB walk");
    bindEnum("core.balancer.action", bal.action, balance_action_names,
             "corrective action: 'stall' or 'flush'");

    HierarchyParams &mem = core.mem;
    const struct
    {
        const char *prefix;
        CacheParams *params;
    } levels[] = {
        {"core.mem.l1d", &mem.l1d},
        {"core.mem.l2", &mem.l2},
        {"core.mem.l3", &mem.l3},
    };
    for (const auto &lvl : levels) {
        const std::string prefix = lvl.prefix;
        CacheParams &c = *lvl.params;
        bind(prefix + ".size_bytes", c.sizeBytes, 1024, std::uint64_t{1} << 40,
             "capacity in bytes");
        bind(prefix + ".assoc", c.assoc, 1, 128, "associativity");
        bind(prefix + ".line_bytes", c.lineBytes, 16, 4096,
             "line size in bytes");
        bind(prefix + ".hit_latency", c.hitLatency, 0, 10000,
             "hit latency in cycles");
        bind(prefix + ".service_gap", c.serviceGap, 0, 100000,
             "min cycles between serviced requests");
    }

    TlbParams &tlb = mem.tlb;
    bind("core.mem.tlb.entries", tlb.entries, 1, 1 << 20, "TLB entries");
    bind("core.mem.tlb.assoc", tlb.assoc, 1, 128, "TLB associativity");
    bind("core.mem.tlb.page_bytes", tlb.pageBytes, 256, std::uint64_t{1} << 30,
         "page size in bytes");
    bind("core.mem.tlb.walk_latency", tlb.walkLatency, 0, 100000,
         "table-walk latency in cycles");

    bind("core.mem.dram_latency", mem.dramLatency, 1, 100000,
         "DRAM access latency in cycles");
    bind("core.mem.dram_service_gap", mem.dramServiceGap, 0, 100000,
         "min cycles between serviced DRAM requests");

    bind("core.bht.entries", core.bht.entries, 1, 1 << 26,
         "branch-history-table 2-bit counters");

    FameParams &fame = config_.fame;
    bind("fame.min_repetitions", fame.minRepetitions, 1,
         std::uint64_t{1} << 32, "minimum complete executions per thread");
    bind("fame.maiv", fame.maiv, 1e-6, 1.0, "maximum allowable IPC variation");
    bind("fame.warmup_repetitions", fame.warmupRepetitions, 0,
         std::uint64_t{1} << 32,
         "warm-up repetitions before the measurement window");
    bind("fame.warmup_tolerance", fame.warmupTolerance, 1e-6, 10.0,
         "per-repetition IPC change below which warm-up ends");
    bind("fame.max_cycles", fame.maxCycles, 1000, std::uint64_t{1} << 40,
         "hard cycle guard");
    bind("fame.check_period", fame.checkPeriod, 1, std::uint64_t{1} << 32,
         "simulation chunk between convergence checks");

    bind("chip.num_cores", config_.numCores, 1, max_cores,
         "SMT cores per chip in chip-level studies");

    SchedParams &sched = config_.sched;
    bindEnum("sched.policy", sched.policy, alloc_policy_names,
             "allocation policy: 'pinned', 'random' or 'symbiosis'");
    bind("sched.quantum", sched.quantum, 256, std::uint64_t{1} << 32,
         "cycles between allocation decisions");
    bind("sched.history_quanta", sched.historyQuanta, 1, 64,
         "per-thread counter samples the allocator may look back over");

    bindTrace("workload.trace", "workload.trace_fingerprint",
              config_.workloadTrace, config_.workloadTraceFp,
              "trace file replayed as the primary thread's workload "
              "('' = synthetic generator)");
    bindTrace("workload.trace_secondary",
              "workload.trace_secondary_fingerprint",
              config_.workloadTraceSecondary,
              config_.workloadTraceSecondaryFp,
              "trace file replayed as the secondary thread's workload "
              "('' = synthetic generator)");

    bind("exp.ubench_scale", config_.ubenchScale, 0.001, 1000.0,
         "work multiplier per micro-benchmark repetition");
    bind("exp.seed", config_.seed, 0, ~std::uint64_t{0},
         "master seed folded into the config fingerprint");
    bind("exp.jobs", config_.jobs, 0, 1024,
         "simulation worker threads (0 = hardware concurrency)",
         /*identity=*/false);
    // Benchmark selection: "presented" (the paper's six), "all" (all
    // fifteen), or a comma-separated list of paper names.
    // Execution-only: it selects which jobs run, never how one
    // simulates, so it stays out of the fingerprint.
    std::vector<UbenchId> *benchmarks = &config_.benchmarks;
    fields_.push_back(
        {"exp.benchmarks",
         "'presented', 'all', or comma-separated paper names", false,
         JsonKind::String,
         [benchmarks] {
             if (*benchmarks == presentedUbench())
                 return std::string("presented");
             if (*benchmarks == allUbench())
                 return std::string("all");
             std::string out;
             for (UbenchId id : *benchmarks)
                 out += (out.empty() ? "" : ",") + std::string(ubenchName(id));
             return out;
         },
         [benchmarks](const std::string &text) {
             if (text == "presented" || text == "all") {
                 *benchmarks = text == "all" ? allUbench() : presentedUbench();
                 return std::string();
             }
             if (text.empty())
                 return std::string("must name at least one benchmark");
             const std::vector<UbenchId> &known = allUbench();
             std::vector<UbenchId> ids;
             for (const std::string &name : splitList(text)) {
                 const auto it =
                     std::find_if(known.begin(), known.end(),
                                  [&](UbenchId id) {
                                      return name == ubenchName(id);
                                  });
                 if (it == known.end())
                     return "names unknown micro-benchmark '" + name + "'";
                 ids.push_back(*it);
             }
             *benchmarks = std::move(ids);
             return std::string();
         }});
}

// --- field access ------------------------------------------------------

std::vector<std::string>
ConfigTree::paths() const
{
    std::vector<std::string> out;
    out.reserve(fields_.size());
    for (const Field &f : fields_)
        out.push_back(f.path);
    return out;
}

bool
ConfigTree::has(const std::string &path) const
{
    return findField(path) != nullptr;
}

const ConfigTree::Field *
ConfigTree::findField(const std::string &path) const
{
    for (const Field &f : fields_)
        if (f.path == path)
            return &f;
    return nullptr;
}

const ConfigTree::Field &
ConfigTree::requireField(const std::string &path) const
{
    const Field *f = findField(path);
    if (!f)
        fatal("%s", unknownKey(*this, path).c_str());
    return *f;
}

std::string
ConfigTree::assign(const Field &f, const std::string &text)
{
    const std::string error = f.set(text);
    return error.empty() ? error : "config key '" + f.path + "' " + error;
}

std::string
ConfigTree::get(const std::string &path) const
{
    return requireField(path).get();
}

std::string
ConfigTree::trySet(const std::string &path, const std::string &value)
{
    const Field *f = findField(path);
    return f ? assign(*f, value) : unknownKey(*this, path);
}

void
ConfigTree::set(const std::string &path, const std::string &value)
{
    fatalOn(trySet(path, value));
}

std::string
ConfigTree::tryApplyOverride(const std::string &assignment)
{
    const auto eq = assignment.find('=');
    if (eq == std::string::npos || eq == 0)
        return "expected key=value, got '" + assignment + "'";
    return trySet(assignment.substr(0, eq), assignment.substr(eq + 1));
}

void
ConfigTree::applyOverride(const std::string &assignment)
{
    fatalOn(tryApplyOverride(assignment));
}

std::string
ConfigTree::suggest(const std::string &path) const
{
    std::string best;
    std::size_t best_dist = ~std::size_t{0};
    for (const Field &f : fields_) {
        const std::size_t d = editDistance(path, f.path);
        if (d < best_dist) {
            best_dist = d;
            best = f.path;
        }
    }
    return best;
}

std::string
ConfigTree::help(const std::string &path) const
{
    return requireField(path).help;
}

// --- JSON --------------------------------------------------------------

void
ConfigTree::save(JsonWriter &w) const
{
    // Fields are declared grouped by object prefix, so emitting them in
    // order while tracking the open-object stack yields one nested
    // object per dotted component without ever reopening a key.
    std::vector<std::string> open;
    w.beginObject();
    for (const Field &f : fields_) {
        std::vector<std::string> comps = splitList(f.path, '.');
        const std::string leaf = comps.back();
        comps.pop_back();

        std::size_t common = 0;
        while (common < open.size() && common < comps.size() &&
               open[common] == comps[common])
            ++common;
        while (open.size() > common) {
            w.endObject();
            open.pop_back();
        }
        while (open.size() < comps.size()) {
            w.key(comps[open.size()]);
            w.beginObject();
            open.push_back(comps[open.size()]);
        }
        w.key(leaf);
        // Strings are quoted; every other kind's text is a JSON literal.
        if (f.kind == JsonKind::String)
            w.value(f.get());
        else
            w.literal(f.get());
    }
    while (!open.empty()) {
        w.endObject();
        open.pop_back();
    }
    w.endObject();
}

std::string
ConfigTree::saveString() const
{
    std::ostringstream os;
    {
        JsonWriter w(os);
        save(w);
    }
    return os.str();
}

void
ConfigTree::saveFile(const std::string &path) const
{
    std::ofstream os(path);
    if (!os)
        fatal("cannot write config file '%s'", path.c_str());
    os << saveString();
}

void
ConfigTree::loadObject(const JsonValue &node, const std::string &prefix)
{
    static const char *const kind_names[] = {"boolean", "integer", "number",
                                             "string"};
    for (const JsonValue::Member &m : node.members()) {
        const std::string path =
            prefix.empty() ? m.first : prefix + "." + m.first;
        const JsonValue &v = m.second;
        if (v.isObject()) {
            loadObject(v, path);
            continue;
        }
        const Field &f = requireField(path);
        const bool kind_ok = f.kind == JsonKind::Bool      ? v.isBool()
                             : f.kind == JsonKind::Integer ? v.isIntegral()
                             : f.kind == JsonKind::Number  ? v.isNumber()
                                                           : v.isString();
        if (!kind_ok)
            fatal("config key '%s' expects a JSON %s", path.c_str(),
                  kind_names[static_cast<int>(f.kind)]);
        fatalOn(assign(f, v.isString() ? v.asString()
                          : v.isBool() ? valueText(v.asBool())
                                       : v.numberText()));
    }
}

void
ConfigTree::load(const JsonValue &root)
{
    if (!root.isObject())
        fatal("config document must be a JSON object");
    loadObject(root, "");
}

void
ConfigTree::loadString(const std::string &text, const std::string &where)
{
    load(parseJson(text, where));
}

void
ConfigTree::loadFile(const std::string &path)
{
    load(parseJsonFile(path));
}

// --- identity ----------------------------------------------------------

std::string
ConfigTree::canonical() const
{
    return identityLines("p5sim-config", false);
}

std::uint64_t
ConfigTree::fingerprint() const
{
    return hashText(0, canonical());
}

std::string
ConfigTree::fingerprintHex() const
{
    return hex16(fingerprint());
}

namespace {

/**
 * Identity fields that cannot influence the warm-up phase: the
 * measurement-convergence knobs (warm-up ends before they are ever
 * consulted) and the master seed (per-job randomness is measurement
 * provenance; the warm trajectory is a pure function of programs and
 * core geometry). Everything else that is identity is warm identity.
 */
bool
warmExcluded(const std::string &path)
{
    return path == "fame.min_repetitions" || path == "fame.maiv" ||
           path == "exp.seed";
}

} // namespace

std::string
ConfigTree::warmCanonical() const
{
    return identityLines("p5sim-warm", true);
}

std::string
ConfigTree::identityLines(const char *header, bool warm) const
{
    std::string out = std::string(header) + " schema=" +
                      std::to_string(config_schema_version) + "\n";
    for (const Field &f : fields_) {
        if (!f.identity || (warm && warmExcluded(f.path)))
            continue;
        out += f.path;
        out += '=';
        out += f.get();
        out += '\n';
    }
    return out;
}

std::uint64_t
ConfigTree::warmFingerprint() const
{
    return hashText(0, warmCanonical());
}

std::string
ConfigTree::warmFingerprintHex() const
{
    return hex16(warmFingerprint());
}

void
ConfigTree::stampTag()
{
    config_.configTag = fingerprintHex();
    config_.warmTag = warmFingerprintHex();
}

std::string
ConfigTree::tryValidate() const
{
    // Trace path/fingerprint coherence: the fingerprint is derived
    // whenever the path is assigned, so a mismatch means the file
    // changed underneath a keyed config (or the fingerprint was set by
    // hand) — either way the identity is a lie and must not propagate
    // into job keys. Checked before the set(get()) roundtrip below,
    // which re-derives the fingerprint and would mask the mismatch.
    auto checkTrace = [](const std::string &path_key,
                         const std::string &path, const std::string &fp_key,
                         const std::string &fp) -> std::string {
        if (path.empty())
            return fp.empty()
                       ? ""
                       : "config key '" + fp_key + "' is set but '" +
                             path_key + "' is empty: a trace fingerprint "
                             "without a trace is meaningless";
        TraceHeader h;
        std::string error;
        if (!tryReadTraceHeader(path, h, &error))
            return error;
        const std::string actual = h.fingerprint();
        if (fp != actual)
            return "config key '" + fp_key + "' = '" + fp +
                   "' does not match trace '" + path + "' (fingerprint " +
                   actual + "): the file changed since it was keyed";
        return "";
    };
    if (std::string e = checkTrace("workload.trace", config_.workloadTrace,
                                   "workload.trace_fingerprint",
                                   config_.workloadTraceFp);
        !e.empty())
        return e;
    if (std::string e = checkTrace("workload.trace_secondary",
                                   config_.workloadTraceSecondary,
                                   "workload.trace_secondary_fingerprint",
                                   config_.workloadTraceSecondaryFp);
        !e.empty())
        return e;
    // Per-field ranges were enforced at set time; re-check them here so
    // a config mutated directly through the structs is covered too
    // (chip.num_cores, a positive fame.maiv and a non-empty
    // exp.benchmarks are such ranges).
    for (const Field &f : fields_)
        if (std::string e = assign(f, f.get()); !e.empty())
            return e;
    // Cross-field invariants.
    if (std::string e = config_.core.tryValidate(); !e.empty())
        return e;
    return config_.sched.tryValidate();
}


} // namespace p5
