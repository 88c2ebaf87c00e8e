#include "program/trace.hh"

#include "common/artifact.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/rng.hh"
#include "program/stream.hh"

namespace p5 {

namespace {

/** Distinct chain constant: trace identities never collide with the
 *  checkpoint or config fingerprint domains. */
constexpr std::uint64_t trace_fp_chain = 0x7eace0de5eedc0deULL;

/** Unsigned LEB128 append. */
void
putVarint(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Bounds-checked payload cursor; every read fatal()s on underrun. */
struct ByteReader
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;

    std::uint8_t
    u8()
    {
        if (pos >= size)
            fatal("trace payload truncated");
        return data[pos++];
    }

    std::uint64_t
    varint()
    {
        std::uint64_t out = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            const std::uint8_t byte = u8();
            out |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
            if (!(byte & 0x80))
                return out;
        }
        fatal("trace payload truncated"); // > 10 continuation bytes
    }
};

/** Source-register wire encoding: 0 none, even = producer distance,
 *  odd = literal live-in register. */
std::uint64_t
encodeSrc(RegIndex reg, const std::vector<SeqNum> &producer_of,
          std::uint64_t idx)
{
    if (reg == invalid_reg)
        return 0;
    const SeqNum prod = producer_of[static_cast<std::size_t>(reg)];
    if (prod != static_cast<SeqNum>(-1))
        return (idx - prod) << 1;
    return ((static_cast<std::uint64_t>(reg) + 1) << 1) | 1;
}

RegIndex
decodeSrc(std::uint64_t wire, const std::vector<PredecodedInstr> &table,
          std::uint64_t idx)
{
    if (wire == 0)
        return invalid_reg;
    const std::uint64_t payload = wire >> 1;
    if (wire & 1) { // literal live-in register
        if (payload == 0 ||
            payload > static_cast<std::uint64_t>(num_arch_regs))
            fatal("source register out of range");
        return static_cast<RegIndex>(payload - 1);
    }
    // Backward distance to the producer record.
    if (payload == 0 || payload > idx)
        fatal("dependence distance out of bounds");
    const RegIndex dst =
        table[static_cast<std::size_t>(idx - payload)].proto.dst;
    if (dst == invalid_reg)
        fatal("dependence distance points at a non-producer");
    return dst;
}

std::uint64_t
headerU64(const JsonValue &hdr, const char *field)
{
    const JsonValue *v = hdr.find(field);
    if (!v || !v->isInt() || v->asInt() < 0)
        fatal("trace header has a bad count field");
    return static_cast<std::uint64_t>(v->asInt());
}

/** Decode and validate the trace members of a frame header. */
TraceHeader
decodeHeader(const JsonValue &hdr)
{
    const JsonValue *version = hdr.find("version");
    if (!version || !version->isInt() ||
        version->asInt() != trace_format_version)
        fatal("unsupported trace format version");
    const JsonValue *name = hdr.find("name");
    if (!name || !name->isString() || name->asString().empty())
        fatal("trace header has no name");

    TraceHeader h;
    h.name = name->asString();
    h.instrsPerExecution = headerU64(hdr, "instrsPerExecution");
    h.records = headerU64(hdr, "records");
    h.executions = headerU64(hdr, "executions");
    h.bytes = headerU64(hdr, "bytes");
    const JsonValue *checksum = hdr.find("checksum");
    if (!checksum || !checksum->isString() ||
        !parseHex16(checksum->asString(), h.checksum))
        fatal("trace header has a bad checksum field");

    if (h.instrsPerExecution == 0 || h.executions == 0 ||
        h.records == 0)
        fatal("trace header has a zero count");
    if (h.records != h.executions * h.instrsPerExecution)
        fatal("trace records != executions * instrsPerExecution");
    return h;
}

/** The decoded record table, checked against its header. */
std::vector<PredecodedInstr>
checkedTable(const TraceHeader &h, std::vector<PredecodedInstr> table)
{
    if (table.empty())
        fatal("trace '%s' has no records", h.name.c_str());
    if (table.size() != h.records)
        fatal("trace '%s' table/header record mismatch", h.name.c_str());
    return table;
}

} // namespace

std::string
TraceHeader::fingerprint() const
{
    std::uint64_t h = hashText(trace_fp_chain, name);
    h = hashCombine(h, instrsPerExecution);
    h = hashCombine(h, records);
    h = hashCombine(h, executions);
    h = hashCombine(h, checksum);
    return hex16(h);
}

TraceProgram::TraceProgram(TraceHeader header,
                           std::vector<PredecodedInstr> table)
    : InstrSource(header.name, header.instrsPerExecution,
                  checkedTable(header, std::move(table)), {}, {},
                  {{static_cast<std::size_t>(header.records), 1, 0}}),
      header_(std::move(header))
{
}

void
dumpTrace(const InstrSource &source, std::uint64_t executions,
          const std::string &path)
{
    if (executions == 0)
        fatal("dumpTrace: at least one execution is required");
    const std::uint64_t ipe = source.instrsPerExecution();
    const std::uint64_t n = executions * ipe;

    // Record the dynamic sequence through the same stream the core
    // would fetch from, so replay is bit-for-bit what a core saw.
    InstrStream stream(&source, 0);

    std::vector<std::uint8_t> payload;
    payload.reserve(static_cast<std::size_t>(n) * 6);
    std::vector<SeqNum> producer_of(num_arch_regs,
                                    static_cast<SeqNum>(-1));
    Addr prev_pc = 0;
    Addr prev_addr = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        const DynInstr di = stream.fetch();
        const auto op = static_cast<std::uint8_t>(di.op);
        payload.push_back(op | (di.branchTaken ? 0x80 : 0));
        putVarint(payload,
                  di.dst == invalid_reg
                      ? 0
                      : static_cast<std::uint64_t>(di.dst) + 1);
        putVarint(payload, encodeSrc(di.src0, producer_of, i));
        putVarint(payload, encodeSrc(di.src1, producer_of, i));
        if (di.op == OpClass::PrioNop)
            putVarint(payload,
                      static_cast<std::uint64_t>(di.prioNopReg));
        putVarint(payload, zigzag(static_cast<std::int64_t>(
                               di.pc - prev_pc)));
        prev_pc = di.pc;
        if (isMemOp(di.op)) {
            putVarint(payload, zigzag(static_cast<std::int64_t>(
                                   di.addr - prev_addr)));
            prev_addr = di.addr;
        }
        if (di.dst != invalid_reg)
            producer_of[static_cast<std::size_t>(di.dst)] = i;
    }

    FrameWriter frame(trace_magic, payload.data(), payload.size());
    JsonWriter &w = frame.header();
    w.member("version", trace_format_version);
    w.member("name", source.name());
    w.member("instrsPerExecution", ipe);
    w.member("records", n);
    w.member("executions", executions);
    frame.payloadMembers();
    publishFile(path, frame.finish(), "trace");
}

TraceHeader
readTraceHeader(const std::string &path)
{
    return decodeHeader(readFrameHeader(path, "trace", trace_magic));
}

std::unique_ptr<TraceProgram>
loadTrace(const std::string &path)
{
    std::string blob;
    const Frame frame = readFrame(path, "trace", trace_magic, blob);
    const TraceHeader h = decodeHeader(frame.header);
    checkFramePayload(frame, "trace");

    std::vector<PredecodedInstr> table;
    table.reserve(static_cast<std::size_t>(h.records));
    ByteReader r{reinterpret_cast<const std::uint8_t *>(frame.payload.data()),
                 frame.payload.size()};
    Addr prev_pc = 0;
    Addr prev_addr = 0;
    for (std::uint64_t i = 0; i < h.records; ++i) {
        const std::uint8_t op_byte = r.u8();
        const std::uint64_t dst = r.varint();
        const std::uint64_t src0 = r.varint();
        const std::uint64_t src1 = r.varint();
        const std::uint8_t op_raw = op_byte & 0x7f;
        if (op_raw >= static_cast<std::uint8_t>(OpClass::NumOpClasses))
            fatal("trace record has a bad op class");
        const auto op = static_cast<OpClass>(op_raw);
        if ((op_byte & 0x80) && op != OpClass::Branch)
            fatal("taken bit set on a non-branch record");
        if (dst > static_cast<std::uint64_t>(num_arch_regs))
            fatal("destination register out of range");

        PredecodedInstr ps;
        ps.proto.op = op;
        ps.proto.dst =
            dst == 0 ? invalid_reg : static_cast<RegIndex>(dst - 1);
        ps.proto.branchTaken = (op_byte & 0x80) != 0;
        ps.proto.src0 = decodeSrc(src0, table, i);
        ps.proto.src1 = decodeSrc(src1, table, i);
        if (op == OpClass::PrioNop) {
            const std::uint64_t prio_reg = r.varint();
            if (prio_reg >= static_cast<std::uint64_t>(num_arch_regs))
                fatal("PrioNop register out of range");
            ps.proto.prioNopReg = static_cast<int>(prio_reg);
        }
        ps.proto.pc = prev_pc + static_cast<Addr>(unzigzag(r.varint()));
        prev_pc = ps.proto.pc;
        if (isMemOp(op)) {
            ps.proto.addr =
                prev_addr + static_cast<Addr>(unzigzag(r.varint()));
            prev_addr = ps.proto.addr;
        }
        table.push_back(ps);
    }
    if (r.pos != r.size)
        fatal("trace payload has trailing bytes after the last record");

    return std::make_unique<TraceProgram>(h, std::move(table));
}

std::string
quarantineTrace(const std::string &path)
{
    if (!quarantineFile(path, "trace"))
        fatal("cannot quarantine corrupt trace '%s'", path.c_str());
    return path + ".bad";
}

} // namespace p5
