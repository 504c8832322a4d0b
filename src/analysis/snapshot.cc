#include "analysis/snapshot.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "corpus/sections.h"
#include "engine/engine.h"
// The prediction-cache section reuses the wire codec (one Prediction
// body layout in the repo, not two drifting copies).
#include "server/protocol.h"
#include "testing/fault.h"

namespace facile::analysis {

namespace {

constexpr char kMagicV2[8] = {'F', 'A', 'C', 'S', 'N', 'P', '2', '\n'};
constexpr std::size_t kHeaderSizeV2 = 64;

enum class SectionType : std::uint32_t {
    Records = 1,
    FusedPairs = 2,
    Predictions = 3,
};

// ---- append helpers (little-endian; the host is asserted little-
// endian by the server protocol, and the snapshot shares that
// assumption via memcpy codecs) ---------------------------------------------

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    const std::size_t n = out.size();
    out.resize(n + 4);
    std::memcpy(out.data() + n, &v, 4);
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    const std::size_t n = out.size();
    out.resize(n + 8);
    std::memcpy(out.data() + n, &v, 8);
}

/** Bounds-checked sequential reader; every overrun is a SnapshotError. */
struct Reader
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;

    void
    need(std::size_t n) const
    {
        if (size - pos < n)
            throw SnapshotError("truncated data");
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v;
        std::memcpy(&v, data + pos, 4);
        pos += 4;
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v;
        std::memcpy(&v, data + pos, 8);
        pos += 8;
        return v;
    }

    const std::uint8_t *
    bytes(std::size_t n)
    {
        need(n);
        const std::uint8_t *p = data + pos;
        pos += n;
        return p;
    }
};

// ---- Prediction codec (prediction-cache section) ---------------------------
//
// Snapshot entries carry exactly the wire protocol's PREDICT response
// payload: appendPredictResponse minus its frame header on the way
// out, decodePredictInto (which validates lengths and component
// ranges) on the way in. Raw IEEE-754 bit patterns either way.

void
encodePrediction(std::vector<std::uint8_t> &out,
                 const model::Prediction &p)
{
    std::vector<std::uint8_t> frame;
    server::appendPredictResponse(frame, 0, p);
    out.insert(out.end(),
               frame.begin() + server::kResponseHeaderSize, frame.end());
}

model::Prediction
decodePrediction(const std::uint8_t *data, std::size_t len)
{
    model::Prediction p;
    if (!server::decodePredictInto(data, len, p))
        throw SnapshotError("bad prediction entry");
    return p;
}

// ---- file I/O --------------------------------------------------------------

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::FILE *f;
    const auto fa = testing::faultPoint("snapshot.read", 0);
    if (fa.err) {
        errno = fa.err;
        f = nullptr;
    } else {
        f = std::fopen(path.c_str(), "rb");
    }
    if (!f)
        throw SnapshotError("cannot open " + path);
    std::fseek(f, 0, SEEK_END);
    const long sz = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<std::uint8_t> buf(sz > 0 ? static_cast<std::size_t>(sz)
                                         : 0);
    if (!buf.empty() && std::fread(buf.data(), 1, buf.size(), f) !=
                            buf.size()) {
        std::fclose(f);
        throw SnapshotError("short read on " + path);
    }
    std::fclose(f);
    return buf;
}

} // namespace

std::string
snapshotGenerationPath(const std::string &path, int gen)
{
    return corpus::generationPath(path, gen);
}

std::uint64_t
fnv1a64(const std::uint8_t *data, std::size_t len, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

// ---- v2 flat record layout -------------------------------------------------
//
// Everything below is position-independent POD: offsets and counts
// instead of pointers, natural alignment throughout, zero padding in
// every gap so canonically-written images are deterministic byte
// streams. All structs are memcpy'd, never overlaid — the mmap view
// stays const and no alignment faults are possible even on a forged
// image.

namespace {

/** Flag bits of FlatRecordHead::flags. Other bits must be zero. */
constexpr std::uint8_t kFlagIsJcc = 1;
constexpr std::uint8_t kFlagJccReadsCf = 2;
constexpr std::uint8_t kFlagJccTestsSOP = 4;
constexpr std::uint8_t kFlagWritesSpilled = 8;
constexpr std::uint8_t kFlagDepsSpilled = 16;
constexpr std::uint8_t kFlagAll = 31;

/**
 * Fixed 64-byte head of one flat record. Trailing arrays follow in
 * this order: FlatDepRead × nDepReads, FlatOperand × nOps, FlatUop ×
 * nPortUops, u16 × nPortMasks, u8 × nReads, u8 × nWrites, zero pad to
 * an 8-byte boundary (totalBytes covers head + arrays + pad).
 *
 * The inline dependence mirrors (InstRecord::writesInl/depInl) are
 * NOT stored: they are rebuilt from the arrays on materialize, which
 * is exactly how the cold path builds them. The spilled flags record
 * the one piece of state that is not derivable — a record may carry
 * kSpilled with small vectors, and that (valid) state must round-trip
 * without changing prediction behavior.
 */
struct FlatRecordHead
{
    std::uint32_t totalBytes; // head + arrays + pad, 8-byte multiple
    std::uint8_t keyLen;      // 1..15
    std::uint8_t key[15];     // intern key bytes, zero-padded
    std::uint16_t mnem;
    std::uint8_t cc;
    std::uint8_t nopLen;
    std::uint8_t nOps;
    std::uint8_t decLength;
    std::uint8_t opcodeOffset;
    std::uint8_t lcp;
    std::int32_t fusedUops;
    std::int32_t issueUops;
    std::int32_t latency;
    std::int32_t nAvailSimple;
    std::uint8_t needsComplex;
    std::uint8_t macroFusible;
    std::uint8_t eliminated;
    std::uint8_t rwDepBreaking;
    std::uint8_t stackOp;
    std::uint8_t depBreaking;
    std::uint8_t fuseClass;
    std::uint8_t flags;
    std::uint16_t nPortUops;
    std::uint16_t nDepReads;
    std::uint16_t nPortMasks;
    std::uint8_t nReads;
    std::uint8_t nWrites;
    std::uint8_t pad[4];
};
static_assert(sizeof(FlatRecordHead) == 64,
              "FlatRecordHead is the on-disk layout");

struct FlatDepRead
{
    std::int32_t value;
    std::uint32_t pad;
    std::uint64_t latencyBits; // raw IEEE-754
};
static_assert(sizeof(FlatDepRead) == 16, "on-disk layout");

struct FlatOperand
{
    std::uint8_t kind;
    std::uint8_t regCls, regIdx;         // kind == Reg
    std::uint8_t memBaseCls, memBaseIdx; // kind == Mem ...
    std::uint8_t memIndexCls, memIndexIdx;
    std::uint8_t memScale;
    std::int32_t memDisp;
    std::uint8_t memWidth;
    std::uint8_t immWidth; // kind == Imm
    std::uint8_t pad[2];
    std::int64_t imm; // kind == Imm
};
static_assert(sizeof(FlatOperand) == 24, "on-disk layout");

struct FlatUop
{
    std::uint16_t ports;
    std::uint8_t kind;
    std::uint8_t pad;
};
static_assert(sizeof(FlatUop) == 4, "on-disk layout");

/**
 * 64-byte head of a Records section: [head][records][index], where
 * records occupy recordsBytes starting at recordsOffset (always 64)
 * and the open-addressed index starts at indexOffset == 64 +
 * recordsBytes and runs to the section end.
 */
struct RecordsSectionHead
{
    std::uint64_t recordCount;
    std::uint64_t indexSlots; // power of two, >= max(8, 2*recordCount)
    std::uint64_t recordsOffset;
    std::uint64_t recordsBytes;
    std::uint64_t indexOffset;
    std::uint64_t reserved[3];
};
static_assert(sizeof(RecordsSectionHead) == 64, "on-disk layout");

/** One open-addressed index slot; recOffset 0 means empty. */
struct IndexSlot
{
    std::uint64_t keyLo;
    std::uint64_t keyHi;
    std::uint64_t recOffset; // from section start, into records area
};
static_assert(sizeof(IndexSlot) == 24, "on-disk layout");

/**
 * Pack the intern key bytes into the 16-byte lookup key: zero-padded
 * bytes in [0,15), length at [15] — the same packing the interner's
 * canonical maps hash, so index probes and shard-map probes agree on
 * equality by construction.
 */
void
packKey16(const std::uint8_t *bytes, std::size_t len,
          std::uint8_t out[16])
{
    std::memset(out, 0, 16);
    std::memcpy(out, bytes, len);
    out[15] = static_cast<std::uint8_t>(len);
}

/** packKey16 of a SnapshotModel record key, length-checked. */
std::array<std::uint8_t, 16>
modelKey16(const std::vector<std::uint8_t> &key)
{
    if (key.empty() || key.size() > 15)
        throw SnapshotError("bad key length");
    std::array<std::uint8_t, 16> k;
    packKey16(key.data(), key.size(), k.data());
    return k;
}

/** Flat-encoded size of @p rec. @throws SnapshotError on overflow. */
std::uint64_t
flatRecordSize(const InstRecord &rec)
{
    if (rec.dec.inst.ops.size() > 255 ||
        rec.info.portUops.size() > 65535 ||
        rec.depReads.size() > 65535 || rec.portMasks.size() > 65535 ||
        rec.rw.reads.size() > 255 || rec.rw.writes.size() > 255)
        throw SnapshotError("record too large for flat encoding");
    return corpus::alignUp(
        sizeof(FlatRecordHead) + 16 * rec.depReads.size() +
            24 * rec.dec.inst.ops.size() +
            4 * rec.info.portUops.size() + 2 * rec.portMasks.size() +
            rec.rw.reads.size() + rec.rw.writes.size(),
        8);
}

std::uint64_t
doubleBits(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, 8);
    return bits;
}

/**
 * Append the flat encoding of (@p key16, @p rec) to @p out — exactly
 * flatRecordSize(rec) bytes. @throws SnapshotError when the record is
 * not representable: oversized counts, or inline dependence mirrors
 * that do not match the vectors they claim to mirror (possible only
 * in a hand-built SnapshotModel; refusing to encode beats silently
 * changing what precedence() would stream after a rebuild).
 */
void
encodeFlatRecord(std::vector<std::uint8_t> &out,
                 const std::uint8_t key16[16], const InstRecord &rec)
{
    const std::uint64_t total = flatRecordSize(rec);
    FlatRecordHead h;
    std::memset(&h, 0, sizeof h);
    h.totalBytes = static_cast<std::uint32_t>(total);
    h.keyLen = key16[15];
    std::memcpy(h.key, key16, 15);
    h.mnem = static_cast<std::uint16_t>(rec.dec.inst.mnem);
    h.cc = static_cast<std::uint8_t>(rec.dec.inst.cc);
    h.nopLen = rec.dec.inst.nopLen;
    h.nOps = static_cast<std::uint8_t>(rec.dec.inst.ops.size());
    h.decLength = rec.dec.length;
    h.opcodeOffset = rec.dec.opcodeOffset;
    h.lcp = rec.dec.lcp ? 1 : 0;
    h.fusedUops = rec.info.fusedUops;
    h.issueUops = rec.info.issueUops;
    h.latency = rec.info.latency;
    h.nAvailSimple = rec.info.nAvailableSimpleDecoders;
    h.needsComplex = rec.info.needsComplexDecoder ? 1 : 0;
    h.macroFusible = rec.info.macroFusible ? 1 : 0;
    h.eliminated = rec.info.eliminated ? 1 : 0;
    h.rwDepBreaking = rec.rw.depBreaking ? 1 : 0;
    h.stackOp = rec.stackOp ? 1 : 0;
    h.depBreaking = rec.depBreaking ? 1 : 0;
    h.fuseClass = static_cast<std::uint8_t>(rec.fuseClass);
    h.flags = (rec.isJcc ? kFlagIsJcc : 0) |
              (rec.jccReadsCf ? kFlagJccReadsCf : 0) |
              (rec.jccTestsSOP ? kFlagJccTestsSOP : 0);
    h.nPortUops = static_cast<std::uint16_t>(rec.info.portUops.size());
    h.nDepReads = static_cast<std::uint16_t>(rec.depReads.size());
    h.nPortMasks = static_cast<std::uint16_t>(rec.portMasks.size());
    h.nReads = static_cast<std::uint8_t>(rec.rw.reads.size());
    h.nWrites = static_cast<std::uint8_t>(rec.rw.writes.size());

    // The spilled flags: the mirrors themselves are rebuilt on
    // materialize, so a mirror that disagrees with its vector has no
    // flat representation — reject it.
    if (rec.nWritesInl == InstRecord::kSpilled) {
        h.flags |= kFlagWritesSpilled;
    } else {
        if (rec.nWritesInl > InstRecord::kInlineDeps ||
            rec.nWritesInl != rec.rw.writes.size())
            throw SnapshotError("inline write mirror mismatch");
        for (std::uint8_t i = 0; i < rec.nWritesInl; ++i)
            if (rec.writesInl[i] !=
                static_cast<std::uint8_t>(rec.rw.writes[i]))
                throw SnapshotError("inline write mirror mismatch");
    }
    if (rec.nDepInl == InstRecord::kSpilled) {
        h.flags |= kFlagDepsSpilled;
    } else {
        if (rec.nDepInl > InstRecord::kInlineDeps ||
            rec.nDepInl != rec.depReads.size())
            throw SnapshotError("inline dep mirror mismatch");
        for (std::uint8_t i = 0; i < rec.nDepInl; ++i)
            if (rec.depInl[i].value != rec.depReads[i].value ||
                doubleBits(rec.depInl[i].latency) !=
                    doubleBits(rec.depReads[i].latency))
                throw SnapshotError("inline dep mirror mismatch");
    }

    const std::size_t start = out.size();
    out.reserve(start + total);
    auto putPod = [&out](const void *p, std::size_t n) {
        const auto *b = static_cast<const std::uint8_t *>(p);
        out.insert(out.end(), b, b + n);
    };
    putPod(&h, sizeof h);
    for (const DepRead &d : rec.depReads) {
        FlatDepRead fd{d.value, 0, doubleBits(d.latency)};
        putPod(&fd, sizeof fd);
    }
    for (const isa::Operand &op : rec.dec.inst.ops) {
        FlatOperand fo;
        std::memset(&fo, 0, sizeof fo);
        fo.kind = static_cast<std::uint8_t>(op.kind);
        switch (op.kind) {
          case isa::Operand::Kind::Reg:
            fo.regCls = static_cast<std::uint8_t>(op.reg.cls);
            fo.regIdx = op.reg.idx;
            break;
          case isa::Operand::Kind::Mem:
            fo.memBaseCls = static_cast<std::uint8_t>(op.mem.base.cls);
            fo.memBaseIdx = op.mem.base.idx;
            fo.memIndexCls = static_cast<std::uint8_t>(op.mem.index.cls);
            fo.memIndexIdx = op.mem.index.idx;
            fo.memScale = op.mem.scale;
            fo.memDisp = op.mem.disp;
            fo.memWidth = op.mem.width;
            break;
          case isa::Operand::Kind::Imm:
            fo.imm = op.imm;
            fo.immWidth = op.immWidth;
            break;
          case isa::Operand::Kind::None:
            break;
        }
        putPod(&fo, sizeof fo);
    }
    for (const uops::Uop &u : rec.info.portUops) {
        FlatUop fu{u.ports, static_cast<std::uint8_t>(u.kind), 0};
        putPod(&fu, sizeof fu);
    }
    for (uarch::PortMask m : rec.portMasks) {
        const std::uint16_t v = m;
        putPod(&v, 2);
    }
    for (int v : rec.rw.reads)
        out.push_back(static_cast<std::uint8_t>(v));
    for (int v : rec.rw.writes)
        out.push_back(static_cast<std::uint8_t>(v));
    out.resize(start + total, 0); // zero pad to the 8-byte boundary
}

/** Validate one decoded reg class byte and build the isa::Reg. */
isa::Reg
flatReg(std::uint8_t cls, std::uint8_t idx)
{
    if (cls > static_cast<std::uint8_t>(isa::RegClass::Ymm))
        throw SnapshotError("bad register class");
    return isa::Reg{static_cast<isa::RegClass>(cls), idx};
}

/**
 * Decode the flat record at @p off of section @p sec (records area
 * bounded by @p limit = indexOffset), filling @p rec and the packed
 * key @p keyOut. Every field is validated — a hit through the lazy
 * source must be just as trustworthy as an eager parse. @return the
 * record's totalBytes.
 * @throws SnapshotError; @p rec may be partially filled then (callers
 * materialize into a scratch record, never directly into a caller's
 * out-param).
 */
std::uint64_t
materializeFlatRecord(const std::uint8_t *sec, std::uint64_t limit,
                      std::uint64_t off, std::uint8_t keyOut[16],
                      InstRecord &rec)
{
    if (off < sizeof(RecordsSectionHead) || off % 8 != 0 ||
        off + sizeof(FlatRecordHead) > limit)
        throw SnapshotError("flat record out of bounds");
    FlatRecordHead h;
    std::memcpy(&h, sec + off, sizeof h);

    const std::uint64_t need = corpus::alignUp(
        sizeof(FlatRecordHead) + 16ULL * h.nDepReads + 24ULL * h.nOps +
            4ULL * h.nPortUops + 2ULL * h.nPortMasks + h.nReads +
            h.nWrites,
        8);
    if (h.totalBytes != need || off + need > limit)
        throw SnapshotError("flat record size mismatch");
    if (h.keyLen < 1 || h.keyLen > 15)
        throw SnapshotError("bad key length");
    for (int i = h.keyLen; i < 15; ++i)
        if (h.key[i] != 0)
            throw SnapshotError("bad key padding");
    if (h.flags & ~kFlagAll)
        throw SnapshotError("bad record flags");
    for (std::uint8_t p : h.pad)
        if (p != 0)
            throw SnapshotError("bad record padding");
    if (h.mnem >=
        static_cast<std::uint16_t>(isa::Mnemonic::kNumMnemonics))
        throw SnapshotError("bad mnemonic");
    if (h.cc > static_cast<std::uint8_t>(isa::Cond::NLE) &&
        h.cc != static_cast<std::uint8_t>(isa::Cond::None))
        throw SnapshotError("bad condition code");
    if (h.fuseClass > static_cast<std::uint8_t>(FuseClass::NoCarryNoSOP))
        throw SnapshotError("bad fuse class");
    if (!(h.flags & kFlagWritesSpilled) &&
        h.nWrites > InstRecord::kInlineDeps)
        throw SnapshotError("bad inline write count");
    if (!(h.flags & kFlagDepsSpilled) &&
        h.nDepReads > InstRecord::kInlineDeps)
        throw SnapshotError("bad inline dep count");

    std::memcpy(keyOut, h.key, 15);
    keyOut[15] = h.keyLen;

    rec.dec.inst.mnem = static_cast<isa::Mnemonic>(h.mnem);
    rec.dec.inst.cc = static_cast<isa::Cond>(h.cc);
    rec.dec.inst.nopLen = h.nopLen;
    rec.dec.length = h.decLength;
    rec.dec.opcodeOffset = h.opcodeOffset;
    rec.dec.lcp = h.lcp != 0;
    // dispWidth/immWidth are not stored and stay 0: internAt builds
    // keys from a fresh decode of the block's bytes, never from a record.
    rec.info.fusedUops = h.fusedUops;
    rec.info.issueUops = h.issueUops;
    rec.info.latency = h.latency;
    rec.info.nAvailableSimpleDecoders = h.nAvailSimple;
    rec.info.needsComplexDecoder = h.needsComplex != 0;
    rec.info.macroFusible = h.macroFusible != 0;
    rec.info.eliminated = h.eliminated != 0;
    rec.rw.depBreaking = h.rwDepBreaking != 0;
    rec.stackOp = h.stackOp != 0;
    rec.depBreaking = h.depBreaking != 0;
    rec.fuseClass = static_cast<FuseClass>(h.fuseClass);
    rec.isJcc = (h.flags & kFlagIsJcc) != 0;
    rec.jccReadsCf = (h.flags & kFlagJccReadsCf) != 0;
    rec.jccTestsSOP = (h.flags & kFlagJccTestsSOP) != 0;

    const std::uint8_t *p = sec + off + sizeof(FlatRecordHead);
    rec.depReads.reserve(h.nDepReads);
    for (std::uint32_t i = 0; i < h.nDepReads; ++i) {
        FlatDepRead fd;
        std::memcpy(&fd, p, sizeof fd);
        p += sizeof fd;
        DepRead d;
        d.value = fd.value;
        std::memcpy(&d.latency, &fd.latencyBits, 8);
        rec.depReads.push_back(d);
    }
    rec.dec.inst.ops.reserve(h.nOps);
    for (std::uint32_t i = 0; i < h.nOps; ++i) {
        FlatOperand fo;
        std::memcpy(&fo, p, sizeof fo);
        p += sizeof fo;
        if (fo.kind > static_cast<std::uint8_t>(isa::Operand::Kind::Imm))
            throw SnapshotError("bad operand kind");
        isa::Operand op;
        op.kind = static_cast<isa::Operand::Kind>(fo.kind);
        switch (op.kind) {
          case isa::Operand::Kind::Reg:
            op.reg = flatReg(fo.regCls, fo.regIdx);
            break;
          case isa::Operand::Kind::Mem:
            op.mem.base = flatReg(fo.memBaseCls, fo.memBaseIdx);
            op.mem.index = flatReg(fo.memIndexCls, fo.memIndexIdx);
            op.mem.scale = fo.memScale;
            op.mem.disp = fo.memDisp;
            op.mem.width = fo.memWidth;
            break;
          case isa::Operand::Kind::Imm:
            op.imm = fo.imm;
            op.immWidth = fo.immWidth;
            break;
          case isa::Operand::Kind::None:
            break;
        }
        rec.dec.inst.ops.push_back(op);
    }
    rec.info.portUops.reserve(h.nPortUops);
    for (std::uint32_t i = 0; i < h.nPortUops; ++i) {
        FlatUop fu;
        std::memcpy(&fu, p, sizeof fu);
        p += sizeof fu;
        if (fu.kind >
            static_cast<std::uint8_t>(uops::UopKind::StoreData))
            throw SnapshotError("bad uop kind");
        uops::Uop u;
        u.ports = fu.ports;
        u.kind = static_cast<uops::UopKind>(fu.kind);
        rec.info.portUops.push_back(u);
    }
    rec.portMasks.reserve(h.nPortMasks);
    for (std::uint32_t i = 0; i < h.nPortMasks; ++i) {
        std::uint16_t m;
        std::memcpy(&m, p, 2);
        p += 2;
        rec.portMasks.push_back(m);
    }
    rec.rw.reads.reserve(h.nReads);
    for (std::uint32_t i = 0; i < h.nReads; ++i)
        rec.rw.reads.push_back(*p++);
    rec.rw.writes.reserve(h.nWrites);
    for (std::uint32_t i = 0; i < h.nWrites; ++i)
        rec.rw.writes.push_back(*p++);
    for (const std::uint8_t *end = sec + off + need; p < end; ++p)
        if (*p != 0)
            throw SnapshotError("bad record padding");

    // Rebuild the inline mirrors exactly as the cold path would.
    if (h.flags & kFlagWritesSpilled) {
        rec.nWritesInl = InstRecord::kSpilled;
    } else {
        rec.nWritesInl = h.nWrites;
        for (std::uint32_t i = 0; i < h.nWrites; ++i)
            rec.writesInl[i] =
                static_cast<std::uint8_t>(rec.rw.writes[i]);
    }
    if (h.flags & kFlagDepsSpilled) {
        rec.nDepInl = InstRecord::kSpilled;
    } else {
        rec.nDepInl = static_cast<std::uint8_t>(h.nDepReads);
        for (std::uint32_t i = 0; i < h.nDepReads; ++i)
            rec.depInl[i] = rec.depReads[i];
    }
    return need;
}

/**
 * Validate the head of a Records section payload (@p sec, @p len
 * bytes) and fill @p h. Checks structure only — record bytes are the
 * caller's business (walked eagerly, or trusted lazily after the
 * section hash passed).
 */
void
validateRecordsHead(const std::uint8_t *sec, std::uint64_t len,
                    RecordsSectionHead &h)
{
    if (len < sizeof(RecordsSectionHead) || len % 8 != 0)
        throw SnapshotError("truncated records section");
    std::memcpy(&h, sec, sizeof h);
    if (h.recordsOffset != sizeof(RecordsSectionHead) || h.reserved[0] ||
        h.reserved[1] || h.reserved[2])
        throw SnapshotError("bad records section head");
    if (h.recordsBytes > len - sizeof(RecordsSectionHead) ||
        h.indexOffset != sizeof(RecordsSectionHead) + h.recordsBytes)
        throw SnapshotError("bad records section layout");
    // Every record is at least one 64-byte head, so a forged count
    // cannot claim more records than the area could hold.
    if (h.recordCount > h.recordsBytes / sizeof(FlatRecordHead))
        throw SnapshotError("bad record count");
    const std::uint64_t indexBytes = len - h.indexOffset;
    if (h.indexSlots < 8 || (h.indexSlots & (h.indexSlots - 1)) != 0 ||
        h.indexSlots < 2 * h.recordCount ||
        h.indexSlots > indexBytes / sizeof(IndexSlot) ||
        h.indexSlots * sizeof(IndexSlot) != indexBytes)
        throw SnapshotError("bad index geometry");
}

/**
 * The deep eager walk of one Records section: decode every record
 * sequentially (full field validation), then prove the index is
 * exactly the records' index — every non-empty slot points at a
 * record start with a matching key, every record is reachable by its
 * own linear probe, and the slot population equals the record count.
 * This is what makes `facile_snaptool verify` strictly stronger than
 * the lazy load path. @p cb receives each record in file order.
 */
void
walkRecordsSection(
    const std::uint8_t *sec, const corpus::SectionEntry &e,
    const std::function<void(const std::uint8_t keyOut[16],
                             InstRecord &&rec)> &cb)
{
    RecordsSectionHead h;
    validateRecordsHead(sec, e.length, h);
    if (e.itemCount != h.recordCount)
        throw SnapshotError("record count disagrees with table");

    std::unordered_map<std::uint64_t, std::array<std::uint8_t, 16>>
        atOffset;
    atOffset.reserve(h.recordCount);
    std::uint64_t off = h.recordsOffset;
    for (std::uint64_t i = 0; i < h.recordCount; ++i) {
        InstRecord rec;
        std::uint8_t key[16];
        const std::uint64_t n =
            materializeFlatRecord(sec, h.indexOffset, off, key, rec);
        std::array<std::uint8_t, 16> k;
        std::memcpy(k.data(), key, 16);
        atOffset.emplace(off, k);
        cb(key, std::move(rec));
        off += n;
    }
    if (off != h.indexOffset)
        throw SnapshotError("records area size mismatch");

    const std::uint8_t *idx = sec + h.indexOffset;
    const std::uint64_t mask = h.indexSlots - 1;
    std::uint64_t nonEmpty = 0;
    for (std::uint64_t s = 0; s < h.indexSlots; ++s) {
        IndexSlot sl;
        std::memcpy(&sl, idx + s * sizeof(IndexSlot), sizeof sl);
        if (sl.recOffset == 0)
            continue;
        ++nonEmpty;
        const auto it = atOffset.find(sl.recOffset);
        if (it == atOffset.end())
            throw SnapshotError("index slot points between records");
        std::uint64_t lo, hi;
        std::memcpy(&lo, it->second.data(), 8);
        std::memcpy(&hi, it->second.data() + 8, 8);
        if (lo != sl.keyLo || hi != sl.keyHi)
            throw SnapshotError("index key disagrees with record");
    }
    if (nonEmpty != h.recordCount)
        throw SnapshotError("index population mismatch");
    for (const auto &[recOff, key] : atOffset) {
        std::uint64_t lo, hi;
        std::memcpy(&lo, key.data(), 8);
        std::memcpy(&hi, key.data() + 8, 8);
        const std::uint64_t hash = corpus::xxh64(key.data(), 16);
        bool found = false;
        for (std::uint64_t i = 0; i <= mask; ++i) {
            IndexSlot sl;
            std::memcpy(&sl,
                        idx + ((hash + i) & mask) * sizeof(IndexSlot),
                        sizeof sl);
            if (sl.recOffset == 0)
                break; // probe chain ends before the record: unreachable
            if (sl.keyLo != lo || sl.keyHi != hi)
                continue;
            if (sl.recOffset != recOff)
                throw SnapshotError("duplicate record key");
            found = true;
            break;
        }
        if (!found)
            throw SnapshotError("record unreachable from index");
    }
}

/**
 * Validate the fixed v2 header + section table of (@p data, @p size)
 * and return the decoded, layout-checked table: ascending,
 * non-overlapping payloads that all start after the table. @p name
 * labels errors.
 */
std::vector<corpus::SectionEntry>
parseV2HeaderAndTable(const std::uint8_t *data, std::size_t size,
                      const std::string &name)
{
    if (size < kHeaderSizeV2)
        throw SnapshotError("truncated header in " + name);
    if (std::memcmp(data, kMagicV2, sizeof kMagicV2) != 0)
        throw SnapshotError("bad magic in " + name);
    std::uint64_t headerHash;
    std::memcpy(&headerHash, data + 48, 8);
    if (corpus::xxh64(data, 48) != headerHash)
        throw SnapshotError("header checksum mismatch in " + name);

    Reader hd{data, size, sizeof kMagicV2};
    const std::uint32_t version = hd.u32();
    if (version != kSnapshotVersionV2)
        throw SnapshotError("unsupported version " +
                            std::to_string(version) + " in " + name);
    if (hd.u32() != corpus::kLittleEndianTag)
        throw SnapshotError("foreign-endian image " + name);
    if (hd.u32() != corpus::kSectionAlign)
        throw SnapshotError("unsupported page size in " + name);
    const std::uint32_t sectionCount = hd.u32();
    if (hd.u64() != size)
        throw SnapshotError("file size mismatch in " + name);
    if (hd.u64() != kHeaderSizeV2)
        throw SnapshotError("bad table offset in " + name);
    const std::uint64_t tableHash = hd.u64();
    std::uint64_t reserved;
    std::memcpy(&reserved, data + 56, 8);
    if (reserved != 0)
        throw SnapshotError("nonzero reserved header field in " + name);

    const std::uint64_t tableBytes =
        std::uint64_t{sectionCount} * sizeof(corpus::SectionEntry);
    if (size - kHeaderSizeV2 < tableBytes)
        throw SnapshotError("truncated section table in " + name);
    if (corpus::xxh64(data + kHeaderSizeV2, tableBytes) != tableHash)
        throw SnapshotError("table checksum mismatch in " + name);
    std::vector<corpus::SectionEntry> entries;
    try {
        entries = corpus::decodeSectionTable(
            data + kHeaderSizeV2, size - kHeaderSizeV2, sectionCount,
            size);
    } catch (const corpus::SectionError &e) {
        throw SnapshotError(std::string(e.what()) + " in " + name);
    }

    // Layout: strictly ascending, non-overlapping, nothing under the
    // header + table. (Alignment is NOT required here — an unaligned
    // image is legal-but-unmappable and takes the eager path.)
    std::uint64_t prevEnd = kHeaderSizeV2 + tableBytes;
    bool sawPredictions = false;
    std::array<bool, 32> sawRecords{}; // indexed by arch, 9 in use
    for (const corpus::SectionEntry &e : entries) {
        if (e.offset < prevEnd)
            throw SnapshotError("overlapping sections in " + name);
        prevEnd = e.offset + e.length;
        switch (static_cast<SectionType>(e.type)) {
          case SectionType::Records:
          case SectionType::FusedPairs: {
            if (e.tag >= uarch::allUArchs().size())
                throw SnapshotError("bad arch in " + name);
            const bool records =
                e.type ==
                static_cast<std::uint32_t>(SectionType::Records);
            if (records && sawRecords[e.tag])
                throw SnapshotError("duplicate records section in " +
                                    name);
            if (!records && !sawRecords[e.tag])
                throw SnapshotError("fused pairs before records in " +
                                    name);
            if (records)
                sawRecords[e.tag] = true;
            break;
          }
          case SectionType::Predictions:
            if (e.tag != 0 || sawPredictions)
                throw SnapshotError("bad predictions section in " +
                                    name);
            sawPredictions = true;
            break;
          default:
            throw SnapshotError("unknown section type " +
                                std::to_string(e.type) + " in " + name);
        }
    }
    return entries;
}

/**
 * Parse the sequential tail payloads. Pairs: u32 count + index pairs,
 * bounds-checked against @p recordCount. @p expect is the table's
 * itemCount.
 */
void
parsePairsPayload(
    Reader &rd, std::size_t sectionEnd, std::uint64_t expect,
    std::size_t recordCount, const std::string &name,
    std::vector<std::pair<std::uint32_t, std::uint32_t>> &out)
{
    const std::uint32_t count = rd.u32();
    if (count != expect)
        throw SnapshotError("pair count disagrees with table in " +
                            name);
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t fi = rd.u32();
        const std::uint32_t si = rd.u32();
        if (fi >= recordCount || si >= recordCount)
            throw SnapshotError("bad fused pair index in " + name);
        out.emplace_back(fi, si);
    }
    if (rd.pos != sectionEnd)
        throw SnapshotError("section length mismatch in " + name);
}

/** Predictions: u32 count, then (key, payload) entries, validated. */
void
parsePredictionsPayload(
    Reader &rd, std::size_t sectionEnd, std::uint64_t expect,
    const std::string &name,
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>> &out)
{
    const std::uint32_t count = rd.u32();
    if (count != expect)
        throw SnapshotError(
            "prediction count disagrees with table in " + name);
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t keyLen = rd.u32();
        const std::uint8_t *key = rd.bytes(keyLen);
        const std::uint32_t predLen = rd.u32();
        const std::uint8_t *pred = rd.bytes(predLen);
        decodePrediction(pred, predLen); // validate; discard
        out.emplace_back(
            std::string(reinterpret_cast<const char *>(key), keyLen),
            std::vector<std::uint8_t>(pred, pred + predLen));
    }
    if (rd.pos != sectionEnd)
        throw SnapshotError("section length mismatch in " + name);
}

/**
 * Deep-parse a v2 image into a SnapshotModel: header, table, every
 * section hash, every record, full index-consistency probing.
 */
SnapshotModel
parseV2Model(const std::uint8_t *data, std::size_t size,
             const std::string &name)
{
    const std::vector<corpus::SectionEntry> entries =
        parseV2HeaderAndTable(data, size, name);

    SnapshotModel model;
    std::unordered_map<std::uint32_t, std::size_t> archIndex;

    for (const corpus::SectionEntry &e : entries) {
        const std::uint8_t *sec = data + e.offset;
        if (corpus::xxh64(sec, e.length) != e.hash)
            throw SnapshotError("section checksum mismatch in " + name);
        switch (static_cast<SectionType>(e.type)) {
          case SectionType::Records: {
            model.arches.emplace_back();
            SnapshotModel::Arch &arch = model.arches.back();
            arch.arch = e.tag;
            archIndex.emplace(e.tag, model.arches.size() - 1);
            // Clamp the hint: itemCount is cross-checked inside the
            // walk, but only after this reserve would have run.
            arch.records.reserve(std::min<std::size_t>(
                e.itemCount, e.length / sizeof(FlatRecordHead)));
            walkRecordsSection(
                sec, e,
                [&arch](const std::uint8_t key[16], InstRecord &&rec) {
                    arch.records.emplace_back(
                        std::vector<std::uint8_t>(key, key + key[15]),
                        std::move(rec));
                });
            break;
          }
          case SectionType::FusedPairs: {
            SnapshotModel::Arch &arch =
                model.arches[archIndex.at(e.tag)];
            Reader rd{sec, static_cast<std::size_t>(e.length), 0};
            parsePairsPayload(rd, e.length, e.itemCount,
                              arch.records.size(), name,
                              arch.fusedPairs);
            break;
          }
          case SectionType::Predictions: {
            model.hasPredictions = true;
            Reader rd{sec, static_cast<std::size_t>(e.length), 0};
            parsePredictionsPayload(rd, e.length, e.itemCount, name,
                                    model.predictions);
            break;
          }
          default:
            break; // unreachable: the table walk rejected it
        }
    }
    return model;
}

/** Fill the record/pair/prediction totals of @p m into @p st. */
void
countsOf(const SnapshotModel &m, SnapshotStats &st)
{
    for (const SnapshotModel::Arch &a : m.arches) {
        st.records += a.records.size();
        st.fusedPairs += a.fusedPairs.size();
    }
    st.predictions = m.predictions.size();
}

/**
 * Phase 2 — commit a fully-validated model to the process-wide arenas
 * (and @p opts.engine's prediction cache). Nothing in here can fail
 * validation; imports go through the same shard maps internAt fills
 * (existing keys win). Consumes the model.
 */
void
commitModel(SnapshotModel &&m, const SnapshotOptions &opts,
            SnapshotStats &st)
{
    for (SnapshotModel::Arch &arch : m.arches) {
        InstInterner &in =
            InstInterner::forArch(static_cast<uarch::UArch>(arch.arch));
        std::vector<const InstRecord *> byIndex;
        byIndex.reserve(arch.records.size());
        for (auto &[key, rec] : arch.records) {
            bool inserted = false;
            byIndex.push_back(in.importRecord(key.data(), key.size(),
                                              std::move(rec),
                                              &inserted));
            st.newRecords += inserted ? 1 : 0;
        }
        for (const auto &[fi, si] : arch.fusedPairs)
            in.internFused(byIndex[fi], byIndex[si]);
    }
    if (opts.engine)
        for (auto &[key, payload] : m.predictions)
            opts.engine->importPredictionCacheEntry(
                std::move(key),
                decodePrediction(payload.data(), payload.size()));
}

/** The eager v2 load path (unaligned / mmap failed / forced / wire). */
SnapshotStats
loadImageV2Eager(const std::uint8_t *data, std::size_t size,
                 const SnapshotOptions &opts, bool commit,
                 const std::string &name)
{
    SnapshotModel m = parseV2Model(data, size, name);
    SnapshotStats st;
    st.bytes = size;
    countsOf(m, st);
    if (commit) {
        commitModel(std::move(m), opts, st);
        st.loadMode = SnapshotLoadMode::EagerV2;
    }
    return st;
}

// ---- writers ---------------------------------------------------------------

/**
 * What to write, gathered before any byte is produced: per-arch record
 * pointers (with packed keys) and pair indices, plus pre-encoded
 * prediction entries. Borrowed pointers — the source (live interner
 * arenas, or a SnapshotModel) must outlive the plan.
 *
 * Predictions are pre-encoded at plan time because
 * exportPredictionCache holds engine shard locks across its visits:
 * visitors must be brief and must certainly not sit behind
 * fault-injectable file IO.
 */
struct PlanArch
{
    std::uint32_t archWord = 0;
    std::vector<std::pair<std::array<std::uint8_t, 16>,
                          const InstRecord *>>
        recs;
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
};

struct WritePlan
{
    std::vector<PlanArch> arches;
    bool hasPredictions = false;
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        predictions; // (key, pre-encoded payload)
};

WritePlan
planFromLive(engine::PredictionEngine *eng)
{
    WritePlan plan;
    // A process warm-started from an mmap'd v2 image serves most
    // records through the lazily bound RecordSource, which
    // exportRecords cannot see — pull everything into the canonical
    // arenas first so the save persists the image's whole universe.
    for (uarch::UArch arch : uarch::allUArchs())
        InstInterner::forArch(arch).materializeBoundSource();
    for (uarch::UArch arch : uarch::allUArchs()) {
        const InstInterner &in = InstInterner::forArch(arch);
        PlanArch pa;
        pa.archWord = static_cast<std::uint32_t>(arch);
        std::unordered_map<const InstRecord *, std::uint32_t> indexOf;
        in.exportRecords([&](const std::uint8_t *bytes, std::size_t len,
                             const InstRecord &rec) {
            std::array<std::uint8_t, 16> k;
            packKey16(bytes, len, k.data());
            indexOf.emplace(&rec,
                            static_cast<std::uint32_t>(pa.recs.size()));
            pa.recs.emplace_back(k, &rec);
        });
        if (pa.recs.empty())
            continue; // this arch saw no traffic
        in.exportFusedPairs([&](const InstRecord *first,
                                const InstRecord *second) {
            auto fi = indexOf.find(first);
            auto si = indexOf.find(second);
            if (fi == indexOf.end() || si == indexOf.end())
                return; // unreachable: bases are canonical records
            pa.pairs.emplace_back(fi->second, si->second);
        });
        plan.arches.push_back(std::move(pa));
    }
    if (eng) {
        plan.hasPredictions = true;
        eng->exportPredictionCache(
            [&](const std::string &key, const model::Prediction &p) {
                std::vector<std::uint8_t> enc;
                encodePrediction(enc, p);
                plan.predictions.emplace_back(key, std::move(enc));
            });
    }
    return plan;
}

WritePlan
planFromModel(const SnapshotModel &model)
{
    WritePlan plan;
    for (const SnapshotModel::Arch &arch : model.arches) {
        PlanArch pa;
        pa.archWord = arch.arch;
        pa.recs.reserve(arch.records.size());
        for (const auto &[key, rec] : arch.records)
            pa.recs.emplace_back(modelKey16(key), &rec);
        pa.pairs = arch.fusedPairs;
        for (const auto &[fi, si] : pa.pairs)
            if (fi >= pa.recs.size() || si >= pa.recs.size())
                throw SnapshotError("bad fused pair index");
        plan.arches.push_back(std::move(pa));
    }
    plan.hasPredictions = model.hasPredictions;
    for (const auto &[key, payload] : model.predictions) {
        decodePrediction(payload.data(), payload.size()); // validate
        plan.predictions.emplace_back(key, payload);
    }
    return plan;
}

void
statsOfPlan(const WritePlan &plan, SnapshotStats &st)
{
    for (const PlanArch &pa : plan.arches) {
        st.records += pa.recs.size();
        st.fusedPairs += pa.pairs.size();
    }
    st.predictions = plan.predictions.size();
}

/**
 * Byte destination of the writer: an in-memory vector
 * (buildSnapshotImage) or the durable temp file (saveSnapshot). The
 * writeAt hole-patching is what lets the writer stream: the header and
 * table, whose contents depend on the payload, are zero-filled first
 * and patched once the payload has gone out.
 */
class Sink
{
  public:
    virtual ~Sink() = default;
    virtual void write(const void *p, std::size_t n) = 0;
    virtual void writeAt(std::uint64_t off, const void *p,
                         std::size_t n) = 0;
    virtual std::uint64_t offset() const = 0;

    void
    padTo(std::uint64_t align)
    {
        static const std::uint8_t zeros[512] = {};
        std::uint64_t need = corpus::alignUp(offset(), align) - offset();
        while (need > 0) {
            const std::size_t n = static_cast<std::size_t>(
                std::min<std::uint64_t>(need, sizeof zeros));
            write(zeros, n);
            need -= n;
        }
    }
};

class VecSink final : public Sink
{
  public:
    explicit VecSink(std::vector<std::uint8_t> &buf) : buf_(buf) {}

    void
    write(const void *p, std::size_t n) override
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    void
    writeAt(std::uint64_t off, const void *p, std::size_t n) override
    {
        std::memcpy(buf_.data() + off, p, n);
    }

    std::uint64_t offset() const override { return buf_.size(); }

  private:
    std::vector<std::uint8_t> &buf_;
};

class FileSink final : public Sink
{
  public:
    explicit FileSink(corpus::AtomicFileWriter &w) : w_(w) {}

    void
    write(const void *p, std::size_t n) override
    {
        w_.write(p, n);
    }

    void
    writeAt(std::uint64_t off, const void *p, std::size_t n) override
    {
        w_.writeAt(off, p, n);
    }

    std::uint64_t offset() const override { return w_.offset(); }

  private:
    corpus::AtomicFileWriter &w_;
};

/**
 * Stream a v2 image: zero header + table holes, then per arch a
 * page-aligned Records section (records streamed one at a time
 * through an incremental xxh64, index accumulated in memory and
 * appended — peak buffered memory is one record plus the index) and a
 * FusedPairs section, then the predictions tail, then the table and
 * header patched into their holes. Deterministic for equal plans.
 */
void
writeV2(Sink &sink, const WritePlan &plan)
{
    const std::size_t nSections =
        2 * plan.arches.size() + (plan.hasPredictions ? 1 : 0);
    {
        std::vector<std::uint8_t> zeros(
            kHeaderSizeV2 + nSections * sizeof(corpus::SectionEntry),
            0);
        sink.write(zeros.data(), zeros.size());
    }

    std::vector<corpus::SectionEntry> entries;
    entries.reserve(nSections);
    auto beginSection = [&](SectionType type, std::uint32_t tag,
                            std::uint64_t itemCount) {
        sink.padTo(corpus::kSectionAlign);
        corpus::SectionEntry e;
        e.type = static_cast<std::uint32_t>(type);
        e.tag = tag;
        e.offset = sink.offset();
        e.itemCount = itemCount;
        return e;
    };

    for (const PlanArch &pa : plan.arches) {
        for (const PlanArch &other : plan.arches)
            if (&other != &pa && other.archWord == pa.archWord)
                throw SnapshotError("duplicate arch in image");

        // Records section. Sizes first (they fix the whole geometry),
        // then head, records, and the index built alongside.
        corpus::SectionEntry e = beginSection(
            SectionType::Records, pa.archWord, pa.recs.size());
        RecordsSectionHead h;
        std::memset(&h, 0, sizeof h);
        h.recordCount = pa.recs.size();
        h.recordsOffset = sizeof(RecordsSectionHead);
        for (const auto &[key, rec] : pa.recs)
            h.recordsBytes += flatRecordSize(*rec);
        h.indexOffset = h.recordsOffset + h.recordsBytes;
        h.indexSlots = 8;
        while (h.indexSlots < 2 * h.recordCount)
            h.indexSlots <<= 1;

        corpus::Xxh64State hash;
        auto put = [&](const void *p, std::size_t n) {
            hash.update(p, n);
            sink.write(p, n);
        };
        put(&h, sizeof h);

        std::vector<IndexSlot> index(h.indexSlots);
        std::memset(index.data(), 0, index.size() * sizeof(IndexSlot));
        const std::uint64_t mask = h.indexSlots - 1;
        std::uint64_t off = h.recordsOffset;
        std::vector<std::uint8_t> buf;
        for (const auto &[key, rec] : pa.recs) {
            std::uint64_t lo, hi;
            std::memcpy(&lo, key.data(), 8);
            std::memcpy(&hi, key.data() + 8, 8);
            const std::uint64_t kh = corpus::xxh64(key.data(), 16);
            std::uint64_t slot = kh & mask;
            while (index[slot].recOffset != 0) {
                if (index[slot].keyLo == lo && index[slot].keyHi == hi)
                    throw SnapshotError("duplicate record key");
                slot = (slot + 1) & mask;
            }
            index[slot] = IndexSlot{lo, hi, off};
            buf.clear();
            encodeFlatRecord(buf, key.data(), *rec);
            put(buf.data(), buf.size());
            off += buf.size();
        }
        put(index.data(), index.size() * sizeof(IndexSlot));
        e.length = sizeof(RecordsSectionHead) + h.recordsBytes +
                   h.indexSlots * sizeof(IndexSlot);
        e.hash = hash.digest();
        entries.push_back(e);

        // FusedPairs tail.
        corpus::SectionEntry pe = beginSection(
            SectionType::FusedPairs, pa.archWord, pa.pairs.size());
        std::vector<std::uint8_t> pairSec;
        putU32(pairSec, static_cast<std::uint32_t>(pa.pairs.size()));
        for (const auto &[fi, si] : pa.pairs) {
            putU32(pairSec, fi);
            putU32(pairSec, si);
        }
        pe.length = pairSec.size();
        pe.hash = corpus::xxh64(pairSec.data(), pairSec.size());
        entries.push_back(pe);
        sink.write(pairSec.data(), pairSec.size());
    }

    if (plan.hasPredictions) {
        corpus::SectionEntry e = beginSection(
            SectionType::Predictions, 0, plan.predictions.size());
        std::vector<std::uint8_t> predSec;
        putU32(predSec,
               static_cast<std::uint32_t>(plan.predictions.size()));
        for (const auto &[key, enc] : plan.predictions) {
            putU32(predSec, static_cast<std::uint32_t>(key.size()));
            const auto *kp =
                reinterpret_cast<const std::uint8_t *>(key.data());
            predSec.insert(predSec.end(), kp, kp + key.size());
            putU32(predSec, static_cast<std::uint32_t>(enc.size()));
            predSec.insert(predSec.end(), enc.begin(), enc.end());
        }
        e.length = predSec.size();
        e.hash = corpus::xxh64(predSec.data(), predSec.size());
        entries.push_back(e);
        sink.write(predSec.data(), predSec.size());
    }

    const std::vector<std::uint8_t> table =
        corpus::encodeSectionTable(entries);
    sink.writeAt(kHeaderSizeV2, table.data(), table.size());

    std::vector<std::uint8_t> head;
    const auto *magic = reinterpret_cast<const std::uint8_t *>(kMagicV2);
    head.insert(head.end(), magic, magic + sizeof kMagicV2);
    putU32(head, kSnapshotVersionV2);
    putU32(head, corpus::kLittleEndianTag);
    putU32(head, corpus::kSectionAlign);
    putU32(head, static_cast<std::uint32_t>(nSections));
    putU64(head, sink.offset());
    putU64(head, kHeaderSizeV2);
    putU64(head, corpus::xxh64(table.data(), table.size()));
    putU64(head, corpus::xxh64(head.data(), 48));
    putU64(head, 0); // reserved
    sink.writeAt(0, head.data(), head.size());
}

// ---- lazy mmap machinery ---------------------------------------------------

struct SourceCounters
{
    std::atomic<std::uint64_t> imagesBound{0};
    std::atomic<std::uint64_t> sectionsVerified{0};
    std::atomic<std::uint64_t> sectionsPoisoned{0};
};

SourceCounters &
sourceCounters()
{
    static SourceCounters c;
    return c;
}

/**
 * One mmap'd Records section bound into an InstInterner. The section
 * hash is verified on the FIRST lookup (one O(section) pass, after
 * which every record the image holds is trusted); a section that
 * fails the check — or ever yields a malformed record despite it — is
 * poisoned: every lookup returns false and the interner's cold path
 * takes over, keeping predictions bit-identical to a cold start.
 */
class ArchRecordSource final : public RecordSource
{
  public:
    ArchRecordSource(
        const corpus::MappedFile *file, corpus::SectionEntry entry,
        std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs)
        : file_(file), entry_(entry), pairs_(std::move(pairs))
    {}

    bool
    lookup(const std::uint8_t *bytes, std::size_t len,
           InstRecord &out) override
    {
        if (len == 0 || len > 15 || !verifyOnce())
            return false;
        std::uint8_t key16[16];
        packKey16(bytes, len, key16);
        std::uint64_t lo, hi;
        std::memcpy(&lo, key16, 8);
        std::memcpy(&hi, key16 + 8, 8);

        const std::uint8_t *sec = file_->data() + entry_.offset;
        const std::uint8_t *idx = sec + head_.indexOffset;
        const std::uint64_t mask = head_.indexSlots - 1;
        const std::uint64_t hash = corpus::xxh64(key16, 16);
        for (std::uint64_t i = 0; i <= mask; ++i) {
            IndexSlot sl;
            std::memcpy(&sl, idx + ((hash + i) & mask) * sizeof sl,
                        sizeof sl);
            if (sl.recOffset == 0)
                return false;
            if (sl.keyLo != lo || sl.keyHi != hi)
                continue;
            // Materialize into a scratch record: on ANY failure the
            // caller's out-param must stay untouched (internAt would
            // otherwise run the cold path over half-filled state).
            try {
                InstRecord rec;
                std::uint8_t key[16];
                materializeFlatRecord(sec, head_.indexOffset,
                                      sl.recOffset, key, rec);
                if (std::memcmp(key, key16, 16) != 0)
                    throw SnapshotError("index key mismatch");
                out = std::move(rec);
                return true;
            } catch (const SnapshotError &) {
                poison();
                return false;
            }
        }
        return false;
    }

    void
    visitAll(const std::function<void(const std::uint8_t *,
                                      std::size_t, InstRecord &&)>
                 &visit) override
    {
        if (!verifyOnce())
            return;
        try {
            walkRecordsSection(
                file_->data() + entry_.offset, entry_,
                [&](const std::uint8_t key[16], InstRecord &&rec) {
                    visit(key, key[15], std::move(rec));
                });
        } catch (const SnapshotError &) {
            poison(); // records already visited stay valid
        }
    }

    void
    visitAllPairs(const std::function<void(std::uint32_t,
                                           std::uint32_t)> &visit)
        override
    {
        // The pair list was parsed and bounds-checked eagerly at
        // load; it only makes sense over a healthy records section.
        if (!verifyOnce())
            return;
        for (const auto &[fi, si] : pairs_)
            visit(fi, si);
    }

  private:
    bool
    verifyOnce()
    {
        const int s = state_.load(std::memory_order_acquire);
        if (s != 0)
            return s == 1;
        std::lock_guard<std::mutex> lock(mu_);
        const int again = state_.load(std::memory_order_relaxed);
        if (again != 0)
            return again == 1;
        const std::uint8_t *sec = file_->data() + entry_.offset;
        bool ok = corpus::xxh64(sec, entry_.length) == entry_.hash;
        if (ok) {
            try {
                validateRecordsHead(sec, entry_.length, head_);
                ok = head_.recordCount == entry_.itemCount;
            } catch (const SnapshotError &) {
                ok = false;
            }
        }
        if (ok)
            sourceCounters().sectionsVerified.fetch_add(
                1, std::memory_order_relaxed);
        else
            sourceCounters().sectionsPoisoned.fetch_add(
                1, std::memory_order_relaxed);
        state_.store(ok ? 1 : 2, std::memory_order_release);
        return ok;
    }

    void
    poison()
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (state_.load(std::memory_order_relaxed) != 2) {
            sourceCounters().sectionsPoisoned.fetch_add(
                1, std::memory_order_relaxed);
            state_.store(2, std::memory_order_release);
        }
    }

    const corpus::MappedFile *file_;
    corpus::SectionEntry entry_;
    // This arch's fused pairs (indices into the section's record
    // order), kept so materializeBoundSource can persist them through
    // a save — they are not imported at bind time.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs_;
    RecordsSectionHead head_{}; // valid once state_ == 1
    std::atomic<int> state_{0}; // 0 unverified, 1 good, 2 poisoned
    std::mutex mu_;
};

/**
 * A bound v2 image: the mapping plus its per-arch sources. Immortal
 * by design (RecordSource contract): one is allocated per successful
 * mmap load and handed to keepBound; rebinding on a later load merely
 * redirects future misses.
 */
struct MappedSnapshotV2
{
    corpus::MappedFile file;
    std::deque<ArchRecordSource> sources; // stable addresses
};

/**
 * Own @p image for the life of the process and return it. The registry
 * is never destroyed, so every image an interner was ever bound to
 * stays mapped and reachable, also after a later load rebinds the
 * interner to a newer image.
 */
MappedSnapshotV2 &
keepBound(std::unique_ptr<MappedSnapshotV2> image)
{
    static auto *mu = new std::mutex;
    static auto *images = new std::vector<std::unique_ptr<MappedSnapshotV2>>;
    std::lock_guard<std::mutex> lock(*mu);
    images->push_back(std::move(image));
    return *images->back();
}

/**
 * The lazy v2 file load. Eager work is O(header + table + small
 * tails): validate the header/table, verify + parse the fused-pair
 * and prediction tails (staged, then imported only after everything
 * eager has passed — nothing is imported from a failing file), then
 * madvise + bind each Records section. Record bytes are not touched.
 *
 * Fallback ladder handled here: an unmappable file (mmap syscall
 * failure) or an unaligned Records section takes the eager parse of
 * the same bytes; header/table/tail corruption throws, sending the
 * caller's generation walk to the next candidate.
 */
SnapshotStats
loadV2File(const std::string &path, const SnapshotOptions &opts)
{
    auto mapped = std::make_unique<MappedSnapshotV2>();
    bool haveMap;
    try {
        haveMap = mapped->file.open(path, "snapshot.mmap");
    } catch (const corpus::SectionError &) {
        haveMap = false; // file exists but cannot be mapped
    }
    if (!haveMap) {
        const std::vector<std::uint8_t> file = readFile(path);
        return loadImageV2Eager(file.data(), file.size(), opts,
                                /*commit=*/true, path);
    }

    const std::uint8_t *data = mapped->file.data();
    const std::size_t size = mapped->file.size();
    const std::vector<corpus::SectionEntry> entries =
        parseV2HeaderAndTable(data, size, path);

    bool aligned = true;
    for (const corpus::SectionEntry &e : entries)
        if (e.type ==
                static_cast<std::uint32_t>(SectionType::Records) &&
            e.offset % corpus::kSectionAlign != 0)
            aligned = false;
    if (!aligned || opts.eagerLoad)
        return loadImageV2Eager(data, size, opts, /*commit=*/true,
                                path);

    SnapshotStats st;
    st.bytes = size;

    // Eagerly verify + parse the small tails; stage, don't import yet.
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        stagedPreds;
    std::map<std::uint32_t,
             std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        pairsByTag;
    for (const corpus::SectionEntry &e : entries) {
        const std::uint8_t *sec = data + e.offset;
        switch (static_cast<SectionType>(e.type)) {
          case SectionType::Records:
            st.records += e.itemCount;
            break;
          case SectionType::FusedPairs: {
            if (corpus::xxh64(sec, e.length) != e.hash)
                throw SnapshotError("section checksum mismatch in " +
                                    path);
            // Bounds against the sibling Records section's itemCount
            // (the layout walk guaranteed it precedes this section).
            std::uint64_t recordCount = 0;
            for (const corpus::SectionEntry &r : entries)
                if (r.type == static_cast<std::uint32_t>(
                                  SectionType::Records) &&
                    r.tag == e.tag)
                    recordCount = r.itemCount;
            Reader rd{sec, static_cast<std::size_t>(e.length), 0};
            std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs;
            parsePairsPayload(rd, e.length, e.itemCount,
                              recordCount, path, pairs);
            st.fusedPairs += pairs.size();
            pairsByTag[e.tag] = std::move(pairs);
            break;
          }
          case SectionType::Predictions: {
            if (corpus::xxh64(sec, e.length) != e.hash)
                throw SnapshotError("section checksum mismatch in " +
                                    path);
            Reader rd{sec, static_cast<std::size_t>(e.length), 0};
            parsePredictionsPayload(rd, e.length, e.itemCount, path,
                                    stagedPreds);
            break;
          }
          default:
            break;
        }
    }
    st.predictions = stagedPreds.size();

    // Point of no return: bind. Fused pairs are NOT imported in mmap
    // mode — internFused re-derives them bit-identically on demand,
    // and importing them would materialize every record up front,
    // defeating the O(pages-touched) start. The parsed pair list
    // rides along in the source so materializeBoundSource (the save
    // path) can still persist it.
    MappedSnapshotV2 &image = keepBound(std::move(mapped));
    for (const corpus::SectionEntry &e : entries) {
        if (e.type != static_cast<std::uint32_t>(SectionType::Records))
            continue;
        image.file.willNeed(e.offset, e.length);
        image.sources.emplace_back(&image.file, e,
                                   std::move(pairsByTag[e.tag]));
        InstInterner::forArch(static_cast<uarch::UArch>(e.tag))
            .bindRecordSource(&image.sources.back());
    }
    if (opts.engine)
        for (auto &[key, payload] : stagedPreds)
            opts.engine->importPredictionCacheEntry(
                std::move(key),
                decodePrediction(payload.data(), payload.size()));

    sourceCounters().imagesBound.fetch_add(1,
                                           std::memory_order_relaxed);
    st.newRecords = 0;
    st.loadMode = SnapshotLoadMode::MmapV2;
    return st;
}

} // namespace

// ---- public API ------------------------------------------------------------

SnapshotStats
saveSnapshot(const std::string &path, const SnapshotOptions &opts)
{
    const WritePlan plan = planFromLive(opts.engine);
    SnapshotStats st;
    statsOfPlan(plan, st);
    try {
        corpus::AtomicFileWriter writer(path, "snapshot",
                                        std::max(1, opts.generations));
        FileSink sink(writer);
        writeV2(sink, plan);
        st.bytes = sink.offset();
        writer.commit();
    } catch (const corpus::SectionError &e) {
        // Keep the subsystem's exception type: callers (and the fault
        // matrices) catch SnapshotError for every failed save.
        throw SnapshotError(e.what());
    }
    return st;
}

std::vector<std::uint8_t>
saveSnapshotToMemory(const SnapshotOptions &opts)
{
    const WritePlan plan = planFromLive(opts.engine);
    std::vector<std::uint8_t> out;
    VecSink sink(out);
    writeV2(sink, plan);
    return out;
}

SnapshotStats
loadSnapshot(const std::string &path, const SnapshotOptions &opts)
{
    // Walk the generation chain newest-first and warm-start from the
    // first image that validates. Staging commits nothing on failure,
    // so a torn primary costs only the attempt — the fallback load
    // starts from pristine state.
    const int gens = std::max(1, opts.generations);
    std::string firstError;
    for (int g = 0; g < gens; ++g) {
        const std::string cand = snapshotGenerationPath(path, g);
        try {
            SnapshotStats st = loadV2File(cand, opts);
            st.generation = static_cast<std::size_t>(g);
            return st;
        } catch (const SnapshotError &e) {
            if (firstError.empty())
                firstError = e.what();
        }
    }
    throw SnapshotError("no loadable generation of " + path + " (" +
                        firstError + ")");
}

SnapshotStats
loadSnapshotFromMemory(const std::uint8_t *data, std::size_t size,
                       const SnapshotOptions &opts)
{
    return loadImageV2Eager(data, size, opts, /*commit=*/true,
                            "<memory>");
}

SnapshotStats
validateSnapshot(const std::uint8_t *data, std::size_t size)
{
    return loadImageV2Eager(data, size, {}, /*commit=*/false, "<memory>");
}

SnapshotSourceStats
snapshotSourceStats()
{
    const SourceCounters &c = sourceCounters();
    SnapshotSourceStats st;
    st.imagesBound = c.imagesBound.load(std::memory_order_relaxed);
    st.sectionsVerified =
        c.sectionsVerified.load(std::memory_order_relaxed);
    st.sectionsPoisoned =
        c.sectionsPoisoned.load(std::memory_order_relaxed);
    return st;
}

SnapshotModel
parseSnapshotModel(const std::uint8_t *data, std::size_t size)
{
    return parseV2Model(data, size, "<memory>");
}

std::vector<std::uint8_t>
buildSnapshotImage(const SnapshotModel &model)
{
    const WritePlan plan = planFromModel(model);
    std::vector<std::uint8_t> out;
    VecSink sink(out);
    writeV2(sink, plan);
    return out;
}

void
SnapshotModelSet::accumulate(const SnapshotModel &m,
                             const std::string &name)
{
    for (const SnapshotModel::Arch &a : m.arches) {
        ArchSet &dst = arches[a.arch];
        for (const auto &[key, rec] : a.records) {
            std::vector<std::uint8_t> enc;
            encodeFlatRecord(enc, modelKey16(key).data(), rec);
            auto [it, inserted] = dst.records.try_emplace(key, enc, rec);
            if (!inserted && it->second.first != enc)
                throw SnapshotError(
                    "merge conflict: arch " + std::to_string(a.arch) +
                    " has two different records for one key (from " +
                    name + ")");
        }
        for (const auto &[ia, ib] : a.fusedPairs)
            dst.pairs.emplace(a.records[ia].first, a.records[ib].first);
    }
    hasPredictions = hasPredictions || m.hasPredictions;
    for (const auto &[key, payload] : m.predictions) {
        auto [it, inserted] = predictions.try_emplace(key, payload);
        if (!inserted && it->second != payload)
            throw SnapshotError(
                "merge conflict: two different cached predictions for "
                "one key (from " +
                name + ")");
    }
}

SnapshotModel
SnapshotModelSet::canonical() const
{
    SnapshotModel m;
    for (const auto &[archWord, as] : arches) {
        if (as.records.empty())
            continue;
        SnapshotModel::Arch arch;
        arch.arch = archWord;
        std::map<Key, std::uint32_t> index;
        for (const auto &[key, encRec] : as.records) {
            index.emplace(
                key, static_cast<std::uint32_t>(arch.records.size()));
            arch.records.emplace_back(key, encRec.second);
        }
        for (const auto &[ka, kb] : as.pairs)
            arch.fusedPairs.emplace_back(index.at(ka), index.at(kb));
        m.arches.push_back(std::move(arch));
    }
    m.hasPredictions = hasPredictions;
    for (const auto &[key, payload] : predictions)
        m.predictions.emplace_back(key, payload);
    return m;
}

SnapshotModel
mergeSnapshotModels(const std::vector<SnapshotModel> &models)
{
    SnapshotModelSet set;
    for (std::size_t i = 0; i < models.size(); ++i)
        set.accumulate(models[i], "input " + std::to_string(i));
    return set.canonical();
}

} // namespace facile::analysis
