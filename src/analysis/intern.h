/**
 * @file
 * Instruction-granular interning cache (see src/analysis/README.md).
 *
 * BHive-style workloads share a small universe of instructions across
 * millions of *distinct* basic blocks, so a block-level cache never
 * helps fresh traffic. This subsystem memoizes the per-instruction
 * analysis results instead: the first time an instruction *form* is
 * seen on a microarchitecture — in *any* block — its decode
 * (isa::DecodedInst), µop decomposition (uops::InstrInfo), and
 * read/write sets (isa::RwSets) are computed once and stored in an
 * append-only arena; every later block holds pointers into that arena
 * and pays a thread-local cache probe per instruction instead of a
 * decode, a database lookup, and heap allocations.
 *
 * What is interned: one record per *form* — opcode, prefixes,
 * registers, addressing shape and operand widths — not per encoding.
 * The key is the form's canonical instance (isa::canonicalForm): the
 * exact bytes with the immediate zeroed and the displacement set to 0
 * if it is 0, else 1. The record is the cold analysis of those
 * canonical bytes, so it is a pure function of its key whichever
 * instance arrived first. Timing reads only two value facts, both kept
 * by the key: whether a 3-component LEA has a non-zero displacement
 * (uops::lookup: slow LEA), and whether an immediate is present at all
 * (macro-fusion eligibility; also a form property). Consequently
 * `rec->dec.inst` holds the canonical immediate and displacement, not
 * the block's; printers decode the block's bytes instead
 * (bb::BasicBlock::sourceInst). InternMode::Off still decodes the real
 * bytes and is the independent reference that proves this audit.
 *
 * Two levels:
 *   - a *bounded*, thread-local, direct-mapped window cache keyed on
 *     the ≤15-byte decode lookahead (x86 instructions cannot exceed 15
 *     bytes and the decoder is position-independent, so equal windows
 *     decode equally). A hit skips even the decode; collisions simply
 *     overwrite — it is a pure accelerator;
 *   - the canonical sharded index keyed on the form's canonical bytes
 *     (≤ 15 B) + µarch, one interner per µarch. A shard is a flat
 *     open-addressed table of record pointers, a mutex and a
 *     std::deque arena (pointer-stable growth). Readers probe the
 *     table with acquire loads and take no lock: each slot is null or
 *     an immortal record, and the probe compares its key with
 *     InstRecord::key. Writers take the mutex, probe again, append to
 *     the arena and fill a slot; past half full they publish a table
 *     of twice the size and keep the old one alive for readers still
 *     on it (old tables sum to less than the live one). Per record
 *     that is 16 B of key plus 16-32 B of live slots (at most 64 B
 *     with the old tables). This is the durable, deduplicating level.
 *     It grows with the instruction universe, not with the traffic:
 *     on the inproc_cold workload (seed 1) the 1.12M exact encodings
 *     of a 15 s run collapse to 136k forms, and forms level off
 *     (+5.5k per 10 segments at 60 segments) while exact encodings
 *     keep growing by ~250k. A record costs about 0.72 KB;
 *     InternStats::records counts them.
 *
 * Ownership and lifetime: arenas are append-only and process-lifetime
 * (never evicted). Returned pointers are therefore stable forever and
 * safe to share across threads; records are immutable after
 * publication.
 *
 * Macro-fused pairs: bb::analyze merges a fusible instruction with a
 * following conditional branch into a combined unit and strips the
 * branch's µops. Both derived variants depend only on the two base
 * records, so they are interned too, keyed on the (already canonical)
 * pair of base-record pointers — analyzing a fused pair the second
 * time allocates nothing either.
 */
#ifndef FACILE_ANALYSIS_INTERN_H
#define FACILE_ANALYSIS_INTERN_H

#include <cstddef>
#include <cstdint>
#include <functional>

#include "isa/decoder.h"
#include "isa/semantics.h"
#include "uarch/config.h"
#include "uops/info.h"

namespace facile::analysis {

/**
 * One dependence-graph read template: the value consumed and the edge
 * latency its producer edge carries (instruction latency, plus the
 * load-to-use latency when the value is an address register of a
 * load). Block-independent, so precedence() streams these instead of
 * re-deriving them per block.
 */
struct DepRead
{
    int value;
    double latency;
};

/**
 * Macro-fusion capability of an instruction as the *first* of a pair,
 * with the memory/immediate-form and family restrictions already
 * folded in (records are per-arch). Mirrors uops::macroFusesWith.
 */
enum class FuseClass : std::uint8_t {
    None,
    All,          ///< fuses with every condition code (TEST/AND)
    NoSOP,        ///< not with sign/overflow/parity codes (CMP/ADD/SUB)
    NoCarryNoSOP, ///< additionally not with carry-reading codes (INC/DEC)
};

/** Everything block analysis derives from one (instruction, µarch). */
struct InstRecord
{
    /**
     * The interner's key for this record: the form's canonical bytes
     * zero-padded to 15, then their count, as two little-endian words.
     * Set when the record is published; the lock-free canonical index
     * compares probes against it, so an index slot is just a pointer.
     */
    std::uint64_t key[2] = {0, 0};

    isa::DecodedInst dec;
    uops::InstrInfo info;
    isa::RwSets rw;
    std::vector<DepRead> depReads;

    /** Port masks of the port-consuming µops, in portUops order. */
    std::vector<uarch::PortMask> portMasks;

    /** PUSH/POP/CALL/RET: rsp results come from the stack engine. */
    bool stackOp = false;

    /**
     * Inline copies of the dependence-graph inputs — every real
     * instruction of the subset has at most a handful of read/write
     * values, so precedence() streams these from the record itself
     * instead of chasing the rw/depReads heap blocks (one cache line
     * per instruction on the hot path). Count kSpilled means the data
     * did not fit: fall back to the vector fields.
     */
    static constexpr int kInlineDeps = 8;
    static constexpr std::uint8_t kSpilled = 255;
    std::uint8_t nWritesInl = kSpilled;
    std::uint8_t nDepInl = kSpilled;
    bool depBreaking = false;
    std::uint8_t writesInl[kInlineDeps];
    DepRead depInl[kInlineDeps];

    // Macro-fusion pair check, fully precomputed (see fusesWith()).
    FuseClass fuseClass = FuseClass::None;
    bool isJcc = false;
    bool jccReadsCf = false;  ///< condition code reads CF
    bool jccTestsSOP = false; ///< condition code tests S/O/P flags
};

/**
 * Precomputed equivalent of uops::macroFusesWith(first, second, cfg)
 * for two records of the same interner: a few flag tests instead of
 * operand-list walks.
 */
inline bool
fusesWith(const InstRecord &first, const InstRecord &second)
{
    if (!second.isJcc)
        return false;
    switch (first.fuseClass) {
      case FuseClass::All:
        return true;
      case FuseClass::NoSOP:
        return !second.jccTestsSOP;
      case FuseClass::NoCarryNoSOP:
        return !second.jccReadsCf && !second.jccTestsSOP;
      case FuseClass::None:
        break;
    }
    return false;
}

/**
 * Hit/miss counters of one interner (monotonic, process lifetime).
 * Every internAt call that returns counts once in hits + misses, every
 * internFused call once in fusedHits + fusedMisses.
 */
struct InternStats
{
    /**
     * Window-cache + canonical-index hits, counted per thread (see
     * support/per_thread_counters.h) and summed when read.
     */
    std::uint64_t hits = 0;
    /** internAt calls that reached the cold path (lost races too). */
    std::uint64_t misses = 0;
    std::uint64_t fusedHits = 0;
    std::uint64_t fusedMisses = 0;
    /** Canonical records published. */
    std::uint64_t records = 0;
    /** Fused-variant records published (two per interned pair). */
    std::uint64_t fusedRecords = 0;

    double
    hitRate() const
    {
        const double total = static_cast<double>(hits + misses);
        return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
    }
};

/** The fused-pair variants of (first, second) as interned records. */
struct FusedRecords
{
    const InstRecord *first = nullptr;  ///< merged combined unit
    const InstRecord *second = nullptr; ///< stripped fused branch
};

class InstInterner
{
  public:
    /** The process-wide interner of @p arch (one per UArch, static). */
    static InstInterner &forArch(uarch::UArch arch);

    /**
     * Intern the instruction starting at data[pos] (buffer of @p size
     * bytes). On a window-cache hit no decoding happens at all; on the
     * first sighting of its form the canonical instance is analyzed
     * (uops::lookup + isa::instRw) once, process-wide. The returned
     * record is immortal and describes the form (its dec holds the
     * canonical immediate and displacement); advance by
     * rec->dec.length.
     *
     * @throws isa::DecodeError on malformed input (never cached).
     */
    const InstRecord *internAt(const std::uint8_t *data, std::size_t size,
                               std::size_t pos);

    /**
     * Intern the macro-fused variants of the pair (first, second),
     * where both operands were returned by internAt on this interner.
     * Derivation matches bb::analyze's historical in-place merge
     * bit-for-bit.
     */
    FusedRecords internFused(const InstRecord *first,
                             const InstRecord *second);

    /** Counters accumulated since process start. */
    InternStats stats() const;

    /** Aggregated counters over all nine per-arch interners. */
    static InternStats statsAllArchs();

    /**
     * Visit every canonical record with its key: the canonical bytes
     * of its form. Deterministic shard-major, insertion-order walk;
     * shard locks are held for the duration of each shard's visits, so
     * visitors must not re-enter this interner.
     */
    void exportRecords(
        const std::function<void(const std::uint8_t *bytes,
                                 std::size_t len, const InstRecord &rec)>
            &visit) const;

    InstInterner(const InstInterner &) = delete;
    InstInterner &operator=(const InstInterner &) = delete;

  private:
    explicit InstInterner(uarch::UArch arch);
    ~InstInterner();

    /** Decode-to-record analysis (the cold path); consumes @p dec. */
    void analyzeCold(isa::DecodedInst &dec, InstRecord &fresh);

    struct Impl;
    Impl *impl_; ///< raw: interners are immortal statics
};

} // namespace facile::analysis

#endif // FACILE_ANALYSIS_INTERN_H
