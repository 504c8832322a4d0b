/**
 * @file
 * Basic-block representation used by all predictors.
 *
 * A BasicBlock bundles the raw bytes, the decoded instructions with
 * their byte-layout facts, and the per-instruction characteristics
 * resolved against one microarchitecture — including macro-fusion
 * pairing, which merges a fusible instruction with a directly
 * following conditional branch into a single unit for everything
 * downstream of the instruction queue.
 *
 * Annotations are *interned*: an AnnotatedInst points at an immutable
 * InstRecord in the process-wide per-arch instruction cache
 * (src/analysis/intern.h), so analyzing a never-seen block reuses the
 * µop decomposition and read/write sets of every instruction seen
 * before in any block, and allocates nothing per instruction.
 */
#ifndef FACILE_BB_BASIC_BLOCK_H
#define FACILE_BB_BASIC_BLOCK_H

#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "analysis/intern.h"
#include "isa/decoder.h"
#include "uarch/config.h"
#include "uops/info.h"

namespace facile::bb {

/** One instruction with layout and microarchitectural annotations. */
struct AnnotatedInst
{
    /**
     * Decoded form plus byte-layout facts. Same interned lifetime and
     * ownership as info/rw below (decode results are memoized per
     * instruction encoding, not recomputed per block).
     */
    const isa::DecodedInst *dec = nullptr;

    /**
     * Characteristics of the instruction on the block's µarch. Points
     * into the process-wide intern arena (or, for blocks analyzed with
     * InternMode::Off or locally mutated annotations, into the block's
     * ownedRecords). Never null on an analyzed block; immutable through
     * this pointer — use BasicBlock::mutableInfo to change a copy.
     */
    const uops::InstrInfo *info = nullptr;

    /**
     * Precomputed read/write sets of the instruction (same lifetime and
     * ownership as info). Unaffected by macro-fusion: each instruction
     * of a fused pair keeps its own architectural semantics. Null on
     * InternMode::Off blocks — consumers (precedence, sim) fall back to
     * computing the sets per call, exactly like the pre-interning code.
     */
    const isa::RwSets *rw = nullptr;

    /**
     * The interned base record behind info/rw — the instruction's
     * canonical identity in the per-arch arena, used to key derived
     * (macro-fused) variants. Null on InternMode::Off blocks and after
     * mutableInfo.
     */
    const analysis::InstRecord *rec = nullptr;

    /** Byte offset of the instruction within the block. */
    int start = 0;

    /** Byte offset of the nominal opcode within the block. */
    int opcodePos = 0;

    /** Byte offset one past the last byte. */
    int end = 0;

    /**
     * True if this (conditional branch) instruction is macro-fused with
     * the preceding instruction. Its µop counts have been folded into
     * the predecessor; components that count instructions skip it.
     */
    bool fusedWithPrev = false;
};

/** Whether analysis may use the process-wide instruction intern cache. */
enum class InternMode {
    Shared, ///< default: annotations point into the per-arch arena
    Off,    ///< fresh lookups, block-owned records (testing / baselines)
};

/** A basic block analyzed for one microarchitecture. */
struct BasicBlock
{
    std::vector<std::uint8_t> bytes;
    std::vector<AnnotatedInst> insts;
    uarch::UArch arch;

    /**
     * Block-owned annotation records: filled by InternMode::Off
     * analysis and by mutableInfo. A std::deque for pointer stability;
     * shared_ptr so copied blocks keep their annotation pointers valid
     * (copies share the storage — copying is cheap and safe, but
     * concurrent mutableInfo calls on copies sharing storage are not).
     */
    std::shared_ptr<std::deque<analysis::InstRecord>> ownedRecords;

    /**
     * Block-level µop totals, precomputed by analyze() so the DSB /
     * LSD / Issue components don't re-sum the annotations on every
     * predict. -1 = not cached (hand-built blocks, or after
     * mutableInfo) — the accessors then fall back to summing.
     */
    int cachedFusedUops = -1;
    int cachedIssueUops = -1;

    /**
     * Precomputed touchesJccErratumBoundary() (layout-only, so never
     * invalidated by mutableInfo). -1 = not cached (hand-built blocks)
     * — the accessor then falls back to scanning the instructions.
     */
    std::int8_t cachedJccTouch = -1;

    int lengthBytes() const { return static_cast<int>(bytes.size()); }

    bool
    endsInBranch() const
    {
        return !insts.empty() && insts.back().dec->inst.isBranch();
    }

    /** Fused-domain µops at decode (DSB/LSD counting, paper 4.5/4.6). */
    int fusedUops() const;

    /** Fused-domain µops after unlamination (Issue counting, paper 4.7). */
    int issueUops() const;

    /**
     * True if a branch instruction (or a macro-fused pair ending in one)
     * crosses or ends on a 32-byte boundary, assuming the block is placed
     * at a 32-byte-aligned address — the JCC-erratum trigger condition.
     */
    bool touchesJccErratumBoundary() const;

    /**
     * Instruction @p i as encoded in the block's bytes, with its own
     * immediate and displacement. Interned annotations describe the
     * instruction's form (insts[i].dec holds the form's canonical
     * values), so anything that prints or reads operand values decodes
     * through this instead.
     */
    isa::Inst sourceInst(std::size_t i) const;

    /**
     * Copy-on-write escape hatch for consumers that must perturb an
     * annotation (e.g. the CQA-like baseline's latency clamp): copies
     * instruction @p i's record into ownedRecords, repoints insts[i] at
     * the copy, and returns it mutable. The shared intern arena is
     * never written through.
     */
    uops::InstrInfo &mutableInfo(std::size_t i);
};

/**
 * Decode @p bytes and annotate every instruction for @p arch, applying
 * macro-fusion pairing. Taken by value and moved into the block, so
 * callers with an expiring buffer pay no copy.
 *
 * @throws isa::DecodeError on malformed input.
 */
BasicBlock analyze(std::vector<std::uint8_t> bytes, uarch::UArch arch,
                   InternMode mode = InternMode::Shared);

/** Convenience: encode @p insts and analyze the result. */
BasicBlock analyze(const std::vector<isa::Inst> &insts, uarch::UArch arch,
                   InternMode mode = InternMode::Shared);

} // namespace facile::bb

#endif // FACILE_BB_BASIC_BLOCK_H
