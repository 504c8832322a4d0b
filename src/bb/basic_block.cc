#include "bb/basic_block.h"

#include <utility>

#include "isa/encoder.h"

namespace facile::bb {

int
BasicBlock::fusedUops() const
{
    if (cachedFusedUops >= 0)
        return cachedFusedUops;
    int n = 0;
    for (const auto &ai : insts)
        n += ai.info->fusedUops;
    return n;
}

int
BasicBlock::issueUops() const
{
    if (cachedIssueUops >= 0)
        return cachedIssueUops;
    int n = 0;
    for (const auto &ai : insts)
        n += ai.info->issueUops;
    return n;
}

bool
BasicBlock::touchesJccErratumBoundary() const
{
    if (cachedJccTouch >= 0)
        return cachedJccTouch != 0;
    for (std::size_t i = 0; i < insts.size(); ++i) {
        const AnnotatedInst &ai = insts[i];
        if (!ai.dec->inst.isBranch())
            continue;
        // For a macro-fused pair, the fused unit starts at the first
        // instruction of the pair.
        int start = ai.start;
        if (ai.fusedWithPrev && i > 0)
            start = insts[i - 1].start;
        int lastByte = ai.end - 1;
        if (start / 32 != lastByte / 32 || ai.end % 32 == 0)
            return true;
    }
    return false;
}

isa::Inst
BasicBlock::sourceInst(std::size_t i) const
{
    return isa::decodeOne(bytes.data(), bytes.size(),
                          static_cast<std::size_t>(insts[i].start))
        .inst;
}

uops::InstrInfo &
BasicBlock::mutableInfo(std::size_t i)
{
    if (!ownedRecords)
        ownedRecords = std::make_shared<std::deque<analysis::InstRecord>>();
    analysis::InstRecord rec;
    rec.dec = *insts[i].dec;
    rec.info = *insts[i].info;
    const bool hadRw = insts[i].rw != nullptr;
    if (hadRw)
        rec.rw = *insts[i].rw;
    ownedRecords->push_back(std::move(rec));
    insts[i].dec = &ownedRecords->back().dec;
    insts[i].info = &ownedRecords->back().info;
    insts[i].rw = hadRw ? &ownedRecords->back().rw : nullptr;
    insts[i].rec = nullptr; // no longer the canonical interned record
    cachedFusedUops = cachedIssueUops = -1; // counts may change
    return ownedRecords->back().info;
}

namespace {

/**
 * InternMode::Off record source: fresh per-instruction decode and
 * lookups stored in the block's own deque — behaviorally the
 * pre-interning path, used by tests to certify that interning changes
 * nothing. Read/
 * write sets are deliberately NOT precomputed (rw stays null on the
 * annotation): the pre-interning code computed them per consumer call,
 * and the consumers' fallback reproduces exactly that.
 */
const analysis::InstRecord *
freshRecord(BasicBlock &blk, std::size_t pos,
            const uarch::MicroArchConfig &cfg)
{
    analysis::InstRecord rec;
    rec.dec = isa::decodeOne(blk.bytes.data(), blk.bytes.size(), pos);
    rec.info = uops::lookup(rec.dec.inst, cfg);
    blk.ownedRecords->push_back(std::move(rec));
    return &blk.ownedRecords->back();
}

} // namespace

BasicBlock
analyze(std::vector<std::uint8_t> bytes, uarch::UArch arch, InternMode mode)
{
    const uarch::MicroArchConfig &cfg = uarch::config(arch);
    const bool interned = mode == InternMode::Shared;
    analysis::InstInterner &interner = analysis::InstInterner::forArch(arch);

    BasicBlock blk;
    blk.bytes = std::move(bytes);
    blk.arch = arch;
    if (!interned)
        blk.ownedRecords =
            std::make_shared<std::deque<analysis::InstRecord>>();
    else
        // Typical x86 instructions are 3-4 bytes; one growth step at
        // most. (Interned mode only: the Off baseline reproduces the
        // pre-interning analysis, which grew the vector organically.)
        blk.insts.reserve(blk.bytes.size() / 3 + 1);

    std::size_t pos = 0;
    while (pos < blk.bytes.size()) {
        const analysis::InstRecord *rec =
            interned
                ? interner.internAt(blk.bytes.data(), blk.bytes.size(), pos)
                : freshRecord(blk, pos, cfg);
        AnnotatedInst ai;
        ai.dec = &rec->dec;
        ai.info = &rec->info;
        ai.rw = interned ? &rec->rw : nullptr;
        ai.rec = interned ? rec : nullptr;
        ai.start = static_cast<int>(pos);
        ai.opcodePos = static_cast<int>(pos) + rec->dec.opcodeOffset;
        ai.end = static_cast<int>(pos) + rec->dec.length;
        pos += rec->dec.length;
        blk.insts.push_back(ai);
    }

    // Macro-fusion pairing: fold a fusible instruction and the directly
    // following conditional branch into one unit. The combined unit lives
    // in the first instruction; the branch is marked fusedWithPrev and
    // carries no µops of its own. The derived records are interned on
    // the pair identity (or block-owned when interning is off).
    for (std::size_t i = 0; i + 1 < blk.insts.size(); ++i) {
        AnnotatedInst &first = blk.insts[i];
        AnnotatedInst &second = blk.insts[i + 1];
        if (first.fusedWithPrev || !first.info->macroFusible)
            continue;
        // Interned records carry the pair check precomputed; the Off
        // path keeps the original per-pair derivation.
        const bool fuses =
            first.rec && second.rec
                ? analysis::fusesWith(*first.rec, *second.rec)
                : uops::macroFusesWith(first.dec->inst, second.dec->inst,
                                       cfg);
        if (!fuses)
            continue;

        if (interned) {
            // The base records are canonical arena pointers, so the
            // pair of pointers identifies the fused variants.
            analysis::FusedRecords fr =
                interner.internFused(first.rec, second.rec);
            first.rec = fr.first;
            first.info = &fr.first->info;
            first.rw = &fr.first->rw;
            second.rec = fr.second;
            second.info = &fr.second->info;
            second.rw = &fr.second->rw;
        } else {
            // The pair executes as a single µop on the branch ports; a
            // micro-fused load of the first instruction is retained.
            uops::InstrInfo merged = *first.info;
            std::vector<uops::Uop> uops;
            for (const auto &u : merged.portUops)
                if (u.kind != uops::UopKind::Compute)
                    uops.push_back(u);
            for (const auto &u : second.info->portUops)
                uops.push_back(u);
            merged.portUops = std::move(uops);
            // Fused-domain counts stay those of the first instruction:
            // the branch no longer occupies a decode, issue, or retire
            // slot. Off-mode records are exclusively block-owned (one
            // per instruction, in order) and not yet shared, so mutate
            // them in place — the annotation pointers already target
            // them.
            uops::InstrInfo &firstInfo = (*blk.ownedRecords)[i].info;
            firstInfo = std::move(merged);

            uops::InstrInfo &secondInfo = (*blk.ownedRecords)[i + 1].info;
            secondInfo.fusedUops = 0;
            secondInfo.issueUops = 0;
            secondInfo.portUops.clear();
            secondInfo.needsComplexDecoder = false;
        }

        second.fusedWithPrev = true;
        ++i; // a branch cannot itself start another pair
    }

    // Precompute the block-level µop totals (one pass here instead of
    // one per component on every predict). Interned analysis only:
    // InternMode::Off reproduces the pre-interning behavior, which
    // summed on every use.
    if (interned) {
        int fused = 0, issue = 0;
        for (const auto &ai : blk.insts) {
            fused += ai.info->fusedUops;
            issue += ai.info->issueUops;
        }
        blk.cachedFusedUops = fused;
        blk.cachedIssueUops = issue;
        // The JCC-boundary test is layout-only; compute it once (after
        // fusion pairing, which moves a fused pair's start) instead of
        // rescanning on every TPL predict.
        const bool jcc = blk.touchesJccErratumBoundary();
        blk.cachedJccTouch = jcc ? 1 : 0;
    }

    return blk;
}

BasicBlock
analyze(const std::vector<isa::Inst> &insts, uarch::UArch arch,
        InternMode mode)
{
    return analyze(isa::encodeBlock(insts), arch, mode);
}

} // namespace facile::bb
