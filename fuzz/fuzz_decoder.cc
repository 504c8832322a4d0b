/**
 * @file
 * Fuzz harness for the decode → analyze path — the first consumer of
 * untrusted block bytes (the server hands PREDICT payloads straight to
 * bb::analyze).
 *
 * Input mapping: byte 0 selects the microarchitecture; the remainder
 * is the block image, truncated to kMaxBlockBytes exactly like the
 * wire protocol bounds it.
 *
 * Every decoded instruction's canonical form (the intern key, see
 * isa::canonicalForm) must decode back to the same form. The layout
 * pass (isa::decodeLayout) must agree with decodeOne at every
 * instruction start — the same layout, or both throw — and rewriting an
 * instruction's displacement and immediate bytes with other values
 * must decode to the same form with the same layout: that is what lets
 * the interner accept an index hit on the layout's key.
 *
 * InternMode::Off keeps every iteration self-contained: the process-
 * wide intern arenas are append-only by design, so fuzzing through
 * them would read as an unbounded leak and slow the run down.
 */
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "bb/basic_block.h"
#include "isa/decoder.h"
#include "server/protocol.h"
#include "uarch/config.h"

using namespace facile;

namespace {

/** Same layout facts, mnemonic and condition code. */
bool
sameLayout(const isa::DecodedInst &a, const isa::DecodedInst &b)
{
    return a.length == b.length && a.opcodeOffset == b.opcodeOffset &&
           a.lcp == b.lcp && a.dispWidth == b.dispWidth &&
           a.immWidth == b.immWidth && a.inst.mnem == b.inst.mnem &&
           a.inst.cc == b.inst.cc;
}

/**
 * Same form: the same layout and equal operands once immediate and
 * displacement values are cleared.
 */
bool
sameForm(const isa::DecodedInst &a, const isa::DecodedInst &b)
{
    if (!sameLayout(a, b) || a.inst.ops.size() != b.inst.ops.size())
        return false;
    for (std::size_t k = 0; k < a.inst.ops.size(); ++k) {
        isa::Operand x = a.inst.ops[k], y = b.inst.ops[k];
        if (x.isImm() && a.immWidth)
            x.imm = y.imm = 0;
        x.mem.disp = y.mem.disp = 0;
        if (!(x == y))
            return false;
    }
    return true;
}

/**
 * decodeLayout against decodeOne at data[pos]: the same layout or the
 * same DecodeError. Returns the instruction's length, 0 if both threw.
 */
std::size_t
checkLayoutPass(const std::uint8_t *data, std::size_t size, std::size_t pos)
{
    isa::DecodedInst full, layout;
    std::string fullErr, layoutErr;
    try {
        full = isa::decodeOne(data, size, pos);
    } catch (const isa::DecodeError &e) {
        fullErr = e.what();
    }
    try {
        layout = isa::decodeLayout(data, size, pos);
    } catch (const isa::DecodeError &e) {
        layoutErr = e.what();
    }
    if (fullErr != layoutErr)
        __builtin_trap();
    if (!fullErr.empty())
        return 0;
    if (!sameLayout(full, layout) || !layout.inst.ops.empty())
        __builtin_trap();

    // Other displacement and immediate values: the same form, and the
    // layout pass still agrees.
    for (const std::uint8_t fill : {0x00, 0xFF, 0x80}) {
        std::uint8_t inst[15];
        std::memcpy(inst, data + pos, full.length);
        const int valueBytes = full.dispWidth + full.immWidth;
        for (int i = full.length - valueBytes; i < full.length; ++i)
            inst[i] = static_cast<std::uint8_t>(inst[i] ^ fill ^ i);
        const isa::DecodedInst other = isa::decodeOne(inst, full.length);
        if (!sameForm(full, other) ||
            !sameLayout(other, isa::decodeLayout(inst, full.length)))
            __builtin_trap();
    }
    return full.length;
}

} // namespace

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    if (size == 0)
        return 0;
    const auto &arches = uarch::allUArchs();
    const uarch::UArch arch = arches[data[0] % arches.size()];
    const std::size_t n = std::min(size - 1, server::kMaxBlockBytes);
    std::vector<std::uint8_t> bytes(data + 1, data + 1 + n);
    for (std::size_t pos = 0, len = 1; pos < n && len; pos += len)
        len = checkLayoutPass(bytes.data(), n, pos);
    try {
        bb::BasicBlock blk =
            bb::analyze(std::move(bytes), arch, bb::InternMode::Off);
        // Structural invariants every predictor downstream relies on:
        // annotations present, byte layout contiguous and in bounds.
        int prevEnd = 0;
        for (const auto &ai : blk.insts) {
            if (ai.dec == nullptr || ai.info == nullptr)
                __builtin_trap();
            if (ai.start != prevEnd || ai.end <= ai.start ||
                ai.end > static_cast<int>(n))
                __builtin_trap();
            prevEnd = ai.end;
            // The intern key: the form's canonical instance must decode
            // to the same form, with only the immediate (now 0) and the
            // displacement (now 0 or 1) changed.
            const isa::DecodedInst &d = *ai.dec;
            if (d.immWidth + d.dispWidth > d.length - d.opcodeOffset)
                __builtin_trap();
            std::uint8_t canon[15];
            isa::canonicalForm(blk.bytes.data() + ai.start, d, canon);
            const isa::DecodedInst c = isa::decodeOne(canon, d.length);
            if (!sameLayout(c, d) || c.inst.ops.size() != d.inst.ops.size())
                __builtin_trap();
            for (std::size_t k = 0; k < d.inst.ops.size(); ++k) {
                isa::Operand want = d.inst.ops[k];
                if (want.isImm() && d.immWidth)
                    want.imm = 0;
                if (want.isMem())
                    want.mem.disp = want.mem.disp != 0;
                if (!(c.inst.ops[k] == want))
                    __builtin_trap();
            }
        }
    } catch (const isa::DecodeError &) {
        // Rejecting garbage is the decoder doing its job.
    }
    return 0;
}
