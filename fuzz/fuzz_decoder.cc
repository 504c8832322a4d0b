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
 * isa::canonicalForm) must decode back to the same form.
 *
 * InternMode::Off keeps every iteration self-contained: the process-
 * wide intern arenas are append-only by design, so fuzzing through
 * them would read as an unbounded leak and slow the run down.
 */
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "bb/basic_block.h"
#include "isa/decoder.h"
#include "server/protocol.h"
#include "uarch/config.h"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    using namespace facile;
    if (size == 0)
        return 0;
    const auto &arches = uarch::allUArchs();
    const uarch::UArch arch = arches[data[0] % arches.size()];
    const std::size_t n = std::min(size - 1, server::kMaxBlockBytes);
    std::vector<std::uint8_t> bytes(data + 1, data + 1 + n);
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
            if (c.length != d.length || c.opcodeOffset != d.opcodeOffset ||
                c.lcp != d.lcp || c.immWidth != d.immWidth ||
                c.dispWidth != d.dispWidth || c.inst.mnem != d.inst.mnem ||
                c.inst.cc != d.inst.cc ||
                c.inst.ops.size() != d.inst.ops.size())
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
