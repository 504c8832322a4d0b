/**
 * @file
 * x86-64 instruction decoder (XED substitute).
 *
 * Decodes machine code back into Inst structures and reports the
 * byte-layout facts Facile's predecoder model needs: total length,
 * the position of the nominal opcode (first non-prefix byte), and
 * whether the instruction carries a length-changing prefix (LCP),
 * i.e. a 0x66 operand-size prefix combined with a 16-bit immediate.
 *
 * The decoder is written independently of the encoder (table/switch
 * driven from the opcode maps); decode(encode(i)) == i is enforced by
 * property tests.
 */
#ifndef FACILE_ISA_DECODER_H
#define FACILE_ISA_DECODER_H

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "isa/inst.h"

namespace facile::isa {

/** Thrown on malformed or unsupported byte sequences. */
class DecodeError : public std::runtime_error
{
  public:
    explicit DecodeError(const std::string &what)
        : std::runtime_error("decode: " + what)
    {}
};

/** One decoded instruction plus its byte-layout facts. */
struct DecodedInst
{
    Inst inst;
    std::uint8_t length = 0;       ///< total encoded length in bytes
    std::uint8_t opcodeOffset = 0; ///< offset of the nominal opcode byte
    bool lcp = false;              ///< has a length-changing prefix
    /**
     * Displacement bytes (ModRM mod 01 -> 1, mod 10 -> 4, else 0). They
     * directly precede the immediate.
     */
    std::uint8_t dispWidth = 0;
    /**
     * Immediate bytes, always the trailing immWidth bytes of the
     * encoding. Relative branch targets count; the implicit 1 of the
     * D0/D1 shift-by-one forms has no bytes and does not. Both widths
     * locate the bytes isa::canonicalForm masks.
     */
    std::uint8_t immWidth = 0;
};

/**
 * Decode a single instruction starting at data[pos].
 * @throws DecodeError on malformed input.
 */
DecodedInst decodeOne(const std::uint8_t *data, std::size_t size,
                      std::size_t pos = 0);

/**
 * The layout pass: decodeOne's code with no operand list built. The
 * result has decodeOne's length, opcodeOffset, lcp, dispWidth,
 * immWidth, mnemonic and condition code, and an empty inst.ops; it
 * allocates nothing. It throws DecodeError exactly where decodeOne
 * does (the same code reads the same bytes). The decoder never branches
 * on displacement or immediate values, so every instance of a form has
 * the same layout, which is what lets the interner look a form up
 * before a full decode.
 * @throws DecodeError on malformed input.
 */
DecodedInst decodeLayout(const std::uint8_t *data, std::size_t size,
                         std::size_t pos = 0);

/**
 * Write the canonical instance of @p d's *form* to @p out
 * (d.length bytes): the encoding at @p bytes with the immediate bytes
 * zeroed and the displacement bytes set to 0 if the displacement is 0,
 * else to 1. Instructions of one form differ only in immediate and
 * displacement values, which no timing fact depends on except whether
 * the displacement is 0 (a 3-component LEA is slow iff it is not); the
 * canonical instance decodes to the same form with those values.
 */
void canonicalForm(const std::uint8_t *bytes, const DecodedInst &d,
                   std::uint8_t *out);

/** Decode a whole byte buffer into consecutive instructions. */
std::vector<DecodedInst> decodeBlock(const std::vector<std::uint8_t> &bytes);

} // namespace facile::isa

#endif // FACILE_ISA_DECODER_H
