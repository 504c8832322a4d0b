/**
 * @file
 * Decoder unit tests: known byte sequences, layout facts (length,
 * nominal opcode position, LCP detection), error handling, and the
 * layout pass (decodeLayout) agreeing with the full decode.
 */
#include <gtest/gtest.h>

#include <string>

#include "bhive/generator.h"
#include "isa/builder.h"
#include "isa/decoder.h"
#include "isa/encoder.h"

namespace facile::isa {
namespace {

DecodedInst
dec1(std::vector<std::uint8_t> bytes)
{
    return decodeOne(bytes.data(), bytes.size());
}

TEST(Decoder, AddRegReg)
{
    DecodedInst d = dec1({0x48, 0x01, 0xD8}); // add rax, rbx
    EXPECT_EQ(d.inst.mnem, Mnemonic::ADD);
    ASSERT_EQ(d.inst.ops.size(), 2u);
    EXPECT_EQ(d.inst.ops[0].reg, RAX);
    EXPECT_EQ(d.inst.ops[1].reg, RBX);
    EXPECT_EQ(d.length, 3);
    EXPECT_EQ(d.opcodeOffset, 1); // REX is a prefix
    EXPECT_FALSE(d.lcp);
}

TEST(Decoder, LcpDetection)
{
    // add ax, 0x1234: 66 prefix + imm16 = LCP.
    DecodedInst d = dec1({0x66, 0x81, 0xC0, 0x34, 0x12});
    EXPECT_EQ(d.inst.mnem, Mnemonic::ADD);
    EXPECT_TRUE(d.lcp);
    EXPECT_EQ(d.opcodeOffset, 1);
    EXPECT_EQ(d.length, 5);
}

TEST(Decoder, SixtySixWithoutImm16IsNotLcp)
{
    // add ax, bx: 66 01 d8 — 66 prefix but no immediate.
    DecodedInst d = dec1({0x66, 0x01, 0xD8});
    EXPECT_EQ(d.inst.mnem, Mnemonic::ADD);
    EXPECT_FALSE(d.lcp);
}

TEST(Decoder, TwoByteNopIsNotLcp)
{
    DecodedInst d = dec1({0x66, 0x90});
    EXPECT_EQ(d.inst.mnem, Mnemonic::NOP);
    EXPECT_FALSE(d.lcp);
    EXPECT_EQ(d.length, 2);
}

TEST(Decoder, MultiByteNops)
{
    for (int len = 1; len <= 15; ++len) {
        auto bytes = encode(nop(len));
        DecodedInst d = decodeOne(bytes.data(), bytes.size());
        EXPECT_EQ(d.inst.mnem, Mnemonic::NOP);
        EXPECT_EQ(d.length, len);
        EXPECT_EQ(d.inst.nopLen, len);
    }
}

TEST(Decoder, MemSibDisp)
{
    // mov rax, [rbx+rcx*4+8]
    auto bytes = encode(make(Mnemonic::MOV, {R(RAX), M(memIdx(RBX, RCX, 4, 8))}));
    DecodedInst d = decodeOne(bytes.data(), bytes.size());
    ASSERT_TRUE(d.inst.ops[1].isMem());
    EXPECT_EQ(d.inst.ops[1].mem.base, RBX);
    EXPECT_EQ(d.inst.ops[1].mem.index, RCX);
    EXPECT_EQ(d.inst.ops[1].mem.scale, 4);
    EXPECT_EQ(d.inst.ops[1].mem.disp, 8);
}

TEST(Decoder, VexTwoByte)
{
    DecodedInst d = dec1({0xC5, 0xF0, 0x58, 0xC2}); // vaddps xmm0,xmm1,xmm2
    EXPECT_EQ(d.inst.mnem, Mnemonic::VADDPS);
    ASSERT_EQ(d.inst.ops.size(), 3u);
    EXPECT_EQ(d.inst.ops[0].reg, XMM0);
    EXPECT_EQ(d.inst.ops[1].reg, XMM1);
    EXPECT_EQ(d.inst.ops[2].reg, XMM2);
    EXPECT_EQ(d.opcodeOffset, 2); // VEX bytes count as prefix
}

TEST(Decoder, VexVvvv15IsRegister)
{
    auto bytes =
        encode(make(Mnemonic::VADDPS, {R(XMM0), R(xmm(15)), R(XMM2)}));
    DecodedInst d = decodeOne(bytes.data(), bytes.size());
    EXPECT_EQ(d.inst.ops[1].reg, xmm(15));
}

TEST(Decoder, JccRel8Negative)
{
    DecodedInst d = dec1({0x75, 0xFE}); // jne -2
    EXPECT_EQ(d.inst.mnem, Mnemonic::JCC);
    EXPECT_EQ(d.inst.cc, Cond::NE);
    EXPECT_EQ(d.inst.ops[0].imm, -2);
}

TEST(Decoder, TruncatedInputThrows)
{
    EXPECT_THROW(dec1({0x48}), DecodeError);
    EXPECT_THROW(dec1({0x48, 0x01}), DecodeError);
    EXPECT_THROW(dec1({0x66, 0x81, 0xC0, 0x34}), DecodeError);
}

TEST(Decoder, UnknownOpcodeThrows)
{
    EXPECT_THROW(dec1({0x06}), DecodeError); // invalid in 64-bit mode
}

TEST(Decoder, RipRelativeRejected)
{
    // mod=00 rm=101 is RIP-relative in 64-bit mode; unsupported subset.
    EXPECT_THROW(dec1({0x48, 0x8B, 0x05, 0x00, 0x00, 0x00, 0x00}),
                 DecodeError);
}

TEST(Decoder, DecodeBlockSplitsCorrectly)
{
    std::vector<Inst> insts = {
        make(Mnemonic::ADD, {R(RAX), R(RBX)}),
        nop(5),
        makeCC(Mnemonic::JCC, Cond::NE, {I(-2, 1)}),
    };
    auto bytes = encodeBlock(insts);
    auto decoded = decodeBlock(bytes);
    ASSERT_EQ(decoded.size(), 3u);
    EXPECT_EQ(decoded[0].inst.mnem, Mnemonic::ADD);
    EXPECT_EQ(decoded[1].inst.mnem, Mnemonic::NOP);
    EXPECT_EQ(decoded[2].inst.mnem, Mnemonic::JCC);
}

TEST(Decoder, PopcntVsBsf)
{
    // bsf: 0F BC, tzcnt: F3 0F BC
    auto bsf = dec1({0x48, 0x0F, 0xBC, 0xC3});
    EXPECT_EQ(bsf.inst.mnem, Mnemonic::BSF);
    auto tzcnt = dec1({0xF3, 0x48, 0x0F, 0xBC, 0xC3});
    EXPECT_EQ(tzcnt.inst.mnem, Mnemonic::TZCNT);
}

TEST(Decoder, ShiftByOneOpcodeD1)
{
    // shl rax, 1 via D1 /4 (alternate encoding; decoder-only form).
    DecodedInst d = dec1({0x48, 0xD1, 0xE0});
    EXPECT_EQ(d.inst.mnem, Mnemonic::SHL);
    EXPECT_EQ(d.inst.ops[1].imm, 1);
}

/**
 * decodeLayout and decodeOne on data[pos]: the same layout facts and
 * mnemonic, or the same DecodeError. Returns the length (0 on error).
 */
std::size_t
expectSameLayout(const std::uint8_t *data, std::size_t size, std::size_t pos)
{
    std::string fullErr, layoutErr;
    DecodedInst d, l;
    try {
        d = decodeOne(data, size, pos);
    } catch (const DecodeError &e) {
        fullErr = e.what();
    }
    try {
        l = decodeLayout(data, size, pos);
    } catch (const DecodeError &e) {
        layoutErr = e.what();
    }
    EXPECT_EQ(layoutErr, fullErr);
    if (!fullErr.empty() || !layoutErr.empty())
        return 0;
    EXPECT_EQ(l.length, d.length);
    EXPECT_EQ(l.opcodeOffset, d.opcodeOffset);
    EXPECT_EQ(l.dispWidth, d.dispWidth);
    EXPECT_EQ(l.immWidth, d.immWidth);
    EXPECT_EQ(l.lcp, d.lcp);
    EXPECT_EQ(l.inst.mnem, d.inst.mnem);
    EXPECT_EQ(l.inst.cc, d.inst.cc);
    EXPECT_TRUE(l.inst.ops.empty());
    return d.length;
}

TEST(DecodeLayout, AgreesWithDecodeOneOnGeneratedSuites)
{
    std::size_t insts = 0;
    for (std::uint64_t seed : {1ULL, 7ULL, 9001ULL, 20231020ULL})
        for (const auto &b : bhive::generateSuite(seed, 4))
            for (const auto *bytes : {&b.bytesU, &b.bytesL})
                for (std::size_t pos = 0; pos < bytes->size(); ++insts) {
                    const std::size_t len =
                        expectSameLayout(bytes->data(), bytes->size(), pos);
                    ASSERT_GT(len, 0u) << b.id << " at " << pos;
                    pos += len;
                }
    EXPECT_GT(insts, 1000u);
}

TEST(DecodeLayout, ThrowsWhereDecodeOneThrows)
{
    using Bytes = std::vector<std::uint8_t>;
    const std::vector<Bytes> valid = {
        {0x48, 0x01, 0xD8},                               // add rax, rbx
        {0x66, 0x81, 0xC0, 0x34, 0x12},                   // add ax, imm16
        {0x48, 0xC7, 0x84, 0x8B, 0, 0x10, 0, 0, 1, 2, 3, 4}, // SIB+disp32+imm32
        {0xC4, 0xE2, 0xF1, 0xB8, 0xC2},                   // vfmadd231pd
        {0x66, 0x0F, 0x1F, 0x44, 0x00, 0x00},             // 6-byte nop
        {0x0F, 0x85, 0x10, 0x00, 0x00, 0x00},             // jne rel32
    };
    // A cut at every byte throws in both; the whole instruction decodes
    // in both.
    for (const Bytes &inst : valid)
        for (std::size_t cut = 0; cut <= inst.size(); ++cut)
            EXPECT_EQ(expectSameLayout(inst.data(), cut, 0),
                      cut == inst.size() ? inst.size() : 0u)
                << "cut at " << cut;

    const std::vector<Bytes> malformed = {
        {0x06},                                     // invalid in 64-bit
        {0x0F, 0x0B},                               // unsupported 0F
        {0xC5, 0xF0, 0x12, 0xC2},                   // unsupported VEX op
        {0x48, 0x8B, 0x05, 0, 0, 0, 0},             // RIP-relative
        {0x48, 0x8B, 0x04, 0x25, 0, 0, 0, 0},       // base-less SIB
        {0x8D, 0xC0},                               // lea without memory
        {0xB4, 0x01},                               // mov ah, imm8
    };
    for (const Bytes &b : malformed)
        EXPECT_EQ(expectSameLayout(b.data(), b.size(), 0), 0u);

    // 15 bytes is the limit: 12 segment prefixes + add rax, rbx decodes,
    // one more prefix (16 bytes) throws in both.
    Bytes longest(15, 0x2E);
    longest[12] = 0x48;
    longest[13] = 0x01;
    longest[14] = 0xD8;
    EXPECT_EQ(expectSameLayout(longest.data(), longest.size(), 0), 15u);
    longest.insert(longest.begin(), 0x2E);
    EXPECT_EQ(expectSameLayout(longest.data(), longest.size(), 0), 0u);
}

} // namespace
} // namespace facile::isa
