/**
 * @file
 * Property tests: decode(encode(inst)) == inst over a systematically
 * enumerated and randomized slice of the supported instruction space,
 * byte-level idempotence encode(decode(bytes)) == bytes, and the layout
 * pass (decodeLayout) agreeing with the full decode on every instance.
 */
#include <gtest/gtest.h>

#include "isa/builder.h"
#include "isa/decoder.h"
#include "isa/encoder.h"
#include "support/rng.h"

namespace facile::isa {
namespace {

void
expectRoundTrip(const Inst &inst)
{
    std::vector<std::uint8_t> bytes;
    ASSERT_NO_THROW(bytes = encode(inst)) << toString(inst);
    DecodedInst d;
    ASSERT_NO_THROW(d = decodeOne(bytes.data(), bytes.size()))
        << toString(inst);
    EXPECT_EQ(d.inst.mnem, inst.mnem) << toString(inst);
    EXPECT_EQ(d.inst.cc, inst.cc) << toString(inst);
    ASSERT_EQ(d.inst.ops.size(), inst.ops.size()) << toString(inst);
    for (std::size_t i = 0; i < inst.ops.size(); ++i)
        EXPECT_EQ(d.inst.ops[i], inst.ops[i])
            << toString(inst) << " operand " << i;
    EXPECT_EQ(static_cast<std::size_t>(d.length), bytes.size());

    // The layout pass reads the same bytes to the same layout.
    DecodedInst l;
    ASSERT_NO_THROW(l = decodeLayout(bytes.data(), bytes.size()))
        << toString(inst);
    EXPECT_EQ(l.length, d.length) << toString(inst);
    EXPECT_EQ(l.opcodeOffset, d.opcodeOffset) << toString(inst);
    EXPECT_EQ(l.dispWidth, d.dispWidth) << toString(inst);
    EXPECT_EQ(l.immWidth, d.immWidth) << toString(inst);
    EXPECT_EQ(l.lcp, d.lcp) << toString(inst);
    EXPECT_EQ(l.inst.mnem, d.inst.mnem) << toString(inst);
    EXPECT_TRUE(l.inst.ops.empty()) << toString(inst);

    // Byte-level idempotence: re-encoding the decoded instruction must
    // reproduce the canonical encoding exactly.
    EXPECT_EQ(encode(d.inst), bytes) << toString(inst);
}

TEST(RoundTrip, AluAllWidthsAllRegs)
{
    for (Mnemonic m : {Mnemonic::ADD, Mnemonic::SUB, Mnemonic::AND,
                       Mnemonic::OR, Mnemonic::XOR, Mnemonic::CMP,
                       Mnemonic::ADC, Mnemonic::SBB}) {
        for (int w : {1, 2, 4, 8}) {
            for (int r1 : {0, 3, 5, 8, 12, 15}) {
                for (int r2 : {1, 4, 7, 9, 13}) {
                    expectRoundTrip(
                        make(m, {R(gpr(w, r1)), R(gpr(w, r2))}));
                }
            }
        }
    }
}

TEST(RoundTrip, AluImmediateWidths)
{
    for (Mnemonic m : {Mnemonic::ADD, Mnemonic::CMP, Mnemonic::XOR}) {
        expectRoundTrip(make(m, {R(RAX), I(5, 1)}));
        expectRoundTrip(make(m, {R(RAX), I(-7, 1)}));
        expectRoundTrip(make(m, {R(RAX), I(0x7fff, 4)}));
        expectRoundTrip(make(m, {R(AX), I(0x1234, 2)}));   // LCP form
        expectRoundTrip(make(m, {R(EAX), I(0x123456, 4)}));
        expectRoundTrip(make(m, {R(AL), I(17, 1)}));
    }
}

TEST(RoundTrip, MemoryAddressingModes)
{
    const std::vector<Reg> bases = {RAX, RBX, RSP, RBP, R12, R13, R14};
    for (Reg base : bases) {
        for (std::int32_t disp : {0, 1, -1, 127, -128, 128, 0x1000}) {
            expectRoundTrip(
                make(Mnemonic::MOV, {R(RCX), M(mem(base, disp))}));
        }
    }
    for (Reg index : {RAX, RCX, RBP, R9, R13}) {
        for (int scale : {1, 2, 4, 8}) {
            expectRoundTrip(make(
                Mnemonic::MOV,
                {R(RDX), M(memIdx(RBX, index, scale, 16))}));
        }
    }
}

TEST(RoundTrip, MovAllForms)
{
    expectRoundTrip(make(Mnemonic::MOV, {R(RAX), R(RBX)}));
    expectRoundTrip(make(Mnemonic::MOV, {R(EAX), I(0x12345678, 4)}));
    expectRoundTrip(make(Mnemonic::MOV, {R(CX), I(0x1234, 2)}));
    expectRoundTrip(make(Mnemonic::MOV, {R(AL), I(7, 1)}));
    expectRoundTrip(make(Mnemonic::MOV, {R(RAX), I(-1, 4)}));
    expectRoundTrip(make(Mnemonic::MOV, {M(mem(RBX, 4, 4)), R(ECX)}));
    expectRoundTrip(make(Mnemonic::MOV, {M(mem(RBX, 4, 4)), I(99, 4)}));
    expectRoundTrip(make(Mnemonic::MOV, {R(RAX), M(mem(R13, -8))}));
}

TEST(RoundTrip, UnaryAndShifts)
{
    for (Mnemonic m : {Mnemonic::INC, Mnemonic::DEC, Mnemonic::NEG,
                       Mnemonic::NOT}) {
        expectRoundTrip(make(m, {R(RAX)}));
        expectRoundTrip(make(m, {R(R11)}));
        expectRoundTrip(make(m, {M(mem(RBX, 0, 8))}));
    }
    for (Mnemonic m : {Mnemonic::SHL, Mnemonic::SHR, Mnemonic::SAR,
                       Mnemonic::ROL, Mnemonic::ROR}) {
        expectRoundTrip(make(m, {R(RAX), I(7, 1)}));
        expectRoundTrip(make(m, {R(R9), R(CL)}));
    }
}

TEST(RoundTrip, MulDivImul)
{
    expectRoundTrip(make(Mnemonic::IMUL, {R(RAX), R(RBX)}));
    expectRoundTrip(make(Mnemonic::IMUL, {R(RAX), R(RBX), I(7, 1)}));
    expectRoundTrip(make(Mnemonic::IMUL, {R(RAX), R(RBX), I(1000, 4)}));
    expectRoundTrip(make(Mnemonic::IMUL, {R(RCX)}));
    expectRoundTrip(make(Mnemonic::MUL, {R(RCX)}));
    expectRoundTrip(make(Mnemonic::DIV, {R(ECX)}));
    expectRoundTrip(make(Mnemonic::IDIV, {R(R8)}));
}

TEST(RoundTrip, BitManipAndMoves)
{
    expectRoundTrip(make(Mnemonic::MOVZX, {R(RAX), R(BL)}));
    expectRoundTrip(make(Mnemonic::MOVZX, {R(EAX), R(CX)}));
    expectRoundTrip(make(Mnemonic::MOVSX, {R(RAX), R(gpr(1, 9))}));
    expectRoundTrip(make(Mnemonic::MOVZX, {R(R10), M(mem(RBX, 2, 1))}));
    expectRoundTrip(make(Mnemonic::BSWAP, {R(RAX)}));
    expectRoundTrip(make(Mnemonic::BSWAP, {R(R15)}));
    expectRoundTrip(make(Mnemonic::POPCNT, {R(RAX), R(RBX)}));
    expectRoundTrip(make(Mnemonic::LZCNT, {R(RAX), R(RBX)}));
    expectRoundTrip(make(Mnemonic::TZCNT, {R(R12), R(R13)}));
    expectRoundTrip(make(Mnemonic::BSF, {R(RAX), R(RBX)}));
    expectRoundTrip(make(Mnemonic::BSR, {R(EAX), R(EBX)}));
    expectRoundTrip(make(Mnemonic::XCHG, {R(RAX), R(RBX)}));
}

TEST(RoundTrip, StackAndControl)
{
    expectRoundTrip(make(Mnemonic::PUSH, {R(RBP)}));
    expectRoundTrip(make(Mnemonic::PUSH, {R(R15)}));
    expectRoundTrip(make(Mnemonic::POP, {R(RBP)}));
    expectRoundTrip(make(Mnemonic::PUSH, {I(1000, 4)}));
    expectRoundTrip(make(Mnemonic::RET, {}));
    expectRoundTrip(make(Mnemonic::CALL, {I(0x100, 4)}));
    expectRoundTrip(make(Mnemonic::JMP, {I(-20, 1)}));
    expectRoundTrip(make(Mnemonic::JMP, {I(1000, 4)}));
    for (int cc = 0; cc < 16; ++cc) {
        expectRoundTrip(
            makeCC(Mnemonic::JCC, static_cast<Cond>(cc), {I(-5, 1)}));
        expectRoundTrip(makeCC(Mnemonic::SETCC, static_cast<Cond>(cc),
                               {R(gpr(1, cc))}));
        expectRoundTrip(makeCC(Mnemonic::CMOVCC, static_cast<Cond>(cc),
                               {R(RAX), R(RCX)}));
    }
}

TEST(RoundTrip, SseForms)
{
    const std::vector<Mnemonic> twoOp = {
        Mnemonic::ADDPS, Mnemonic::ADDPD, Mnemonic::ADDSS, Mnemonic::ADDSD,
        Mnemonic::SUBPS, Mnemonic::SUBPD, Mnemonic::SUBSD, Mnemonic::MULPS,
        Mnemonic::MULPD, Mnemonic::MULSS, Mnemonic::MULSD, Mnemonic::DIVPS,
        Mnemonic::DIVPD, Mnemonic::DIVSS, Mnemonic::DIVSD, Mnemonic::SQRTPS,
        Mnemonic::SQRTPD, Mnemonic::SQRTSD, Mnemonic::MINPS, Mnemonic::MAXPS,
        Mnemonic::ANDPS, Mnemonic::ORPS, Mnemonic::XORPS, Mnemonic::PXOR,
        Mnemonic::PADDD, Mnemonic::PADDQ, Mnemonic::PSUBD, Mnemonic::PAND,
        Mnemonic::POR, Mnemonic::PMULLD, Mnemonic::PUNPCKLDQ};
    for (Mnemonic m : twoOp) {
        expectRoundTrip(make(m, {R(XMM0), R(XMM3)}));
        expectRoundTrip(make(m, {R(xmm(9)), R(xmm(14))}));
    }
    expectRoundTrip(make(Mnemonic::MOVAPS, {R(XMM1), M(mem(RBX, 0, 16))}));
    expectRoundTrip(make(Mnemonic::MOVAPS, {M(mem(RBX, 16, 16)), R(XMM1)}));
    expectRoundTrip(make(Mnemonic::MOVSD, {R(XMM1), M(mem(RSI, 8, 8))}));
    expectRoundTrip(make(Mnemonic::MOVSD, {M(mem(RSI, 8, 8)), R(XMM1)}));
    expectRoundTrip(make(Mnemonic::MOVSS, {R(XMM1), R(XMM2)}));
    expectRoundTrip(make(Mnemonic::SHUFPS, {R(XMM0), R(XMM1), I(0x1B, 1)}));
    expectRoundTrip(make(Mnemonic::PSLLD, {R(XMM3), I(5, 1)}));
    expectRoundTrip(make(Mnemonic::PSRLD, {R(XMM3), I(9, 1)}));
    expectRoundTrip(make(Mnemonic::CVTSI2SD, {R(XMM0), R(RAX)}));
    expectRoundTrip(make(Mnemonic::CVTSI2SD, {R(XMM0), R(EAX)}));
    expectRoundTrip(make(Mnemonic::CVTTSD2SI, {R(RAX), R(XMM0)}));
    expectRoundTrip(make(Mnemonic::MOVD, {R(XMM0), R(EAX)}));
    expectRoundTrip(make(Mnemonic::MOVD, {R(EAX), R(XMM0)}));
    expectRoundTrip(make(Mnemonic::MOVQ, {R(XMM0), R(RAX)}));
    expectRoundTrip(make(Mnemonic::MOVQ, {R(RAX), R(XMM0)}));
}

TEST(RoundTrip, AvxForms)
{
    const std::vector<Mnemonic> threeOp = {
        Mnemonic::VADDPS, Mnemonic::VADDPD, Mnemonic::VADDSD,
        Mnemonic::VSUBPS, Mnemonic::VMULPS, Mnemonic::VMULPD,
        Mnemonic::VMULSD, Mnemonic::VDIVPS, Mnemonic::VDIVSD,
        Mnemonic::VANDPS, Mnemonic::VXORPS, Mnemonic::VPXOR,
        Mnemonic::VPADDD, Mnemonic::VPMULLD, Mnemonic::VFMADD231PS,
        Mnemonic::VFMADD231PD, Mnemonic::VFMADD231SD};
    for (Mnemonic m : threeOp) {
        expectRoundTrip(make(m, {R(XMM0), R(XMM1), R(XMM2)}));
        expectRoundTrip(make(m, {R(xmm(8)), R(xmm(15)), R(xmm(3))}));
        expectRoundTrip(make(m, {R(XMM0), R(XMM1), M(mem(RBX, 0, 16))}));
    }
    expectRoundTrip(make(Mnemonic::VADDPS, {R(YMM0), R(YMM1), R(YMM2)}));
    expectRoundTrip(make(Mnemonic::VMOVAPS, {R(YMM0), M(mem(RBX, 0, 32))}));
    expectRoundTrip(make(Mnemonic::VMOVAPS, {M(mem(RBX, 0, 32)), R(YMM1)}));
    expectRoundTrip(make(Mnemonic::VMOVUPS, {R(XMM5), R(xmm(9))}));
    expectRoundTrip(make(Mnemonic::VSQRTPD, {R(XMM2), R(xmm(7))}));
}

TEST(RoundTrip, RandomizedBlocks)
{
    // Fuzz: random instructions from the whole builder space, encoded as
    // blocks and decoded back.
    Rng rng(20231020);
    const std::vector<Reg> regs = {RAX, RBX, RCX, RDX, RSI, RDI,
                                   R8,  R9,  R12, R13, R15};
    for (int trial = 0; trial < 500; ++trial) {
        Inst inst;
        switch (rng.below(8)) {
          case 0:
            inst = make(Mnemonic::ADD,
                        {R(rng.pick(regs)), R(rng.pick(regs))});
            break;
          case 1:
            inst = make(Mnemonic::MOV,
                        {R(rng.pick(regs)),
                         M(memIdx(rng.pick(regs), RCX, 1 << rng.below(4),
                                  static_cast<std::int32_t>(
                                      rng.range(-200, 200))))});
            break;
          case 2:
            inst = make(Mnemonic::IMUL, {R(rng.pick(regs)),
                                         R(rng.pick(regs)),
                                         I(rng.range(-100, 100), 1)});
            break;
          case 3:
            inst = make(Mnemonic::CMP, {R(gpr(2, rng.pick(regs).idx)),
                                        I(rng.range(256, 30000), 2)});
            break;
          case 4:
            inst = nop(1 + static_cast<int>(rng.below(15)));
            break;
          case 5:
            inst = make(Mnemonic::VFMADD231PD,
                        {R(xmm(rng.below(16))), R(xmm(rng.below(16))),
                         R(xmm(rng.below(16)))});
            break;
          case 6:
            inst = make(Mnemonic::SHL, {R(rng.pick(regs)),
                                        I(rng.range(1, 63), 1)});
            break;
          default:
            inst = makeCC(Mnemonic::CMOVCC,
                          static_cast<Cond>(rng.below(16)),
                          {R(rng.pick(regs)), R(rng.pick(regs))});
            break;
        }
        expectRoundTrip(inst);
    }
}

} // namespace
} // namespace facile::isa
