/**
 * @file
 * Instruction database tests: structural invariants over the whole
 * (mnemonic-form x microarchitecture) space, plus targeted checks of
 * µop decomposition, fusion, unlamination, and elimination rules.
 */
#include <gtest/gtest.h>

#include "isa/builder.h"
#include "uops/info.h"

namespace facile::uops {
namespace {

using namespace facile::isa;
using facile::uarch::UArch;
using facile::uarch::allUArchs;
using facile::uarch::config;

/** A representative instruction of each supported form. */
std::vector<Inst>
representativeInsts()
{
    std::vector<Inst> v = {
        make(Mnemonic::ADD, {R(RAX), R(RBX)}),
        make(Mnemonic::ADD, {R(RAX), M(mem(RBX, 8))}),
        make(Mnemonic::ADD, {M(mem(RBX, 8)), R(RAX)}),
        make(Mnemonic::ADD, {R(RAX), I(5, 1)}),
        make(Mnemonic::ADC, {R(RAX), R(RBX)}),
        make(Mnemonic::MOV, {R(RAX), R(RBX)}),
        make(Mnemonic::MOV, {R(RAX), M(mem(RBX, 0))}),
        make(Mnemonic::MOV, {M(mem(RBX, 0)), R(RAX)}),
        make(Mnemonic::XOR, {R(RAX), R(RAX)}),
        make(Mnemonic::LEA, {R(RAX), M(mem(RBX, 8))}),
        make(Mnemonic::LEA, {R(RAX), M(memIdx(RBX, RCX, 2, 8))}),
        make(Mnemonic::IMUL, {R(RAX), R(RBX)}),
        make(Mnemonic::MUL, {R(RCX)}),
        make(Mnemonic::DIV, {R(ECX)}),
        make(Mnemonic::DIV, {R(RCX)}),
        make(Mnemonic::SHL, {R(RAX), I(3, 1)}),
        make(Mnemonic::SHL, {R(RAX), R(CL)}),
        make(Mnemonic::XCHG, {R(RAX), R(RBX)}),
        make(Mnemonic::PUSH, {R(RAX)}),
        make(Mnemonic::POP, {R(RAX)}),
        make(Mnemonic::RET, {}),
        make(Mnemonic::CALL, {I(0, 4)}),
        makeCC(Mnemonic::JCC, Cond::NE, {I(-2, 1)}),
        make(Mnemonic::JMP, {I(-2, 1)}),
        makeCC(Mnemonic::SETCC, Cond::E, {R(AL)}),
        makeCC(Mnemonic::CMOVCC, Cond::E, {R(RAX), R(RBX)}),
        make(Mnemonic::POPCNT, {R(RAX), R(RBX)}),
        nop(1),
        nop(8),
        make(Mnemonic::MOVAPS, {R(XMM0), R(XMM1)}),
        make(Mnemonic::MOVAPS, {R(XMM0), M(mem(RBX, 0, 16))}),
        make(Mnemonic::MOVAPS, {M(mem(RBX, 0, 16)), R(XMM0)}),
        make(Mnemonic::ADDSD, {R(XMM0), R(XMM1)}),
        make(Mnemonic::MULPS, {R(XMM0), R(XMM1)}),
        make(Mnemonic::DIVSD, {R(XMM0), R(XMM1)}),
        make(Mnemonic::SQRTPD, {R(XMM0), R(XMM1)}),
        make(Mnemonic::PXOR, {R(XMM0), R(XMM0)}),
        make(Mnemonic::PXOR, {R(XMM0), R(XMM1)}),
        make(Mnemonic::PADDD, {R(XMM0), R(XMM1)}),
        make(Mnemonic::PMULLD, {R(XMM0), R(XMM1)}),
        make(Mnemonic::SHUFPS, {R(XMM0), R(XMM1), I(0x4E, 1)}),
        make(Mnemonic::VADDPS, {R(XMM0), R(XMM1), R(XMM2)}),
        make(Mnemonic::VFMADD231PD, {R(XMM0), R(XMM1), R(XMM2)}),
        make(Mnemonic::VFMADD231PD, {R(XMM0), R(XMM1), M(mem(RBX, 0, 16))}),
        make(Mnemonic::CVTSI2SD, {R(XMM0), R(RAX)}),
        make(Mnemonic::MOVD, {R(XMM0), R(EAX)}),
    };
    return v;
}

class AllArchs : public ::testing::TestWithParam<UArch>
{
};

INSTANTIATE_TEST_SUITE_P(UArch, AllArchs,
                         ::testing::ValuesIn(allUArchs()),
                         [](const auto &info) {
                             return config(info.param).abbrev;
                         });

TEST_P(AllArchs, DatabaseInvariants)
{
    const auto &cfg = config(GetParam());
    for (const Inst &inst : representativeInsts()) {
        InstrInfo info = lookup(inst, cfg);
        SCOPED_TRACE(toString(inst));

        EXPECT_GE(info.fusedUops, 1);
        EXPECT_GE(info.issueUops, info.fusedUops);
        EXPECT_GE(info.latency, 0);
        EXPECT_LE(info.latency, 64);
        if (info.eliminated) {
            EXPECT_TRUE(info.portUops.empty());
        } else {
            EXPECT_FALSE(info.portUops.empty());
        }
        for (const Uop &u : info.portUops) {
            EXPECT_NE(u.ports, 0);
            EXPECT_EQ(u.ports & ~cfg.allPorts(), 0)
                << "µop uses a port the µarch does not have";
        }
        EXPECT_EQ(info.needsComplexDecoder, info.fusedUops > 1);
        if (info.needsComplexDecoder) {
            EXPECT_LE(info.nAvailableSimpleDecoders, cfg.nDecoders - 1);
        }
    }
}

TEST(UopsDb, MicroFusionCounts)
{
    const auto &skl = config(UArch::SKL);
    // Load-op: 1 fused µop, 2 unfused (load + ALU).
    InstrInfo loadOp = lookup(make(Mnemonic::ADD, {R(RAX), M(mem(RBX))}), skl);
    EXPECT_EQ(loadOp.fusedUops, 1);
    EXPECT_EQ(loadOp.portUops.size(), 2u);
    // RMW: 2 fused µops, 4 unfused (load + ALU + STA + STD).
    InstrInfo rmw = lookup(make(Mnemonic::ADD, {M(mem(RBX)), R(RAX)}), skl);
    EXPECT_EQ(rmw.fusedUops, 2);
    EXPECT_EQ(rmw.portUops.size(), 4u);
    EXPECT_TRUE(rmw.needsComplexDecoder);
    // Pure store: 1 fused, 2 unfused.
    InstrInfo st = lookup(make(Mnemonic::MOV, {M(mem(RBX)), R(RAX)}), skl);
    EXPECT_EQ(st.fusedUops, 1);
    EXPECT_EQ(st.portUops.size(), 2u);
}

TEST(UopsDb, UnlaminationIndexedStores)
{
    // Indexed store unlaminates (issue 2) on every family.
    Inst st = make(Mnemonic::MOV, {M(memIdx(RBX, RCX, 4)), R(RAX)});
    for (UArch a : allUArchs()) {
        InstrInfo info = lookup(st, config(a));
        EXPECT_EQ(info.fusedUops, 1);
        EXPECT_EQ(info.issueUops, 2) << config(a).abbrev;
    }
    // Indexed load-op unlaminates only on the SnB family.
    Inst lo = make(Mnemonic::ADD, {R(RAX), M(memIdx(RBX, RCX, 4))});
    EXPECT_EQ(lookup(lo, config(UArch::SNB)).issueUops, 2);
    EXPECT_EQ(lookup(lo, config(UArch::IVB)).issueUops, 2);
    EXPECT_EQ(lookup(lo, config(UArch::SKL)).issueUops, 1);
    EXPECT_EQ(lookup(lo, config(UArch::RKL)).issueUops, 1);
}

TEST(UopsDb, MoveElimination)
{
    Inst mov = make(Mnemonic::MOV, {R(RAX), R(RBX)});
    EXPECT_FALSE(lookup(mov, config(UArch::SNB)).eliminated);
    EXPECT_TRUE(lookup(mov, config(UArch::IVB)).eliminated);
    EXPECT_TRUE(lookup(mov, config(UArch::SKL)).eliminated);
    EXPECT_FALSE(lookup(mov, config(UArch::ICL)).eliminated);

    Inst vmov = make(Mnemonic::MOVAPS, {R(XMM0), R(XMM1)});
    EXPECT_FALSE(lookup(vmov, config(UArch::SNB)).eliminated);
    EXPECT_TRUE(lookup(vmov, config(UArch::ICL)).eliminated);

    // 8-bit moves merge and cannot be eliminated.
    Inst mov8 = make(Mnemonic::MOV, {R(AL), R(BL)});
    EXPECT_FALSE(lookup(mov8, config(UArch::SKL)).eliminated);
}

TEST(UopsDb, ZeroIdiomsEliminated)
{
    for (UArch a : allUArchs()) {
        InstrInfo info =
            lookup(make(Mnemonic::XOR, {R(RAX), R(RAX)}), config(a));
        EXPECT_TRUE(info.eliminated) << config(a).abbrev;
        EXPECT_EQ(info.latency, 0);
    }
}

TEST(UopsDb, AdcCmovFamilyDifferences)
{
    Inst adc = make(Mnemonic::ADC, {R(RAX), R(RBX)});
    EXPECT_EQ(lookup(adc, config(UArch::SNB)).portUops.size(), 2u);
    EXPECT_EQ(lookup(adc, config(UArch::HSW)).portUops.size(), 1u);

    Inst cmov = makeCC(Mnemonic::CMOVCC, Cond::E, {R(RAX), R(RBX)});
    EXPECT_EQ(lookup(cmov, config(UArch::HSW)).portUops.size(), 2u);
    EXPECT_EQ(lookup(cmov, config(UArch::BDW)).portUops.size(), 1u);
    EXPECT_EQ(lookup(cmov, config(UArch::SKL)).portUops.size(), 1u);
}

TEST(UopsDb, SlowLeaLatency)
{
    const auto &skl = config(UArch::SKL);
    InstrInfo fast = lookup(make(Mnemonic::LEA, {R(RAX), M(mem(RBX, 8))}),
                            skl);
    EXPECT_EQ(fast.latency, 1);
    InstrInfo slow = lookup(
        make(Mnemonic::LEA, {R(RAX), M(memIdx(RBX, RCX, 1, 8))}), skl);
    EXPECT_EQ(slow.latency, 3);
}

TEST(UopsDb, FpLatenciesEvolve)
{
    Inst addsd = make(Mnemonic::ADDSD, {R(XMM0), R(XMM1)});
    EXPECT_EQ(lookup(addsd, config(UArch::SNB)).latency, 3);
    EXPECT_EQ(lookup(addsd, config(UArch::SKL)).latency, 4);
    Inst mulsd = make(Mnemonic::MULSD, {R(XMM0), R(XMM1)});
    EXPECT_EQ(lookup(mulsd, config(UArch::SNB)).latency, 5);
    EXPECT_EQ(lookup(mulsd, config(UArch::SKL)).latency, 4);
}

TEST(UopsDb, MacroFusionRules)
{
    const auto &skl = config(UArch::SKL);
    const auto &snb = config(UArch::SNB);
    Inst cmp = make(Mnemonic::CMP, {R(RAX), R(RBX)});
    Inst cmpMem = make(Mnemonic::CMP, {R(RAX), M(mem(RBX))});
    Inst inc = make(Mnemonic::INC, {R(RAX)});
    Inst test = make(Mnemonic::TEST, {R(RAX), R(RAX)});
    Inst mov = make(Mnemonic::MOV, {R(RAX), R(RBX)});
    Inst je = makeCC(Mnemonic::JCC, Cond::E, {I(-2, 1)});
    Inst jb = makeCC(Mnemonic::JCC, Cond::B, {I(-2, 1)});
    Inst js = makeCC(Mnemonic::JCC, Cond::S, {I(-2, 1)});

    EXPECT_TRUE(macroFusesWith(cmp, je, skl));
    EXPECT_TRUE(macroFusesWith(cmp, jb, skl));
    EXPECT_FALSE(macroFusesWith(cmp, js, skl)); // sign cc: no fusion
    EXPECT_TRUE(macroFusesWith(test, js, skl)); // test fuses with all
    EXPECT_FALSE(macroFusesWith(inc, jb, skl)); // inc + CF-reading cc
    EXPECT_TRUE(macroFusesWith(inc, je, skl));
    EXPECT_FALSE(macroFusesWith(mov, je, skl));
    // Memory forms fuse on HSW+ but not on the SnB family.
    EXPECT_TRUE(macroFusesWith(cmpMem, je, skl));
    EXPECT_FALSE(macroFusesWith(cmpMem, je, snb));
}

TEST(UopsDb, NopIsEliminatedButIssues)
{
    const auto &skl = config(UArch::SKL);
    InstrInfo info = lookup(nop(1), skl);
    EXPECT_TRUE(info.eliminated);
    EXPECT_EQ(info.fusedUops, 1);
    EXPECT_EQ(info.issueUops, 1);
}

TEST(UopsDb, DivIsMicrocoded)
{
    const auto &skl = config(UArch::SKL);
    InstrInfo d32 = lookup(make(Mnemonic::DIV, {R(ECX)}), skl);
    EXPECT_GE(d32.fusedUops, 8);
    EXPECT_EQ(d32.nAvailableSimpleDecoders, 0);
    InstrInfo d64 = lookup(make(Mnemonic::DIV, {R(RCX)}), skl);
    EXPECT_GT(d64.fusedUops, d32.fusedUops);
    EXPECT_GT(d64.latency, d32.latency);
}

} // namespace
} // namespace facile::uops
