/**
 * @file
 * Basic-block layer tests: decode+annotate pipeline, byte offsets,
 * macro-fusion folding, µop totals, and JCC-erratum boundary detection.
 */
#include <gtest/gtest.h>

#include "bb/basic_block.h"
#include "isa/builder.h"
#include "isa/encoder.h"

namespace facile::bb {
namespace {

using namespace facile::isa;
using facile::uarch::UArch;

TEST(BasicBlock, OffsetsAreConsecutive)
{
    std::vector<Inst> insts = {
        make(Mnemonic::ADD, {R(RAX), R(RBX)}), // 3 bytes
        nop(5),
        make(Mnemonic::MOV, {R(RCX), M(mem(RBX, 8))}),
    };
    BasicBlock blk = analyze(insts, UArch::SKL);
    ASSERT_EQ(blk.insts.size(), 3u);
    EXPECT_EQ(blk.insts[0].start, 0);
    EXPECT_EQ(blk.insts[0].end, 3);
    EXPECT_EQ(blk.insts[1].start, 3);
    EXPECT_EQ(blk.insts[1].end, 8);
    EXPECT_EQ(blk.insts[2].start, 8);
    EXPECT_EQ(blk.lengthBytes(), blk.insts[2].end);
}

TEST(BasicBlock, MacroFusionFoldsPair)
{
    std::vector<Inst> insts = {
        make(Mnemonic::ADD, {R(RAX), R(RBX)}),
        make(Mnemonic::CMP, {R(RCX), R(RDX)}),
        makeCC(Mnemonic::JCC, Cond::E, {I(-2, 1)}),
    };
    BasicBlock blk = analyze(insts, UArch::SKL);
    ASSERT_EQ(blk.insts.size(), 3u);
    EXPECT_FALSE(blk.insts[1].fusedWithPrev);
    EXPECT_TRUE(blk.insts[2].fusedWithPrev);
    EXPECT_EQ(blk.insts[2].info->fusedUops, 0);
    EXPECT_TRUE(blk.insts[2].info->portUops.empty());
    // The pair contributes a single fused µop on the branch ports.
    EXPECT_EQ(blk.insts[1].info->fusedUops, 1);
    ASSERT_EQ(blk.insts[1].info->portUops.size(), 1u);
    // Total: add(1) + fused pair(1).
    EXPECT_EQ(blk.fusedUops(), 2);
}

TEST(BasicBlock, NoFusionWithNonFusibleCc)
{
    std::vector<Inst> insts = {
        make(Mnemonic::CMP, {R(RCX), R(RDX)}),
        makeCC(Mnemonic::JCC, Cond::S, {I(-2, 1)}), // sign cc: no fusion
    };
    BasicBlock blk = analyze(insts, UArch::SKL);
    EXPECT_FALSE(blk.insts[1].fusedWithPrev);
    EXPECT_EQ(blk.fusedUops(), 2);
}

TEST(BasicBlock, FusedPairKeepsMicroFusedLoad)
{
    // cmp rax, [rbx] + je fuses on SKL; the load µop must survive.
    std::vector<Inst> insts = {
        make(Mnemonic::CMP, {R(RAX), M(mem(RBX))}),
        makeCC(Mnemonic::JCC, Cond::E, {I(-2, 1)}),
    };
    BasicBlock blk = analyze(insts, UArch::SKL);
    ASSERT_TRUE(blk.insts[1].fusedWithPrev);
    EXPECT_EQ(blk.insts[0].info->portUops.size(), 2u); // load + branch
}

TEST(BasicBlock, EndsInBranch)
{
    BasicBlock noBranch =
        analyze({make(Mnemonic::ADD, {R(RAX), R(RBX)})}, UArch::SKL);
    EXPECT_FALSE(noBranch.endsInBranch());
    BasicBlock withBranch = analyze(
        {make(Mnemonic::ADD, {R(RAX), R(RBX)}), backEdge()}, UArch::SKL);
    EXPECT_TRUE(withBranch.endsInBranch());
}

TEST(BasicBlock, IssueVsFusedUopsUnlamination)
{
    // Indexed store: fused 1, issue 2.
    BasicBlock blk = analyze(
        {make(Mnemonic::MOV, {M(memIdx(RBX, RCX, 8)), R(RAX)})},
        UArch::SKL);
    EXPECT_EQ(blk.fusedUops(), 1);
    EXPECT_EQ(blk.issueUops(), 2);
}

TEST(BasicBlock, JccErratumBoundaryDetection)
{
    // Pad so the branch ends exactly on a 32-byte boundary.
    std::vector<Inst> touching = {nop(15), nop(15), backEdge()};
    BasicBlock blk1 = analyze(touching, UArch::SKL);
    ASSERT_EQ(blk1.lengthBytes(), 32);
    EXPECT_TRUE(blk1.touchesJccErratumBoundary());

    // Branch comfortably inside one 32-byte region.
    std::vector<Inst> safe = {nop(4), backEdge()};
    BasicBlock blk2 = analyze(safe, UArch::SKL);
    EXPECT_FALSE(blk2.touchesJccErratumBoundary());

    // Branch crossing a 32-byte boundary.
    std::vector<Inst> crossing = {nop(15), nop(15), nop(1),
                                  makeCC(Mnemonic::JCC, Cond::NE,
                                         {I(1000, 4)})};
    BasicBlock blk3 = analyze(crossing, UArch::SKL);
    EXPECT_TRUE(blk3.touchesJccErratumBoundary());
}

TEST(BasicBlock, FusedPairCountsForErratum)
{
    // cmp at offset 30 (2 bytes: ends at 31), jcc at 32: the fused pair
    // crosses the boundary even though the jcc alone does not.
    std::vector<Inst> insts = {nop(15), nop(15),
                               make(Mnemonic::CMP, {R(EAX), R(EBX)}),
                               makeCC(Mnemonic::JCC, Cond::E, {I(-2, 1)})};
    BasicBlock blk = analyze(insts, UArch::SKL);
    ASSERT_TRUE(blk.insts[3].fusedWithPrev);
    EXPECT_TRUE(blk.touchesJccErratumBoundary());
}

TEST(BasicBlock, AnnotationsDifferAcrossArchs)
{
    std::vector<Inst> insts = {make(Mnemonic::MOV, {R(RAX), R(RBX)})};
    BasicBlock snb = analyze(insts, UArch::SNB);
    BasicBlock skl = analyze(insts, UArch::SKL);
    EXPECT_FALSE(snb.insts[0].info->eliminated);
    EXPECT_TRUE(skl.insts[0].info->eliminated);
}

TEST(BasicBlock, RoundTripThroughBytes)
{
    std::vector<Inst> insts = {
        make(Mnemonic::ADD, {R(RAX), M(memIdx(RBX, RCX, 4, 100))}),
        make(Mnemonic::VFMADD231PD, {R(XMM0), R(XMM1), R(XMM2)}),
        backEdge(),
    };
    auto bytes = encodeBlock(insts);
    BasicBlock blk = analyze(bytes, UArch::RKL);
    ASSERT_EQ(blk.insts.size(), 3u);
    EXPECT_EQ(blk.bytes, bytes);
    EXPECT_EQ(blk.insts[1].dec->inst.mnem, Mnemonic::VFMADD231PD);
}

TEST(BasicBlock, SourceInstShowsTheBlocksOwnValues)
{
    // Interned annotations describe the instruction's form, whose
    // canonical immediate is 0 and displacement 1; printers must show
    // the block's own values through sourceInst.
    std::vector<Inst> insts = {
        make(Mnemonic::ADD, {R(RAX), I(0x1234, 4)}),
        make(Mnemonic::MOV, {R(ECX), M(mem(RBX, 0x40, 4))}),
        backEdge(),
    };
    BasicBlock blk = analyze(insts, UArch::SKL);
    ASSERT_EQ(blk.insts.size(), 3u);
    EXPECT_EQ(blk.insts[0].dec->inst.ops[1].imm, 0);
    EXPECT_EQ(blk.insts[1].dec->inst.ops[1].mem.disp, 1);
    for (std::size_t i = 0; i < insts.size(); ++i) {
        EXPECT_EQ(blk.sourceInst(i).mnem, insts[i].mnem);
        EXPECT_EQ(blk.sourceInst(i).ops, insts[i].ops);
    }
    EXPECT_EQ(toString(blk.sourceInst(0)), "add rax, 4660");
    EXPECT_EQ(toString(blk.sourceInst(1)), "mov ecx, dword ptr [rbx+64]");
}

} // namespace
} // namespace facile::bb
