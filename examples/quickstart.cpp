/**
 * @file
 * Quickstart: build a basic block, predict its throughput with Facile
 * on Skylake, and print the per-component bounds and the bottleneck.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */
#include <cmath>
#include <cstdio>

#include "bb/basic_block.h"
#include "facile/predictor.h"
#include "isa/builder.h"

using namespace facile;
using namespace facile::isa;

int
main()
{
    // A small loop body: load, multiply-accumulate, store, count.
    std::vector<Inst> body = {
        make(Mnemonic::MOV, {R(RAX), M(memIdx(RSI, RCX, 8))}),
        make(Mnemonic::IMUL, {R(RAX), R(RDX)}),
        make(Mnemonic::ADD, {R(RBX), R(RAX)}),
        make(Mnemonic::MOV, {M(memIdx(RDI, RCX, 8)), R(RBX)}),
        make(Mnemonic::INC, {R(RCX)}),
        make(Mnemonic::CMP, {R(RCX), R(R8)}),
        backEdge(Cond::NE),
    };

    bb::BasicBlock blk = bb::analyze(body, uarch::UArch::SKL);

    std::printf("Block (%d bytes, %zu instructions):\n", blk.lengthBytes(),
                blk.insts.size());
    for (std::size_t i = 0; i < blk.insts.size(); ++i)
        std::printf("  %2d: %s%s\n", blk.insts[i].start,
                    toString(blk.sourceInst(i)).c_str(),
                    blk.insts[i].fusedWithPrev
                        ? "   ; macro-fused with previous"
                        : "");

    for (bool loop : {true, false}) {
        model::Prediction p = model::predict(blk, loop);
        std::printf("\n%s prediction: %.2f cycles/iteration\n",
                    loop ? "TPL (loop)" : "TPU (unrolled)", p.throughput);
        for (int c = 0; c < model::kNumComponents; ++c) {
            double v = p.componentValue[c];
            if (std::isnan(v))
                continue;
            std::printf("  %-12s %6.2f%s\n",
                        model::componentName(
                            static_cast<model::Component>(c))
                            .data(),
                        v, v >= p.throughput - 1e-9 ? "  <-- bottleneck"
                                                    : "");
        }
    }
    return 0;
}
