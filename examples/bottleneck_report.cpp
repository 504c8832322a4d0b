/**
 * @file
 * Interpretability demo (paper sections 4.8, 4.9, 6.4): analyze a
 * numerical kernel across all nine microarchitectures, print the
 * bottleneck, the critical dependence chain or the contended ports,
 * and answer the counterfactual question "how much faster would this
 * block be if component X were infinitely fast?".
 */
#include <cmath>
#include <cstdio>

#include "bb/basic_block.h"
#include "facile/component.h"
#include "facile/predictor.h"
#include "isa/builder.h"

using namespace facile;
using namespace facile::isa;

int
main()
{
    // A dot-product-style kernel: two loads, FMA into an accumulator.
    std::vector<Inst> body = {
        make(Mnemonic::MOVSD, {R(XMM1), M(memIdx(RSI, RCX, 8))}),
        make(Mnemonic::MOVSD, {R(XMM2), M(memIdx(RDI, RCX, 8))}),
        make(Mnemonic::VFMADD231SD, {R(XMM0), R(XMM1), R(XMM2)}),
        make(Mnemonic::INC, {R(RCX)}),
        make(Mnemonic::CMP, {R(RCX), R(R8)}),
        backEdge(Cond::NE),
    };

    std::printf("Kernel: dot-product accumulation (TPL analysis)\n\n");
    std::printf("%-14s %8s %-12s %s\n", "uArch", "cyc/iter", "bottleneck",
                "explanation");

    model::PredictScratch scratch;
    for (uarch::UArch a : uarch::allUArchs()) {
        bb::BasicBlock blk = bb::analyze(body, a);
        // An interpretability report wants the payload: request it
        // explicitly (the full-explain call path).
        model::Prediction p = model::predict(blk, true, {}, scratch,
                                             model::Payload::Full);

        std::string why;
        if (p.primaryBottleneck == model::Component::Precedence &&
            !p.criticalChain.empty()) {
            why = "dependence chain:";
            for (int idx : p.criticalChain)
                why += " [" +
                       toString(blk.sourceInst(
                           static_cast<std::size_t>(idx))) +
                       "]";
        } else if (p.primaryBottleneck == model::Component::Ports) {
            why = "contention on " + uarch::portMaskName(p.contendedPorts) +
                  " (" + std::to_string(p.contendingInsts.size()) +
                  " instructions)";
        } else {
            why = "front-end / issue limited";
        }

        std::printf("%-14s %8.2f %-12s %s\n", uarch::config(a).name,
                    p.throughput,
                    model::componentName(p.primaryBottleneck).data(),
                    why.c_str());
    }

    // Counterfactual analysis on Skylake. idealized() only reads the
    // component values, so the cheap bound-only call suffices here —
    // the two call paths of the new API side by side.
    bb::BasicBlock blk = bb::analyze(body, uarch::UArch::SKL);
    model::Prediction p =
        model::predict(blk, true, {}, scratch, model::Payload::None);
    std::printf("\nCounterfactuals on Skylake (baseline %.2f cyc/iter):\n",
                p.throughput);
    for (int c = 0; c < model::kNumComponents; ++c) {
        double v = p.componentValue[c];
        if (std::isnan(v))
            continue;
        model::Component comp = static_cast<model::Component>(c);
        double ideal = p.idealized(comp);
        std::printf("  if %-12s were infinitely fast: %.2f cyc/iter "
                    "(%.2fx speedup)\n",
                    model::componentName(comp).data(), ideal,
                    ideal > 0 ? p.throughput / ideal : 1.0);
    }
    return 0;
}
