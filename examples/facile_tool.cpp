/**
 * @file
 * Command-line front end — the equivalent of the original facile.py.
 *
 * Usage:
 *   facile_tool [-arch SKL] [-loop|-unroll] [-hex] [file]
 *
 * Reads a basic block as Intel-syntax assembly text (default) or as hex
 * machine code (-hex) from the given file or stdin, and prints the
 * throughput prediction with the full interpretability payload.
 *
 * Example:
 *   echo 'add rax, rbx
 *         imul rcx, rax
 *         dec rdi
 *         jne -2' | ./build/examples/facile_tool -arch RKL -loop
 */
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bb/basic_block.h"
#include "facile/predictor.h"
#include "isa/asm_parser.h"
#include "isa/encoder.h"

using namespace facile;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: facile_tool [-arch ABBR] [-loop|-unroll] [-hex] "
                 "[file]\n"
                 "  -arch ABBR   microarchitecture (SNB IVB HSW BDW SKL "
                 "CLX ICL TGL RKL; default SKL)\n"
                 "  -loop        TPL notion (default if the block ends in "
                 "a branch)\n"
                 "  -unroll      TPU notion (default otherwise)\n"
                 "  -hex         input is hex machine code, not assembly\n");
}

} // namespace

int
main(int argc, char **argv)
{
    uarch::UArch arch = uarch::UArch::SKL;
    int notion = -1; // -1 auto, 0 unroll, 1 loop
    bool hex = false;
    const char *path = nullptr;

    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "-arch") && i + 1 < argc) {
            try {
                arch = uarch::fromAbbrev(argv[++i]);
            } catch (const std::exception &e) {
                std::fprintf(stderr, "%s\n", e.what());
                return 1;
            }
        } else if (!std::strcmp(argv[i], "-loop")) {
            notion = 1;
        } else if (!std::strcmp(argv[i], "-unroll")) {
            notion = 0;
        } else if (!std::strcmp(argv[i], "-hex")) {
            hex = true;
        } else if (!std::strcmp(argv[i], "-h") ||
                   !std::strcmp(argv[i], "--help")) {
            usage();
            return 0;
        } else {
            path = argv[i];
        }
    }

    std::string input;
    if (path) {
        std::ifstream f(path);
        if (!f) {
            std::fprintf(stderr, "cannot open %s\n", path);
            return 1;
        }
        std::stringstream ss;
        ss << f.rdbuf();
        input = ss.str();
    } else {
        std::stringstream ss;
        ss << std::cin.rdbuf();
        input = ss.str();
    }

    bb::BasicBlock blk;
    try {
        std::vector<std::uint8_t> bytes =
            hex ? isa::parseHex(input)
                : isa::encodeBlock(isa::parseListing(input));
        blk = bb::analyze(bytes, arch);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    if (blk.insts.empty()) {
        std::fprintf(stderr, "error: empty basic block\n");
        return 1;
    }

    const bool loop = notion == -1 ? blk.endsInBranch() : notion == 1;
    model::Prediction p = model::predict(blk, loop);

    std::printf("Microarchitecture: %s\n", uarch::config(arch).name);
    std::printf("Throughput notion: %s\n", loop ? "TPL (loop)"
                                                : "TPU (unrolled)");
    std::printf("Block: %d bytes, %zu instructions, %d fused-domain "
                "uops\n\n",
                blk.lengthBytes(), blk.insts.size(), blk.fusedUops());
    for (std::size_t i = 0; i < blk.insts.size(); ++i)
        std::printf("  %3d: %-40s %s\n", blk.insts[i].start,
                    isa::toString(blk.sourceInst(i)).c_str(),
                    blk.insts[i].fusedWithPrev ? "; macro-fused" : "");

    std::printf("\nPredicted throughput: %.2f cycles/iteration\n\n",
                p.throughput);
    std::printf("Component bounds:\n");
    for (int c = 0; c < model::kNumComponents; ++c) {
        double v = p.componentValue[c];
        if (std::isnan(v))
            continue;
        std::printf("  %-12s %6.2f%s\n",
                    model::componentName(static_cast<model::Component>(c))
                        .data(),
                    v,
                    v >= p.throughput - 1e-9 ? "  <-- bottleneck" : "");
    }

    if (!p.criticalChain.empty() &&
        p.primaryBottleneck == model::Component::Precedence) {
        std::printf("\nCritical dependence chain:\n");
        for (int idx : p.criticalChain)
            std::printf("  %s\n",
                        isa::toString(
                            blk.sourceInst(static_cast<std::size_t>(idx)))
                            .c_str());
    }
    if (p.primaryBottleneck == model::Component::Ports) {
        std::printf("\nContended ports: %s (%zu instructions)\n",
                    uarch::portMaskName(p.contendedPorts).c_str(),
                    p.contendingInsts.size());
    }
    return 0;
}
