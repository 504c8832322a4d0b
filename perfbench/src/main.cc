/**
 * @file
 * pbench: the compiled half of the benchmark. Usage:
 *
 *   pbench <subcommand> [--key value ...]
 *
 * Subcommands: inproc, inproc-setup, wire, wire-prep, first-frame,
 * idle, probe, snapload (see perfbench.h). perfbench/run.py is the entry
 * point; it builds this binary and calls it.
 */
#include "perfbench.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <thread>

#include "bb/basic_block.h"
#include "sim/pipeline.h"
#include "support/stats.h"

namespace perfbench {

std::string
Args::str(const std::string &k, const std::string &def) const
{
    auto it = values.find(k);
    return it == values.end() ? def : it->second.back();
}

double
Args::num(const std::string &k, double def) const
{
    auto it = values.find(k);
    return it == values.end() ? def : std::atof(it->second.back().c_str());
}

std::vector<std::string>
Args::all(const std::string &k) const
{
    auto it = values.find(k);
    return it == values.end() ? std::vector<std::string>{} : it->second;
}

Quality
scoreAgainstSim(const std::vector<ScoredBlock> &blocks)
{
    auto round2 = [](double v) { return std::round(v * 100.0) / 100.0; };
    std::vector<double> measured(blocks.size());
    std::vector<double> predicted(blocks.size());
    constexpr int kThreads = 3;
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            for (std::size_t i = t; i < blocks.size(); i += kThreads) {
                const auto &b = blocks[i];
                const auto blk = facile::bb::analyze(
                    b.bytes, static_cast<facile::uarch::UArch>(b.arch));
                measured[i] =
                    round2(facile::sim::measuredThroughput(blk, b.loop));
                predicted[i] = round2(b.served);
            }
        });
    for (auto &t : pool)
        t.join();
    Quality q;
    q.blocks = blocks.size();
    q.mapePct = 100.0 * facile::mape(measured, predicted);
    q.kendall = facile::kendallTau(measured, predicted);
    return q;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s <subcommand> [--key value ...]\n",
                     argv[0]);
        return 2;
    }
    Args a;
    for (int i = 2; i + 1 < argc; i += 2) {
        std::string k = argv[i];
        if (k.rfind("--", 0) != 0) {
            std::fprintf(stderr, "bad argument %s\n", argv[i]);
            return 2;
        }
        a.values[k.substr(2)].push_back(argv[i + 1]);
    }
    const std::string cmd = argv[1];
    try {
        if (cmd == "inproc")
            return runInproc(a);
        if (cmd == "inproc-setup")
            return runInprocSetup(a);
        if (cmd == "wire")
            return runWire(a);
        if (cmd == "wire-prep")
            return runWirePrep(a);
        if (cmd == "first-frame")
            return runFirstFrame(a);
        if (cmd == "idle")
            return runIdle(a);
        if (cmd == "probe")
            return runProbe(a);
        if (cmd == "snapload")
            return runSnapLoad(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "pbench %s: %s\n", cmd.c_str(), e.what());
        return 1;
    }
    std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
    return 2;
}
