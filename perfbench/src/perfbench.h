/**
 * @file
 * Subcommands of the benchmark binary (pbench). perfbench/run.py
 * starts the processes under test and calls these; each writes a
 * result file (common.h Report) that run.py merges.
 */
#ifndef PERFBENCH_PERFBENCH_H
#define PERFBENCH_PERFBENCH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "eval/harness.h"

namespace perfbench {

/** Parsed `--key value` arguments; repeated keys accumulate. */
struct Args
{
    std::map<std::string, std::vector<std::string>> values;

    bool has(const std::string &k) const { return values.count(k) != 0; }
    std::string str(const std::string &k, const std::string &def = "") const;
    double num(const std::string &k, double def = 0.0) const;
    std::vector<std::string> all(const std::string &k) const;
};

/** inproc_cold: closed-loop predictBatch calls on a cold stream. */
int runInproc(const Args &a);

/** inproc_cold set-up: engine construction through the first result. */
int runInprocSetup(const Args &a);

/** Open-loop wire load against a server or router. */
int runWire(const Args &a);

/** Warm a prep server with the working set and have it snapshot. */
int runWirePrep(const Args &a);

/** Print the first request frame of a workload as hex. */
int runFirstFrame(const Args &a);

/** Idle round trips: direct and routed, plus the hop between them. */
int runIdle(const Args &a);

/** Per-layer probes over the workload's blocks (traced runs). */
int runProbe(const Args &a);

/** Time analysis::loadSnapshot of an image in this fresh process. */
int runSnapLoad(const Args &a);

/** MAPE (percent) and Kendall tau of served vs simulated throughput. */
struct Quality
{
    double mapePct = 0.0;
    double kendall = 0.0;
    std::size_t blocks = 0;
};

/** One served prediction to score: the block and its throughput. */
struct ScoredBlock
{
    std::vector<std::uint8_t> bytes;
    std::uint8_t arch = 0;
    bool loop = false;
    double served = 0.0;
};

/**
 * Score the served throughputs against sim::measuredThroughput of the
 * same blocks, both rounded to two decimals as the paper harness does;
 * simulation fans out over a few threads.
 */
Quality scoreAgainstSim(const std::vector<ScoredBlock> &blocks);

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_H
