/**
 * @file
 * Workload inputs. Everything here is a pure function of the workload
 * seed: the program under test only ever sees the generated blocks.
 *
 *   inproc_cold   a stream of never-repeated blocks, U and L variants
 *                 with their notion, each on SKL, ICL and HSW
 *   wire_hot      a 4096-block SKL/TPL working set drawn Zipf(1.0),
 *                 bound-only
 *   routed_mixed  70% from a 2048-block hot set (Zipf 1.0), 30%
 *                 never-repeated blocks; arch uniform over SKL, ICL,
 *                 HSW; notion 50/50; 10% carry the explain flag
 */
#ifndef PERFBENCH_TRAFFIC_H
#define PERFBENCH_TRAFFIC_H

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "bhive/generator.h"
#include "engine/engine.h"
#include "support/rng.h"

namespace perfbench {

/** splitmix64: derives independent sub-seeds from the workload seed. */
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

/**
 * An endless source of benchmarks whose U and L bytes were never
 * returned before by this source (the generator can repeat tiny
 * blocks; those are skipped).
 */
class FreshBlocks
{
  public:
    FreshBlocks(std::uint64_t seed, std::uint64_t salt);

    const facile::bhive::Benchmark &next();

  private:
    std::uint64_t seed_;
    std::uint64_t chunk_ = 0;
    std::vector<facile::bhive::Benchmark> buf_;
    std::size_t pos_ = 0;
    std::unordered_set<std::uint64_t> seen_;
};

/** The inproc_cold request order for the next @p n requests. */
std::vector<facile::engine::Request> inprocRequests(FreshBlocks &src,
                                                    std::size_t n);

/** Zipf(s = 1.0) over ranks [0, n), mapped through a seeded shuffle. */
class Zipf
{
  public:
    Zipf(std::size_t n, std::uint64_t seed);
    std::uint32_t draw(facile::Rng &rng) const;

  private:
    std::vector<double> cdf_;
    std::vector<std::uint32_t> perm_;
};

/** One wire request, as the generator sends it. */
struct WireItem
{
    std::uint32_t block = 0; ///< index into WireTraffic::blocks
    std::uint8_t arch = 0;
    bool loop = false;
    bool explain = false;
    std::int32_t hot = -1; ///< hot-set entry, -1 for a fresh block
};

/** One arrival of an open-loop schedule. */
struct Arrival
{
    std::int64_t dueNs = 0; ///< offset from the phase start
    WireItem item;
};

/** Traffic model of a wire workload. */
class WireTraffic
{
  public:
    /** @p workload is "wire_hot" or "routed_mixed". */
    WireTraffic(const std::string &workload, std::uint64_t seed);

    struct HotEntry
    {
        std::uint32_t block;
        facile::uarch::UArch arch;
        bool loop;
    };

    std::vector<std::vector<std::uint8_t>> blocks; ///< hot set first
    std::vector<HotEntry> hot;
    double freshShare = 0.0;
    double explainShare = 0.0;

    /** Draw one request; may append a fresh block to blocks. */
    WireItem draw(facile::Rng &rng);

    /** Poisson arrivals at @p rate per second for @p seconds. */
    std::vector<Arrival> schedule(facile::Rng &rng, double rate,
                                  double seconds);

    facile::engine::Request request(const WireItem &it) const;

  private:
    FreshBlocks fresh_;
    Zipf zipf_;
    std::vector<std::vector<std::uint8_t>> spare_; ///< unused L variants
};

/**
 * A workload's distinct bound-only requests, as the per-layer probes
 * and the idle round-trip probe use them: the first @p n of the
 * inproc_cold stream, or the wire workloads' hot sets.
 */
std::vector<facile::engine::Request>
probeRequests(const std::string &workload, std::uint64_t seed,
              std::size_t n);

/** The serial reference: bb::analyze + model::predict on this thread. */
facile::model::Prediction
serialPredict(const facile::engine::Request &req,
              facile::model::PredictScratch &scratch);

/** Hex of a request frame (used by run.py for its first PREDICT). */
std::string frameHex(const facile::engine::Request &req);

} // namespace perfbench

#endif // PERFBENCH_TRAFFIC_H
