/**
 * @file
 * Batched, multi-threaded prediction engine.
 *
 * The paper's headline property is that Facile predicts basic-block
 * throughput orders of magnitude faster than simulators; this subsystem
 * turns the single-block predictor into a service-shaped batch engine:
 *
 *   - a batch of (bytes, arch, loop, config) requests is fanned out
 *     over a fork-join pool whose lane 0 is the calling thread (lanes
 *     claim contiguous chunks of a shared work index, so uneven block
 *     cost load-balances);
 *   - one sharded prediction cache keyed on the throughput notion,
 *     the payload depth, the ablation config, the arch and the raw
 *     block bytes short-circuits fully repeated requests. It is the
 *     only cache above instruction interning (analysis/intern.h): a
 *     miss re-runs bb::analyze into a local block, which costs a few
 *     microseconds on interned instructions, so caching analysed
 *     blocks as well would save almost nothing;
 *   - one model::PredictScratch per pool lane (see
 *     facile/component.h) makes the whole component pipeline
 *     allocation-free in steady state, with scratch ownership explicit
 *     instead of thread_local-scattered;
 *   - requests default to Payload::None: the serving path computes
 *     bounds and bottleneck classification but skips the
 *     interpretability payload unless a request asks for it.
 *
 * Predictions are bit-identical to serial facile::model::predict()
 * at the same payload depth: the same deterministic code runs per
 * block, only scheduling and memoization differ.
 */
#ifndef FACILE_ENGINE_ENGINE_H
#define FACILE_ENGINE_ENGINE_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "facile/predictor.h"

namespace facile::engine {

class ThreadPool;

/** One prediction request. */
struct Request
{
    std::vector<std::uint8_t> bytes;
    uarch::UArch arch = uarch::UArch::SKL;
    bool loop = false;
    model::ModelConfig config{};

    /**
     * How much of the Prediction to build. The serving default is the
     * cheap path: throughput, componentValue and the bottleneck
     * classification, no interpretability payload. Payload::Full asks
     * for criticalChain / contendedPorts / contendingInsts as well and
     * is cached separately (the payload depth is part of the
     * prediction-cache key).
     */
    model::Payload payload = model::Payload::None;
};

/** Counters for one predictBatch call. */
struct BatchStats
{
    std::size_t requests = 0;
    std::size_t analysisCacheHits = 0;   ///< retired, always 0
    std::size_t predictionCacheHits = 0; ///< whole prediction skipped
    std::size_t analyzed = 0;            ///< blocks decoded this batch
};

struct EngineOptions
{
    /**
     * Parallel lanes, including the caller: a batch call runs lane 0
     * on the calling thread, so N lanes spawn N - 1 pool threads.
     * 0 picks std::thread::hardware_concurrency.
     */
    int numThreads = 0;

    /** Switch for the prediction cache. */
    bool cacheEnabled = true;

    /**
     * Bound on entries per cache-shard generation. Shards use
     * two-generation (old/new) eviction: inserts and old-generation
     * hits go to the new generation; when it fills, the old generation
     * is dropped and the new one ages into its place. The hot working
     * set survives overflow (a hostile request stream still cannot
     * exhaust memory — a shard holds at most 2x this many entries),
     * and steady-state traffic at capacity keeps its hit rate.
     */
    std::size_t maxEntriesPerShard = 1 << 16;
};

class PredictionEngine
{
  public:
    using Options = EngineOptions;

    explicit PredictionEngine(Options opts = {});
    ~PredictionEngine();

    PredictionEngine(const PredictionEngine &) = delete;
    PredictionEngine &operator=(const PredictionEngine &) = delete;

    int numThreads() const;

    /**
     * Predict every request of the batch in parallel. out[i] corresponds
     * to batch[i] and is bit-identical to
     * model::predict(bb::analyze(batch[i].bytes, batch[i].arch),
     *                batch[i].loop, batch[i].config).
     * A malformed block (decode error) yields a default Prediction with
     * throughput 0, mirroring the eval harness' crash protocol. This is
     * predictBatchVisit with a visitor that stores into out[i].
     */
    std::vector<model::Prediction>
    predictBatch(const std::vector<Request> &batch,
                 BatchStats *stats = nullptr);

    /**
     * Visitor over one prediction: (worker, requestIndex, prediction).
     * worker is the pool lane index in [0, numThreads()); lane 0 is
     * the thread that called predictBatchVisit.
     */
    using PredictionVisitor =
        std::function<void(int, std::size_t, const model::Prediction &)>;

    /**
     * As predictBatch, but instead of materializing a result vector
     * the engine calls visit(worker, i, prediction) once per request —
     * on prediction-cache hits with a reference to the cached entry,
     * so the serving hot path copies nothing. Calls happen on the
     * calling thread and the pool threads, concurrently for distinct
     * i; the reference is valid only for the duration of the call (on
     * hits it is made under the owning shard lock, so visitors must be
     * brief and must not re-enter the engine).
     */
    void predictBatchVisit(const std::vector<Request> &batch,
                           const PredictionVisitor &visit,
                           BatchStats *stats = nullptr);

    /** Single-request convenience; same cache, calling thread only. */
    model::Prediction predictOne(const Request &req,
                                 BatchStats *stats = nullptr);

    /**
     * Run body(i) for all i in [0, n) on the pool, the calling thread
     * included; blocks until complete. Exposed so the eval harness can
     * drive suite preparation and predictor sweeps through the same
     * pool.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * As parallelFor, with the pool lane index in [0, numThreads())
     * as the first argument — the hook callers use to bind one
     * PredictScratch (or any per-lane state) per lane.
     */
    void
    parallelForWorker(std::size_t n,
                      const std::function<void(int, std::size_t)> &body);

    void clearCaches();

    // ---- snapshot support (src/analysis/snapshot.h) -----------------------

    /**
     * Visit every prediction-cache entry as (opaque key, prediction).
     * The key encodes (notion, payload depth, config, arch, block
     * bytes) deterministically, so entries exported by one process hit
     * in another. Shard locks are held during each shard's visits;
     * visitors must be brief and must not re-enter the engine. Returns
     * the number of entries visited.
     */
    std::size_t exportPredictionCache(
        const std::function<void(const std::string &key,
                                 const model::Prediction &)> &visit) const;

    /**
     * Insert one exported entry back into the prediction cache (normal
     * two-generation capacity rules apply; an existing key wins).
     */
    void importPredictionCacheEntry(std::string key,
                                    model::Prediction pred);

    /** Process-wide shared engine (hardware-concurrency threads). */
    static PredictionEngine &shared();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace facile::engine

#endif // FACILE_ENGINE_ENGINE_H
