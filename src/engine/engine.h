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
 *   - one prediction cache keyed on the throughput notion, the
 *     payload depth, the ablation config, the arch and the raw block
 *     bytes short-circuits fully repeated requests. It is one flat,
 *     open-addressed table over a byte-budgeted ring of entries, and
 *     an entry is the PREDICT response payload (server/protocol.h):
 *     a hit takes no lock and a miss allocates nothing, and the
 *     server and snapshots copy entry bytes instead of re-encoding.
 *     It is the only cache above instruction interning
 *     (analysis/intern.h): a miss re-runs bb::analyze into a local
 *     block, which costs a few microseconds on interned instructions,
 *     so caching analysed blocks as well would save almost nothing;
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

/** Default EngineOptions::cacheBytes: 64 MiB, about 600k entries. */
inline constexpr std::size_t kDefaultCacheBytes = std::size_t{64} << 20;

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
     * Byte budget of the prediction cache: its entries (key and
     * payload bytes, an 8-byte header each, padding to 8 bytes) live
     * in a ring of at most this many bytes, allocated in 64 KiB chunks
     * as it first fills. When the ring is full, CLOCK (second-chance)
     * eviction frees its oldest entries: one hit since the hand last
     * passed moves an entry to the front instead, so a hot working set
     * survives a stream of one-shot blocks. The index over the ring
     * adds 16 to 32 bytes per entry, and its superseded tables at most
     * as much again. An entry larger than 64 KiB (or than the budget)
     * is not cached.
     */
    std::size_t cacheBytes = kDefaultCacheBytes;
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
     * the engine calls visit(worker, i, prediction) once per request,
     * with a prediction owned by the worker's lane: a hit decodes the
     * cached entry into it, a miss hands over what it computed. Calls
     * happen on the calling thread and the pool threads, concurrently
     * for distinct i; the reference is valid only for the duration of
     * the call, and visitors must not re-enter the engine.
     */
    void predictBatchVisit(const std::vector<Request> &batch,
                           const PredictionVisitor &visit,
                           BatchStats *stats = nullptr);

    /**
     * Visitor over one encoded prediction: (worker, requestIndex,
     * payload, len), the payload being the PREDICT response payload
     * of server/protocol.h.
     */
    using PayloadVisitor = std::function<void(
        int, std::size_t, const std::uint8_t *, std::size_t)>;

    /**
     * As predictBatchVisit, but the visitor sees each prediction as
     * its PREDICT response payload — on a hit the cached bytes, on a
     * miss the bytes just encoded for the cache — so a server answers
     * a hit with a header and a copy. The bytes are those
     * server::appendPredictResponse would write for the prediction,
     * and are valid for the duration of the call.
     */
    void predictBatchVisitPayload(const std::vector<Request> &batch,
                                  const PayloadVisitor &visit,
                                  BatchStats *stats = nullptr);

    /**
     * Single-request convenience; same cache, calling thread only. A
     * miss is computed in model::tlsPredictScratch().
     */
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
     * Visit every prediction-cache entry as (opaque key, keyLen,
     * PREDICT response payload, len), oldest first. The key encodes
     * (notion, payload depth, config, arch, block bytes)
     * deterministically, so entries exported by one process hit in
     * another. Inserts wait while this runs; visitors must not
     * re-enter the engine. Returns the number of entries visited.
     */
    std::size_t exportPredictionCache(
        const std::function<void(const std::uint8_t *key,
                                 std::size_t keyLen,
                                 const std::uint8_t *payload,
                                 std::size_t len)> &visit) const;

    /**
     * Insert one exported entry back into the prediction cache (an
     * existing key wins; the budget's eviction rules apply). The
     * payload must be a valid PREDICT response payload: hits decode
     * it without checking.
     */
    void importPredictionCacheEntry(const std::uint8_t *key,
                                    std::size_t keyLen,
                                    const std::uint8_t *payload,
                                    std::size_t len);

    /** Process-wide shared engine (hardware-concurrency threads). */
    static PredictionEngine &shared();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace facile::engine

#endif // FACILE_ENGINE_ENGINE_H
