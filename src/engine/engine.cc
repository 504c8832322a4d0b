#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "bb/basic_block.h"
#include "engine/thread_pool.h"
#include "facile/component.h"

namespace facile::engine {

namespace {

/** Prediction-cache key: notion + payload depth + config + arch + bytes. */
std::string
predictionKey(const Request &r)
{
    const std::uint16_t cfg = r.config.packBits();
    std::string key;
    key.reserve(r.bytes.size() + 4);
    key.push_back(static_cast<char>(
        (r.loop ? 1 : 0) |
        (r.payload == model::Payload::Full ? 2 : 0)));
    key.push_back(static_cast<char>(cfg & 0xff));
    key.push_back(static_cast<char>(cfg >> 8));
    key.push_back(static_cast<char>(r.arch));
    if (!r.bytes.empty())
        key.append(reinterpret_cast<const char *>(r.bytes.data()),
                   r.bytes.size());
    return key;
}

constexpr std::size_t kShards = 16;

std::size_t
shardOf(const std::string &key)
{
    return std::hash<std::string>{}(key) % kShards;
}

} // namespace

/**
 * One prediction-cache shard with two-generation (old/new) eviction.
 *
 * Inserts and promotions go to the new generation; when it reaches the
 * per-generation bound the old generation is dropped and the new one
 * takes its place. A lookup that hits the old generation promotes the
 * entry, so the hot working set keeps circulating between generations
 * and steady-state traffic at capacity keeps its hit rate — unlike the
 * previous epoch eviction (clear() on overflow), which discarded the
 * entire hot set the moment a shard filled up. Entries untouched for a
 * full generation age out; a shard never holds more than 2x the bound.
 */
struct PredictionShard
{
    std::mutex mu;
    std::unordered_map<std::string, model::Prediction> newGen, oldGen;

    /** Lookup with promotion; caller must hold mu. */
    model::Prediction *
    find(const std::string &key, std::size_t maxPerGen)
    {
        auto it = newGen.find(key);
        if (it != newGen.end())
            return &it->second;
        auto itOld = oldGen.find(key);
        if (itOld == oldGen.end())
            return nullptr;
        model::Prediction value = std::move(itOld->second);
        oldGen.erase(itOld);
        return &insert(key, std::move(value), maxPerGen);
    }

    /**
     * Insert into the new generation, rotating when full; caller must
     * hold mu and have checked find() under the same lock, so the key
     * is in neither generation.
     */
    model::Prediction &
    insert(std::string key, model::Prediction value, std::size_t maxPerGen)
    {
        if (newGen.size() >= maxPerGen) {
            std::swap(oldGen, newGen);
            newGen.clear();
        }
        return newGen.emplace(std::move(key), std::move(value))
            .first->second;
    }

    void
    clear()
    {
        newGen.clear();
        oldGen.clear();
    }
};

struct PredictionEngine::Impl
{
    Options opts;
    ThreadPool pool;

    PredictionShard predictionShards[kShards];

    /**
     * One component-pipeline scratch per pool lane: scratch ownership
     * is explicit (a lane's index selects its scratch), not
     * thread_local-scattered, and a lane's buffers stay warm across
     * batches. Lane 0's scratch belongs to whichever thread is running
     * a region; the pool runs one region at a time.
     */
    std::vector<std::unique_ptr<model::PredictScratch>> workerScratch;

    /** numThreads lanes: the calling thread plus numThreads - 1. */
    explicit Impl(Options o)
        : opts(o),
          pool(o.numThreads > 0
                   ? o.numThreads
                   : static_cast<int>(
                         std::max(1u, std::thread::hardware_concurrency())))
    {
        workerScratch.reserve(static_cast<std::size_t>(pool.size()));
        for (int i = 0; i < pool.size(); ++i)
            workerScratch.push_back(
                std::make_unique<model::PredictScratch>());
    }

    /**
     * Core lookup-or-compute. The visitor sees the prediction without
     * a copy: on cache hits it runs under the owning shard lock with a
     * reference to the cached entry (the zero-copy serving path).
     */
    void
    predictCachedVisit(const Request &req, BatchStats *stats, int worker,
                       std::size_t index, model::PredictScratch &scratch,
                       const PredictionEngine::PredictionVisitor &visit)
    {
        std::string key;
        if (opts.cacheEnabled) {
            key = predictionKey(req);
            PredictionShard &shard = predictionShards[shardOf(key)];
            std::lock_guard<std::mutex> lock(shard.mu);
            if (auto *hit = shard.find(key, opts.maxEntriesPerShard)) {
                if (stats)
                    ++stats->predictionCacheHits;
                visit(worker, index, *hit);
                return;
            }
        }

        model::Prediction p;
        try {
            const bb::BasicBlock blk = bb::analyze(req.bytes, req.arch);
            if (stats)
                ++stats->analyzed;
            p = model::predict(blk, req.loop, req.config, scratch,
                               req.payload);
        } catch (const std::exception &) {
            p = model::Prediction{}; // malformed block: throughput 0
        }

        if (opts.cacheEnabled) {
            PredictionShard &shard = predictionShards[shardOf(key)];
            std::lock_guard<std::mutex> lock(shard.mu);
            // A concurrent miss on the same key may have inserted an
            // identical prediction already; find() keeps it hot.
            if (!shard.find(key, opts.maxEntriesPerShard))
                shard.insert(std::move(key), p, opts.maxEntriesPerShard);
        }
        visit(worker, index, p);
    }

    /** Calling-thread path (predictOne): uses the thread's scratch. */
    model::Prediction
    predictCached(const Request &req, BatchStats *stats)
    {
        model::Prediction out;
        predictCachedVisit(req, stats, 0, 0, model::tlsPredictScratch(),
                           [&out](int, std::size_t,
                                  const model::Prediction &p) { out = p; });
        return out;
    }
};

PredictionEngine::PredictionEngine(Options opts)
    : impl_(std::make_unique<Impl>(opts))
{}

PredictionEngine::~PredictionEngine() = default;

int
PredictionEngine::numThreads() const
{
    return impl_->pool.size();
}

std::vector<model::Prediction>
PredictionEngine::predictBatch(const std::vector<Request> &batch,
                               BatchStats *stats)
{
    std::vector<model::Prediction> out(batch.size());
    predictBatchVisit(
        batch,
        [&out](int, std::size_t i, const model::Prediction &p) {
            out[i] = p;
        },
        stats);
    return out;
}

void
PredictionEngine::predictBatchVisit(const std::vector<Request> &batch,
                                    const PredictionVisitor &visit,
                                    BatchStats *stats)
{
    if (batch.empty())
        return;

    std::atomic<std::size_t> predictionHits{0}, analyzed{0};

    impl_->pool.parallelForWorker(
        batch.size(), [&](int worker, std::size_t i) {
            BatchStats local;
            impl_->predictCachedVisit(
                batch[i], stats ? &local : nullptr, worker, i,
                *impl_->workerScratch[static_cast<std::size_t>(worker)],
                visit);
            if (stats) {
                predictionHits += local.predictionCacheHits;
                analyzed += local.analyzed;
            }
        });

    if (stats) {
        stats->requests += batch.size();
        stats->predictionCacheHits += predictionHits;
        stats->analyzed += analyzed;
    }
}

model::Prediction
PredictionEngine::predictOne(const Request &req, BatchStats *stats)
{
    if (stats)
        ++stats->requests;
    return impl_->predictCached(req, stats);
}

void
PredictionEngine::parallelFor(std::size_t n,
                              const std::function<void(std::size_t)> &body)
{
    impl_->pool.parallelForWorker(n,
                                  [&body](int, std::size_t i) { body(i); });
}

void
PredictionEngine::parallelForWorker(
    std::size_t n, const std::function<void(int, std::size_t)> &body)
{
    impl_->pool.parallelForWorker(n, body);
}

void
PredictionEngine::clearCaches()
{
    for (PredictionShard &shard : impl_->predictionShards) {
        std::lock_guard<std::mutex> lock(shard.mu);
        shard.clear();
    }
}

std::size_t
PredictionEngine::exportPredictionCache(
    const std::function<void(const std::string &key,
                             const model::Prediction &)> &visit) const
{
    std::size_t n = 0;
    for (std::size_t s = 0; s < kShards; ++s) {
        PredictionShard &shard = impl_->predictionShards[s];
        std::lock_guard<std::mutex> lock(shard.mu);
        for (const auto &[key, pred] : shard.newGen) {
            visit(key, pred);
            ++n;
        }
        for (const auto &[key, pred] : shard.oldGen) {
            visit(key, pred);
            ++n;
        }
    }
    return n;
}

void
PredictionEngine::importPredictionCacheEntry(std::string key,
                                             model::Prediction pred)
{
    PredictionShard &shard = impl_->predictionShards[shardOf(key)];
    std::lock_guard<std::mutex> lock(shard.mu);
    if (!shard.find(key, impl_->opts.maxEntriesPerShard))
        shard.insert(std::move(key), std::move(pred),
                     impl_->opts.maxEntriesPerShard);
}

PredictionEngine &
PredictionEngine::shared()
{
    static PredictionEngine engine{Options{}};
    return engine;
}

} // namespace facile::engine
