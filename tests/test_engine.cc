/**
 * @file
 * PredictionEngine tests: batch results are bit-identical to the serial
 * predictor for 1 and N worker threads, cache hits return the same
 * Prediction (bottlenecks and critical chain included) as cold calls,
 * stats counters add up, and malformed blocks follow the throughput-0
 * crash protocol.
 */
#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <thread>

#include "bhive/generator.h"
#include "engine/engine.h"
#include "engine/thread_pool.h"
#include "facile/component.h"
#include "facile/predictor.h"
#include "server/protocol.h"

namespace facile::engine {
namespace {

using model::ModelConfig;
using model::Prediction;

const std::vector<bhive::Benchmark> &
suite()
{
    static const auto s = bhive::generateSuite(99, 4);
    return s;
}

std::vector<Request>
makeBatch(bool withConfigs = false)
{
    std::vector<Request> batch;
    for (const auto &b : suite()) {
        batch.push_back({b.bytesU, uarch::UArch::SKL, false, {}});
        batch.push_back({b.bytesL, uarch::UArch::SKL, true, {}});
        batch.push_back({b.bytesL, uarch::UArch::RKL, true, {}});
        // Full-payload requests exercise the eager explain path and its
        // separate prediction-cache entries.
        batch.push_back({b.bytesL, uarch::UArch::SKL, true, {},
                         model::Payload::Full});
        if (withConfigs)
            batch.push_back({b.bytesU, uarch::UArch::SKL, false,
                             ModelConfig::without(
                                 model::Component::Ports)});
    }
    return batch;
}

::testing::AssertionResult
bitIdentical(const Prediction &a, const Prediction &b)
{
    if (std::memcmp(&a.throughput, &b.throughput, sizeof(double)) != 0)
        return ::testing::AssertionFailure()
               << "throughput " << a.throughput << " vs " << b.throughput;
    // memcmp over the array keeps NaN markers comparable.
    if (std::memcmp(a.componentValue.data(), b.componentValue.data(),
                    sizeof(double) * a.componentValue.size()) != 0)
        return ::testing::AssertionFailure() << "componentValue differs";
    if (a.bottlenecks != b.bottlenecks)
        return ::testing::AssertionFailure() << "bottlenecks differ";
    if (a.primaryBottleneck != b.primaryBottleneck)
        return ::testing::AssertionFailure() << "primaryBottleneck differs";
    if (a.criticalChain != b.criticalChain)
        return ::testing::AssertionFailure() << "criticalChain differs";
    if (a.contendedPorts != b.contendedPorts)
        return ::testing::AssertionFailure() << "contendedPorts differ";
    if (a.contendingInsts != b.contendingInsts)
        return ::testing::AssertionFailure() << "contendingInsts differ";
    return ::testing::AssertionSuccess();
}

Prediction
serialPredict(const Request &r)
{
    // Match the request's payload depth: engine requests default to the
    // cheap bound-only path, so the serial oracle must too.
    model::PredictScratch scratch;
    return model::predict(bb::analyze(r.bytes, r.arch), r.loop, r.config,
                          scratch, r.payload);
}

TEST(Engine, BatchMatchesSerialOneWorker)
{
    PredictionEngine::Options opts;
    opts.numThreads = 1;
    PredictionEngine eng(opts);

    auto batch = makeBatch(true);
    auto out = eng.predictBatch(batch);
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_TRUE(bitIdentical(out[i], serialPredict(batch[i])))
            << "request " << i;
}

TEST(Engine, BatchMatchesSerialManyWorkers)
{
    PredictionEngine::Options opts;
    opts.numThreads = 8;
    PredictionEngine eng(opts);

    auto batch = makeBatch(true);
    auto out = eng.predictBatch(batch);
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_TRUE(bitIdentical(out[i], serialPredict(batch[i])))
            << "request " << i;
}

TEST(Engine, CacheHitEqualsColdCall)
{
    PredictionEngine::Options opts;
    opts.numThreads = 2;
    PredictionEngine eng(opts);

    auto batch = makeBatch();
    BatchStats cold, warm;
    auto first = eng.predictBatch(batch, &cold);
    auto second = eng.predictBatch(batch, &warm);

    EXPECT_EQ(cold.predictionCacheHits, 0u);
    EXPECT_EQ(warm.predictionCacheHits, batch.size());
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_TRUE(bitIdentical(first[i], second[i])) << "request " << i;
}

TEST(Engine, EachNotionOfOneBlockIsAnalyzedAfresh)
{
    // The prediction cache is the only cache above interning: the same
    // bytes as TPU, TPL and full-payload TPL are three misses, each
    // analysed on its own and each bit-identical to the serial path.
    PredictionEngine::Options opts;
    opts.numThreads = 1;
    PredictionEngine eng(opts);

    const auto &b = suite().front();
    const Request tpu{b.bytesL, uarch::UArch::SKL, false, {}};
    const Request tpl{b.bytesL, uarch::UArch::SKL, true, {}};
    const Request full{b.bytesL, uarch::UArch::SKL, true, {},
                       model::Payload::Full};
    BatchStats stats;
    const Prediction pu = eng.predictOne(tpu, &stats);
    const Prediction pl = eng.predictOne(tpl, &stats);
    const Prediction pf = eng.predictOne(full, &stats);
    EXPECT_EQ(stats.requests, 3u);
    EXPECT_EQ(stats.analyzed, 3u);
    EXPECT_EQ(stats.analysisCacheHits, 0u);
    EXPECT_EQ(stats.predictionCacheHits, 0u);
    EXPECT_TRUE(bitIdentical(pu, serialPredict(tpu)));
    EXPECT_TRUE(bitIdentical(pl, serialPredict(tpl)));
    EXPECT_TRUE(bitIdentical(pf, serialPredict(full)));

    // Serial explain() upgrades the bound-only TPL answer to the same
    // bits as the engine's full-payload answer.
    model::PredictScratch scratch;
    Prediction explained = pl;
    model::explain(bb::analyze(tpl.bytes, tpl.arch), tpl.config, scratch,
                   explained);
    EXPECT_TRUE(bitIdentical(pf, explained));
}

TEST(Engine, CacheDisabledStillMatchesSerial)
{
    const auto batch = makeBatch();
    for (int lanes : {1, 2, 4, 8}) {
        SCOPED_TRACE(testing::Message() << lanes << " lanes");
        PredictionEngine::Options opts;
        opts.numThreads = lanes;
        opts.cacheEnabled = false;
        PredictionEngine eng(opts);

        BatchStats stats;
        auto out = eng.predictBatch(batch, &stats);
        EXPECT_EQ(stats.predictionCacheHits, 0u);
        EXPECT_EQ(stats.analyzed, batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i)
            EXPECT_TRUE(bitIdentical(out[i], serialPredict(batch[i])))
                << "request " << i;
    }
}

TEST(Engine, PerArchCacheKeysDoNotCollide)
{
    // Identical bytes on two arches must produce the arch-specific
    // predictions, not a shared cache entry.
    PredictionEngine::Options opts;
    opts.numThreads = 1;
    PredictionEngine eng(opts);

    const auto &b = suite().front();
    auto skl = eng.predictOne({b.bytesL, uarch::UArch::SKL, true, {}});
    auto rkl = eng.predictOne({b.bytesL, uarch::UArch::RKL, true, {}});
    auto skl2 = eng.predictOne({b.bytesL, uarch::UArch::SKL, true, {}});
    EXPECT_TRUE(bitIdentical(
        skl, serialPredict({b.bytesL, uarch::UArch::SKL, true, {}})));
    EXPECT_TRUE(bitIdentical(
        rkl, serialPredict({b.bytesL, uarch::UArch::RKL, true, {}})));
    EXPECT_TRUE(bitIdentical(skl, skl2));
}

TEST(Engine, MalformedBlockYieldsZeroThroughput)
{
    PredictionEngine::Options opts;
    opts.numThreads = 2;
    PredictionEngine eng(opts);

    std::vector<Request> batch;
    batch.push_back({{0x0f, 0xff, 0xff}, uarch::UArch::SKL, false, {}});
    batch.push_back({suite().front().bytesU, uarch::UArch::SKL, false, {}});
    auto out = eng.predictBatch(batch);
    EXPECT_EQ(out[0].throughput, 0.0);
    EXPECT_GT(out[1].throughput, 0.0);
}

TEST(Engine, StatsCountersAddUp)
{
    PredictionEngine::Options opts;
    opts.numThreads = 3;
    PredictionEngine eng(opts);

    auto batch = makeBatch();
    BatchStats stats;
    eng.predictBatch(batch, &stats);
    eng.predictBatch(batch, &stats);
    EXPECT_EQ(stats.requests, 2 * batch.size());
    EXPECT_EQ(stats.predictionCacheHits, batch.size());
    // Every block was decoded at most once.
    EXPECT_LE(stats.analyzed, batch.size());
}

TEST(Engine, ClearCachesForcesReanalysis)
{
    PredictionEngine::Options opts;
    opts.numThreads = 1;
    PredictionEngine eng(opts);

    const auto &b = suite().front();
    Request r{b.bytesU, uarch::UArch::SKL, false, {}};
    auto cold = eng.predictOne(r);
    eng.clearCaches();
    BatchStats stats;
    auto recold = eng.predictOne(r, &stats);
    EXPECT_EQ(stats.predictionCacheHits, 0u);
    EXPECT_EQ(stats.analyzed, 1u);
    EXPECT_TRUE(bitIdentical(cold, recold));
}

/** @p n requests with pairwise distinct cache keys (SKL/HSW/ICL, TPU/TPL). */
std::vector<Request>
distinctRequests(std::uint64_t seed, std::size_t n)
{
    std::vector<Request> out;
    std::set<std::vector<std::uint8_t>> seen;
    for (std::uint64_t s = seed; out.size() < n; ++s)
        for (const auto &b : bhive::generateSuite(s, 4))
            for (auto arch : {uarch::UArch::SKL, uarch::UArch::HSW,
                              uarch::UArch::ICL})
                for (bool loop : {false, true}) {
                    const auto &bytes = loop ? b.bytesL : b.bytesU;
                    auto key = bytes;
                    key.push_back(static_cast<std::uint8_t>(arch));
                    key.push_back(loop);
                    if (out.size() < n && seen.insert(key).second)
                        out.push_back({bytes, arch, loop, {}});
                }
    return out;
}

/** Key and payload bytes of every entry of @p eng's prediction cache. */
std::size_t
cachedBytes(const PredictionEngine &eng)
{
    std::size_t bytes = 0;
    eng.exportPredictionCache([&](const std::uint8_t *, std::size_t keyLen,
                                  const std::uint8_t *, std::size_t len) {
        bytes += keyLen + len;
    });
    return bytes;
}

TEST(Engine, DefaultCacheBudgetIs64MiB)
{
    EXPECT_EQ(kDefaultCacheBytes, std::size_t{64} << 20);
    EXPECT_EQ(PredictionEngine::Options{}.cacheBytes, kDefaultCacheBytes);
}

TEST(Engine, EvictionKeepsSteadyStateHitRateAtCapacity)
{
    // A hot set of about a quarter of the budget is replayed every
    // round, and each round also brings one-shot blocks worth about
    // half the budget. The ring turns over every two rounds or so, so
    // clearing the cache when it is full, or evicting in plain FIFO
    // order, loses the hot set about every other round; CLOCK moves a
    // hit entry to the front when the hand reaches it, so the hot set
    // survives.
    PredictionEngine::Options opts;
    opts.numThreads = 1;
    opts.cacheBytes = 64 << 10;
    PredictionEngine eng(opts);

    const auto all = distinctRequests(123, 128 + 10 * 256);
    const std::vector<Request> hot(all.begin(), all.begin() + 128);
    std::size_t hotBytes = 0;
    eng.predictBatch(hot);
    hotBytes = cachedBytes(eng);
    ASSERT_GT(hotBytes, opts.cacheBytes / 6);
    ASSERT_LT(hotBytes, opts.cacheBytes / 3);

    std::size_t hits = 0, replayed = 0;
    for (int round = 0; round < 10; ++round) {
        BatchStats st;
        eng.predictBatch(hot, &st);
        if (round >= 4) {
            hits += st.predictionCacheHits;
            replayed += hot.size();
        }
        const std::vector<Request> oneShot(
            all.begin() + 128 + round * 256,
            all.begin() + 128 + (round + 1) * 256);
        eng.predictBatch(oneShot);
    }
    EXPECT_GE(hits, replayed * 9 / 10)
        << "the hot set did not survive the one-shot stream";
}

TEST(Engine, EvictionStillBoundsCacheGrowth)
{
    // A one-shot stream many times the budget is answered correctly
    // (eviction never corrupts results, only forgets), and the cache
    // never holds more entry bytes than its budget.
    PredictionEngine::Options opts;
    opts.numThreads = 2;
    opts.cacheBytes = 16 << 10;
    PredictionEngine eng(opts);

    const auto batch = distinctRequests(7, 1500);
    std::size_t streamed = 0;
    for (std::size_t i = 0; i < batch.size(); i += 100) {
        const std::vector<Request> part(
            batch.begin() + i,
            batch.begin() + std::min(i + 100, batch.size()));
        const auto out = eng.predictBatch(part);
        for (std::size_t k = 0; k < part.size(); ++k)
            EXPECT_TRUE(bitIdentical(out[k], serialPredict(part[k])))
                << "request " << i + k;
        streamed += part.size();
        EXPECT_LE(cachedBytes(eng), opts.cacheBytes);
    }
    PredictionEngine unbounded;
    unbounded.predictBatch(batch);
    EXPECT_GT(cachedBytes(unbounded), 5 * opts.cacheBytes)
        << "the stream must be many times the budget";
    EXPECT_GT(cachedBytes(eng), 0u);
}

TEST(Engine, ConcurrentHitsInsertsAndEvictionsMatchSerial)
{
    // Lanes of one engine hit a hot set while other lanes and other
    // threads insert never-seen blocks, grow the index and evict: every
    // answer, as a Prediction or as payload bytes, matches serial
    // model::predict bit for bit.
    PredictionEngine::Options opts;
    opts.numThreads = 3;
    opts.cacheBytes = 64 << 10;
    PredictionEngine eng(opts);

    const auto all = distinctRequests(31, 96 + 1200);
    const std::vector<Request> hot(all.begin(), all.begin() + 96);
    std::vector<Prediction> expected;
    std::vector<std::vector<std::uint8_t>> expectedBytes;
    for (const auto &r : all) {
        expected.push_back(serialPredict(r));
        std::vector<std::uint8_t> frame;
        server::appendPredictResponse(frame, 0, expected.back());
        expectedBytes.emplace_back(frame.begin() +
                                       server::kResponseHeaderSize,
                                   frame.end());
    }
    eng.predictBatch(hot);

    std::atomic<int> wrong{0};
    std::vector<std::thread> threads;
    // Batches mixing hot and fresh requests: hits and inserts on the
    // lanes of one region.
    threads.emplace_back([&] {
        for (std::size_t f = 96; f < all.size(); f += 48) {
            std::vector<Request> batch;
            std::vector<std::size_t> idx;
            for (std::size_t k = 0; k < 48 && f + k < all.size(); ++k) {
                batch.push_back(all[k % 96]);
                idx.push_back(k % 96);
                batch.push_back(all[f + k]);
                idx.push_back(f + k);
            }
            eng.predictBatchVisitPayload(
                batch, [&](int, std::size_t i, const std::uint8_t *p,
                           std::size_t len) {
                    const auto &want = expectedBytes[idx[i]];
                    if (len != want.size() ||
                        std::memcmp(p, want.data(), len) != 0)
                        ++wrong;
                });
        }
    });
    // Callers outside the pool: hot and fresh predictOne calls.
    for (int t = 0; t < 2; ++t)
        threads.emplace_back([&, t] {
            for (std::size_t i = 96 + t; i < all.size(); i += 2) {
                const std::size_t h = (i * 7) % 96;
                if (!bitIdentical(eng.predictOne(all[h]), expected[h]))
                    ++wrong;
                if (!bitIdentical(eng.predictOne(all[i]), expected[i]))
                    ++wrong;
            }
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(wrong.load(), 0);
    EXPECT_LE(cachedBytes(eng), opts.cacheBytes);
}

TEST(Engine, PayloadVisitorBytesAreTheWireEncoding)
{
    // Misses and hits, cache on and off: the payload bytes are what
    // server::appendPredictResponse writes for the serial prediction.
    const auto batch = makeBatch(true);
    for (bool cache : {true, false}) {
        SCOPED_TRACE(cache ? "cache on" : "cache off");
        PredictionEngine::Options opts;
        opts.numThreads = 2;
        opts.cacheEnabled = cache;
        PredictionEngine eng(opts);
        for (int pass = 0; pass < 2; ++pass) {
            std::vector<std::vector<std::uint8_t>> got(batch.size());
            eng.predictBatchVisitPayload(
                batch, [&](int, std::size_t i, const std::uint8_t *p,
                           std::size_t len) { got[i].assign(p, p + len); });
            for (std::size_t i = 0; i < batch.size(); ++i) {
                std::vector<std::uint8_t> frame;
                server::appendPredictResponse(frame, 0,
                                              serialPredict(batch[i]));
                EXPECT_EQ(got[i],
                          std::vector<std::uint8_t>(
                              frame.begin() + server::kResponseHeaderSize,
                              frame.end()))
                    << "pass " << pass << " request " << i;
            }
        }
    }
}

TEST(Engine, ParallelForPropagatesExceptions)
{
    // A throwing body must surface on the calling thread (a worker
    // unwinding would terminate the process) and abandon the loop.
    PredictionEngine::Options opts;
    opts.numThreads = 2;
    PredictionEngine eng(opts);
    EXPECT_THROW(eng.parallelFor(100,
                                 [](std::size_t i) {
                                     if (i == 5)
                                         throw std::runtime_error("boom");
                                 }),
                 std::runtime_error);

    // Index 0 runs on the caller's own lane: the exception must still
    // wait for the pool thread to stop, and the pool must stay usable.
    const auto caller = std::this_thread::get_id();
    std::thread::id thrower;
    EXPECT_THROW(eng.parallelFor(100,
                                 [&](std::size_t i) {
                                     if (i == 0) {
                                         thrower =
                                             std::this_thread::get_id();
                                         throw std::runtime_error("boom");
                                     }
                                 }),
                 std::runtime_error);
    EXPECT_EQ(thrower, caller);

    std::atomic<int> count{0};
    eng.parallelFor(100, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 100);
}

TEST(Engine, OneLaneRunsEverythingOnTheCaller)
{
    // numThreads = 1 is the caller alone: no pool thread, lane 0.
    PredictionEngine::Options opts;
    opts.numThreads = 1;
    PredictionEngine eng(opts);
    ASSERT_EQ(eng.numThreads(), 1);

    const auto caller = std::this_thread::get_id();
    std::vector<int> lanes(64, -1);
    std::vector<std::thread::id> threads(lanes.size());
    eng.parallelForWorker(lanes.size(), [&](int lane, std::size_t i) {
        lanes[i] = lane;
        threads[i] = std::this_thread::get_id();
    });
    for (std::size_t i = 0; i < lanes.size(); ++i) {
        EXPECT_EQ(lanes[i], 0) << "index " << i;
        EXPECT_EQ(threads[i], caller) << "index " << i;
    }
}

TEST(Engine, OneRequestBatchRunsOnTheCaller)
{
    // A batch that fits in one chunk wakes no pool thread.
    PredictionEngine::Options opts;
    opts.numThreads = 2;
    PredictionEngine eng(opts);

    const auto caller = std::this_thread::get_id();
    const std::vector<Request> one{makeBatch().front()};
    int visits = 0;
    eng.predictBatchVisit(one, [&](int lane, std::size_t i,
                                   const Prediction &p) {
        ++visits;
        EXPECT_EQ(lane, 0);
        EXPECT_EQ(i, 0u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
        EXPECT_TRUE(bitIdentical(p, serialPredict(one.front())));
    });
    EXPECT_EQ(visits, 1);
}

TEST(Engine, ConcurrentCallersMatchSerial)
{
    // Two threads driving one engine at once take turns as lane 0
    // (they would share its scratch); each gets serial-identical bits.
    // The caches are off so every call runs the full pipeline.
    PredictionEngine::Options opts;
    opts.numThreads = 2;
    opts.cacheEnabled = false;
    PredictionEngine eng(opts);

    const auto batch = makeBatch(true);
    std::vector<Prediction> expected;
    for (const auto &r : batch)
        expected.push_back(serialPredict(r));

    std::vector<std::vector<Prediction>> got(2);
    std::vector<std::thread> callers;
    for (std::size_t t = 0; t < got.size(); ++t)
        callers.emplace_back([&, t] {
            for (int round = 0; round < 3; ++round)
                got[t] = eng.predictBatch(batch);
        });
    for (auto &c : callers)
        c.join();

    for (const auto &out : got) {
        ASSERT_EQ(out.size(), batch.size());
        for (std::size_t i = 0; i < batch.size(); ++i)
            EXPECT_TRUE(bitIdentical(out[i], expected[i]))
                << "request " << i;
    }
}

TEST(Engine, NestedParallelForRunsInlineWithoutDeadlock)
{
    // parallelFor from inside a worker of the same pool must not wait
    // on jobs no worker is free to run; the inner loop runs inline.
    PredictionEngine::Options opts;
    opts.numThreads = 2;
    PredictionEngine eng(opts);

    std::atomic<int> count{0};
    eng.parallelFor(4, [&](std::size_t) {
        eng.parallelFor(3, [&](std::size_t) { ++count; });
    });
    EXPECT_EQ(count.load(), 12);
}

TEST(Engine, ParallelForCoversAllIndices)
{
    PredictionEngine::Options opts;
    opts.numThreads = 4;
    PredictionEngine eng(opts);

    std::vector<int> hits(1000, 0);
    eng.parallelFor(hits.size(),
                    [&](std::size_t i) { hits[i] += 1; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        ASSERT_EQ(hits[i], 1) << "index " << i;
}


// ---- ThreadPool: wake, join and spin ---------------------------------------

/** Threads of this process, from /proc/self/task. */
std::size_t
processThreads()
{
    std::size_t n = 0;
    for (const auto &e :
         std::filesystem::directory_iterator("/proc/self/task")) {
        (void)e;
        ++n;
    }
    return n;
}

double
processCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec / 1e9;
}

TEST(ThreadPool, BackToBackTinyRegionsCoverEveryIndex)
{
    // Regions follow each other faster than the spin bound, so pool
    // threads join most of them straight from the spin (pools narrower
    // than the machine spin) and the caller rarely sleeps: a lane must
    // never run an index of a region it did not join, nor miss one of
    // the region it did.
    for (int lanes : {2, 3}) {
        ThreadPool pool(lanes);
        std::vector<std::atomic<int>> hits(16);
        std::atomic<int> wrongLane{0};
        for (int region = 0; region < 10000; ++region) {
            const std::size_t n = 2 + region % 15;
            for (auto &h : hits)
                h.store(0, std::memory_order_relaxed);
            pool.parallelForWorker(n, [&](int lane, std::size_t i) {
                hits[i].fetch_add(1, std::memory_order_relaxed);
                if (lane < 0 || lane >= lanes)
                    ++wrongLane;
            });
            for (std::size_t i = 0; i < hits.size(); ++i)
                ASSERT_EQ(hits[i].load(), i < n ? 1 : 0)
                    << lanes << " lanes, region " << region << " index "
                    << i;
        }
        EXPECT_EQ(wrongLane.load(), 0);
    }
}

TEST(ThreadPool, DestroyedRightAfterARegionExitsAtOnce)
{
    // The pool thread is spinning for the next region when the pool
    // dies: it must see stop at once, not sleep through it or touch
    // the pool after the destructor returns.
    for (int round = 0; round < 200; ++round) {
        std::atomic<int> count{0};
        auto pool = std::make_unique<ThreadPool>(2);
        pool->parallelForWorker(8, [&](int, std::size_t) { ++count; });
        const auto t0 = std::chrono::steady_clock::now();
        pool.reset();
        EXPECT_LT(std::chrono::steady_clock::now() - t0,
                  std::chrono::milliseconds(500))
            << "round " << round;
        ASSERT_EQ(count.load(), 8);
    }
}

TEST(ThreadPool, ThrowingRegionThenNormalRegion)
{
    ThreadPool pool(3);
    for (int round = 0; round < 200; ++round) {
        // Some pool lane, or the caller, throws part-way through.
        EXPECT_THROW(pool.parallelForWorker(
                         64,
                         [&](int, std::size_t i) {
                             if (i == static_cast<std::size_t>(round % 64))
                                 throw std::runtime_error("boom");
                         }),
                     std::runtime_error);
        std::vector<int> hits(64, 0);
        pool.parallelForWorker(hits.size(),
                               [&](int, std::size_t i) { hits[i] += 1; });
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i], 1) << "round " << round << " index " << i;
    }
}

TEST(ThreadPool, NestedRegionsRunInlineOnTheLane)
{
    ThreadPool pool(2);
    std::atomic<int> inner{0}, wrong{0};
    for (int round = 0; round < 100; ++round)
        pool.parallelForWorker(8, [&](int lane, std::size_t) {
            const auto self = std::this_thread::get_id();
            pool.parallelForWorker(3, [&](int innerLane, std::size_t) {
                if (innerLane != lane || std::this_thread::get_id() != self)
                    ++wrong;
                ++inner;
            });
        });
    EXPECT_EQ(inner.load(), 100 * 8 * 3);
    EXPECT_EQ(wrong.load(), 0);
}

TEST(ThreadPool, OneLanePoolStartsNoThreadAndNeverSpins)
{
    const std::size_t threadsBefore = processThreads();
    ThreadPool pool(1);
    EXPECT_EQ(processThreads(), threadsBefore);
    const auto caller = std::this_thread::get_id();
    std::size_t offCaller = 0;
    for (int region = 0; region < 1000; ++region)
        pool.parallelForWorker(64, [&](int lane, std::size_t) {
            offCaller += lane != 0 || std::this_thread::get_id() != caller;
        });
    EXPECT_EQ(offCaller, 0u);
    EXPECT_EQ(processThreads(), threadsBefore);
}

TEST(ThreadPool, IdlePoolThreadsSleepAfterTheSpinBound)
{
    // After its last region a pool thread spins at most kSpin, then
    // sleeps: an idle pool costs no CPU.
    ThreadPool pool(3);
    for (int region = 0; region < 100; ++region)
        pool.parallelForWorker(16, [](int, std::size_t) {});
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const double cpu0 = processCpuSeconds();
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    // Two spinning threads would burn ~0.4 s here.
    EXPECT_LT(processCpuSeconds() - cpu0, 0.05);
}

} // namespace
} // namespace facile::engine
