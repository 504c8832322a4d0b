/**
 * @file
 * Tests for support::PerThreadCounters and the counters built on it
 * (InstInterner's hit counters, model::predictCounters()): totals are
 * exact across threads that come and go, and an exiting thread's block
 * is reused, so the number of blocks follows the peak number of live
 * counting threads rather than the number of threads ever started.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "analysis/intern.h"
#include "bb/basic_block.h"
#include "bhive/generator.h"
#include "facile/component.h"
#include "facile/predictor.h"
#include "support/per_thread_counters.h"

namespace facile {
namespace {

struct SequentialTag;
struct ConcurrentTag;

TEST(PerThreadCounters, ShortLivedThreadsReuseOneBlock)
{
    using C = support::PerThreadCounters<SequentialTag, 2>;
    constexpr int kThreads = 200;
    for (int t = 0; t < kThreads; ++t)
        std::thread([t] {
            for (int k = 0; k < 1000; ++k)
                C::add(0);
            C::add(1, static_cast<std::uint64_t>(t));
        }).join();
    EXPECT_EQ(C::sum(0), kThreads * 1000u);
    EXPECT_EQ(C::sum(1), kThreads * (kThreads - 1) / 2u);
    // One thread counted at a time, so one block served all of them.
    EXPECT_EQ(C::blocks(), 1u);
}

TEST(PerThreadCounters, BlocksFollowPeakLiveThreads)
{
    using C = support::PerThreadCounters<ConcurrentTag, 1>;
    constexpr int kLive = 4;
    for (int round = 0; round < 20; ++round) {
        std::atomic<int> counted{0};
        std::atomic<bool> release{false};
        std::vector<std::thread> threads;
        for (int t = 0; t < kLive; ++t)
            threads.emplace_back([&] {
                C::add(0, 3);
                counted.fetch_add(1);
                while (!release.load())
                    std::this_thread::yield();
            });
        while (counted.load() < kLive)
            std::this_thread::yield();
        // Live threads' counts are visible before they exit.
        EXPECT_EQ(C::sum(0), (round + 1) * kLive * 3u);
        release.store(true);
        for (auto &th : threads)
            th.join();
        EXPECT_EQ(C::blocks(), static_cast<std::size_t>(kLive));
    }
    EXPECT_EQ(C::sum(0), 20u * kLive * 3u);
}

/** The counters one thread's work adds, as deltas of the real readers. */
struct Work
{
    std::uint64_t interned = 0; ///< hits + misses
    std::uint64_t fused = 0;    ///< fusedHits + fusedMisses
    std::uint64_t predicts = 0; ///< bound + full
    std::uint64_t precedenceEvals = 0;
    std::uint64_t shortCircuits = 0;
};

Work
snapshot()
{
    const analysis::InternStats in = analysis::InstInterner::statsAllArchs();
    const model::PredictCountersSnapshot pc = model::predictCounters();
    return {in.hits + in.misses, in.fusedHits + in.fusedMisses,
            pc.boundPredicts + pc.fullPredicts, pc.precedenceEvals,
            pc.precedenceShortCircuits};
}

Work
operator-(const Work &a, const Work &b)
{
    return {a.interned - b.interned, a.fused - b.fused,
            a.predicts - b.predicts, a.precedenceEvals - b.precedenceEvals,
            a.shortCircuits - b.shortCircuits};
}

/**
 * 200 threads, one after another, each intern and predict K blocks:
 * every call is counted once, whichever thread made it and whether or
 * not that thread is still alive when the totals are read. The number
 * of internAt calls per block does not depend on cache state (each is
 * one hit or one miss), so the main thread's own pass is the
 * reference.
 */
TEST(PerThreadCounters, InternAndPredictTotalsExactOverShortLivedThreads)
{
    constexpr std::size_t kBlocks = 4;
    constexpr int kThreads = 200;
    const auto suite = bhive::generateSuite(0x5eedc0de, 2);
    ASSERT_GE(suite.size(), kBlocks);
    auto work = [&] {
        model::PredictScratch scratch;
        for (std::size_t b = 0; b < kBlocks; ++b) {
            const auto &bytes = suite[b].bytesL;
            analysis::InstInterner &in =
                analysis::InstInterner::forArch(uarch::UArch::SKL);
            for (std::size_t pos = 0; pos < bytes.size();)
                pos += in.internAt(bytes.data(), bytes.size(), pos)
                           ->dec.length;
            const bb::BasicBlock blk = bb::analyze(bytes, uarch::UArch::SKL);
            model::predict(blk, true, {}, scratch);
        }
    };

    const Work w0 = snapshot();
    work();
    const Work one = snapshot() - w0;
    ASSERT_GT(one.interned, kBlocks);
    ASSERT_EQ(one.predicts, kBlocks);

    const Work t0 = snapshot();
    for (int t = 0; t < kThreads; ++t)
        std::thread(work).join();
    const Work all = snapshot() - t0;
    EXPECT_EQ(all.interned, kThreads * one.interned);
    EXPECT_EQ(all.fused, kThreads * one.fused);
    EXPECT_EQ(all.predicts, kThreads * one.predicts);
    EXPECT_EQ(all.precedenceEvals, kThreads * one.precedenceEvals);
    EXPECT_EQ(all.shortCircuits, kThreads * one.shortCircuits);
}

} // namespace
} // namespace facile
