/**
 * @file
 * Fork-join worker pool used by the PredictionEngine: the calling
 * thread is lane 0 and size() - 1 pooled threads are lanes 1 and up.
 * Bodies receive their lane index, so callers can keep per-lane state
 * (scratch buffers, counters) without locks.
 *
 * Wake and join take no lock while regions follow each other: a pool
 * thread that finished a region spins up to kSpin on the region
 * generation before it sleeps on a condition variable, and the caller
 * counts joined lanes out on an atomic. Threads spin only while
 * regions come back to back. See src/engine/README.md.
 */
#ifndef FACILE_ENGINE_THREAD_POOL_H
#define FACILE_ENGINE_THREAD_POOL_H

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace facile::engine {

class ThreadPool
{
  public:
    /**
     * How long a pool thread that finished a region busy-waits for the
     * next one before it sleeps on the condition variable, and how long
     * the caller busy-waits for joined lanes before it sleeps. About
     * one 32-request region on the cold path, so back-to-back regions
     * pay no futex round trip, while an idle pool sleeps within this
     * bound of its last region.
     */
    static constexpr std::chrono::microseconds kSpin{50};

    /** @p lanes lanes (at least one): the caller plus lanes - 1 threads. */
    explicit ThreadPool(int lanes)
        : lanes_(std::max(lanes, 1))
    {
        for (int lane = 1; lane < lanes_; ++lane)
            threads_.emplace_back([this, lane] { workerLoop(lane); });
    }

    ~ThreadPool()
    {
        stop_.store(true);
        {
            std::lock_guard<std::mutex> lock(mu_); // no lost wake-up
        }
        wake_.notify_all();
        for (auto &t : threads_)
            t.join();
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Lane count, the calling thread's lane included. */
    int size() const { return lanes_; }

    /**
     * Run @p body(lane, index) for every index in [0, n); the caller
     * runs lane 0. Lanes claim contiguous chunks of
     * max(1, n / (4 * size())) indices: enough to balance uneven
     * costs, while neighbours (a block's unrolled and loop variants)
     * share one lane's thread-local intern window cache. That reuse is
     * a few requests apart, which is why a 64-set window table per
     * arch (src/analysis/intern.cc) keeps most window hits. A one-chunk
     * batch wakes no one. Allocates nothing. One region runs at a
     * time (concurrent callers would share lane 0); a call from inside
     * a region of this pool runs inline on the current lane. If @p
     * body throws, the remaining indices are abandoned and the first
     * exception is rethrown here once every lane has stopped.
     */
    template <class Body>
    void
    parallelForWorker(std::size_t n, const Body &body)
    {
        if (n == 0)
            return;
        if (current().pool == this) {
            for (std::size_t i = 0; i < n; ++i)
                body(current().index, i);
            return;
        }
        std::lock_guard<std::mutex> region(regionMu_);
        const std::size_t chunk = std::max<std::size_t>(
            1, n / (4 * static_cast<std::size_t>(lanes_)));
        const auto helpers = static_cast<int>(std::min<std::size_t>(
            static_cast<std::size_t>(lanes_ - 1), (n - 1) / chunk));
        // No region is open, and every lane that joined the last one
        // has left it, so no pool thread reads these now.
        body_ = &body;
        invoke_ = [](const void *b, int lane, std::size_t i) {
            (*static_cast<const Body *>(b))(lane, i);
        };
        n_ = n;
        chunk_ = chunk;
        lastLane_ = helpers;
        next_.store(chunk, std::memory_order_relaxed); // 0 is ours
        failed_.store(false, std::memory_order_relaxed);
        if (helpers > 0) {
            state_.store(++generation_ << 1 | 1); // open
            if (sleepers_.load() > 0) {
                {
                    std::lock_guard<std::mutex> lock(mu_);
                }
                wake_.notify_all();
            }
        }
        const Lane prev = std::exchange(current(), Lane{this, 0});
        runLane(0, 0);
        current() = prev;
        if (helpers > 0) {
            // Close the region; lanes that have not joined stay out,
            // and joined ones are at most a chunk from done.
            state_.store(generation_ << 1);
            awaitJoinedLanes();
        }
        if (error_)
            std::rethrow_exception(std::exchange(error_, nullptr));
    }

  private:
    /** The pool whose region this thread runs a lane of, if any. */
    struct Lane
    {
        ThreadPool *pool = nullptr;
        int index = 0;
    };

    static Lane &
    current()
    {
        thread_local Lane lane;
        return lane;
    }

    static void
    cpuRelax()
    {
#if defined(__x86_64__) || defined(__i386__)
        __builtin_ia32_pause();
#elif defined(__aarch64__)
        asm volatile("yield");
#endif
    }

    /** Busy-wait up to kSpin for @p done; false if it never held. */
    template <class Pred>
    static bool
    spinUntil(const Pred &done)
    {
        const auto deadline = std::chrono::steady_clock::now() + kSpin;
        for (unsigned k = 1;; ++k) {
            if (done())
                return true;
            cpuRelax();
            if (k % 16 == 0 && std::chrono::steady_clock::now() >= deadline)
                return false;
        }
    }

    /** Run the chunk at @p begin, then claim more until none are left. */
    void
    runLane(int lane, std::size_t begin)
    {
        for (; begin < n_;
             begin = next_.fetch_add(chunk_, std::memory_order_relaxed)) {
            const std::size_t end = std::min(begin + chunk_, n_);
            for (std::size_t i = begin; i < end; ++i) {
                if (failed_.load(std::memory_order_relaxed))
                    return;
                try {
                    invoke_(body_, lane, i);
                } catch (...) { // a pooled thread must never unwind
                    std::lock_guard<std::mutex> lock(mu_);
                    if (!failed_.exchange(true))
                        error_ = std::current_exception();
                    return;
                }
            }
        }
    }

    /** The caller's join: spin on the joined count, then sleep. */
    void
    awaitJoinedLanes()
    {
        if (spinUntil([this] { return joined_.load() == 0; }))
            return;
        std::unique_lock<std::mutex> lock(mu_);
        callerWaiting_.store(true);
        done_.wait(lock, [this] { return joined_.load() == 0; });
        callerWaiting_.store(false);
    }

    void
    workerLoop(int lane)
    {
        current() = Lane{this, lane};
        std::uint64_t seen = 0; // generation of the last region seen
        // Spin only while regions come back to back: when the last one
        // opened within kSpin of the one before it ending. A caller
        // whose regions are sparse (a server at a low request rate)
        // then pays no spinning CPU, and a thread that slept through a
        // short gap spins again from the next region on.
        bool spin = false;
        auto idleSince = std::chrono::steady_clock::now();
        for (;;) {
            const auto moved = [&] {
                return stop_.load() || (state_.load() >> 1) != seen;
            };
            if (!spin || !spinUntil(moved)) {
                std::unique_lock<std::mutex> lock(mu_);
                sleepers_.fetch_add(1);
                wake_.wait(lock, moved);
                sleepers_.fetch_sub(1);
            }
            if (stop_.load())
                return;
            const std::uint64_t state = state_.load();
            seen = state >> 1;
            const auto woke = std::chrono::steady_clock::now();
            spin = woke - idleSince <= kSpin;
            if (!(state & 1)) {
                idleSince = woke;
                continue; // that region closed before we saw it
            }
            // Join, then re-check: the caller closes the region before
            // it counts joined lanes, so either it waits for us or we
            // see the region closed (or a later one open) and leave.
            joined_.fetch_add(1);
            if (state_.load() == state && lane <= lastLane_)
                runLane(lane,
                        next_.fetch_add(chunk_, std::memory_order_relaxed));
            if (joined_.fetch_sub(1) == 1 && callerWaiting_.load()) {
                std::lock_guard<std::mutex> lock(mu_);
                done_.notify_one();
            }
            idleSince = std::chrono::steady_clock::now();
        }
    }

    const int lanes_;
    std::mutex regionMu_; ///< one region at a time
    std::uint64_t generation_ = 0; ///< regions opened; under regionMu_
    // The current region: written by the caller while no lane is in
    // one, read by lanes that joined it.
    const void *body_ = nullptr;
    void (*invoke_)(const void *, int, std::size_t) = nullptr;
    std::size_t n_ = 0, chunk_ = 1;
    int lastLane_ = 0; ///< pooled lanes 1..lastLane_ join
    std::exception_ptr error_; ///< first failure, set under mu_
    std::atomic<std::size_t> next_{0};
    std::atomic<bool> failed_{false};
    // Wake and join. The atomics below are sequentially consistent:
    // each sleeper announces itself before re-checking the condition
    // it sleeps on, and the other side changes that condition before
    // reading the announcement, so one of the two always sees the
    // other.
    std::atomic<std::uint64_t> state_{0}; ///< generation << 1 | open
    std::atomic<int> joined_{0};          ///< lanes inside a region
    std::atomic<int> sleepers_{0};        ///< pool threads on wake_
    std::atomic<bool> callerWaiting_{false}; ///< caller on done_
    std::atomic<bool> stop_{false};
    std::mutex mu_; ///< for the condition variables and error_
    std::condition_variable wake_, done_;
    std::vector<std::thread> threads_; ///< last: they use all of the above
};

} // namespace facile::engine

#endif // FACILE_ENGINE_THREAD_POOL_H
