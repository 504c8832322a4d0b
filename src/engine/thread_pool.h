/**
 * @file
 * Fork-join worker pool used by the PredictionEngine: the calling
 * thread is lane 0 and size() - 1 pooled threads are lanes 1 and up.
 * Bodies receive their lane index, so callers can keep per-lane state
 * (scratch buffers, counters) without locks.
 */
#ifndef FACILE_ENGINE_THREAD_POOL_H
#define FACILE_ENGINE_THREAD_POOL_H

#include <algorithm>
#include <atomic>
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
    /** @p lanes lanes (at least one): the caller plus lanes - 1 threads. */
    explicit ThreadPool(int lanes) : lanes_(std::max(lanes, 1))
    {
        for (int lane = 1; lane < lanes_; ++lane)
            threads_.emplace_back([this, lane] { workerLoop(lane); });
    }

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lock(mu_);
            stop_ = true;
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
     * share one lane's thread-local intern window cache. A one-chunk
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
        {
            std::lock_guard<std::mutex> lock(mu_);
            body_ = &body;
            invoke_ = [](const void *b, int lane, std::size_t i) {
                (*static_cast<const Body *>(b))(lane, i);
            };
            n_ = n;
            chunk_ = chunk;
            lastLane_ = helpers;
            next_.store(chunk, std::memory_order_relaxed); // 0 is ours
            failed_.store(false, std::memory_order_relaxed);
            open_ = helpers > 0;
            ++generation_;
        }
        if (helpers > 0)
            wake_.notify_all();
        const Lane prev = std::exchange(current(), Lane{this, 0});
        runLane(0, 0);
        current() = prev;
        // Close the region: lanes that have not joined yet stay out.
        std::unique_lock<std::mutex> lock(mu_);
        open_ = false;
        done_.wait(lock, [this] { return joined_ == 0; });
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

    void
    workerLoop(int lane)
    {
        current() = Lane{this, lane};
        std::uint64_t seen = 0;
        std::unique_lock<std::mutex> lock(mu_);
        for (;;) {
            wake_.wait(lock, [&] { return stop_ || generation_ != seen; });
            if (stop_)
                return;
            seen = generation_;
            if (!open_ || lane > lastLane_)
                continue;
            ++joined_;
            lock.unlock();
            runLane(lane, next_.fetch_add(chunk_, std::memory_order_relaxed));
            lock.lock();
            // Notify under the lock: the caller may then destroy us.
            if (--joined_ == 0 && !open_)
                done_.notify_one();
        }
    }

    const int lanes_;
    std::vector<std::thread> threads_;
    std::mutex regionMu_; ///< one region at a time
    std::mutex mu_;       ///< guards the plain members below
    std::condition_variable wake_, done_;
    // The current region, written under mu_ before it opens.
    const void *body_ = nullptr;
    void (*invoke_)(const void *, int, std::size_t) = nullptr;
    std::size_t n_ = 0, chunk_ = 1;
    int lastLane_ = 0; ///< pooled lanes 1..lastLane_ join
    std::uint64_t generation_ = 0;
    bool open_ = false, stop_ = false;
    int joined_ = 0;
    std::exception_ptr error_;
    std::atomic<std::size_t> next_{0};
    std::atomic<bool> failed_{false};
};

} // namespace facile::engine

#endif // FACILE_ENGINE_THREAD_POOL_H
