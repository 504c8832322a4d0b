/**
 * @file
 * Per-thread statistics counters summed on read.
 *
 * A relaxed fetch_add on a process-wide atomic is cheap on one core
 * but not across lanes: every increment takes the cache line away from
 * the other threads. Counters bumped once per instruction or per
 * prediction therefore live in a block owned by the incrementing
 * thread, and a reader sums the blocks of every thread.
 *
 *   - The owner writes its block with a plain load + store (one writer,
 *     so no read-modify-write is needed); readers load relaxed.
 *   - When a thread exits, its counts are added to a retired total and
 *     its block is zeroed and put on a free list. The next thread to
 *     count takes it, so the number of blocks stays at the peak number
 *     of threads that counted at once, however many threads come and go.
 *   - Retiring and reading take one mutex, so a read never sees an
 *     exiting thread's counts twice or not at all: totals are exact.
 *
 * Each Tag names one independent set of N counters:
 * @code
 *   struct MyTag;
 *   using MyCounters = support::PerThreadCounters<MyTag, 4>;
 *   MyCounters::add(2);          // hot path: no shared write
 *   std::uint64_t n = MyCounters::sum(2);
 * @endcode
 */
#ifndef FACILE_SUPPORT_PER_THREAD_COUNTERS_H
#define FACILE_SUPPORT_PER_THREAD_COUNTERS_H

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

namespace facile::support {

template <class Tag, std::size_t N>
class PerThreadCounters
{
  public:
    /** Add @p v to counter @p i of the calling thread. */
    static void
    add(std::size_t i, std::uint64_t v = 1)
    {
        Block *b = tlsBlock;
        if (!b && !(b = attach())) {
            // Counting from a thread_local destructor after this
            // thread's block was returned: count it as retired.
            Registry &r = registry();
            std::lock_guard<std::mutex> lock(r.mu);
            r.retired[i] += v;
            return;
        }
        std::atomic<std::uint64_t> &c = b->count[i];
        c.store(c.load(std::memory_order_relaxed) + v,
                std::memory_order_relaxed);
    }

    /** Counter @p i summed over exited threads and live ones. */
    static std::uint64_t
    sum(std::size_t i)
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        std::uint64_t total = r.retired[i];
        for (const Block *b : r.blocks)
            total += b->count[i].load(std::memory_order_relaxed);
        return total;
    }

    /** Blocks allocated so far: the peak number of counting threads. */
    static std::size_t
    blocks()
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        return r.blocks.size();
    }

  private:
    /** One thread's counters, on a line of its own. */
    struct alignas(64) Block
    {
        std::atomic<std::uint64_t> count[N] = {};
    };

    /** Immortal: threads may exit after static destruction began. */
    struct Registry
    {
        std::mutex mu;
        std::vector<Block *> blocks; ///< every block, in use or free
        std::vector<Block *> free;
        std::array<std::uint64_t, N> retired{};
    };

    static Registry &
    registry()
    {
        static Registry *const r = new Registry;
        return *r;
    }

    /** Returns the calling thread's block to the registry at exit. */
    struct Owner
    {
        Block *block = nullptr;

        ~Owner()
        {
            if (!block)
                return;
            Registry &r = registry();
            std::lock_guard<std::mutex> lock(r.mu);
            for (std::size_t i = 0; i < N; ++i) {
                r.retired[i] +=
                    block->count[i].load(std::memory_order_relaxed);
                block->count[i].store(0, std::memory_order_relaxed);
            }
            r.free.push_back(block);
            tlsBlock = nullptr;
            tlsExited = true;
        }
    };

    /** The calling thread's block, nullptr once it has been returned. */
    static Block *
    attach()
    {
        if (tlsExited)
            return nullptr;
        thread_local Owner owner;
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        if (r.free.empty()) {
            r.blocks.push_back(new Block);
            owner.block = r.blocks.back();
        } else {
            owner.block = r.free.back();
            r.free.pop_back();
        }
        tlsBlock = owner.block;
        return owner.block;
    }

    /** Trivially initialized, so the hot path pays no TLS guard. */
    static inline thread_local Block *tlsBlock = nullptr;
    static inline thread_local bool tlsExited = false;
};

} // namespace facile::support

#endif // FACILE_SUPPORT_PER_THREAD_COUNTERS_H
