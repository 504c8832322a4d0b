#include "engine/engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <mutex>
#include <thread>

#include "bb/basic_block.h"
#include "corpus/sections.h"
#include "engine/thread_pool.h"
#include "facile/component.h"
#include "server/protocol.h"

namespace facile::engine {

namespace {

using Word = std::uint64_t;
using AtomicWord = std::atomic<Word>;
static_assert(AtomicWord::is_always_lock_free);

constexpr std::size_t
wordsFor(std::size_t bytes)
{
    return (bytes + sizeof(Word) - 1) / sizeof(Word);
}

/** Key bytes before the block: flags, config (2 bytes), arch. */
constexpr std::size_t kKeyPrefix = 4;

/** Largest arena chunk; entries never straddle two. */
constexpr std::size_t kChunkWords = (std::size_t{64} << 10) / sizeof(Word);

/** First index table: 64 slots, at most half of them used. */
constexpr std::size_t kInitialSlots = 64;

/** Moves to the front one insertion may make before it just evicts. */
constexpr int kSecondChances = 8;

// ---- entry header: keyLen | payLen << 16 | hash32 << 32 ------------------
//
// A header of 0 marks the skipped end of a chunk (a "pad"): an entry
// has a payload, so its header is never 0.

constexpr Word kPad = 0;
constexpr Word kLenMask = 0xffff;
constexpr std::size_t kMaxLen = kLenMask;

std::size_t keyLenOf(Word h) { return h & kLenMask; }
std::size_t payLenOf(Word h) { return (h >> 16) & kLenMask; }
std::uint32_t hashOf(Word h) { return static_cast<std::uint32_t>(h >> 32); }

/** Header minus the payload length: what a lookup knows of an entry. */
constexpr Word kLookupMask = ~(kLenMask << 16);

std::size_t
entryWords(Word h)
{
    return 1 + wordsFor(keyLenOf(h)) + wordsFor(payLenOf(h));
}

// ---- index slot: ref << 63 | tag << 56 | (pos + 1) ------------------------
//
// pos is the entry's logical word position in the ring: it only grows
// (2^56 words is 512 PiB of insertions), so a slot never names a
// position twice. 0 is an empty slot. The tag is 7 hash bits that do
// not choose the home slot below 2^25 slots, so most probes that pass
// a foreign slot skip it without touching the arena. The ref bit is
// CLOCK's: set by a hit, cleared when the hand moves the entry.

constexpr Word kRef = Word{1} << 63;
constexpr Word kPosMask = (Word{1} << 56) - 1;

Word tagOf(std::uint32_t hash) { return Word{hash >> 25} << 56; }
Word slotPos(Word s) { return (s & kPosMask) - 1; }
Word slotTag(Word s) { return s & (Word{0x7f} << 56); }

Word
makeSlot(Word pos, std::uint32_t hash)
{
    return tagOf(hash) | (pos + 1);
}

/** Open-addressed slots; never freed while the cache lives. */
struct SlotTable
{
    explicit SlotTable(std::size_t capacity)
        : mask(capacity - 1), slots(new AtomicWord[capacity]())
    {}

    const std::size_t mask;
    const std::unique_ptr<AtomicWord[]> slots;
};

/**
 * One lane's request image, built where the engine needs it: the
 * header word, the key padded to whole words, then the payload padded
 * to whole words. A lookup fills the header and key; a hit copies the
 * payload in after them, a miss encodes it there.
 */
struct Entry
{
    std::vector<Word> words;
    std::size_t keyLen = 0;
    std::size_t payLen = 0;
    std::uint32_t hash = 0;

    Word
    header() const
    {
        return keyLen | Word{payLen} << 16 | Word{hash} << 32;
    }

    std::uint8_t *
    key()
    {
        return reinterpret_cast<std::uint8_t *>(words.data() + 1);
    }

    std::uint8_t *
    payload()
    {
        return reinterpret_cast<std::uint8_t *>(words.data() + 1 +
                                                wordsFor(keyLen));
    }

    /** Size the image for a @p len-byte payload, zeroing its padding. */
    std::uint8_t *
    reservePayload(std::size_t len)
    {
        payLen = len;
        words.resize(1 + wordsFor(keyLen) + wordsFor(len));
        if (len)
            words.back() = 0;
        return payload();
    }

    /** Set the key of @p req (zero-padded) and hash it. */
    void
    setKey(const Request &req)
    {
        const std::uint16_t cfg = req.config.packBits();
        keyLen = kKeyPrefix + req.bytes.size();
        payLen = 0;
        words.resize(1 + wordsFor(keyLen));
        words.back() = 0;
        std::uint8_t *k = key();
        k[0] = static_cast<std::uint8_t>(
            (req.loop ? 1 : 0) |
            (req.payload == model::Payload::Full ? 2 : 0));
        k[1] = static_cast<std::uint8_t>(cfg & 0xff);
        k[2] = static_cast<std::uint8_t>(cfg >> 8);
        k[3] = static_cast<std::uint8_t>(req.arch);
        if (!req.bytes.empty())
            std::memcpy(k + kKeyPrefix, req.bytes.data(), req.bytes.size());
        hash = static_cast<std::uint32_t>(corpus::xxh64(k, keyLen));
    }

    /** Set an exported key and its payload verbatim. */
    void
    set(const std::uint8_t *k, std::size_t kLen, const std::uint8_t *p,
        std::size_t len)
    {
        keyLen = kLen;
        words.resize(1 + wordsFor(keyLen));
        words.back() = 0;
        if (kLen)
            std::memcpy(key(), k, kLen);
        hash = static_cast<std::uint32_t>(corpus::xxh64(k, kLen));
        std::memcpy(reservePayload(len), p, len);
    }
};

/**
 * The prediction cache: one open-addressed index over a ring of
 * entries, each entry stored as its header, key and PREDICT response
 * payload in whole atomic words.
 *
 * Readers take no lock. A lookup probes the index with acquire loads,
 * reads a candidate entry word by word with acquire loads, and then
 * checks that the entry was not evicted meanwhile: writers move
 * `evictedTo_` past an entry before they overwrite any of its words,
 * and store every word with release, so a reader that saw one
 * overwritten word also sees the eviction and counts a miss. A slot is
 * accepted only on an exact key match; the hash only chooses where to
 * look.
 *
 * Writers hold `mu_`. An insert appends at the ring's head; when the
 * ring is full, the CLOCK hand at its tail evicts the oldest entry, or
 * moves it to the head if a hit set its slot's ref bit since the hand
 * last passed (at most kSecondChances moves per insert). Evicted slots
 * are removed by backward shift, and the index doubles past half full;
 * superseded index tables and the arena's chunks stay allocated until
 * the cache dies, so a reader never touches freed memory. A reader
 * that races a writer may miss an entry that is present, which only
 * costs it a recomputation.
 */
class PredictionCache
{
  public:
    explicit PredictionCache(std::size_t budgetBytes)
    {
        const std::size_t words = budgetBytes / sizeof(Word);
        chunkWords_ = std::min(kChunkWords, std::bit_floor(words));
        nChunks_ = chunkWords_ ? words / chunkWords_ : 0;
        ringWords_ = nChunks_ * chunkWords_;
        chunks_.resize(nChunks_);
        tables_.push_back(std::make_unique<SlotTable>(kInitialSlots));
        table_.store(tables_.back().get(), std::memory_order_relaxed);
    }

    /**
     * Look @p e's key up; on a hit copy the payload into @p e and
     * return true. Takes no lock.
     */
    bool
    find(Entry &e) const
    {
        if (e.keyLen > kMaxLen)
            return false;
        const Word want = e.header();
        const Word tag = tagOf(e.hash);
        const SlotTable &t = *table_.load(std::memory_order_acquire);
        for (std::size_t n = 0, i = e.hash & t.mask; n <= t.mask;
             ++n, i = (i + 1) & t.mask) {
            Word s = t.slots[i].load(std::memory_order_acquire);
            if (s == 0)
                return false;
            if (slotTag(s) == tag && read(slotPos(s), want, e)) {
                if (!(s & kRef))
                    t.slots[i].compare_exchange_strong(
                        s, s | kRef, std::memory_order_relaxed);
                return true;
            }
        }
        return false;
    }

    /**
     * Insert @p e (key and payload set) unless its key is present or
     * it does not fit a chunk.
     */
    void
    insert(Entry &e)
    {
        if (e.keyLen > kMaxLen || e.payLen > kMaxLen || e.payLen == 0)
            return;
        e.words[0] = e.header();
        const std::size_t n = e.words.size();
        if (n > chunkWords_)
            return;
        std::lock_guard<std::mutex> lock(mu_);
        if (locate(e.words.data()) != nullptr)
            return;
        const Word pos = reserve(n);
        write(pos, e.words.data(), n);
        growIfNeeded();
        place(*tables_.back(), e.hash, makeSlot(pos, e.hash));
        ++count_;
    }

    /** Drop every entry; memory stays allocated. */
    void
    clear()
    {
        std::lock_guard<std::mutex> lock(mu_);
        tail_ = head_;
        evictedTo_.store(tail_, std::memory_order_release);
        const SlotTable &t = *tables_.back();
        for (std::size_t i = 0; i <= t.mask; ++i)
            t.slots[i].store(0, std::memory_order_release);
        count_ = 0;
    }

    /** Call @p visit(entry words) for every entry, oldest first. */
    template <class Visit>
    std::size_t
    forEach(const Visit &visit) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        std::vector<Word> buf;
        std::size_t n = 0;
        for (Word pos = tail_; pos < head_;) {
            const AtomicWord *w = at(pos);
            const Word h = w[0].load(std::memory_order_relaxed);
            if (h == kPad) {
                pos = nextChunk(pos);
                continue;
            }
            buf.resize(entryWords(h));
            for (std::size_t k = 0; k < buf.size(); ++k)
                buf[k] = w[k].load(std::memory_order_relaxed);
            visit(buf.data());
            pos += buf.size();
            ++n;
        }
        return n;
    }

  private:
    /**
     * Read the entry at @p pos into @p e if its key is @p e's and no
     * writer evicted it meanwhile; a read that raced one is a miss.
     */
    bool
    read(Word pos, Word want, Entry &e) const
    {
        const AtomicWord *w = at(pos);
        const Word h = w[0].load(std::memory_order_acquire);
        if ((h & kLookupMask) != want)
            return false;
        const std::size_t n = entryWords(h);
        if (pos % chunkWords_ + n > chunkWords_)
            return false; // a torn header: the words were reused
        const std::size_t keyWords = wordsFor(e.keyLen);
        for (std::size_t k = 1; k <= keyWords; ++k)
            if (w[k].load(std::memory_order_acquire) != e.words[k])
                return false;
        e.reservePayload(payLenOf(h));
        for (std::size_t k = 1 + keyWords; k < n; ++k)
            e.words[k] = w[k].load(std::memory_order_acquire);
        // Every word above was loaded with acquire, so if any of them
        // was overwritten, the eviction that preceded it is visible.
        return evictedTo_.load(std::memory_order_acquire) <= pos;
    }

    AtomicWord *
    at(Word pos) const
    {
        return chunks_[(pos / chunkWords_) % nChunks_].get() +
               pos % chunkWords_;
    }

    Word
    nextChunk(Word pos) const
    {
        return pos - pos % chunkWords_ + chunkWords_;
    }

    /** Where an @p n-word entry goes: the head, or the next chunk. */
    Word
    placement(std::size_t n) const
    {
        return head_ % chunkWords_ + n > chunkWords_ ? nextChunk(head_)
                                                     : head_;
    }

    /** The current table's slot naming @p pos (mu_ held; it exists). */
    AtomicWord &
    slotOf(Word pos, std::uint32_t hash)
    {
        const SlotTable &t = *tables_.back();
        for (std::size_t i = hash & t.mask;; i = (i + 1) & t.mask) {
            const Word s = t.slots[i].load(std::memory_order_relaxed);
            if (s != 0 && slotPos(s) == pos)
                return t.slots[i];
        }
    }

    /** The slot holding an entry with @p e's header and key (mu_ held). */
    AtomicWord *
    locate(const Word *e) const
    {
        const std::uint32_t hash = hashOf(e[0]);
        const std::size_t keyWords = wordsFor(keyLenOf(e[0]));
        const SlotTable &t = *tables_.back();
        for (std::size_t i = hash & t.mask;; i = (i + 1) & t.mask) {
            const Word s = t.slots[i].load(std::memory_order_relaxed);
            if (s == 0)
                return nullptr;
            if (slotTag(s) != tagOf(hash))
                continue;
            const AtomicWord *w = at(slotPos(s));
            if (((w[0].load(std::memory_order_relaxed) ^ e[0]) &
                 kLookupMask) != 0)
                continue;
            std::size_t k = 1;
            while (k <= keyWords &&
                   w[k].load(std::memory_order_relaxed) == e[k])
                ++k;
            if (k > keyWords)
                return &t.slots[i];
        }
    }

    /**
     * Make room for @p n words and return where they go (mu_ held):
     * the CLOCK hand frees the ring's tail until they fit.
     */
    Word
    reserve(std::size_t n)
    {
        int chances = kSecondChances;
        while (placement(n) + n - tail_ > ringWords_) {
            if (tail_ == head_) { // empty: start at the next chunk
                head_ = tail_ = nextChunk(head_);
                evictedTo_.store(tail_, std::memory_order_release);
            } else {
                advanceHand(chances);
            }
        }
        return claim(n);
    }

    /** Take @p n words at placement(n), known to fit (mu_ held). */
    Word
    claim(std::size_t n)
    {
        const Word pos = placement(n);
        if (pos != head_)
            at(head_)->store(kPad, std::memory_order_release);
        auto &chunk = chunks_[(pos / chunkWords_) % nChunks_];
        if (!chunk)
            chunk.reset(new AtomicWord[chunkWords_]());
        head_ = pos + n;
        return pos;
    }

    /**
     * Free the entry (or pad) at the tail; an entry that was hit since
     * the hand last passed moves to the head instead, while @p chances
     * last and it fits there once its own words are free (the end of
     * a chunk may not leave room).
     */
    void
    advanceHand(int &chances)
    {
        const AtomicWord *w = at(tail_);
        const Word h = w[0].load(std::memory_order_relaxed);
        if (h == kPad) {
            tail_ = nextChunk(tail_);
            evictedTo_.store(tail_, std::memory_order_release);
            return;
        }
        const std::size_t n = entryWords(h);
        AtomicWord &slot = slotOf(tail_, hashOf(h));
        const bool move = chances > 0 &&
                          (slot.load(std::memory_order_relaxed) & kRef) &&
                          placement(n) - tail_ <= ringWords_;
        if (move)
            moving_.assign(w, w + n);
        tail_ += n;
        evictedTo_.store(tail_, std::memory_order_release);
        if (!move) {
            remove(slot);
            --count_;
            return;
        }
        --chances;
        const Word to = claim(n);
        write(to, moving_.data(), n);
        slot.store(makeSlot(to, hashOf(h)), std::memory_order_release);
    }

    void
    write(Word pos, const Word *src, std::size_t n)
    {
        AtomicWord *w = at(pos);
        for (std::size_t k = 0; k < n; ++k)
            w[k].store(src[k], std::memory_order_release);
    }

    /** Home slot of the entry a slot names (mu_ held). */
    std::size_t
    homeOf(Word s, std::size_t mask) const
    {
        return hashOf(at(slotPos(s))->load(std::memory_order_relaxed)) &
               mask;
    }

    /**
     * Empty @p slot of the current table by backward shift: later
     * slots of its cluster that may live there move up, so probes
     * still stop only at a true gap. Each move overwrites before it
     * clears, so a racing reader at worst misses.
     */
    void
    remove(AtomicWord &slot)
    {
        const SlotTable &t = *tables_.back();
        std::size_t i = static_cast<std::size_t>(&slot - t.slots.get());
        for (std::size_t j = (i + 1) & t.mask;; j = (j + 1) & t.mask) {
            const Word s = t.slots[j].load(std::memory_order_relaxed);
            if (s == 0)
                break;
            const std::size_t home = homeOf(s, t.mask);
            // Move s to i unless its home lies cyclically in (i, j].
            if (((j - home) & t.mask) >= ((j - i) & t.mask)) {
                t.slots[i].store(s, std::memory_order_release);
                i = j;
            }
        }
        t.slots[i].store(0, std::memory_order_release);
    }

    /** Fill the first free slot from @p hash's home (mu_ held). */
    static void
    place(const SlotTable &t, std::uint32_t hash, Word s)
    {
        std::size_t i = hash & t.mask;
        while (t.slots[i].load(std::memory_order_relaxed) != 0)
            i = (i + 1) & t.mask;
        t.slots[i].store(s, std::memory_order_release);
    }

    /** Publish a doubled table before the next insert passes half. */
    void
    growIfNeeded()
    {
        const SlotTable &t = *tables_.back();
        if (2 * (count_ + 1) <= t.mask + 1)
            return;
        auto grown = std::make_unique<SlotTable>(2 * (t.mask + 1));
        for (std::size_t i = 0; i <= t.mask; ++i) {
            const Word s = t.slots[i].load(std::memory_order_relaxed);
            if (s != 0)
                place(*grown, hashOf(at(slotPos(s))->load(
                                  std::memory_order_relaxed)),
                      s);
        }
        tables_.push_back(std::move(grown));
        table_.store(tables_.back().get(), std::memory_order_release);
    }

    std::size_t chunkWords_ = 0, nChunks_ = 0, ringWords_ = 0;
    /** Readers' view of the live table: tables_.back(). */
    std::atomic<const SlotTable *> table_;
    /** Entries that start below this position may be overwritten. */
    alignas(64) std::atomic<Word> evictedTo_{0};

    alignas(64) mutable std::mutex mu_; ///< writers
    /**
     * The ring's chunks, allocated as the head first reaches them.
     * Written under mu_ before any slot names a word in them, and read
     * by readers only through such a slot.
     */
    std::vector<std::unique_ptr<AtomicWord[]>> chunks_;
    std::vector<std::unique_ptr<SlotTable>> tables_; ///< [back] live
    Word head_ = 0;         ///< next free logical word
    Word tail_ = 0;         ///< oldest live entry (the CLOCK hand)
    std::size_t count_ = 0; ///< entries in the ring
    std::vector<Word> moving_; ///< an entry the hand moves
};

} // namespace

struct PredictionEngine::Impl
{
    Options opts;
    ThreadPool pool;
    PredictionCache cache;

    /**
     * The request image the cache reads and writes, and the prediction
     * a hit decodes into.
     */
    struct Lane
    {
        Entry entry;
        model::Prediction pred;
    };

    /**
     * What one pool lane owns: a Lane and the component-pipeline
     * scratch. A lane's index selects its state, so nothing is
     * thread_local-scattered and the buffers stay warm across
     * batches. Lane 0's state belongs to whichever thread is running a
     * region; the pool runs one region at a time.
     */
    struct PoolLane : Lane
    {
        model::PredictScratch scratch;
    };
    std::vector<std::unique_ptr<PoolLane>> lanes;

    /** numThreads lanes: the calling thread plus numThreads - 1. */
    explicit Impl(Options o)
        : opts(o),
          pool(o.numThreads > 0
                   ? o.numThreads
                   : static_cast<int>(
                         std::max(1u, std::thread::hardware_concurrency()))),
          cache(o.cacheEnabled ? o.cacheBytes : 0)
    {
        lanes.reserve(static_cast<std::size_t>(pool.size()));
        for (int i = 0; i < pool.size(); ++i)
            lanes.push_back(std::make_unique<PoolLane>());
    }

    /**
     * Answer @p req on @p lane, computing a miss in @p scratch. Returns
     * true on a hit, with the payload in lane.entry; on a miss lane.pred
     * holds the prediction and, when the cache is on or @p wantPayload,
     * lane.entry its payload.
     */
    bool
    answer(const Request &req, BatchStats *stats, Lane &lane,
           model::PredictScratch &scratch, bool wantPayload)
    {
        Entry &e = lane.entry;
        if (opts.cacheEnabled) {
            e.setKey(req);
            if (cache.find(e)) {
                if (stats)
                    ++stats->predictionCacheHits;
                return true;
            }
        } else {
            e.keyLen = 0;
        }

        try {
            const bb::BasicBlock blk = bb::analyze(req.bytes, req.arch);
            if (stats)
                ++stats->analyzed;
            lane.pred = model::predict(blk, req.loop, req.config,
                                       scratch, req.payload);
        } catch (const std::exception &) {
            lane.pred = model::Prediction{}; // malformed: throughput 0
        }
        if (opts.cacheEnabled || wantPayload)
            server::encodePredictPayload(
                e.reservePayload(server::predictPayloadSize(lane.pred)),
                lane.pred);
        if (opts.cacheEnabled)
            cache.insert(e);
        return false;
    }

    /** answer() for a Prediction visitor: a hit decodes into lane.pred. */
    const model::Prediction &
    predictInto(const Request &req, BatchStats *stats, Lane &lane,
                model::PredictScratch &scratch)
    {
        if (answer(req, stats, lane, scratch, false))
            server::decodePredictInto(lane.entry.payload(),
                                      lane.entry.payLen, lane.pred);
        return lane.pred;
    }

    template <class Body>
    void
    runBatch(const std::vector<Request> &batch, BatchStats *stats,
             const Body &body)
    {
        if (batch.empty())
            return;
        std::atomic<std::size_t> predictionHits{0}, analyzed{0};
        pool.parallelForWorker(batch.size(), [&](int worker,
                                                 std::size_t i) {
            BatchStats local;
            body(worker, i, *lanes[static_cast<std::size_t>(worker)],
                 stats ? &local : nullptr);
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
    impl_->runBatch(batch, stats,
                    [&](int worker, std::size_t i, Impl::PoolLane &lane,
                        BatchStats *st) {
                        visit(worker, i,
                              impl_->predictInto(batch[i], st, lane,
                                                 lane.scratch));
                    });
}

void
PredictionEngine::predictBatchVisitPayload(const std::vector<Request> &batch,
                                           const PayloadVisitor &visit,
                                           BatchStats *stats)
{
    impl_->runBatch(batch, stats,
                    [&](int worker, std::size_t i, Impl::PoolLane &lane,
                        BatchStats *st) {
                        impl_->answer(batch[i], st, lane, lane.scratch,
                                      true);
                        visit(worker, i, lane.entry.payload(),
                              lane.entry.payLen);
                    });
}

model::Prediction
PredictionEngine::predictOne(const Request &req, BatchStats *stats)
{
    // The calling thread's own lane state: predictOne may run beside
    // a batch, whose lane 0 belongs to another thread.
    thread_local Impl::Lane lane;
    if (stats)
        ++stats->requests;
    return impl_->predictInto(req, stats, lane, model::tlsPredictScratch());
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
    impl_->cache.clear();
}

std::size_t
PredictionEngine::exportPredictionCache(
    const std::function<void(const std::uint8_t *, std::size_t,
                             const std::uint8_t *, std::size_t)> &visit)
    const
{
    return impl_->cache.forEach([&](const Word *w) {
        const std::size_t keyLen = keyLenOf(w[0]);
        const auto *key = reinterpret_cast<const std::uint8_t *>(w + 1);
        visit(key, keyLen, key + wordsFor(keyLen) * sizeof(Word),
              payLenOf(w[0]));
    });
}

void
PredictionEngine::importPredictionCacheEntry(const std::uint8_t *key,
                                             std::size_t keyLen,
                                             const std::uint8_t *payload,
                                             std::size_t len)
{
    if (!impl_->opts.cacheEnabled)
        return;
    Entry e;
    e.set(key, keyLen, payload, len);
    impl_->cache.insert(e);
}

PredictionEngine &
PredictionEngine::shared()
{
    static PredictionEngine engine{Options{}};
    return engine;
}

} // namespace facile::engine
