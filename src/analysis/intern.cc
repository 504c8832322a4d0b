#include "analysis/intern.h"

#include <atomic>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "support/per_thread_counters.h"

namespace facile::analysis {

namespace {

/**
 * Fixed-size key: up to 15 bytes (zero-padded) with the byte count in
 * the 16th byte, viewed as two little-endian words. Used both for the
 * canonical index (the bytes of the form's canonical instance, see
 * isa::canonicalForm) and the window cache (exact decode lookahead);
 * x86 instructions cannot exceed 15 bytes, so the mapping is injective
 * in both roles.
 */
struct InstKey
{
    std::uint64_t lo = 0;
    std::uint64_t hi = 0;

    bool
    operator==(const InstKey &o) const
    {
        return lo == o.lo && hi == o.hi;
    }
};

InstKey
makeKey(const std::uint8_t *bytes, std::size_t len)
{
    std::uint8_t buf[16] = {};
    // Fixed-size copy on the common path (mid-block windows are always
    // 15 bytes) so the compiler inlines it; tails take the variable
    // copy.
    if (len >= 15)
        std::memcpy(buf, bytes, 15);
    else
        std::memcpy(buf, bytes, len);
    buf[15] = static_cast<std::uint8_t>(len);
    InstKey k;
    std::memcpy(&k.lo, buf, 8);
    std::memcpy(&k.hi, buf + 8, 8);
    return k;
}

/** splitmix64-style mix of both words. */
struct InstKeyHash
{
    std::size_t
    operator()(const InstKey &k) const
    {
        std::uint64_t x = k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL);
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return static_cast<std::size_t>(x);
    }
};

struct PairKey
{
    const InstRecord *first;
    const InstRecord *second;

    bool
    operator==(const PairKey &o) const
    {
        return first == o.first && second == o.second;
    }
};

struct PairKeyHash
{
    std::size_t
    operator()(const PairKey &k) const
    {
        auto a = reinterpret_cast<std::uintptr_t>(k.first);
        auto b = reinterpret_cast<std::uintptr_t>(k.second);
        std::uint64_t x = a ^ (b * 0x9e3779b97f4a7c15ULL);
        x ^= x >> 29;
        x *= 0xff51afd7ed558ccdULL;
        x ^= x >> 32;
        return static_cast<std::size_t>(x);
    }
};

constexpr std::size_t kInternShards = 16;
constexpr std::size_t kNumArchs = 9;

/**
 * Per-thread window cache in front of the canonical index: keyed on
 * the ≤15-byte decode lookahead, so the common case (window seen
 * before by *this thread*) costs a key compare instead of a layout
 * pass plus an index probe. Bounded by construction — a collision
 * overwrites the slot; record pointers are immortal, so stale entries
 * are merely misses, never dangling. Unlike the canonical level,
 * distinct *windows* (instruction + successor-byte prefix) can
 * outnumber distinct instructions; eviction keeps that from turning
 * into unbounded memory.
 *
 * The canonical index is the durable level, so the window only has to
 * catch short-range reuse: a block's unrolled and loop requests run on
 * one engine lane, back to back. 64 sets (4 KiB per arch) keep most of
 * those hits and stay in L1/L2 next to the index. Chosen from an
 * in-process sweep over perfbench's inproc_cold stream (2 lanes,
 * 16k-request segments of each size alternated, 60 rounds; CHANGES.md
 * has the table): the 64-set row ran 1.12x (seed 1) and 1.10x (seed
 * 9001) as fast as 8192 sets, in paired medians, the only row whose
 * lower quartile stayed above 1.05x on both seeds, with 4.54 window
 * hits per request against 4.82.
 */
constexpr std::size_t kWindowSets = 64; // power of two, 2 ways/set

/** Key and record pointer packed into one cache line's worth. */
struct alignas(32) WindowEntry
{
    InstKey key{};
    const InstRecord *rec = nullptr;
};

/**
 * One 2-way set per 64-byte cache line: way 0 is most recent (hits in
 * way 1 swap forward, inserts demote way 0). Two ways cut the conflict
 * rate versus direct mapping at the same footprint — conflicts fall
 * through to a layout pass + index probe.
 */
struct alignas(64) WindowSet
{
    WindowEntry way[2];
};

/**
 * Per-thread, per-arch window tables, heap-allocated on first touch,
 * so a thread pays only for the arches it actually analyzes (4 KiB
 * each) and threads that never analyze (connection readers, ...) pay
 * nothing.
 */
struct WindowCache
{
    std::unique_ptr<WindowSet[]> perArch[kNumArchs];
};

WindowSet *
tlsWindows(std::size_t arch)
{
    thread_local WindowCache cache;
    auto &table = cache.perArch[arch];
    if (!table)
        table.reset(new WindowSet[kWindowSets]{});
    return table.get();
}

/**
 * Thread-local direct-mapped cache for fused-pair variants, fronting
 * the (unsharded) fused map so the common case — a loop block ending
 * in an already-seen cmp/jcc pair — takes no lock. Same eviction and
 * lifetime reasoning as the window cache.
 */
constexpr std::size_t kFusedSlots = 512; // power of two

struct FusedEntry
{
    PairKey key{nullptr, nullptr};
    FusedRecords rec;
};

struct FusedCache
{
    std::unique_ptr<FusedEntry[]> perArch[kNumArchs];
};

FusedEntry *
tlsFused(std::size_t arch)
{
    thread_local FusedCache cache;
    auto &table = cache.perArch[arch];
    if (!table)
        table.reset(new FusedEntry[kFusedSlots]{});
    return table.get();
}

/**
 * Hit counters, per thread so the per-instruction hot path writes no
 * shared cache line: counter 2 * arch is that arch's canonical hits
 * (window cache + index), 2 * arch + 1 its fused-pair hits.
 */
struct HitCounterTag;
using HitCounters = support::PerThreadCounters<HitCounterTag, 2 * kNumArchs>;

/**
 * One shard's canonical index: open addressing with linear probing
 * over immortal record pointers, compared by the key each record
 * carries. Slots only ever go from null to a record, and a table is
 * never freed, so readers probe with acquire loads and no lock.
 */
struct IndexTable
{
    explicit IndexTable(std::size_t capacity)
        : mask(capacity - 1),
          slots(new std::atomic<const InstRecord *>[capacity]())
    {}

    const std::size_t mask;
    const std::unique_ptr<std::atomic<const InstRecord *>[]> slots;
};

/** First slot of @p hash: bits above the shard selector. */
inline std::size_t
homeSlot(std::size_t hash, std::size_t mask)
{
    return (hash >> 4) & mask;
}

bool
keyEquals(const InstRecord &rec, const InstKey &key)
{
    return rec.key[0] == key.lo && rec.key[1] == key.hi;
}

/** Lock-free probe; a miss may be stale (see Impl::Shard). */
const InstRecord *
probe(const IndexTable &t, std::size_t hash, const InstKey &key)
{
    for (std::size_t i = homeSlot(hash, t.mask);; i = (i + 1) & t.mask) {
        const InstRecord *rec = t.slots[i].load(std::memory_order_acquire);
        if (!rec || keyEquals(*rec, key))
            return rec;
    }
}

/** Fill the first free slot from @p hash's home (writers only). */
void
place(IndexTable &t, std::size_t hash, const InstRecord *rec)
{
    std::size_t i = homeSlot(hash, t.mask);
    while (t.slots[i].load(std::memory_order_relaxed))
        i = (i + 1) & t.mask;
    t.slots[i].store(rec, std::memory_order_release);
}

constexpr std::size_t kIndexInitialSlots = 16; // power of two

} // namespace

struct InstInterner::Impl
{
    const uarch::MicroArchConfig &cfg;
    std::size_t archIndex;

    /**
     * Readers probe `index` without a lock. Writers hold `mu`, insert
     * into the current table and, past half full, publish a doubled
     * one; the old tables stay alive for readers still probing them
     * (their sizes sum to less than the live one). A probe that misses
     * on a superseded table is only a stale miss: the writer path
     * probes again under the lock before it publishes.
     */
    struct Shard
    {
        alignas(64) std::atomic<IndexTable *> index;
        alignas(64) std::mutex mu;
        std::size_t count = 0;        ///< records in the index
        std::deque<InstRecord> arena; ///< append-only, pointer-stable
        std::vector<std::unique_ptr<IndexTable>> tables; ///< [back] live

        Shard()
        {
            tables.push_back(
                std::make_unique<IndexTable>(kIndexInitialSlots));
            index.store(tables.back().get(), std::memory_order_relaxed);
        }

        /** Probe under mu. */
        const InstRecord *
        find(std::size_t hash, const InstKey &key) const
        {
            return probe(*tables.back(), hash, key);
        }

        /** Append @p rec under @p key (absent, mu held). */
        const InstRecord *publish(std::size_t hash, const InstKey &key,
                                  InstRecord &&rec);
    };
    Shard shards[kInternShards];

    struct FusedShard
    {
        std::mutex mu;
        std::unordered_map<PairKey, FusedRecords, PairKeyHash> map;
        std::deque<InstRecord> arena;
    };
    FusedShard fused;

    std::atomic<std::uint64_t> misses{0}, fusedMisses{0};
    /** Published records; incremented under the publishing lock. */
    std::atomic<std::uint64_t> records{0}, fusedRecords{0};

    explicit Impl(uarch::UArch arch)
        : cfg(uarch::config(arch)),
          archIndex(static_cast<std::size_t>(arch))
    {}
};

const InstRecord *
InstInterner::Impl::Shard::publish(std::size_t hash, const InstKey &key,
                                   InstRecord &&rec)
{
    IndexTable *t = tables.back().get();
    if (2 * (count + 1) > t->mask + 1) {
        auto grown = std::make_unique<IndexTable>(2 * (t->mask + 1));
        for (std::size_t i = 0; i <= t->mask; ++i)
            if (const InstRecord *r =
                    t->slots[i].load(std::memory_order_relaxed))
                place(*grown, InstKeyHash{}(InstKey{r->key[0], r->key[1]}),
                      r);
        t = grown.get();
        tables.push_back(std::move(grown));
        index.store(t, std::memory_order_release);
    }
    rec.key[0] = key.lo;
    rec.key[1] = key.hi;
    arena.push_back(std::move(rec));
    place(*t, hash, &arena.back());
    ++count;
    return &arena.back();
}

InstInterner::InstInterner(uarch::UArch arch) : impl_(new Impl(arch)) {}

InstInterner::~InstInterner()
{
    delete impl_;
}

InstInterner &
InstInterner::forArch(uarch::UArch arch)
{
    // Immortal per-arch singletons: returned record pointers must stay
    // valid for the process lifetime (blocks cache them), so the
    // interners are never destroyed.
    static InstInterner *const interners[] = {
        new InstInterner(uarch::UArch::SNB), new InstInterner(uarch::UArch::IVB),
        new InstInterner(uarch::UArch::HSW), new InstInterner(uarch::UArch::BDW),
        new InstInterner(uarch::UArch::SKL), new InstInterner(uarch::UArch::CLX),
        new InstInterner(uarch::UArch::ICL), new InstInterner(uarch::UArch::TGL),
        new InstInterner(uarch::UArch::RKL),
    };
    return *interners[static_cast<std::size_t>(arch)];
}

const InstRecord *
InstInterner::internAt(const std::uint8_t *data, std::size_t size,
                       std::size_t pos)
{
    const std::size_t remaining = size - pos;
    const std::size_t window = remaining < 15 ? remaining : 15;
    const InstKey winKey = makeKey(data + pos, window);
    const std::size_t arch = impl_->archIndex;

    // Window cache: thread-local, lock-free, no decode on a hit. The
    // decoder is position-independent (the subset has no RIP-relative
    // operands) and never reads past the instruction end, so an equal
    // lookahead implies an equal decode.
    WindowSet *wc = tlsWindows(arch);
    WindowSet &ws = wc[InstKeyHash{}(winKey) & (kWindowSets - 1)];
    if (ws.way[0].rec && ws.way[0].key == winKey) {
        HitCounters::add(2 * arch);
        return ws.way[0].rec;
    }
    if (ws.way[1].rec && ws.way[1].key == winKey) {
        HitCounters::add(2 * arch);
        std::swap(ws.way[0], ws.way[1]); // MRU to the front
        return ws.way[0].rec;
    }

    // Layout pass (may throw DecodeError — nothing is cached then):
    // enough of a decode to find the instruction's form, its canonical
    // instance with the immediate zeroed and the displacement reduced
    // to 0 or 1, and no operand list.
    isa::DecodedInst dec = isa::decodeLayout(data, size, pos);
    std::uint8_t canon[15];
    isa::canonicalForm(data + pos, dec, canon);
    InstKey key = makeKey(canon, dec.length);
    std::size_t hash = InstKeyHash{}(key);
    Impl::Shard *shard = &impl_->shards[hash % kInternShards];

    const InstRecord *rec =
        probe(*shard->index.load(std::memory_order_acquire), hash, key);
    // The record is the analysis of the canonical bytes, which decode
    // with the layout of every instance of the form; anything else
    // takes the full path below.
    if (rec && rec->dec.length == dec.length &&
        rec->dec.dispWidth == dec.dispWidth &&
        rec->dec.immWidth == dec.immWidth) {
        HitCounters::add(2 * arch);
    } else {
        // Full path: the key comes from a full decode, so what is
        // published never depends on the layout pass. The record is the
        // analysis of the canonical instance, so it is a pure function
        // of the key whichever instance of the form arrived first.
        dec = isa::decodeOne(data, size, pos);
        isa::canonicalForm(data + pos, dec, canon);
        key = makeKey(canon, dec.length);
        hash = InstKeyHash{}(key);
        shard = &impl_->shards[hash % kInternShards];
        if (std::memcmp(canon, data + pos, dec.length) != 0)
            dec = isa::decodeOne(canon, dec.length);
        InstRecord fresh;
        analyzeCold(dec, fresh);
        impl_->misses.fetch_add(1, std::memory_order_relaxed);

        std::lock_guard<std::mutex> lock(shard->mu);
        rec = shard->find(hash, key);
        // (On a lost race: use the already-published record.)
        if (!rec) {
            rec = shard->publish(hash, key, std::move(fresh));
            impl_->records.fetch_add(1, std::memory_order_relaxed);
        }
    }

    ws.way[1] = ws.way[0];
    ws.way[0].key = winKey;
    ws.way[0].rec = rec;
    return rec;
}

/**
 * The analysis cold path: everything derived from one decoded
 * instruction on this µarch. Consumes @p dec.
 */
void
InstInterner::analyzeCold(isa::DecodedInst &dec, InstRecord &fresh)
{
    fresh.info = uops::lookup(dec.inst, impl_->cfg);
    isa::instRw(dec.inst, fresh.rw);

    // Precedence edge templates: per-read producer-edge latencies
    // (identical arithmetic to the historical per-block
    // derivation, so edge weights stay bit-identical).
    const isa::MemOp *m = dec.inst.memOperand();
    const bool loads = dec.inst.isLoad();
    fresh.stackOp = dec.inst.mnem == isa::Mnemonic::PUSH ||
                    dec.inst.mnem == isa::Mnemonic::POP ||
                    dec.inst.mnem == isa::Mnemonic::CALL ||
                    dec.inst.mnem == isa::Mnemonic::RET;
    fresh.depReads.reserve(fresh.rw.reads.size());
    for (int r : fresh.rw.reads) {
        double lat = static_cast<double>(fresh.info.latency);
        if (m && loads &&
            ((m->base.valid() && m->base.family() == r) ||
             (m->index.valid() && m->index.family() == r)))
            lat += impl_->cfg.loadLatency;
        fresh.depReads.push_back({r, lat});
    }

    // Inline dependence data (see InstRecord::kInlineDeps).
    fresh.depBreaking = fresh.rw.depBreaking;
    if (fresh.rw.writes.size() <= InstRecord::kInlineDeps) {
        fresh.nWritesInl =
            static_cast<std::uint8_t>(fresh.rw.writes.size());
        for (std::size_t i = 0; i < fresh.rw.writes.size(); ++i)
            fresh.writesInl[i] =
                static_cast<std::uint8_t>(fresh.rw.writes[i]);
    }
    if (fresh.depReads.size() <= InstRecord::kInlineDeps) {
        fresh.nDepInl =
            static_cast<std::uint8_t>(fresh.depReads.size());
        for (std::size_t i = 0; i < fresh.depReads.size(); ++i)
            fresh.depInl[i] = fresh.depReads[i];
    }

    // Port masks of the port-consuming µops (ports() fast path).
    fresh.portMasks.reserve(fresh.info.portUops.size());
    for (const auto &u : fresh.info.portUops)
        if (u.ports)
            fresh.portMasks.push_back(u.ports);

    // Macro-fusion flags, mirroring uops::macroFusesWith exactly.
    {
        using isa::Cond;
        using isa::Mnemonic;
        const bool hasMem = dec.inst.hasMemOperand();
        const bool hasImm =
            !dec.inst.ops.empty() && dec.inst.ops.back().isImm();
        const bool memBlocked =
            hasMem &&
            (hasImm || impl_->cfg.family == uarch::UArchFamily::SnB);
        if (!memBlocked) {
            switch (dec.inst.mnem) {
              case Mnemonic::TEST:
              case Mnemonic::AND:
                fresh.fuseClass = FuseClass::All;
                break;
              case Mnemonic::CMP:
              case Mnemonic::ADD:
              case Mnemonic::SUB:
                fresh.fuseClass = FuseClass::NoSOP;
                break;
              case Mnemonic::INC:
              case Mnemonic::DEC:
                fresh.fuseClass = FuseClass::NoCarryNoSOP;
                break;
              default:
                break;
            }
        }
        fresh.isJcc = dec.inst.mnem == Mnemonic::JCC;
        switch (dec.inst.cc) {
          case Cond::B: case Cond::NB: case Cond::BE: case Cond::NBE:
            fresh.jccReadsCf = true;
            break;
          default:
            break;
        }
        switch (dec.inst.cc) {
          case Cond::S: case Cond::NS: case Cond::P: case Cond::NP:
          case Cond::O: case Cond::NO:
            fresh.jccTestsSOP = true;
            break;
          default:
            break;
        }
    }

    fresh.dec = std::move(dec);
}

FusedRecords
InstInterner::internFused(const InstRecord *first, const InstRecord *second)
{
    const PairKey key{first, second};
    const std::size_t arch = impl_->archIndex;
    Impl::FusedShard &fs = impl_->fused;

    FusedEntry &fe = tlsFused(arch)[PairKeyHash{}(key) & (kFusedSlots - 1)];
    if (fe.rec.first && fe.key == key) {
        HitCounters::add(2 * arch + 1);
        return fe.rec;
    }

    {
        std::lock_guard<std::mutex> lock(fs.mu);
        auto it = fs.map.find(key);
        if (it != fs.map.end()) {
            HitCounters::add(2 * arch + 1);
            fe.key = key;
            fe.rec = it->second;
            return it->second;
        }
    }

    // Derive both variants exactly as bb::analyze's historical in-place
    // merge did, so predictions stay bit-identical. Each starts as a
    // copy of its base record — fusion keeps each instruction's latency
    // and semantics, so the dependence templates carry over unchanged —
    // and only what fusion changes is patched. Neither is indexed, so
    // neither carries a key.
    InstRecord merged = *first;
    merged.key[0] = merged.key[1] = 0;
    {
        std::vector<uops::Uop> uops;
        for (const auto &u : merged.info.portUops)
            if (u.kind != uops::UopKind::Compute)
                uops.push_back(u);
        for (const auto &u : second->info.portUops)
            uops.push_back(u);
        merged.info.portUops = std::move(uops);
    }
    merged.portMasks.clear();
    for (const auto &u : merged.info.portUops)
        if (u.ports)
            merged.portMasks.push_back(u.ports);

    InstRecord stripped = *second;
    stripped.key[0] = stripped.key[1] = 0;
    stripped.info.fusedUops = 0;
    stripped.info.issueUops = 0;
    stripped.info.portUops.clear();
    stripped.info.needsComplexDecoder = false;
    stripped.portMasks.clear(); // no µops left

    impl_->fusedMisses.fetch_add(1, std::memory_order_relaxed);

    FusedRecords out;
    {
        std::lock_guard<std::mutex> lock(fs.mu);
        auto it = fs.map.find(key);
        if (it == fs.map.end()) {
            fs.arena.push_back(std::move(merged));
            const InstRecord *m = &fs.arena.back();
            fs.arena.push_back(std::move(stripped));
            const InstRecord *s = &fs.arena.back();
            it = fs.map.emplace(key, FusedRecords{m, s}).first;
            impl_->fusedRecords.fetch_add(2, std::memory_order_relaxed);
        }
        // (On a lost race: use the already-published records.)
        out = it->second;
    }
    fe.key = key;
    fe.rec = out;
    return out;
}

void
InstInterner::exportRecords(
    const std::function<void(const std::uint8_t *bytes, std::size_t len,
                             const InstRecord &rec)> &visit) const
{
    for (std::size_t s = 0; s < kInternShards; ++s) {
        Impl::Shard &shard = impl_->shards[s];
        std::lock_guard<std::mutex> lock(shard.mu);
        // Arena order is insertion order (deterministic per traffic).
        for (const InstRecord &rec : shard.arena) {
            std::uint8_t buf[16];
            std::memcpy(buf, rec.key, 16);
            visit(buf, buf[15], rec);
        }
    }
}

InternStats
InstInterner::stats() const
{
    InternStats st;
    st.hits = HitCounters::sum(2 * impl_->archIndex);
    st.misses = impl_->misses.load(std::memory_order_relaxed);
    st.fusedHits = HitCounters::sum(2 * impl_->archIndex + 1);
    st.fusedMisses = impl_->fusedMisses.load(std::memory_order_relaxed);
    st.records = impl_->records.load(std::memory_order_relaxed);
    st.fusedRecords = impl_->fusedRecords.load(std::memory_order_relaxed);
    return st;
}

InternStats
InstInterner::statsAllArchs()
{
    InternStats total;
    for (uarch::UArch a : uarch::allUArchs()) {
        InternStats st = forArch(a).stats();
        total.hits += st.hits;
        total.misses += st.misses;
        total.fusedHits += st.fusedHits;
        total.fusedMisses += st.fusedMisses;
        total.records += st.records;
        total.fusedRecords += st.fusedRecords;
    }
    return total;
}

} // namespace facile::analysis
