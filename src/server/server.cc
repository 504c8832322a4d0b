#include "server/server.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/snapshot.h"
#include "server/event_loop.h"
#include "server/mpsc_ring.h"
#include "server/net_util.h"
#include "testing/fault.h"
#include "uarch/config.h"

namespace facile::server {

struct PredictionServer::Impl : LoopHandler
{
    /** An accepted connection (event_loop.h) plus its PREDICT quota. */
    struct ServerConn : Conn
    {
        /**
         * PREDICT requests admitted but not yet answered, gating the
         * per-connection in-flight quota. Incremented at admission,
         * decremented by engine workers as responses are serialized —
         * both sides relaxed; the quota is a bound, not a
         * synchronization point.
         */
        std::atomic<std::size_t> inflight{0};
    };

    /** One admitted PREDICT request traveling through the ring. */
    struct Pending
    {
        std::shared_ptr<ServerConn> conn;
        std::uint64_t id = 0;
        engine::Request req;
    };

    /** One io loop's admission state, indexed by Loop::idx. */
    struct IoState
    {
        // Io-thread owned: the thread's copy of midBurst, whether any
        // request was admitted since the burst began, this pass's
        // admissions, and one read's parsed PREDICTs and inline
        // replies.
        bool reading = false;
        bool burstAdmitted = false;
        std::size_t passAdmitted = 0;
        std::vector<Pending> admitted;
        std::vector<std::uint8_t> reply;

        /**
         * True from the moment epoll_wait returns events until the
         * loop finishes a pass in which no connection used up its
         * read budget, i.e. while part of a burst may still sit
         * unread in a socket. Written by the io thread only; the
         * collector reads it to close its admission window early.
         * Set before any request of the pass is pushed to the ring
         * and cleared after the last one, so a collector that sees it
         * clear and then finds the ring empty holds the whole burst.
         * Last and on its own cache line: the collector polls it while
         * the io thread writes the fields above.
         */
        alignas(64) std::atomic<bool> midBurst{false};
    };

    ServerOptions opts;
    engine::PredictionEngine *engine = nullptr;

    std::atomic<bool> running{false};
    std::atomic<bool> stopping{false};
    /**
     * Graceful-degradation latch (drain()): accept no new
     * connections, shed new PREDICT work with Status::Draining, keep
     * answering control ops and flushing batches already admitted.
     * One-way until the next start().
     */
    std::atomic<bool> draining{false};
    Clock::time_point startTime;

    EventLoop net;
    std::vector<std::unique_ptr<IoState>> io;

    std::unique_ptr<MpscRing<Pending>> ring;
    int collectorWakeFd = -1;
    std::thread collector;

    /** Admitted-but-unsubmitted PREDICT requests (maxPending gate). */
    std::atomic<std::size_t> queuedCount{0};

    // Hot-path counters (per frame / per event, touched by io threads
    // and engine workers — atomics, no lock). The connection and io
    // counters live in net.stats.
    std::atomic<std::uint64_t> requestCount{0};
    std::atomic<std::uint64_t> overloadedQueue{0};
    std::atomic<std::uint64_t> overloadedConn{0};
    std::atomic<std::uint64_t> ringFull{0};
    std::atomic<std::uint64_t> drainSheds{0};
    std::atomic<std::uint64_t> snapshotFallbacks{0};
    std::atomic<std::uint64_t> snapshotLoadMode{0};
    std::atomic<std::uint64_t> snapshotFetches{0};

    mutable std::mutex statsMu;
    ServerStats counters; ///< batch-grained; merged on read

    std::mutex snapshotMu; ///< serializes concurrent snapshot saves

    explicit Impl(ServerOptions o)
        : opts(std::move(o)),
          engine(opts.engine ? opts.engine
                             : &engine::PredictionEngine::shared()),
          net(*this, {.unixPath = opts.unixPath,
                      .tcpPort = opts.tcpPort,
                      .tcpHost = opts.tcpHost,
                      .loops = opts.ioThreads,
                      .maxConnections = opts.maxConnections,
                      .readTimeoutMs = opts.readTimeoutMs,
                      .maxBufferedPerConn = opts.maxBufferedPerConn})
    {}

    ~Impl() override { stop(); }

    // signalWakeFd retries EINTR: a lost wakeup would leave the
    // collector asleep, with work queued, until an unrelated wake.
    void wakeCollector() { signalWakeFd(collectorWakeFd); }

    // ---- io loop hooks (event_loop.h) --------------------------------------

    std::shared_ptr<Conn>
    newConn() override
    {
        return std::make_shared<ServerConn>();
    }

    /**
     * Drain mode: existing connections finish their work, new ones are
     * turned away at the door (same signal as the connection cap — the
     * close IS the answer).
     */
    bool
    refuseNew() override
    {
        return draining.load(std::memory_order_relaxed);
    }

    void
    onReadDone(const std::shared_ptr<Conn> &conn, bool abuse) override
    {
        IoState &st = *io[conn->loop->idx];
        // Admission before the control-reply flush: overflow shedding
        // appends its OVERLOADED responses to the same reply buffer,
        // so the whole answer goes out in one gather write.
        if (!st.admitted.empty())
            st.passAdmitted += admitRequests(
                static_cast<ServerConn &>(*conn), st.admitted, st.reply);
        if (!st.reply.empty() && !abuse)
            conn->write(st.reply);
        st.admitted.clear();
        st.reply.clear();
    }

    void
    onPassBegin(Loop &lp, int n) override
    {
        IoState &st = *io[lp.idx];
        if (n > 0 && !st.reading) {
            st.reading = true;
            st.midBurst.store(true, std::memory_order_release);
        }
    }

    void
    onPassEnd(Loop &lp, int n, bool budgetSpent) override
    {
        IoState &st = *io[lp.idx];
        const std::size_t passAdmitted = std::exchange(st.passAdmitted, 0);
        // An interrupted wait read nothing and says nothing about
        // whether the burst is over.
        if (n < 0)
            return;
        // One collector wake per pass that admitted work, plus one
        // when a burst that admitted work ends in a pass that
        // admitted none, so the collector can close its window.
        st.burstAdmitted |= passAdmitted > 0;
        if (!budgetSpent && st.reading) {
            st.reading = false;
            st.midBurst.store(false, std::memory_order_release);
        }
        if (passAdmitted > 0 || (!st.reading && st.burstAdmitted))
            wakeCollector();
        if (!st.reading)
            st.burstAdmitted = false;
    }

    /**
     * Push parsed PREDICT requests into the admission ring, bounded by
     * maxPending (and by the ring's own capacity); overflow is
     * answered OVERLOADED right here instead of buffered without
     * limit. Returns the number pushed; the io loop wakes the
     * collector once per pass, not per connection.
     */
    std::size_t
    admitRequests(ServerConn &conn, std::vector<Pending> &admitted,
                  std::vector<std::uint8_t> &reply)
    {
        std::size_t accepted = 0;
        for (Pending &p : admitted) {
            bool ok = true;
            if (opts.maxPending > 0) {
                const std::size_t q = queuedCount.fetch_add(
                    1, std::memory_order_relaxed);
                if (q >= opts.maxPending) {
                    queuedCount.fetch_sub(1, std::memory_order_relaxed);
                    overloadedQueue.fetch_add(
                        1, std::memory_order_relaxed);
                    ok = false;
                }
            }
            if (ok && !ring->tryPush(std::move(p))) {
                if (opts.maxPending > 0)
                    queuedCount.fetch_sub(1, std::memory_order_relaxed);
                ringFull.fetch_add(1, std::memory_order_relaxed);
                ok = false;
            }
            if (ok) {
                ++accepted;
            } else {
                appendStatusResponse(reply, p.id, Op::Predict,
                                     Status::Overloaded);
                conn.inflight.fetch_sub(1, std::memory_order_relaxed);
            }
        }
        return accepted;
    }

    void
    onFrame(const std::shared_ptr<Conn> &conn, const FrameView &f) override
    {
        const RequestHeader &h = f.header;
        const std::uint8_t *payload = f.payload;
        IoState &st = *io[conn->loop->idx];
        std::vector<std::uint8_t> &reply = st.reply;
        requestCount.fetch_add(1, std::memory_order_relaxed);
        switch (static_cast<Op>(h.op)) {
          case Op::Ping:
            appendStatusResponse(reply, h.id, Op::Ping, Status::Ok);
            return;
          case Op::Stats:
            appendStatsResponse(reply, h.id, snapshotStats());
            return;
          case Op::Snapshot:
            // Admin frame, dispatched on the first payload byte (an
            // empty payload is the pre-subop SAVE encoding). Both
            // subops run on this io thread — rare by construction;
            // they stall this loop's connections for the few ms of
            // the save while other loops and the collector keep
            // serving.
            if (h.len == 0 || payload[0] == kSnapshotSubopSave) {
                // SAVE: path is operator-configured, never
                // wire-supplied.
                appendStatusResponse(reply, h.id, Op::Snapshot,
                                     saveSnapshotNow()
                                         ? Status::Ok
                                         : Status::BadRequest);
            } else if (payload[0] == kSnapshotSubopFetch) {
                serveSnapshotFetch(h.id, reply);
            } else {
                // A subop this build doesn't know: reject rather
                // than guess (the requester may be newer than us).
                appendStatusResponse(reply, h.id, Op::Snapshot,
                                     Status::BadRequest);
            }
            return;
          case Op::Health:
            appendHealthResponse(reply, h.id,
                                 draining.load(std::memory_order_relaxed)
                                     ? HealthState::Draining
                                     : HealthState::Ready);
            return;
          case Op::Predict: {
            if (h.arch >= uarch::allUArchs().size() ||
                h.len > kMaxBlockBytes) {
                appendStatusResponse(reply, h.id, Op::Predict,
                                     Status::BadRequest);
                return;
            }
            if (draining.load(std::memory_order_relaxed)) {
                // Graceful shutdown: batches already admitted still
                // flush, but new work is declined with a status that
                // tells the client to go elsewhere — unlike Overloaded
                // this is not transient on THIS replica.
                drainSheds.fetch_add(1, std::memory_order_relaxed);
                appendStatusResponse(reply, h.id, Op::Predict,
                                     Status::Draining);
                return;
            }
            auto &sc = static_cast<ServerConn &>(*conn);
            if (opts.maxInFlightPerConn > 0 &&
                sc.inflight.load(std::memory_order_relaxed) >=
                    opts.maxInFlightPerConn) {
                // Per-connection backpressure: this peer already has
                // a full quota of unanswered predictions; shedding
                // here keeps one greedy pipeline from monopolizing
                // the admission ring.
                overloadedConn.fetch_add(1, std::memory_order_relaxed);
                appendStatusResponse(reply, h.id, Op::Predict,
                                     Status::Overloaded);
                return;
            }
            sc.inflight.fetch_add(1, std::memory_order_relaxed);
            Pending p;
            p.conn = std::static_pointer_cast<ServerConn>(conn);
            p.id = h.id;
            p.req.bytes.assign(payload, payload + h.len);
            p.req.arch = static_cast<uarch::UArch>(h.arch);
            p.req.loop = (h.flags & kFlagLoop) != 0;
            p.req.payload = (h.flags & kFlagExplain)
                                ? model::Payload::Full
                                : model::Payload::None;
            p.req.config = model::ModelConfig::fromBits(h.config);
            st.admitted.push_back(std::move(p));
            return;
          }
          default:
            appendStatusResponse(reply, h.id, static_cast<Op>(h.op),
                                 Status::BadRequest);
            return;
        }
    }

    // ---- admission batching ----------------------------------------------

    /** Per-worker response staging: worker w owns workerBufs[w]. */
    struct ConnBuf
    {
        std::shared_ptr<ServerConn> conn;
        std::vector<std::uint8_t> buf;
    };

    /** Scatter-gather flush unit: one conn, its per-worker buffers. */
    struct FlushEntry
    {
        Conn *conn = nullptr;
        std::vector<iovec> iov;
    };

    bool
    anyLoopMidBurst() const
    {
        for (const auto &st : io)
            if (st->midBurst.load(std::memory_order_acquire))
                return true;
        return false;
    }

    /** Pop everything available, up to @p room more entries. */
    std::size_t
    drainRing(std::vector<Pending> &batch, std::size_t room)
    {
        Pending p;
        std::size_t got = 0;
        while (got < room && ring->tryPop(p)) {
            batch.push_back(std::move(p));
            ++got;
        }
        return got;
    }

    void
    collectorLoop()
    {
        std::vector<Pending> batch;
        std::vector<engine::Request> reqs;
        std::vector<std::size_t> order; // batch index, submission order
        std::vector<std::vector<ConnBuf>> workerBufs(
            static_cast<std::size_t>(engine->numThreads()));
        std::vector<FlushEntry> flushes;

        const std::size_t cap =
            opts.maxBatch > 0 ? opts.maxBatch : ring->capacity();

        for (;;) {
            batch.clear();
            // Block until the first request of a burst (or shutdown:
            // the ring is drained before exiting, so every admitted
            // request still gets an answer while stop() holds the
            // connection fds open).
            while (drainRing(batch, 1) == 0) {
                if (stopping.load(std::memory_order_acquire))
                    return;
                pollfd pf{collectorWakeFd, POLLIN, 0};
                // EINTR (or any failure) is benign here: the loop
                // re-checks the ring and stop flag either way.
                const auto fa =
                    testing::faultPoint("server.collector_poll", 0);
                if (!fa.err)
                    ::poll(&pf, 1, -1);
                drainWakeFd(collectorWakeFd);
            }
            // Admission window: gather the rest of the burst, and
            // submit as soon as it has been read — the ring is drained
            // and no io loop is mid-burst. maxBatch pending and the
            // batchWindowUs deadline only bound the wait. ppoll keeps
            // the sub-millisecond deadline.
            if (opts.batchWindowUs > 0) {
                const auto deadline =
                    Clock::now() +
                    std::chrono::microseconds(opts.batchWindowUs);
                while (batch.size() < cap &&
                       !stopping.load(std::memory_order_acquire)) {
                    // Read the burst state before draining (see
                    // IoState::midBurst): a loop that is idle here has
                    // already pushed every request of its burst.
                    const bool reading = anyLoopMidBurst();
                    if (drainRing(batch, cap - batch.size()) > 0)
                        continue;
                    if (!reading)
                        break;
                    const auto now = Clock::now();
                    if (now >= deadline)
                        break;
                    const auto ns =
                        std::chrono::duration_cast<
                            std::chrono::nanoseconds>(deadline - now);
                    timespec ts{};
                    ts.tv_sec =
                        static_cast<time_t>(ns.count() / 1000000000);
                    ts.tv_nsec =
                        static_cast<long>(ns.count() % 1000000000);
                    pollfd pf{collectorWakeFd, POLLIN, 0};
                    const auto fa =
                        testing::faultPoint("server.collector_poll", 0);
                    if (!fa.err)
                        ::ppoll(&pf, 1, &ts, nullptr);
                    drainWakeFd(collectorWakeFd);
                }
            }
            // Final sweep: submit everything pending, not just
            // maxBatch — closing the window early must not split one
            // burst into several engine fan-outs (the ring bounds the
            // sweep). This matches the pre-event-loop collector, which
            // grabbed the whole admission queue at window close.
            drainRing(batch, ring->capacity());
            if (opts.maxPending > 0)
                queuedCount.fetch_sub(batch.size(),
                                      std::memory_order_relaxed);
            submitBatch(batch, reqs, order, workerBufs, flushes);
        }
    }

    void
    submitBatch(std::vector<Pending> &batch,
                std::vector<engine::Request> &reqs,
                std::vector<std::size_t> &order,
                std::vector<std::vector<ConnBuf>> &workerBufs,
                std::vector<FlushEntry> &flushes)
    {
        // Group requests per arch (stable counting sort) so one engine
        // fan-out walks each arch's cache shards and uop tables
        // contiguously. Single-arch batches — the common production
        // shape — skip the permutation entirely.
        constexpr std::size_t kArches = 256; // arch is a wire byte
        std::size_t cnt[kArches + 1] = {};
        for (const Pending &p : batch)
            ++cnt[static_cast<std::size_t>(p.req.arch) + 1];
        const bool singleArch =
            cnt[static_cast<std::size_t>(batch.front().req.arch) + 1] ==
            batch.size();

        order.clear();
        if (singleArch) {
            for (std::size_t i = 0; i < batch.size(); ++i)
                order.push_back(i);
        } else {
            for (std::size_t a = 1; a <= kArches; ++a)
                cnt[a] += cnt[a - 1];
            order.resize(batch.size());
            for (std::size_t i = 0; i < batch.size(); ++i)
                order[cnt[static_cast<std::size_t>(
                    batch[i].req.arch)]++] = i;
        }

        reqs.clear();
        reqs.reserve(order.size());
        for (std::size_t i : order)
            reqs.push_back(std::move(batch[i].req));

        // Zero-copy serving: each engine worker serializes predictions
        // straight from the cache into its own per-connection staging
        // buffer (no Prediction copies, no locks between workers).
        // Responses are matched by id, so the worker interleaving is
        // invisible to clients.
        for (auto &bufs : workerBufs) {
            for (auto it = bufs.begin(); it != bufs.end();) {
                it->buf.clear(); // keep capacity across batches
                if (!it->conn->open.load())
                    it = bufs.erase(it);
                else
                    ++it;
            }
        }
        engine::BatchStats bs;
        engine->predictBatchVisit(
            reqs,
            [&](int worker, std::size_t k,
                const model::Prediction &pred) {
                Pending &p = batch[order[k]];
                p.conn->inflight.fetch_sub(1,
                                           std::memory_order_relaxed);
                auto &bufs = workerBufs[static_cast<std::size_t>(worker)];
                ConnBuf *cb = nullptr;
                for (auto &b : bufs)
                    if (b.conn.get() == p.conn.get()) {
                        cb = &b;
                        break;
                    }
                if (!cb) {
                    bufs.push_back({p.conn, {}});
                    cb = &bufs.back();
                }
                appendPredictResponse(cb->buf, p.id, pred);
            },
            &bs);
        {
            std::lock_guard<std::mutex> lock(statsMu);
            counters.predictions += reqs.size();
            ++counters.batches;
            counters.maxBatch =
                std::max<std::uint64_t>(counters.maxBatch, reqs.size());
            counters.predictionCacheHits += bs.predictionCacheHits;
            counters.analyzed += bs.analyzed;
        }

        // Scatter-gather flush: group every worker's buffer for the
        // same connection into one iovec list and push it with a
        // single vectored write. A short write leaves the tail in the
        // connection's WriteQueue and arms EPOLLOUT on its io loop;
        // closed peers drop silently.
        flushes.clear();
        for (auto &bufs : workerBufs) {
            for (auto &b : bufs) {
                if (b.buf.empty())
                    continue;
                FlushEntry *fe = nullptr;
                for (auto &e : flushes)
                    if (e.conn == b.conn.get()) {
                        fe = &e;
                        break;
                    }
                if (!fe) {
                    flushes.push_back({b.conn.get(), {}});
                    fe = &flushes.back();
                }
                fe->iov.push_back(
                    {b.buf.data(), b.buf.size()});
            }
        }
        for (FlushEntry &e : flushes)
            e.conn->write(e.iov.data(), e.iov.size());
    }

    // ---- warm-start snapshot ----------------------------------------------

    /**
     * Warm start from ServerOptions::snapshotLoadPath before serving.
     * Crash recovery path: loadSnapshot walks the generation chain, so
     * a snapshot torn by a SIGKILL mid-save falls back to the previous
     * good one (counted in snapshotFallbacks); when NO generation
     * loads, the server starts cold rather than refusing to serve —
     * availability over warmth. Never throws.
     */
    void
    loadSnapshotAtStart()
    {
        if (opts.snapshotLoadPath.empty())
            return;
        try {
            const analysis::SnapshotStats st = analysis::loadSnapshot(
                opts.snapshotLoadPath, {engine, opts.snapshotGenerations});
            snapshotFallbacks.fetch_add(st.generation,
                                        std::memory_order_relaxed);
            snapshotLoadMode.store(
                static_cast<std::uint64_t>(st.loadMode),
                std::memory_order_relaxed);
            std::fprintf(
                stderr,
                "warm start: %zu predictions from %s (generation %zu)\n",
                st.predictions,
                analysis::snapshotGenerationPath(
                    opts.snapshotLoadPath, static_cast<int>(st.generation))
                    .c_str(),
                st.generation);
        } catch (const std::exception &e) {
            snapshotFallbacks.fetch_add(
                static_cast<std::uint64_t>(
                    std::max(1, opts.snapshotGenerations)),
                std::memory_order_relaxed);
            std::fprintf(stderr, "warm start unavailable, cold start: %s\n",
                         e.what());
        }
    }

    bool
    saveSnapshotNow()
    {
        if (opts.snapshotPath.empty())
            return false;
        std::lock_guard<std::mutex> lock(snapshotMu);
        try {
            analysis::saveSnapshot(opts.snapshotPath,
                                   {engine, opts.snapshotGenerations});
            return true;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "snapshot save failed: %s\n", e.what());
            return false;
        }
    }

    /**
     * SNAPSHOT-fetch subop: serialize the live universe to an image in
     * memory and stream it back as chunk frames. The image is
     * byte-deterministic, so a wire fetch digests identically to a
     * local save of the same state.
     */
    void
    serveSnapshotFetch(std::uint64_t id, std::vector<std::uint8_t> &reply)
    {
        std::vector<std::uint8_t> img;
        {
            std::lock_guard<std::mutex> lock(snapshotMu);
            try {
                img = analysis::saveSnapshotToMemory({engine, 1});
            } catch (const std::exception &e) {
                std::fprintf(stderr, "snapshot fetch failed: %s\n",
                             e.what());
                appendStatusResponse(reply, id, Op::Snapshot,
                                     Status::BadRequest);
                return;
            }
        }
        appendSnapshotStream(reply, id, img.data(), img.size());
        snapshotFetches.fetch_add(1, std::memory_order_relaxed);
    }

    // ---- stats ------------------------------------------------------------

    ServerStats
    snapshotStats() const
    {
        ServerStats s;
        {
            std::lock_guard<std::mutex> lock(statsMu);
            s = counters;
        }
        s.requests = requestCount.load(std::memory_order_relaxed);
        s.overloadedQueue =
            overloadedQueue.load(std::memory_order_relaxed);
        s.overloadedConn =
            overloadedConn.load(std::memory_order_relaxed);
        net.stats.fill(s);
        s.ringFull = ringFull.load(std::memory_order_relaxed);
        // reconnects/retriedRequests are client-side counters; a
        // server always reports 0 (ResilientClient::stats() fills
        // them in on its side of the wire).
        s.drainSheds = drainSheds.load(std::memory_order_relaxed);
        s.snapshotFallbacks =
            snapshotFallbacks.load(std::memory_order_relaxed);
        s.snapshotLoadMode =
            snapshotLoadMode.load(std::memory_order_relaxed);
        s.snapshotFetchesServed =
            snapshotFetches.load(std::memory_order_relaxed);
        // routedPredicts/backendFailovers/convergenceMerges are
        // router- and replica-daemon-side counters (cluster::Router,
        // cluster::ConvergenceLoop); a backend server reports 0.
        s.uptimeMs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - startTime)
                .count());
        return s;
    }

    // ---- lifecycle ---------------------------------------------------------

    void
    start()
    {
        if (running.load())
            return;
        if (opts.unixPath.empty() && opts.tcpPort < 0)
            throw std::runtime_error(
                "PredictionServer: no listener configured");
        loadSnapshotAtStart();
        startTime = Clock::now();
        stopping.store(false);
        draining.store(false);
        net.open();

        ring = std::make_unique<MpscRing<Pending>>(
            opts.maxPending > 0 ? opts.maxPending : 65536);
        collectorWakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        if (collectorWakeFd < 0)
            throwErrno("eventfd");
        io.clear();
        for (std::size_t i = 0; i < net.numLoops(); ++i)
            io.push_back(std::make_unique<IoState>());

        running.store(true);
        collector = std::thread([this] { collectorLoop(); });
        net.start();
    }

    void
    stop()
    {
        if (!running.exchange(false))
            return;
        stopping.store(true, std::memory_order_release);

        // 1. Stop the io loops. They stop accepting and reading
        //    immediately but leave every connection fd open, so the
        //    drain below can still deliver answers.
        net.stop();

        // 2. Drain the collector: with the producers joined, it
        //    empties the ring, submits the final batches, and writes
        //    the responses directly (EPOLLOUT resume is gone with the
        //    io threads, so a blocked tail stays queued — accepted
        //    loss, the process is exiting the serving loop).
        wakeCollector();
        if (collector.joinable())
            collector.join();

        // 3. Now tear the sockets down.
        net.close();
        if (collectorWakeFd >= 0) {
            ::close(collectorWakeFd);
            collectorWakeFd = -1;
        }
        ring.reset();
    }
};

PredictionServer::PredictionServer(ServerOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts)))
{}

PredictionServer::~PredictionServer()
{
    impl_->stop();
}

void
PredictionServer::start()
{
    impl_->start();
}

void
PredictionServer::stop()
{
    impl_->stop();
}

void
PredictionServer::drain()
{
    impl_->draining.store(true, std::memory_order_release);
}

bool
PredictionServer::draining() const
{
    return impl_->draining.load(std::memory_order_acquire);
}

int
PredictionServer::tcpPort() const
{
    return impl_->net.tcpPort();
}

const std::string &
PredictionServer::unixPath() const
{
    return impl_->opts.unixPath;
}

ServerStats
PredictionServer::stats() const
{
    return impl_->snapshotStats();
}

bool
PredictionServer::saveSnapshot()
{
    return impl_->saveSnapshotNow();
}

} // namespace facile::server
