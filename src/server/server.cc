#include "server/server.h"

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "analysis/snapshot.h"
#include "server/frame_parser.h"
#include "server/mpsc_ring.h"
#include "server/net_util.h"
#include "server/write_queue.h"
#include "testing/fault.h"
#include "uarch/config.h"

namespace facile::server {

namespace {

using Clock = std::chrono::steady_clock;

} // namespace

struct PredictionServer::Impl
{
    /**
     * Every epoll registration's data.ptr points at one of these; the
     * kind tag dispatches the event (two listeners, the per-loop
     * wakeup eventfd, or a connection).
     */
    struct EvSource
    {
        enum class Kind : std::uint8_t {
            TcpListen,
            UnixListen,
            Wake,
            Conn
        };
        Kind kind;
        explicit EvSource(Kind k) : kind(k) {}
    };

    struct Loop;

    /**
     * One accepted connection. Threading contract:
     *   - parser, seenFrame, lastProgress: owning io thread only;
     *   - outq, wantWrite, and the socket writes/epoll interest: any
     *     thread, under writeMu;
     *   - fd and open are atomics so lock-free readers can bail early;
     *     the transition open->false (with fd close + epoll DEL)
     *     happens exactly once, under writeMu.
     */
    struct Conn : EvSource, std::enable_shared_from_this<Conn>
    {
        Conn() : EvSource(Kind::Conn) {}

        std::atomic<int> fd{-1};
        std::atomic<bool> open{true};
        Loop *loop = nullptr;

        FrameParser parser;
        bool seenFrame = false;
        Clock::time_point lastProgress;

        std::mutex writeMu;
        WriteQueue outq;
        bool wantWrite = false; ///< EPOLLOUT currently armed

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
        std::shared_ptr<Conn> conn;
        std::uint64_t id = 0;
        engine::Request req;
    };

    /** One epoll reader loop. conns/inbox feed io-thread-owned state. */
    struct Loop
    {
        std::size_t idx = 0;
        int epfd = -1;
        int wakeFd = -1;
        EvSource wakeTag{EvSource::Kind::Wake};
        std::thread thr;

        /** Io-thread owned; stop() touches it only after the join. */
        std::vector<std::shared_ptr<Conn>> conns;

        /** Connections accepted on loop 0 awaiting registration here. */
        std::mutex inboxMu;
        std::vector<std::shared_ptr<Conn>> inbox;

        /**
         * True from the moment epoll_wait returns events until the
         * loop finishes a pass in which no connection used up its
         * read budget, i.e. while part of a burst may still sit
         * unread in a socket. Written by the io thread only; the
         * collector reads it to close its admission window early.
         * Set before any request of the pass is pushed to the ring
         * and cleared after the last one, so a collector that sees it
         * clear and then finds the ring empty holds the whole burst.
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

    int tcpFd = -1;
    int unixFd = -1;
    int boundTcpPort = -1;
    EvSource tcpTag{EvSource::Kind::TcpListen};
    EvSource unixTag{EvSource::Kind::UnixListen};

    std::vector<std::unique_ptr<Loop>> loops;
    std::atomic<std::size_t> rrAssign{0};

    std::unique_ptr<MpscRing<Pending>> ring;
    int collectorWakeFd = -1;
    std::thread collector;

    /** Admitted-but-unsubmitted PREDICT requests (maxPending gate). */
    std::atomic<std::size_t> queuedCount{0};

    // Hot-path counters (per frame / per event, touched by io threads
    // and engine workers — atomics, no lock).
    std::atomic<std::uint64_t> requestCount{0};
    std::atomic<std::uint64_t> overloadedQueue{0};
    std::atomic<std::uint64_t> overloadedConn{0};
    std::atomic<std::uint64_t> readTimeouts{0};
    std::atomic<std::uint64_t> quotaClosed{0};
    std::atomic<std::uint64_t> connectionsShed{0};
    std::atomic<std::uint64_t> connectionsAccepted{0};
    std::atomic<std::uint64_t> connectionsOpen{0};
    std::atomic<std::uint64_t> epollWakeups{0};
    std::atomic<std::uint64_t> shortWrites{0};
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
                             : &engine::PredictionEngine::shared())
    {}

    ~Impl() { stop(); }

    // ---- connection lifecycle ---------------------------------------------

    /** Register @p conn in its owning loop's epoll (io thread of lp). */
    void
    registerConn(Loop &lp, const std::shared_ptr<Conn> &conn)
    {
        lp.conns.push_back(conn);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.ptr = static_cast<EvSource *>(conn.get());
        ::epoll_ctl(lp.epfd, EPOLL_CTL_ADD, conn->fd.load(), &ev);
    }

    /**
     * Close a connection exactly once: epoll deregistration + close
     * under writeMu so no other thread is mid-write on the fd. Any
     * thread may call it; the owning io loop reaps the carcass from
     * its conns list on the next sweep.
     */
    void
    dropConn(Conn &c)
    {
        std::lock_guard<std::mutex> lock(c.writeMu);
        dropConnLocked(c);
    }

    void
    dropConnLocked(Conn &c)
    {
        if (!c.open.exchange(false))
            return;
        const int f = c.fd.exchange(-1);
        if (f >= 0) {
            if (c.loop)
                ::epoll_ctl(c.loop->epfd, EPOLL_CTL_DEL, f, nullptr);
            ::close(f);
        }
        connectionsOpen.fetch_sub(1, std::memory_order_relaxed);
    }

    /** Arm or disarm EPOLLOUT. Requires writeMu; open fd. */
    void
    setWantWriteLocked(Conn &c, bool want)
    {
        if (c.wantWrite == want)
            return;
        const int f = c.fd.load();
        if (f < 0)
            return;
        epoll_event ev{};
        ev.events = EPOLLIN | (want ? EPOLLOUT : 0u);
        ev.data.ptr = static_cast<EvSource *>(&c);
        ::epoll_ctl(c.loop->epfd, EPOLL_CTL_MOD, f, &ev);
        c.wantWrite = want;
    }

    /**
     * Post-write bookkeeping shared by every writer (io-thread reply
     * flush, collector batch flush, EPOLLOUT resume). Requires
     * writeMu held and an open connection at call time.
     */
    void
    applyWriteResultLocked(Conn &c, WriteQueue::Result r)
    {
        switch (r) {
          case WriteQueue::Result::Drained:
            setWantWriteLocked(c, false);
            return;
          case WriteQueue::Result::Blocked:
            shortWrites.fetch_add(1, std::memory_order_relaxed);
            setWantWriteLocked(c, true);
            return;
          case WriteQueue::Result::PeerGone:
            dropConnLocked(c);
            return;
        }
    }

    /** Gather-write @p iov to @p conn; no-op once the peer is gone. */
    void
    writeConn(Conn &c, const iovec *iov, std::size_t n)
    {
        std::lock_guard<std::mutex> lock(c.writeMu);
        if (!c.open.load())
            return;
        applyWriteResultLocked(c, c.outq.writeGather(c.fd.load(), iov, n));
    }

    // ---- accept (runs on loop 0) ------------------------------------------

    void
    acceptReady(Loop &lp0, int listenFd, bool tcp)
    {
        for (;;) {
            int fd;
            const auto fa = testing::faultPoint("server.accept", 0);
            if (fa.err) {
                errno = fa.err;
                fd = -1;
            } else {
                fd = ::accept4(listenFd, nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
            }
            if (fd < 0) {
                if (errno == EINTR || errno == ECONNABORTED)
                    continue; // retry: more conns may be queued behind
                break; // EAGAIN, or listener closed by stop()
            }
            if (tcp) {
                int one = 1;
                ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                             sizeof one);
            }
            if (draining.load(std::memory_order_relaxed)) {
                // Drain mode: existing connections finish their work,
                // new ones are turned away at the door (same signal as
                // the connection cap — the close IS the answer).
                ::close(fd);
                connectionsShed.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            if (opts.maxConnections > 0 &&
                connectionsOpen.load(std::memory_order_relaxed) >=
                    opts.maxConnections) {
                // Accept-time shedding: no protocol exchange happened
                // yet, so there is no id to answer OVERLOADED on —
                // the close IS the backpressure signal.
                ::close(fd);
                connectionsShed.fetch_add(1, std::memory_order_relaxed);
                continue;
            }
            connectionsAccepted.fetch_add(1, std::memory_order_relaxed);
            connectionsOpen.fetch_add(1, std::memory_order_relaxed);

            auto conn = std::make_shared<Conn>();
            conn->fd.store(fd);
            conn->parser = FrameParser({opts.maxBufferedPerConn});
            conn->lastProgress = Clock::now();
            const std::size_t target =
                loops.size() == 1
                    ? 0
                    : rrAssign.fetch_add(1, std::memory_order_relaxed) %
                          loops.size();
            conn->loop = loops[target].get();
            if (target == lp0.idx) {
                registerConn(lp0, conn);
            } else {
                Loop &dst = *loops[target];
                {
                    std::lock_guard<std::mutex> lock(dst.inboxMu);
                    dst.inbox.push_back(std::move(conn));
                }
                wake(dst);
            }
        }
    }

    // EINTR audit (PR 8): these were bare ::write calls with the
    // result ignored — a signal landing exactly here silently lost the
    // wakeup and left the target loop asleep (up to a full sweep
    // interval for io loops, until the next unrelated wake for the
    // collector) with work already queued. signalWakeFd retries.
    void wake(Loop &lp) { signalWakeFd(lp.wakeFd); }

    void wakeCollector() { signalWakeFd(collectorWakeFd); }

    // ---- io loop ----------------------------------------------------------

    void
    ioLoop(Loop &lp)
    {
        constexpr int kMaxEvents = 128;
        epoll_event evs[kMaxEvents];
        std::vector<std::uint8_t> chunk(64 * 1024);
        std::vector<Pending> admitted;
        std::vector<std::uint8_t> reply;

        // Deadline sweep cadence: fine enough that a configured read
        // deadline is enforced within ~1.25x its nominal value, coarse
        // enough that an idle server wakes at most a few times/second.
        const int sweepMs =
            opts.readTimeoutMs > 0
                ? std::clamp(opts.readTimeoutMs / 4, 10, 1000)
                : 1000;
        auto nextSweep = Clock::now() + std::chrono::milliseconds(sweepMs);

        // Burst state (Loop::midBurst): the io thread's own copy, and
        // whether any request was admitted since the burst began.
        bool midBurst = false;
        bool burstAdmitted = false;

        while (!stopping.load(std::memory_order_acquire)) {
            const int timeout =
                msUntil(nextSweep, Clock::now(), sweepMs);
            int n;
            const auto fa = testing::faultPoint("server.epoll", 0);
            if (fa.err) {
                errno = fa.err;
                n = -1;
            } else {
                n = ::epoll_wait(lp.epfd, evs, kMaxEvents, timeout);
            }
            epollWakeups.fetch_add(1, std::memory_order_relaxed);
            if (n < 0 && errno != EINTR)
                break;
            if (stopping.load(std::memory_order_acquire))
                break;
            if (n > 0 && !midBurst) {
                midBurst = true;
                lp.midBurst.store(true, std::memory_order_release);
            }
            std::size_t passAdmitted = 0;
            bool budgetSpent = false;
            for (int i = 0; i < std::max(n, 0); ++i) {
                auto *src = static_cast<EvSource *>(evs[i].data.ptr);
                switch (src->kind) {
                  case EvSource::Kind::TcpListen:
                    acceptReady(lp, tcpFd, true);
                    break;
                  case EvSource::Kind::UnixListen:
                    acceptReady(lp, unixFd, false);
                    break;
                  case EvSource::Kind::Wake:
                    drainWakeFd(lp.wakeFd);
                    adoptInbox(lp);
                    break;
                  case EvSource::Kind::Conn: {
                    Conn &c = *static_cast<Conn *>(src);
                    if (!c.open.load(std::memory_order_relaxed))
                        break; // closed by another thread; reap later
                    if (evs[i].events & (EPOLLHUP | EPOLLERR)) {
                        dropConn(c);
                        break;
                    }
                    if (evs[i].events & EPOLLOUT)
                        resumeWrite(c);
                    if (evs[i].events & EPOLLIN) {
                        const ReadOutcome r = handleReadable(
                            c.shared_from_this(), chunk, admitted, reply);
                        passAdmitted += r.admitted;
                        budgetSpent |= r.budgetSpent;
                    }
                    break;
                  }
                }
            }
            const auto now = Clock::now();
            if (now >= nextSweep) {
                sweep(lp, now);
                nextSweep = now + std::chrono::milliseconds(sweepMs);
            }
            // An interrupted wait read nothing and says nothing about
            // whether the burst is over.
            if (n < 0)
                continue;
            // One collector wake per pass that admitted work, plus one
            // when a burst that admitted work ends in a pass that
            // admitted none, so the collector can close its window.
            burstAdmitted |= passAdmitted > 0;
            if (!budgetSpent && midBurst) {
                midBurst = false;
                lp.midBurst.store(false, std::memory_order_release);
            }
            if (passAdmitted > 0 || (!midBurst && burstAdmitted))
                wakeCollector();
            if (!midBurst)
                burstAdmitted = false;
        }
    }

    void
    adoptInbox(Loop &lp)
    {
        std::vector<std::shared_ptr<Conn>> fresh;
        {
            std::lock_guard<std::mutex> lock(lp.inboxMu);
            fresh.swap(lp.inbox);
        }
        for (auto &conn : fresh)
            registerConn(lp, conn);
    }

    /** EPOLLOUT: resume a partially-written response stream. */
    void
    resumeWrite(Conn &c)
    {
        std::lock_guard<std::mutex> lock(c.writeMu);
        if (!c.open.load())
            return;
        const WriteQueue::Result r = c.outq.flush(c.fd.load());
        // Still blocked => stay armed (no counter: the short write was
        // counted when the tail was first queued).
        if (r != WriteQueue::Result::Blocked)
            applyWriteResultLocked(c, r);
    }

    /**
     * Reap closed connections and enforce the read deadline: a
     * connection mid-frame (partial header or payload buffered) or
     * one that never completed a first frame (handshake) with no
     * progress for readTimeoutMs is dropped — the slowloris defense.
     * Idling between complete frames is never penalized.
     */
    void
    sweep(Loop &lp, Clock::time_point now)
    {
        const auto deadline =
            std::chrono::milliseconds(opts.readTimeoutMs);
        for (auto it = lp.conns.begin(); it != lp.conns.end();) {
            Conn &c = **it;
            if (!c.open.load(std::memory_order_relaxed)) {
                it = lp.conns.erase(it);
                continue;
            }
            if (opts.readTimeoutMs > 0 &&
                (c.parser.midFrame() || !c.seenFrame) &&
                now - c.lastProgress >= deadline) {
                readTimeouts.fetch_add(1, std::memory_order_relaxed);
                dropConn(c);
                it = lp.conns.erase(it);
                continue;
            }
            ++it;
        }
    }

    /** What one handleReadable call did, for the loop's burst state. */
    struct ReadOutcome
    {
        std::size_t admitted = 0; ///< requests pushed to the ring
        bool budgetSpent = false; ///< stopped with data likely unread
    };

    ReadOutcome
    handleReadable(const std::shared_ptr<Conn> &conn,
                   std::vector<std::uint8_t> &chunk,
                   std::vector<Pending> &admitted,
                   std::vector<std::uint8_t> &reply)
    {
        // Fairness bound: one greedy pipeline must not monopolize the
        // loop. Level-triggered epoll re-reports leftover data.
        constexpr int kReadBudget = 8;

        admitted.clear();
        reply.clear();
        ReadOutcome out;
        bool closed = false;
        bool abuse = false;
        std::size_t frames = 0;
        const int fd = conn->fd.load();

        int budget = kReadBudget;
        for (; budget > 0; --budget) {
            ssize_t n;
            const auto fa = testing::faultPoint("server.recv", chunk.size());
            if (fa.err) {
                errno = fa.err;
                n = -1;
            } else {
                n = ::recv(fd, chunk.data(),
                           std::min(chunk.size(), fa.clamp), 0);
            }
            if (n < 0 && errno == EINTR) {
                ++budget;
                continue;
            }
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            if (n <= 0) {
                closed = true; // EOF or hard error
                break;
            }
            if (!conn->parser.feed(chunk.data(),
                                   static_cast<std::size_t>(n))) {
                // Buffered-unparsed byte quota exceeded. Well-formed
                // traffic cannot get here (frames drain as they
                // complete), so treat it as abuse and drop the
                // connection.
                quotaClosed.fetch_add(1, std::memory_order_relaxed);
                closed = abuse = true;
                break;
            }
            FrameView f;
            while (conn->parser.next(f)) {
                handleFrame(conn, f.header, f.payload, admitted, reply);
                ++frames;
            }
            if (static_cast<std::size_t>(n) < chunk.size())
                break; // likely drained; epoll re-reports otherwise
        }
        out.budgetSpent = budget == 0;

        // Read-deadline bookkeeping (see sweep()): the clock resets
        // only when a frame completes or the buffer drains clean, and
        // never before the first frame.
        if (frames > 0)
            conn->seenFrame = true;
        if (conn->seenFrame &&
            (frames > 0 || !conn->parser.midFrame()))
            conn->lastProgress = Clock::now();

        // Admission before the control-reply flush: overflow shedding
        // appends its OVERLOADED responses to the same reply buffer,
        // so the whole answer goes out in one gather write.
        if (!admitted.empty())
            out.admitted = admitRequests(*conn, admitted, reply);
        if (!reply.empty() && !abuse &&
            conn->open.load(std::memory_order_relaxed)) {
            const iovec iov{
                const_cast<std::uint8_t *>(reply.data()), reply.size()};
            writeConn(*conn, &iov, 1);
        }
        if (closed)
            dropConn(*conn);
        return out;
    }

    /**
     * Push parsed PREDICT requests into the admission ring, bounded by
     * maxPending (and by the ring's own capacity); overflow is
     * answered OVERLOADED right here instead of buffered without
     * limit. Returns the number pushed; the io loop wakes the
     * collector once per pass, not per connection.
     */
    std::size_t
    admitRequests(Conn &conn, std::vector<Pending> &admitted,
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
    handleFrame(const std::shared_ptr<Conn> &conn, const RequestHeader &h,
                const std::uint8_t *payload, std::vector<Pending> &admitted,
                std::vector<std::uint8_t> &reply)
    {
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
            if (opts.maxInFlightPerConn > 0 &&
                conn->inflight.load(std::memory_order_relaxed) >=
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
            conn->inflight.fetch_add(1, std::memory_order_relaxed);
            Pending p;
            p.conn = conn;
            p.id = h.id;
            p.req.bytes.assign(payload, payload + h.len);
            p.req.arch = static_cast<uarch::UArch>(h.arch);
            p.req.loop = (h.flags & kFlagLoop) != 0;
            p.req.payload = (h.flags & kFlagExplain)
                                ? model::Payload::Full
                                : model::Payload::None;
            p.req.config = model::ModelConfig::fromBits(h.config);
            admitted.push_back(std::move(p));
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
        std::shared_ptr<Conn> conn;
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
        for (const auto &lp : loops)
            if (lp->midBurst.load(std::memory_order_acquire))
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
                    // Loop::midBurst): a loop that is idle here has
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
            counters.analysisCacheHits += bs.analysisCacheHits;
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
            writeConn(*e.conn, e.iov.data(), e.iov.size());
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
            // An image that could not be mmap-bound (failed mmap,
            // unaligned foreign image) still warm-starts via the
            // eager parse — count the lost O(pages-touched) start as
            // a degradation alongside generation fallbacks.
            if (st.loadMode == analysis::SnapshotLoadMode::EagerV2)
                snapshotFallbacks.fetch_add(1, std::memory_order_relaxed);
            snapshotLoadMode.store(
                static_cast<std::uint64_t>(st.loadMode),
                std::memory_order_relaxed);
            std::fprintf(
                stderr,
                "warm start: %zu records, %zu predictions from %s"
                " (generation %zu, %s)\n",
                st.records, st.predictions,
                analysis::snapshotGenerationPath(
                    opts.snapshotLoadPath, static_cast<int>(st.generation))
                    .c_str(),
                st.generation,
                st.loadMode == analysis::SnapshotLoadMode::MmapV2
                    ? "v2 mmap"
                    : "v2 eager parse");
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
        s.readTimeouts = readTimeouts.load(std::memory_order_relaxed);
        s.quotaClosed = quotaClosed.load(std::memory_order_relaxed);
        s.connectionsShed =
            connectionsShed.load(std::memory_order_relaxed);
        s.connectionsAccepted =
            connectionsAccepted.load(std::memory_order_relaxed);
        s.connectionsOpen =
            connectionsOpen.load(std::memory_order_relaxed);
        s.epollWakeups = epollWakeups.load(std::memory_order_relaxed);
        s.shortWrites = shortWrites.load(std::memory_order_relaxed);
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
        if (!opts.unixPath.empty())
            unixFd = listenUnix(opts.unixPath);
        if (opts.tcpPort >= 0) {
            try {
                tcpFd = listenTcp(opts.tcpHost, opts.tcpPort, boundTcpPort);
            } catch (...) {
                if (unixFd >= 0) {
                    ::close(unixFd);
                    ::unlink(opts.unixPath.c_str());
                    unixFd = -1;
                }
                throw;
            }
        }

        ring = std::make_unique<MpscRing<Pending>>(
            opts.maxPending > 0 ? opts.maxPending : 65536);
        collectorWakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
        if (collectorWakeFd < 0)
            throwErrno("eventfd");

        const int nLoops = std::max(1, opts.ioThreads);
        loops.clear();
        for (int i = 0; i < nLoops; ++i) {
            auto lp = std::make_unique<Loop>();
            lp->idx = static_cast<std::size_t>(i);
            lp->epfd = ::epoll_create1(EPOLL_CLOEXEC);
            lp->wakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
            if (lp->epfd < 0 || lp->wakeFd < 0)
                throwErrno("epoll_create1/eventfd");
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.ptr = &lp->wakeTag;
            ::epoll_ctl(lp->epfd, EPOLL_CTL_ADD, lp->wakeFd, &ev);
            loops.push_back(std::move(lp));
        }
        // Loop 0 owns the listeners; accepted connections are assigned
        // round-robin across loops.
        if (tcpFd >= 0) {
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.ptr = &tcpTag;
            ::epoll_ctl(loops[0]->epfd, EPOLL_CTL_ADD, tcpFd, &ev);
        }
        if (unixFd >= 0) {
            epoll_event ev{};
            ev.events = EPOLLIN;
            ev.data.ptr = &unixTag;
            ::epoll_ctl(loops[0]->epfd, EPOLL_CTL_ADD, unixFd, &ev);
        }

        running.store(true);
        collector = std::thread([this] { collectorLoop(); });
        for (auto &lp : loops) {
            Loop *p = lp.get();
            p->thr = std::thread([this, p] { ioLoop(*p); });
        }
    }

    void
    stop()
    {
        if (!running.exchange(false))
            return;
        stopping.store(true, std::memory_order_release);

        // 1. Wake and join the io loops. They stop accepting and
        //    reading immediately but leave every connection fd open,
        //    so the drain below can still deliver answers.
        for (auto &lp : loops)
            wake(*lp);
        for (auto &lp : loops)
            if (lp->thr.joinable())
                lp->thr.join();

        // 2. Drain the collector: with the producers joined, it
        //    empties the ring, submits the final batches, and writes
        //    the responses directly (EPOLLOUT resume is gone with the
        //    io threads, so a blocked tail stays queued — accepted
        //    loss, the process is exiting the serving loop).
        wakeCollector();
        if (collector.joinable())
            collector.join();

        // 3. Now tear the sockets down.
        for (auto &lp : loops) {
            for (auto &c : lp->conns)
                dropConn(*c);
            lp->conns.clear();
            {
                std::lock_guard<std::mutex> lock(lp->inboxMu);
                for (auto &c : lp->inbox)
                    dropConn(*c);
                lp->inbox.clear();
            }
            if (lp->epfd >= 0)
                ::close(lp->epfd);
            if (lp->wakeFd >= 0)
                ::close(lp->wakeFd);
        }
        loops.clear();
        if (collectorWakeFd >= 0) {
            ::close(collectorWakeFd);
            collectorWakeFd = -1;
        }
        if (tcpFd >= 0)
            ::close(tcpFd);
        if (unixFd >= 0) {
            ::close(unixFd);
            ::unlink(opts.unixPath.c_str());
        }
        tcpFd = unixFd = -1;
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
    return impl_->boundTcpPort;
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
