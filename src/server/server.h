/**
 * @file
 * Streaming prediction server: exposes the batched PredictionEngine
 * over TCP and Unix-domain sockets with the framed binary protocol of
 * protocol.h.
 *
 * Architecture (one process, no external dependencies): an
 * event-driven data plane — readiness-driven nonblocking I/O instead
 * of a thread per connection, so thousands of mostly-idle connections
 * cost file descriptors, not stacks and context switches.
 *
 *   io loops (1..ioThreads, each an epoll over nonblocking sockets;
 *             the event-loop core of event_loop.h)
 *       accept (loop 0) -> connections assigned round-robin
 *       EPOLLIN: recv -> FrameParser -> control ops answered inline,
 *                PREDICT requests admitted through a bounded
 *                lock-free MPSC ring (mpsc_ring.h)
 *            |
 *            v
 *   admission ring  --  collector thread drains the ring, groups
 *                       requests until the burst has been read (ring
 *                       empty, no io loop mid-burst) -- batchWindowUs
 *                       and maxBatch only bound the wait -- orders
 *                       them arch-major, and submits ONE engine batch
 *            |
 *            v
 *   PredictionEngine (worker pool, sharded two-generation caches,
 *                     zero-alloc hot paths; workers serialize
 *                     responses straight from the cache into
 *                     per-(worker, connection) buffers)
 *            |
 *            v
 *   scatter-gather flush: one writev-style sendmsg gathers a
 *   connection's buffers (write_queue.h); a short write queues the
 *   unsent tail and EPOLLOUT on the owning io loop resumes it
 *
 * The admission batching is what lets wire serving inherit the batch
 * engine's economics: a burst of N requests from any mix of clients
 * costs one pool fan-out, and repeated blocks collapse into cache
 * hits. Responses carry the client-chosen request id, so clients may
 * pipeline arbitrarily deep; per-connection frame order across batches
 * follows submission order of the batches, but within one batch the
 * order is the engine's — match by id.
 */
#ifndef FACILE_SERVER_SERVER_H
#define FACILE_SERVER_SERVER_H

#include <cstdint>
#include <memory>
#include <string>

#include "analysis/snapshot.h"
#include "server/protocol.h"

namespace facile::server {

struct ServerOptions
{
    /** Unix-domain socket path; empty disables the UDS listener. */
    std::string unixPath;

    /**
     * TCP listen port; -1 disables the TCP listener, 0 binds an
     * ephemeral port (query it with tcpPort() after start()).
     */
    int tcpPort = -1;

    /** TCP bind address. Loopback by default; widen deliberately. */
    std::string tcpHost = "127.0.0.1";

    /**
     * Upper bound on the admission window, in microseconds. After the
     * first request of a batch arrives, the collector keeps gathering
     * until the burst has been read: the ring is empty and no io loop
     * is mid-burst, i.e. still reading a connection that used up its
     * read budget in the last pass. So a burst coalesces into one
     * engine fan-out, while a lone request is submitted at once
     * instead of waiting out the window. The window never stays open
     * longer than this. 0 submits whatever is pending immediately,
     * without waiting for the rest of a burst.
     */
    int batchWindowUs = 200;

    /** Admission batch size that closes the window early (a bound). */
    std::size_t maxBatch = 1024;

    /**
     * Number of epoll reader loops (io threads). One loop drives
     * thousands of connections on this protocol; shard only when the
     * reader side itself saturates a core. Loop 0 owns the listeners;
     * accepted connections are assigned round-robin.
     */
    int ioThreads = 1;

    // ---- resource limits (abuse handling; see README "Resource
    // limits & abuse handling"). Every limit is surfaced as a
    // ServerStats counter so shedding is observable over the wire. ----

    /**
     * Read deadline in milliseconds, enforced from accept onwards: a
     * connection that is mid-frame (partial header or payload
     * buffered) or has never completed a frame (handshake) and makes
     * no frame progress for this long is closed — the slowloris
     * defense. A connection idling *between* complete frames is never
     * closed (keep-alive is free). 0 disables the deadline.
     */
    int readTimeoutMs = 30000;

    /**
     * Accept-time connection cap: when this many connections are
     * alive, further accepts are closed immediately (counter:
     * connectionsShed). 0 disables the cap.
     */
    std::size_t maxConnections = 1024;

    /**
     * Bounded admission: PREDICT requests arriving while this many
     * are already admitted but not yet submitted to the engine are
     * answered Status::Overloaded instead of buffered (counter:
     * overloadedQueue). The bound sizes the lock-free admission ring
     * (rounded up to a power of two) and is what turns a request
     * flood into explicit backpressure rather than unbounded memory
     * growth. 0 disables the count gate (the ring's own capacity
     * still bounds memory; counter: ringFull).
     */
    std::size_t maxPending = 65536;

    /**
     * Per-connection in-flight quota: PREDICT requests admitted but
     * not yet answered. Requests beyond it are answered
     * Status::Overloaded (counter: overloadedConn). The default
     * leaves room for two full client pipeline windows. 0 disables.
     */
    std::size_t maxInFlightPerConn = 2 * 4096;

    /**
     * Per-connection cap on buffered-unparsed request bytes
     * (FrameParser::Options::maxBuffered). Exceeding it closes the
     * connection (counter: quotaClosed); it cannot be hit by
     * well-formed traffic since frames are drained as they complete.
     */
    std::size_t maxBufferedPerConn = 1u << 20;

    /** Engine to serve from; nullptr uses PredictionEngine::shared(). */
    engine::PredictionEngine *engine = nullptr;

    /**
     * Warm-start snapshot destination (src/analysis/snapshot.h). When
     * non-empty, saveSnapshot() — reachable via the SNAPSHOT admin
     * frame or the operator's signal handler — persists the serving
     * engine's prediction cache there. Empty
     * disables the op (SNAPSHOT answers BAD_REQUEST): the path is
     * always operator-chosen, never taken from the wire. Saves are
     * atomic and generation-rotated (see snapshot.h "Crash safety").
     */
    std::string snapshotPath;

    /**
     * Warm-start source: when non-empty, start() loads this snapshot
     * — falling back through rotated generations if the newest file
     * is torn or corrupt (counter: snapshotFallbacks) — and starts
     * cold if no generation is loadable. Usually the same path as
     * snapshotPath so a crashed server restarts from its own last
     * good save.
     */
    std::string snapshotLoadPath;

    /** Snapshot generations kept/scanned (SnapshotOptions::generations). */
    int snapshotGenerations = analysis::kSnapshotGenerations;
};

class PredictionServer
{
  public:
    explicit PredictionServer(ServerOptions opts);

    /** Stops and joins everything if still running. */
    ~PredictionServer();

    PredictionServer(const PredictionServer &) = delete;
    PredictionServer &operator=(const PredictionServer &) = delete;

    /**
     * Bind the configured listeners and start serving. Throws
     * std::runtime_error (with errno detail) if no listener could be
     * established.
     */
    void start();

    /** Stop listeners, drain in-flight batches, join all threads. */
    void stop();

    /**
     * Enter drain mode (graceful degradation, typically on SIGTERM):
     * new connections are refused, new PREDICT requests are answered
     * Status::Draining (counter: drainSheds), batches already admitted
     * flush normally, and control ops — STATS, PING, HEALTH (which now
     * reports Draining), SNAPSHOT — keep answering so operators can
     * save state and routers can observe the transition. Does not
     * block; call stop() once peers have moved off. One-way until the
     * next start().
     */
    void drain();

    /** True once drain() was called (and until the next start()). */
    bool draining() const;

    /** Actual TCP port after start() (ephemeral binds resolved). */
    int tcpPort() const;

    /** UDS path (empty when the UDS listener is disabled). */
    const std::string &unixPath() const;

    /** Snapshot of the serving counters (same data as the STATS op). */
    ServerStats stats() const;

    /**
     * Persist a warm-start snapshot to ServerOptions::snapshotPath
     * (serialized against concurrent saves). Returns false — never
     * throws — when no path is configured or the save fails; the
     * failure detail is logged to stderr.
     */
    bool saveSnapshot();

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace facile::server

#endif // FACILE_SERVER_SERVER_H
