/**
 * @file
 * The event-loop core under PredictionServer and cluster::Router:
 * listeners, epoll loops, accept, the connection read path and
 * writer, and the reap/deadline sweep. A role is a LoopHandler and
 * sees frames, read ends, pass boundaries and its own (Custom)
 * registrations.
 *
 *   loop 0 owns the listeners: accept -> connection cap and the
 *   role's refuse predicate -> round-robin to a loop (inbox + wake)
 *   each loop: epoll_wait -> Conn: EPOLLOUT resume, recv ->
 *   FrameParser::feed -> LoopHandler::onFrame per complete frame;
 *   Custom -> LoopHandler::onCustom; then the sweep
 */
#ifndef FACILE_SERVER_EVENT_LOOP_H
#define FACILE_SERVER_EVENT_LOOP_H

#include <sys/uio.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/frame_parser.h"
#include "server/protocol.h"
#include "server/write_queue.h"

namespace facile::server {

using Clock = std::chrono::steady_clock;

/** Every epoll registration's data.ptr; the kind dispatches it. */
struct EvSource
{
    enum class Kind : std::uint8_t { Listen, Wake, Conn, Custom };
    Kind kind;
    explicit EvSource(Kind k) : kind(k) {}
};

/** The core's counters; one set per server or router. */
struct LoopStats
{
    std::atomic<std::uint64_t> connectionsAccepted{0};
    std::atomic<std::uint64_t> connectionsOpen{0};
    std::atomic<std::uint64_t> connectionsShed{0};
    std::atomic<std::uint64_t> epollWakeups{0};
    std::atomic<std::uint64_t> shortWrites{0};
    std::atomic<std::uint64_t> quotaClosed{0};
    std::atomic<std::uint64_t> readTimeouts{0};

    /** Copy into the STATS fields of the same names. */
    void fill(ServerStats &s) const;
};

struct Conn;

/** One epoll loop. conns is io-thread owned; inbox feeds it. */
struct Loop
{
    std::size_t idx = 0;
    LoopStats *stats = nullptr;
    int epfd = -1;
    int wakeFd = -1;
    EvSource wakeTag{EvSource::Kind::Wake};
    std::thread thr;
    std::vector<std::shared_ptr<Conn>> conns;
    std::vector<std::uint8_t> chunk; ///< recv buffer

    /** Connections accepted on loop 0 awaiting registration here. */
    std::mutex inboxMu;
    std::vector<std::shared_ptr<Conn>> inbox;
};

/**
 * One socket on a loop. Threading contract:
 *   - parser, seenFrame, lastProgress: the owning io thread only;
 *   - outq, wantWrite, and the socket writes/epoll interest: any
 *     thread, under writeMu;
 *   - fd and open are atomics so lock-free readers can bail early;
 *     the transition open->false (epoll DEL, close, openGauge
 *     decrement) happens exactly once, under writeMu.
 */
struct Conn : EvSource, std::enable_shared_from_this<Conn>
{
    explicit Conn(Kind k = Kind::Conn) : EvSource(k) {}

    std::atomic<int> fd{-1};
    std::atomic<bool> open{false};
    Loop *loop = nullptr;
    /** Decremented on close: the accepted-connections gauge, or null. */
    std::atomic<std::uint64_t> *openGauge = nullptr;

    FrameParser parser;
    bool seenFrame = false;
    Clock::time_point lastProgress;

    std::mutex writeMu;
    WriteQueue outq;
    bool wantWrite = false; ///< EPOLLOUT currently armed

    /**
     * Gather-write @p iov after the queued tail. Drained disarms
     * EPOLLOUT; Blocked queues the unsent rest and arms it; PeerGone
     * closes. A closed Conn writes nothing and reports PeerGone.
     */
    WriteQueue::Result write(const iovec *iov, std::size_t n);

    WriteQueue::Result
    write(const std::vector<std::uint8_t> &bytes)
    {
        const iovec iov{const_cast<std::uint8_t *>(bytes.data()),
                        bytes.size()};
        return write(&iov, 1);
    }

    /** EPOLLOUT: flush the queued tail; an empty queue disarms. */
    WriteQueue::Result resume() { return write(nullptr, 0); }

    /**
     * Open on @p fd and register with @p lp, EPOLLOUT armed when
     * @p wantOut (a connect in flight). A closed Conn may re-attach.
     */
    void attach(Loop &lp, int fd, bool wantOut);

    /** Close exactly once, from any thread; the loop reaps it. */
    void
    close()
    {
        std::lock_guard<std::mutex> lock(writeMu);
        closeLocked();
    }

  private:
    void setInterestLocked(int op);
    void closeLocked();
};

/** A role on the core: one virtual call per event, on the io thread. */
class LoopHandler
{
  public:
    virtual ~LoopHandler() = default;
    /** The role's Conn for an accepted socket. */
    virtual std::shared_ptr<Conn> newConn() = 0;
    /** True sheds accepted sockets (the server's drain latch). */
    virtual bool refuseNew() { return false; }
    /** One complete frame; the payload lives until the call returns. */
    virtual void onFrame(const std::shared_ptr<Conn> &c,
                         const FrameView &f) = 0;
    /** A read of @p c ended. @p abuse: it is closing over its byte
     *  quota and must not be answered. */
    virtual void onReadDone(const std::shared_ptr<Conn> &c, bool abuse) = 0;
    virtual void onCustom(EvSource &, std::uint32_t /*events*/) {}
    /** epoll_wait returned @p n events; -1 when interrupted. */
    virtual void onPassBegin(Loop &, int /*n*/) {}
    /** After dispatch and the sweep. @p budgetSpent: a connection
     *  stopped at its read budget, likely with data still unread. */
    virtual void onPassEnd(Loop &, int /*n*/, bool /*budgetSpent*/) {}
    /** The next epoll_wait timeout, given the core's @p ms. */
    virtual int nextTimeoutMs(Clock::time_point, int ms) { return ms; }
};

struct EventLoopOptions
{
    std::string unixPath; ///< empty: no Unix listener
    int tcpPort = -1;     ///< -1: no TCP listener, 0: ephemeral
    std::string tcpHost;
    int loops = 1;
    std::size_t maxConnections = 0; ///< 0: no cap
    int readTimeoutMs = 0;          ///< 0: no read deadline
    std::size_t maxBufferedPerConn = FrameParser::kDefaultMaxBuffered;
};

class EventLoop
{
  public:
    EventLoop(LoopHandler &h, EventLoopOptions o)
        : handler_(h), opts_(std::move(o))
    {}
    ~EventLoop()
    {
        stop();
        close();
    }
    EventLoop(const EventLoop &) = delete;
    EventLoop &operator=(const EventLoop &) = delete;

    /** Bind the listeners and create the loops. @throws
     *  std::runtime_error, leaving nothing open. */
    void open();
    /** One io thread per loop. */
    void start();
    /** Stop and join the io threads; connections stay open. */
    void stop();
    /** Close every connection, the loops and the listeners. */
    void close();

    Loop &loop(std::size_t i) { return *loops_[i]; }
    std::size_t numLoops() const { return loops_.size(); }
    /** Bound TCP port after open() (ephemeral binds resolved). */
    int tcpPort() const { return boundTcpPort_; }

    LoopStats stats;

  private:
    struct Listener : EvSource
    {
        explicit Listener(bool t) : EvSource(Kind::Listen), tcp(t) {}
        int fd = -1;
        const bool tcp;
    };

    void run(Loop &lp);
    void accept(Loop &lp, const Listener &l);
    bool read(const std::shared_ptr<Conn> &c);

    LoopHandler &handler_;
    const EventLoopOptions opts_;
    Listener tcp_{true}, unix_{false};
    int boundTcpPort_ = -1;
    std::vector<std::unique_ptr<Loop>> loops_;
    std::atomic<std::size_t> rrAssign_{0};
    std::atomic<bool> stopping_{false};
};

} // namespace facile::server

#endif // FACILE_SERVER_EVENT_LOOP_H
