#include "cluster/router.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "server/event_loop.h"
#include "server/net_util.h"
#include "uarch/config.h"

namespace facile::cluster {

namespace {

using namespace facile::server;

/** Router-generated HEALTH probe ids live above every forwarded id. */
constexpr std::uint64_t kProbeIdBit = 1ULL << 63;

} // namespace

struct Router::Impl : LoopHandler
{
    /** One downstream client connection (event_loop.h). */
    struct ClientConn : Conn
    {
        /** Responses staged during one event; flushed in one sendmsg. */
        std::vector<std::uint8_t> stage;
    };

    enum class ConnState : std::uint8_t { Down, Connecting, Up };

    /**
     * One upstream backend: a single pipelined connection shared by
     * every client, re-dialed with backoff across its lifetimes. Its
     * events reach onCustom; Conn is its writer.
     */
    struct BackendConn : Conn
    {
        BackendConn() : Conn(Kind::Custom) {}
        std::size_t idx = 0;
        ConnState connState = ConnState::Down;
        bool draining = false; ///< last HEALTH answer was Draining
        /** Frames staged during one event; flushed in one sendmsg. */
        std::vector<std::uint8_t> stage;
        /** Frames produced while the connect is still in flight. */
        std::vector<std::uint8_t> preConnect;

        /** RESPONSE-frame reassembly (12-byte headers, not requests). */
        std::vector<std::uint8_t> inbuf;
        std::size_t parsed = 0;

        bool probeOutstanding = false;
        int missedProbes = 0;

        int backoffMs = 0;
        Clock::time_point reconnectAt{};
    };

    /** One forwarded PREDICT awaiting its backend response. */
    struct Pending
    {
        std::shared_ptr<ClientConn> conn;
        std::uint64_t origId = 0;
        std::uint64_t key = 0; ///< routeKey, for failover re-picks
        std::size_t backendIdx = 0;
        /** Full request frame, router id already written — the replay
         *  unit when its backend dies. */
        std::vector<std::uint8_t> frame;
    };

    RouterOptions opts;
    BackendPool pool;

    std::atomic<bool> running{false};
    Clock::time_point startTime;

    /** One loop; no connection cap or read deadline (RouterOptions has
     *  neither). */
    EventLoop net;

    std::vector<std::unique_ptr<BackendConn>> backends;
    std::unordered_map<std::uint64_t, Pending> pending;
    std::uint64_t nextId = 1;
    std::uint64_t nextProbeId = kProbeIdBit;
    Clock::time_point nextProbeAt{};
    /** Backends that died mid-pass; failover runs at the pass end. */
    std::deque<std::size_t> deadQueue;
    /** Control-op answers for the client being read. */
    std::vector<std::uint8_t> reply;

    std::atomic<std::uint64_t> requestCount{0};
    std::atomic<std::uint64_t> routedPredicts{0};
    std::atomic<std::uint64_t> backendFailovers{0};
    std::atomic<std::uint64_t> noBackendSheds{0};

    explicit Impl(RouterOptions o)
        : opts(std::move(o)), pool(opts.backends),
          net(*this, {.unixPath = opts.unixPath,
                      .tcpPort = opts.tcpPort,
                      .tcpHost = opts.tcpHost,
                      .maxBufferedPerConn = opts.maxBufferedPerConn})
    {
        if (opts.backends.empty())
            throw std::invalid_argument("router needs >= 1 backend");
        backends.reserve(opts.backends.size());
        for (std::size_t i = 0; i < opts.backends.size(); ++i) {
            auto b = std::make_unique<BackendConn>();
            b->idx = i;
            b->backoffMs = opts.reconnectBackoffMs;
            backends.push_back(std::move(b));
        }
    }

    // ---- backend lifecycle -------------------------------------------------

    void
    refreshPoolState(BackendConn &b)
    {
        pool.setState(b.idx, b.connState == ConnState::Down
                                 ? BackendState::Down
                                 : (b.draining ? BackendState::Draining
                                               : BackendState::Up));
    }

    void
    dialBackend(std::size_t i)
    {
        BackendConn &b = *backends[i];
        const Endpoint &ep = pool.endpoint(i);
        const int fd =
            ::socket(ep.isUnix() ? AF_UNIX : AF_INET,
                     SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
        if (fd < 0) {
            scheduleRetry(b);
            return;
        }
        int rc;
        if (ep.isUnix()) {
            sockaddr_un addr{};
            addr.sun_family = AF_UNIX;
            std::strncpy(addr.sun_path, ep.path.c_str(),
                         sizeof addr.sun_path - 1);
            rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                           sizeof addr);
        } else {
            sockaddr_in addr{};
            addr.sin_family = AF_INET;
            addr.sin_port = htons(static_cast<std::uint16_t>(ep.port));
            if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) !=
                1) {
                ::close(fd);
                scheduleRetry(b);
                return;
            }
            rc = ::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                           sizeof addr);
        }
        if (rc < 0 && errno != EINPROGRESS) {
            ::close(fd);
            scheduleRetry(b);
            return;
        }
        if (!ep.isUnix()) {
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        }
        // A connect in flight waits for EPOLLOUT. It is routable
        // meanwhile: frames queue in preConnect and flush the moment
        // the handshake completes, so early traffic is buffered
        // instead of shed.
        b.attach(net.loop(0), fd, /*wantOut=*/rc != 0);
        if (rc == 0) {
            onBackendConnected(b);
        } else {
            b.connState = ConnState::Connecting;
            refreshPoolState(b);
        }
    }

    void
    onBackendConnected(BackendConn &b)
    {
        b.connState = ConnState::Up;
        b.backoffMs = opts.reconnectBackoffMs;
        b.missedProbes = 0;
        b.probeOutstanding = false;
        refreshPoolState(b);
        if (!b.preConnect.empty()) {
            std::vector<std::uint8_t> out;
            out.swap(b.preConnect);
            writeBackend(b, out);
        }
        // The probe write also settles EPOLLOUT, armed for the connect.
        sendProbe(b);
    }

    void
    scheduleRetry(BackendConn &b)
    {
        b.connState = ConnState::Down;
        b.reconnectAt =
            Clock::now() + std::chrono::milliseconds(b.backoffMs);
        b.backoffMs =
            std::min(b.backoffMs * 2, opts.reconnectBackoffMaxMs);
        refreshPoolState(b);
    }

    /**
     * Declare @p b dead: close, reset stream state, queue its pendings
     * for failover (drained by drainDeadBackends at the pass end — not
     * inline, so the pending map is never mutated mid-iteration), and
     * arm the reconnect backoff.
     */
    void
    markBackendDead(BackendConn &b)
    {
        if (b.connState == ConnState::Down)
            return;
        b.close();
        b.stage.clear();
        b.preConnect.clear();
        b.inbuf.clear();
        b.parsed = 0;
        b.draining = false;
        scheduleRetry(b);
        deadQueue.push_back(b.idx);
    }

    void
    drainDeadBackends()
    {
        while (!deadQueue.empty()) {
            const std::size_t dead = deadQueue.front();
            deadQueue.pop_front();
            std::vector<std::uint64_t> rids;
            for (const auto &[rid, p] : pending)
                if (p.backendIdx == dead)
                    rids.push_back(rid);
            for (std::uint64_t rid : rids) {
                auto it = pending.find(rid);
                if (it == pending.end() || it->second.backendIdx != dead)
                    continue; // already failed over by a nested death
                Pending &p = it->second;
                const std::size_t next = pool.pick(p.key, dead);
                if (next == BackendPool::npos) {
                    // Nothing left to replay onto: surface retryable
                    // backpressure — ResilientClient backs off and
                    // re-sends, so callers still see zero failures
                    // once a backend returns.
                    std::vector<std::uint8_t> out;
                    appendStatusResponse(out, p.origId, Op::Predict,
                                         Status::Overloaded);
                    p.conn->write(out);
                    pending.erase(it);
                    continue;
                }
                p.backendIdx = next;
                backendFailovers.fetch_add(1, std::memory_order_relaxed);
                sendToBackend(next, p.frame.data(), p.frame.size());
            }
            flushStagedBackends();
        }
    }

    /** Queue @p data on backend @p i, whatever its connection state. */
    void
    sendToBackend(std::size_t i, const std::uint8_t *data,
                  std::size_t len)
    {
        BackendConn &b = *backends[i];
        if (b.connState == ConnState::Connecting) {
            b.preConnect.insert(b.preConnect.end(), data, data + len);
            return;
        }
        if (b.connState == ConnState::Down)
            return; // its pendings are already queued for failover
        // Stage, don't write: every frame a single event batch routes
        // here rides out in ONE gathered sendmsg (flushStagedBackends)
        // instead of a ~30-byte syscall per frame — and the backend's
        // reader then sees the whole burst at once, so its admission
        // batches stay large.
        b.stage.insert(b.stage.end(), data, data + len);
    }

    void
    flushStagedBackends()
    {
        for (auto &bp : backends) {
            BackendConn &b = *bp;
            if (b.connState != ConnState::Up || b.stage.empty())
                continue;
            // The write copies any unsent tail into the outq, so the
            // stage can be dropped whatever the outcome.
            writeBackend(b, b.stage);
            b.stage.clear();
        }
    }

    void
    writeBackend(BackendConn &b, const std::vector<std::uint8_t> &bytes)
    {
        if (b.write(bytes) == WriteQueue::Result::PeerGone)
            markBackendDead(b);
    }

    void
    sendProbe(BackendConn &b)
    {
        if (b.connState != ConnState::Up)
            return;
        std::vector<std::uint8_t> frame;
        appendControlRequest(frame, nextProbeId++, Op::Health);
        b.probeOutstanding = true;
        writeBackend(b, frame);
    }

    // ---- backend responses -------------------------------------------------

    void
    backendReadable(BackendConn &b)
    {
        std::vector<std::uint8_t> &chunk = net.loop(0).chunk;
        for (;;) {
            const ssize_t n =
                ::read(b.fd.load(), chunk.data(), chunk.size());
            if (n > 0) {
                b.inbuf.insert(b.inbuf.end(), chunk.data(),
                               chunk.data() + n);
                continue;
            }
            if (n < 0 && errno == EINTR)
                continue;
            if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK))
                break;
            markBackendDead(b); // EOF or hard error
            return;
        }
        std::vector<ClientConn *> touched;
        while (b.inbuf.size() - b.parsed >= kResponseHeaderSize) {
            const ResponseHeader h =
                parseResponseHeader(b.inbuf.data() + b.parsed);
            if (b.inbuf.size() - b.parsed < kResponseHeaderSize + h.len)
                break;
            const std::uint8_t *payload =
                b.inbuf.data() + b.parsed + kResponseHeaderSize;
            b.parsed += kResponseHeaderSize + h.len;
            if (h.id & kProbeIdBit) {
                handleProbeResponse(b, h, payload);
                continue;
            }
            auto it = pending.find(h.id);
            if (it == pending.end())
                continue; // replayed elsewhere, or stale after failover
            Pending p = std::move(it->second);
            pending.erase(it);
            ClientConn &cc = *p.conn;
            // A client that hung up keeps its pendings until answered:
            // erasing them at close would let a later request reuse the
            // router id while the old answer is still in flight.
            if (!cc.open.load())
                continue; // caller hung up; drop the answer
            // Rewrite the router id back to the client's own id; the
            // rest of the frame is forwarded byte-exactly. Staged per
            // client so a burst of responses flushes in one sendmsg.
            if (cc.stage.empty())
                touched.push_back(&cc);
            const std::size_t off = cc.stage.size();
            cc.stage.resize(off + kResponseHeaderSize + h.len);
            std::memcpy(cc.stage.data() + off,
                        b.inbuf.data() + b.parsed - kResponseHeaderSize -
                            h.len,
                        kResponseHeaderSize + h.len);
            std::memcpy(cc.stage.data() + off, &p.origId,
                        sizeof p.origId);
        }
        for (ClientConn *cc : touched) {
            cc->write(cc->stage);
            cc->stage.clear();
        }
        if (b.parsed == b.inbuf.size()) {
            b.inbuf.clear();
            b.parsed = 0;
        } else if (b.parsed > 64 * 1024) {
            b.inbuf.erase(b.inbuf.begin(),
                          b.inbuf.begin() +
                              static_cast<std::ptrdiff_t>(b.parsed));
            b.parsed = 0;
        }
    }

    void
    handleProbeResponse(BackendConn &b, const ResponseHeader &h,
                        const std::uint8_t *payload)
    {
        b.probeOutstanding = false;
        b.missedProbes = 0;
        if (h.status != static_cast<std::uint8_t>(Status::Ok) ||
            h.op != static_cast<std::uint8_t>(Op::Health))
            return;
        const auto state = decodeHealthPayload(payload, h.len);
        const bool draining =
            state && *state == HealthState::Draining;
        if (draining != b.draining) {
            b.draining = draining;
            refreshPoolState(b);
        }
    }

    // ---- client side (io loop hooks, event_loop.h) ------------------------

    std::shared_ptr<Conn>
    newConn() override
    {
        return std::make_shared<ClientConn>();
    }

    void
    onReadDone(const std::shared_ptr<Conn> &conn, bool abuse) override
    {
        if (!reply.empty() && !abuse)
            conn->write(reply);
        reply.clear();
        flushStagedBackends();
    }

    void
    onFrame(const std::shared_ptr<Conn> &conn, const FrameView &f) override
    {
        const RequestHeader &h = f.header;
        const std::uint8_t *payload = f.payload;
        requestCount.fetch_add(1, std::memory_order_relaxed);
        switch (static_cast<Op>(h.op)) {
          case Op::Ping:
            appendStatusResponse(reply, h.id, Op::Ping, Status::Ok);
            return;
          case Op::Stats:
            appendStatsResponse(reply, h.id, snapshotStats());
            return;
          case Op::Health:
            appendHealthResponse(reply, h.id, HealthState::Ready);
            return;
          case Op::Snapshot:
            // Snapshot administration (save, fetch-bootstrap) targets
            // ONE replica; through a hashing router "which one" is
            // meaningless, so the op is refused rather than forwarded
            // somewhere arbitrary.
            appendStatusResponse(reply, h.id, Op::Snapshot,
                                 Status::BadRequest);
            return;
          case Op::Predict: {
            if (h.arch >= uarch::allUArchs().size() ||
                h.len > kMaxBlockBytes) {
                appendStatusResponse(reply, h.id, Op::Predict,
                                     Status::BadRequest);
                return;
            }
            const std::uint64_t key = routeKey(h.arch, payload, h.len);
            const std::size_t idx = pool.pick(key);
            if (idx == BackendPool::npos) {
                noBackendSheds.fetch_add(1, std::memory_order_relaxed);
                appendStatusResponse(reply, h.id, Op::Predict,
                                     Status::Overloaded);
                return;
            }
            const std::uint64_t rid = nextId++;
            Pending p;
            p.conn = std::static_pointer_cast<ClientConn>(conn);
            p.origId = h.id;
            p.key = key;
            p.backendIdx = idx;
            // The client's frame bytes are contiguous in the parser
            // buffer (header immediately before payload): copy them
            // and rewrite the id in place.
            p.frame.assign(payload - kRequestHeaderSize,
                           payload + h.len);
            std::memcpy(p.frame.data(), &rid, sizeof rid);
            const auto [it, inserted] = pending.emplace(rid, std::move(p));
            (void)inserted;
            routedPredicts.fetch_add(1, std::memory_order_relaxed);
            sendToBackend(idx, it->second.frame.data(),
                          it->second.frame.size());
            return;
          }
          default:
            appendStatusResponse(reply, h.id, static_cast<Op>(h.op),
                                 Status::BadRequest);
            return;
        }
    }

    // ---- stats -------------------------------------------------------------

    server::ServerStats
    snapshotStats() const
    {
        server::ServerStats s;
        net.stats.fill(s);
        s.requests = requestCount.load(std::memory_order_relaxed);
        s.routedPredicts =
            routedPredicts.load(std::memory_order_relaxed);
        s.backendFailovers =
            backendFailovers.load(std::memory_order_relaxed);
        // No-backend sheds reuse the admission-overload counter: the
        // router's "queue" is its backend set, and both answer the
        // same OVERLOADED status.
        s.overloadedQueue =
            noBackendSheds.load(std::memory_order_relaxed);
        s.uptimeMs = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::milliseconds>(
                Clock::now() - startTime)
                .count());
        return s;
    }

    // ---- backends and timers (io loop hooks) -------------------------------

    void
    onCustom(EvSource &src, std::uint32_t events) override
    {
        auto &b = static_cast<BackendConn &>(src);
        if (b.connState == ConnState::Down)
            return; // died earlier in this pass
        if (events & (EPOLLHUP | EPOLLERR)) {
            markBackendDead(b);
            return;
        }
        if (events & EPOLLOUT)
            backendWritable(b);
        if (b.connState != ConnState::Down && (events & EPOLLIN))
            backendReadable(b);
    }

    void
    backendWritable(BackendConn &b)
    {
        if (b.connState == ConnState::Connecting) {
            int err = 0;
            socklen_t elen = sizeof err;
            ::getsockopt(b.fd.load(), SOL_SOCKET, SO_ERROR, &err, &elen);
            if (err != 0)
                markBackendDead(b);
            else
                onBackendConnected(b);
            return;
        }
        if (b.resume() == WriteQueue::Result::PeerGone)
            markBackendDead(b);
    }

    int
    nextTimeoutMs(Clock::time_point now, int ms) override
    {
        ms = msUntil(nextProbeAt, now, ms);
        for (const auto &b : backends)
            if (b->connState == ConnState::Down)
                ms = msUntil(b->reconnectAt, now, ms);
        return ms;
    }

    void
    onPassEnd(Loop &, int, bool) override
    {
        drainDeadBackends();
        const auto now = Clock::now();
        if (now >= nextProbeAt) {
            healthTick();
            drainDeadBackends();
            nextProbeAt =
                now + std::chrono::milliseconds(opts.healthIntervalMs);
        }
        for (std::size_t i = 0; i < backends.size(); ++i)
            if (backends[i]->connState == ConnState::Down &&
                backends[i]->reconnectAt <= now)
                dialBackend(i);
    }

    void
    healthTick()
    {
        for (auto &bp : backends) {
            BackendConn &b = *bp;
            if (b.connState != ConnState::Up)
                continue;
            if (b.probeOutstanding &&
                ++b.missedProbes >= opts.healthMissLimit) {
                // A peer that stopped answering probes is as dead as
                // one whose socket reset — SIGSTOP, livelock, or a
                // half-open connection all land here.
                markBackendDead(b);
                continue;
            }
            sendProbe(b);
        }
    }

    // ---- lifecycle ---------------------------------------------------------

    void
    start()
    {
        if (running.load())
            throw std::runtime_error("router already running");
        startTime = Clock::now();
        nextProbeAt =
            startTime + std::chrono::milliseconds(opts.healthIntervalMs);
        net.open();
        for (std::size_t i = 0; i < backends.size(); ++i)
            dialBackend(i);
        running.store(true);
        net.start();
    }

    void
    stop()
    {
        if (!running.exchange(false))
            return;
        net.stop();
        pending.clear();
        for (auto &b : backends) {
            b->close();
            b->connState = ConnState::Down;
            b->stage.clear();
            b->preConnect.clear();
            b->inbuf.clear();
            b->parsed = 0;
        }
        net.close();
    }
};

Router::Router(RouterOptions opts)
    : impl_(std::make_unique<Impl>(std::move(opts)))
{}

Router::~Router()
{
    impl_->stop();
}

void
Router::start()
{
    impl_->start();
}

void
Router::stop()
{
    impl_->stop();
}

int
Router::tcpPort() const
{
    return impl_->net.tcpPort();
}

const std::string &
Router::unixPath() const
{
    return impl_->opts.unixPath;
}

server::ServerStats
Router::stats() const
{
    return impl_->snapshotStats();
}

} // namespace facile::cluster
