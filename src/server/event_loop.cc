#include "server/event_loop.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>

#include "server/net_util.h"
#include "testing/fault.h"

namespace facile::server {

namespace {

void
ctl(int epfd, int op, int fd, std::uint32_t events, EvSource *tag)
{
    epoll_event ev{};
    ev.events = events;
    ev.data.ptr = tag;
    ::epoll_ctl(epfd, op, fd, &ev);
}

/**
 * A nonblocking, close-on-exec listener on @p addr. Close-on-exec
 * keeps a forked child from holding the port after the listener
 * closes. @throws std::runtime_error (the socket is closed).
 */
int
listenOn(const sockaddr *addr, socklen_t len, const std::string &what)
{
    const int fd = ::socket(addr->sa_family,
                            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (fd < 0)
        throwErrno("socket " + what);
    int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd, addr, len) < 0 || ::listen(fd, 512) < 0) {
        const int e = errno;
        ::close(fd);
        errno = e;
        throwErrno("bind/listen " + what);
    }
    return fd;
}

} // namespace

void
LoopStats::fill(ServerStats &s) const
{
    s.connectionsAccepted = connectionsAccepted.load();
    s.connectionsOpen = connectionsOpen.load();
    s.connectionsShed = connectionsShed.load();
    s.epollWakeups = epollWakeups.load();
    s.shortWrites = shortWrites.load();
    s.quotaClosed = quotaClosed.load();
    s.readTimeouts = readTimeouts.load();
}

// ---- Conn -------------------------------------------------------------------

WriteQueue::Result
Conn::write(const iovec *iov, std::size_t n)
{
    std::lock_guard<std::mutex> lock(writeMu);
    if (!open.load())
        return WriteQueue::Result::PeerGone;
    const WriteQueue::Result r = outq.writeGather(fd.load(), iov, n);
    switch (r) {
      case WriteQueue::Result::Drained:
        break;
      case WriteQueue::Result::Blocked:
        // A resume (n == 0) still blocked is the same short write,
        // counted when its tail was queued.
        if (n > 0)
            loop->stats->shortWrites.fetch_add(1, std::memory_order_relaxed);
        break;
      case WriteQueue::Result::PeerGone:
        closeLocked();
        return r;
    }
    const bool want = r == WriteQueue::Result::Blocked;
    if (wantWrite != want) {
        wantWrite = want;
        setInterestLocked(EPOLL_CTL_MOD);
    }
    return r;
}

void
Conn::attach(Loop &lp, int f, bool wantOut)
{
    std::lock_guard<std::mutex> lock(writeMu);
    loop = &lp;
    fd.store(f);
    open.store(true);
    outq = WriteQueue();
    wantWrite = wantOut;
    setInterestLocked(EPOLL_CTL_ADD);
}

void
Conn::setInterestLocked(int op)
{
    ctl(loop->epfd, op, fd.load(), EPOLLIN | (wantWrite ? EPOLLOUT : 0u),
        this);
}

void
Conn::closeLocked()
{
    if (!open.exchange(false))
        return;
    const int f = fd.exchange(-1);
    if (f >= 0) {
        if (loop)
            ::epoll_ctl(loop->epfd, EPOLL_CTL_DEL, f, nullptr);
        ::close(f);
    }
    if (openGauge)
        openGauge->fetch_sub(1, std::memory_order_relaxed);
}

// ---- EventLoop --------------------------------------------------------------

void
EventLoop::open()
{
    stopping_.store(false);
    try {
        if (!opts_.unixPath.empty()) {
            const std::string &path = opts_.unixPath;
            sockaddr_un a{};
            if (path.size() >= sizeof a.sun_path)
                throw std::runtime_error("unix path too long: " + path);
            a.sun_family = AF_UNIX;
            std::strncpy(a.sun_path, path.c_str(), sizeof a.sun_path - 1);
            ::unlink(path.c_str()); // a stale socket file left by a crash
            unix_.fd = listenOn(reinterpret_cast<sockaddr *>(&a), sizeof a,
                                "unix " + path);
        }
        if (opts_.tcpPort >= 0) {
            sockaddr_in a{};
            a.sin_family = AF_INET;
            a.sin_port = htons(static_cast<std::uint16_t>(opts_.tcpPort));
            if (::inet_pton(AF_INET, opts_.tcpHost.c_str(), &a.sin_addr) != 1)
                throw std::runtime_error("bad tcp host: " + opts_.tcpHost);
            tcp_.fd = listenOn(reinterpret_cast<sockaddr *>(&a), sizeof a,
                               "tcp " + opts_.tcpHost);
            socklen_t len = sizeof a; // port 0 binds an ephemeral port
            if (::getsockname(tcp_.fd, reinterpret_cast<sockaddr *>(&a),
                              &len) < 0)
                throwErrno("getsockname");
            boundTcpPort_ = ntohs(a.sin_port);
        }
        for (int i = 0; i < std::max(1, opts_.loops); ++i) {
            Loop &lp = *loops_.emplace_back(std::make_unique<Loop>());
            lp.idx = static_cast<std::size_t>(i);
            lp.stats = &stats;
            lp.chunk.resize(64 * 1024);
            lp.epfd = ::epoll_create1(EPOLL_CLOEXEC);
            lp.wakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
            if (lp.epfd < 0 || lp.wakeFd < 0)
                throwErrno("epoll/eventfd");
            ctl(lp.epfd, EPOLL_CTL_ADD, lp.wakeFd, EPOLLIN, &lp.wakeTag);
        }
    } catch (...) {
        close();
        throw;
    }
    for (Listener *l : {&unix_, &tcp_}) // loop 0 owns the listeners
        if (l->fd >= 0)
            ctl(loops_[0]->epfd, EPOLL_CTL_ADD, l->fd, EPOLLIN, l);
}

void
EventLoop::start()
{
    for (auto &lp : loops_)
        lp->thr = std::thread([this, p = lp.get()] { run(*p); });
}

void
EventLoop::stop()
{
    stopping_.store(true, std::memory_order_release);
    for (auto &lp : loops_)
        signalWakeFd(lp->wakeFd);
    for (auto &lp : loops_)
        if (lp->thr.joinable())
            lp->thr.join();
}

void
EventLoop::close()
{
    for (auto &lp : loops_) {
        for (auto &c : lp->conns)
            c->close();
        for (auto &c : lp->inbox)
            c->close();
        if (lp->epfd >= 0)
            ::close(lp->epfd);
        if (lp->wakeFd >= 0)
            ::close(lp->wakeFd);
    }
    loops_.clear();
    if (tcp_.fd >= 0)
        ::close(tcp_.fd);
    if (unix_.fd >= 0) {
        ::close(unix_.fd);
        ::unlink(opts_.unixPath.c_str());
    }
    tcp_.fd = unix_.fd = -1;
}

void
EventLoop::run(Loop &lp)
{
    constexpr int kMaxEvents = 128;
    epoll_event evs[kMaxEvents];

    // Sweep cadence: fine enough that a read deadline is enforced
    // within ~1.25x its nominal value, coarse enough that an idle loop
    // wakes at most a few times/second.
    const int sweepMs =
        opts_.readTimeoutMs > 0
            ? std::clamp(opts_.readTimeoutMs / 4, 10, 1000)
            : 1000;
    const auto deadline = std::chrono::milliseconds(opts_.readTimeoutMs);
    auto nextSweep = Clock::now() + std::chrono::milliseconds(sweepMs);

    while (!stopping_.load(std::memory_order_acquire)) {
        const auto now = Clock::now();
        const int timeout =
            handler_.nextTimeoutMs(now, msUntil(nextSweep, now, sweepMs));
        int n;
        const auto fa = testing::faultPoint("server.epoll", 0);
        if (fa.err) {
            errno = fa.err;
            n = -1;
        } else {
            n = ::epoll_wait(lp.epfd, evs, kMaxEvents, timeout);
        }
        stats.epollWakeups.fetch_add(1, std::memory_order_relaxed);
        if (n < 0 && errno != EINTR)
            break;
        if (stopping_.load(std::memory_order_acquire))
            break;
        handler_.onPassBegin(lp, n);
        bool budgetSpent = false;
        for (int i = 0; i < std::max(n, 0); ++i) {
            auto *src = static_cast<EvSource *>(evs[i].data.ptr);
            const std::uint32_t events = evs[i].events;
            switch (src->kind) {
              case EvSource::Kind::Listen:
                accept(lp, *static_cast<Listener *>(src));
                break;
              case EvSource::Kind::Wake: {
                drainWakeFd(lp.wakeFd);
                std::vector<std::shared_ptr<Conn>> fresh;
                {
                    std::lock_guard<std::mutex> lock(lp.inboxMu);
                    fresh.swap(lp.inbox);
                }
                for (auto &c : fresh) {
                    lp.conns.push_back(c);
                    c->attach(lp, c->fd.load(), false);
                }
                break;
              }
              case EvSource::Kind::Conn: {
                Conn &c = *static_cast<Conn *>(src);
                if (!c.open.load(std::memory_order_relaxed))
                    break; // closed by another thread; reap later
                if (events & (EPOLLHUP | EPOLLERR)) {
                    c.close();
                    break;
                }
                if (events & EPOLLOUT)
                    c.resume();
                if ((events & EPOLLIN) &&
                    c.open.load(std::memory_order_relaxed))
                    budgetSpent |= read(c.shared_from_this());
                break;
              }
              case EvSource::Kind::Custom:
                handler_.onCustom(*src, events);
                break;
            }
        }
        // The sweep reaps closed connections and enforces the read
        // deadline: a connection mid-frame, or one that never
        // completed a first frame, with no progress for readTimeoutMs
        // is dropped — the slowloris defense. Idling between complete
        // frames is never penalized.
        const auto after = Clock::now();
        if (after >= nextSweep) {
            std::erase_if(lp.conns, [&](const std::shared_ptr<Conn> &cp) {
                Conn &c = *cp;
                if (!c.open.load(std::memory_order_relaxed))
                    return true;
                if (opts_.readTimeoutMs <= 0 ||
                    (!c.parser.midFrame() && c.seenFrame) ||
                    after - c.lastProgress < deadline)
                    return false;
                stats.readTimeouts.fetch_add(1, std::memory_order_relaxed);
                c.close();
                return true;
            });
            nextSweep = after + std::chrono::milliseconds(sweepMs);
        }
        handler_.onPassEnd(lp, n, budgetSpent);
    }
}

void
EventLoop::accept(Loop &lp, const Listener &l)
{
    for (;;) {
        int fd;
        const auto fa = testing::faultPoint("server.accept", 0);
        if (fa.err) {
            errno = fa.err;
            fd = -1;
        } else {
            fd = ::accept4(l.fd, nullptr, nullptr,
                           SOCK_NONBLOCK | SOCK_CLOEXEC);
        }
        if (fd < 0) {
            if (errno == EINTR || errno == ECONNABORTED)
                continue; // retry: more conns may be queued behind
            break; // EAGAIN, or the listener was closed
        }
        if (l.tcp) {
            int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
        }
        if (handler_.refuseNew() ||
            (opts_.maxConnections > 0 &&
             stats.connectionsOpen.load(std::memory_order_relaxed) >=
                 opts_.maxConnections)) {
            // No protocol exchange happened yet, so there is no id to
            // answer on: the close IS the backpressure signal.
            ::close(fd);
            stats.connectionsShed.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        stats.connectionsAccepted.fetch_add(1, std::memory_order_relaxed);
        stats.connectionsOpen.fetch_add(1, std::memory_order_relaxed);

        // Open from here on, so close() can release it while it waits
        // in an inbox.
        std::shared_ptr<Conn> conn = handler_.newConn();
        conn->fd.store(fd);
        conn->open.store(true);
        conn->openGauge = &stats.connectionsOpen;
        conn->parser = FrameParser({opts_.maxBufferedPerConn});
        conn->lastProgress = Clock::now();
        Loop &dst =
            *loops_[loops_.size() == 1
                        ? 0
                        : rrAssign_.fetch_add(1, std::memory_order_relaxed) %
                              loops_.size()];
        if (&dst == &lp) {
            lp.conns.push_back(conn);
            conn->attach(lp, fd, false);
            continue;
        }
        {
            std::lock_guard<std::mutex> lock(dst.inboxMu);
            dst.inbox.push_back(std::move(conn));
        }
        signalWakeFd(dst.wakeFd);
    }
}

/** Returns true when the read budget ran out (data likely unread). */
bool
EventLoop::read(const std::shared_ptr<Conn> &conn)
{
    // Fairness bound: one greedy pipeline must not monopolize the
    // loop. Level-triggered epoll re-reports leftover data.
    constexpr int kReadBudget = 8;

    Conn &c = *conn;
    std::vector<std::uint8_t> &chunk = c.loop->chunk;
    bool closed = false;
    bool abuse = false;
    std::size_t frames = 0;
    const int fd = c.fd.load();

    int budget = kReadBudget;
    for (; budget > 0; --budget) {
        ssize_t n;
        const auto fa = testing::faultPoint("server.recv", chunk.size());
        if (fa.err) {
            errno = fa.err;
            n = -1;
        } else {
            n = ::recv(fd, chunk.data(), std::min(chunk.size(), fa.clamp),
                       0);
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
        // Frames drain after every feed, so only a partial frame stays
        // buffered: a well-formed pipeline of any depth never reaches
        // the quota, and going over it is abuse.
        if (!c.parser.feed(chunk.data(), static_cast<std::size_t>(n))) {
            stats.quotaClosed.fetch_add(1, std::memory_order_relaxed);
            closed = abuse = true;
            break;
        }
        FrameView f;
        while (c.parser.next(f)) {
            handler_.onFrame(conn, f);
            ++frames;
        }
        if (static_cast<std::size_t>(n) < chunk.size())
            break; // likely drained; epoll re-reports otherwise
    }

    // Read-deadline bookkeeping: the clock resets only when a frame
    // completes or the buffer drains clean, and never before the
    // first frame.
    if (frames > 0)
        c.seenFrame = true;
    if (c.seenFrame && (frames > 0 || !c.parser.midFrame()))
        c.lastProgress = Clock::now();

    handler_.onReadDone(conn, abuse);
    if (closed)
        c.close();
    return budget == 0;
}

} // namespace facile::server
