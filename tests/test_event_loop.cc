/**
 * @file
 * Event-loop core tests (src/server/event_loop.h): the Conn writer's
 * EPOLLOUT arm/disarm contract and its close-exactly-once rule, driven
 * against a socketpair with a tiny send buffer and a bare epoll set,
 * without a server or router around it.
 */
#include <gtest/gtest.h>

#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "server/event_loop.h"
#include "server/net_util.h"

namespace facile::server {
namespace {

/** One Conn attached to a bare loop, its peer end, and the counters. */
struct Rig
{
    LoopStats stats;
    Loop lp;
    std::shared_ptr<Conn> conn = std::make_shared<Conn>();
    int peer = -1;

    Rig()
    {
        lp.stats = &stats;
        lp.epfd = ::epoll_create1(EPOLL_CLOEXEC);
        EXPECT_GE(lp.epfd, 0);
        int fds[2];
        EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        peer = fds[1];
        // The kernel doubles and clamps; whatever it grants is small
        // enough that the payloads below cannot fit.
        int small = 4096;
        ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
        ::setsockopt(peer, SOL_SOCKET, SO_RCVBUF, &small, sizeof small);
        EXPECT_TRUE(setNonBlocking(fds[0]));
        stats.connectionsOpen.store(1);
        conn->openGauge = &stats.connectionsOpen;
        conn->attach(lp, fds[0], false);
    }

    ~Rig()
    {
        conn->close();
        ::close(peer);
        ::close(lp.epfd);
    }

    /** The events epoll reports for the connection now (0: none). */
    std::uint32_t
    ready(int timeoutMs = 0)
    {
        epoll_event ev{};
        return ::epoll_wait(lp.epfd, &ev, 1, timeoutMs) == 1 ? ev.events
                                                             : 0;
    }
};

std::vector<std::uint8_t>
pattern(std::size_t len)
{
    std::vector<std::uint8_t> v(len);
    for (std::size_t i = 0; i < len; ++i)
        v[i] = static_cast<std::uint8_t>(i * 131 + 7);
    return v;
}

/** Read exactly @p len bytes from the blocking @p fd. */
std::vector<std::uint8_t>
readExactly(int fd, std::size_t len)
{
    std::vector<std::uint8_t> got(len);
    std::size_t off = 0;
    while (off < len) {
        const ssize_t n = ::read(fd, got.data() + off, len - off);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0)
            break;
        off += static_cast<std::size_t>(n);
    }
    got.resize(off);
    return got;
}

TEST(EventLoopConn, BlockedWriteArmsEpollout)
{
    Rig rig;
    EXPECT_EQ(rig.ready(), 0u) << "nothing armed, nothing to read";

    const auto payload = pattern(256 * 1024);
    EXPECT_EQ(rig.conn->write(payload), WriteQueue::Result::Blocked);
    EXPECT_TRUE(rig.conn->wantWrite);
    EXPECT_GT(rig.conn->outq.bytesQueued(), 0u);
    EXPECT_EQ(rig.stats.shortWrites.load(), 1u);

    // Armed: once the peer makes room, epoll reports EPOLLOUT.
    std::vector<std::uint8_t> sink(64 * 1024);
    ASSERT_GT(::read(rig.peer, sink.data(), sink.size()), 0);
    EXPECT_TRUE(rig.ready(1000) & EPOLLOUT);
}

TEST(EventLoopConn, ResumeAfterTheReaderDrainsDisarms)
{
    Rig rig;
    const auto payload = pattern(256 * 1024);
    // The reader starts after the write blocked: started before it, it
    // can drain the socket fast enough for the write to complete.
    ASSERT_EQ(rig.conn->write(payload), WriteQueue::Result::Blocked);
    std::vector<std::uint8_t> got;
    std::thread reader([&] { got = readExactly(rig.peer, payload.size()); });

    int resumes = 0;
    while (!rig.conn->outq.empty()) {
        ASSERT_TRUE(rig.ready(5000) & EPOLLOUT) << "armed but never ready";
        const auto r = rig.conn->resume();
        ASSERT_NE(r, WriteQueue::Result::PeerGone);
        ++resumes;
    }
    reader.join();
    EXPECT_EQ(got, payload);
    EXPECT_GT(resumes, 0);

    // Drained: EPOLLOUT is disarmed although the socket is writable,
    // and a resume that stayed blocked was not counted again.
    EXPECT_FALSE(rig.conn->wantWrite);
    EXPECT_EQ(rig.ready(50), 0u);
    EXPECT_EQ(rig.stats.shortWrites.load(), 1u);
    EXPECT_TRUE(rig.conn->open.load());
}

TEST(EventLoopConn, PeerGoneClosesOnce)
{
    Rig rig;
    ::close(rig.peer);
    rig.peer = -1;
    const auto bytes = pattern(64);
    EXPECT_EQ(rig.conn->write(bytes), WriteQueue::Result::PeerGone);
    EXPECT_FALSE(rig.conn->open.load());
    EXPECT_EQ(rig.conn->fd.load(), -1);
    EXPECT_EQ(rig.stats.connectionsOpen.load(), 0u);

    // Later writes, resumes and closes are no-ops: no second close of
    // the fd and no second decrement of the gauge.
    EXPECT_EQ(rig.conn->write(bytes), WriteQueue::Result::PeerGone);
    EXPECT_EQ(rig.conn->resume(), WriteQueue::Result::PeerGone);
    rig.conn->close();
    EXPECT_EQ(rig.stats.connectionsOpen.load(), 0u);
    EXPECT_EQ(rig.ready(), 0u);
}

TEST(EventLoopConn, RacingClosesDecrementTheGaugeOnce)
{
    const auto bytes = pattern(512);
    for (int round = 0; round < 200; ++round) {
        Rig rig;
        std::atomic<bool> go{false};
        // One thread writes then closes, as the server's collector can
        // on a peer-gone flush; the other closes, as the io loop does
        // on EOF.
        std::thread a([&] {
            while (!go.load())
                std::this_thread::yield();
            rig.conn->write(bytes);
            rig.conn->close();
        });
        std::thread b([&] {
            while (!go.load())
                std::this_thread::yield();
            rig.conn->close();
        });
        go.store(true);
        a.join();
        b.join();
        ASSERT_EQ(rig.stats.connectionsOpen.load(), 0u) << "round " << round;
        ASSERT_FALSE(rig.conn->open.load());
    }
}

} // namespace
} // namespace facile::server
