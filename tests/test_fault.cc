/**
 * @file
 * Deterministic fault-injection unit tests (src/testing/fault.h): one
 * test per wrapped syscall site, each proving the EINTR/short-IO loop
 * around that site actually recovers — injected signals and partial
 * transfers must be invisible to callers, byte for byte. The whole
 * file skips itself in builds without -DFACILE_FAULT_INJECT=ON (the
 * hooks are compile-time no-ops there; CI runs both flavors).
 */
#include <gtest/gtest.h>

#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bhive/generator.h"
#include "cluster/router.h"
#include "facile/component.h"
#include "server/client.h"
#include "server/net_util.h"
#include "server/server.h"
#include "server/write_queue.h"
#include "testing/fault.h"

namespace facile::server {
namespace {

#define SKIP_WITHOUT_FAULT_INJECTION()                                     \
    do {                                                                   \
        if (!testing::kFaultInjection)                                     \
            GTEST_SKIP() << "built without FACILE_FAULT_INJECT";           \
    } while (0)

/** Scoped clean slate: every test starts and ends with no faults armed. */
struct FaultTest : ::testing::Test {
    void SetUp() override { testing::resetFaults(); }
    void TearDown() override { testing::resetFaults(); }
};

std::string
faultUnixPath()
{
    static std::atomic<int> counter{0};
    return "/tmp/facile_fault_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".sock";
}

/** Read exactly @p len bytes from @p fd (blocking socketpair end). */
std::vector<std::uint8_t>
recvExactly(int fd, std::size_t len)
{
    std::vector<std::uint8_t> got(len);
    std::size_t off = 0;
    while (off < len) {
        const ssize_t n = ::recv(fd, got.data() + off, len - off, 0);
        if (n < 0 && errno == EINTR)
            continue;
        EXPECT_GT(n, 0) << "peer closed early at " << off;
        if (n <= 0)
            break;
        off += static_cast<std::size_t>(n);
    }
    got.resize(off);
    return got;
}

std::vector<std::uint8_t>
patternBytes(std::size_t len)
{
    std::vector<std::uint8_t> v(len);
    for (std::size_t i = 0; i < len; ++i)
        v[i] = static_cast<std::uint8_t>(i * 131 + 7);
    return v;
}

TEST_F(FaultTest, RegistryCountsHitsAndHonorsTheArmedWindow)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    // Hits 0..9; injection armed for hits [3, 3+4).
    testing::armFault("unit.site", {.firstHit = 3, .count = 4,
                                    .err = EINTR});
    int injected = 0;
    for (int i = 0; i < 10; ++i)
        injected += testing::faultPoint("unit.site", 0).err == EINTR;
    EXPECT_EQ(injected, 4);
    EXPECT_EQ(testing::faultHits("unit.site"), 10u);
    EXPECT_EQ(testing::faultsFired("unit.site"), 4u);

    // disarm stops injection but keeps counting hits.
    testing::disarmFault("unit.site");
    EXPECT_FALSE(testing::faultPoint("unit.site", 0).injected());
    EXPECT_EQ(testing::faultHits("unit.site"), 11u);

    // reset zeroes everything.
    testing::resetFaults();
    EXPECT_EQ(testing::faultHits("unit.site"), 0u);
    EXPECT_EQ(testing::faultsFired("unit.site"), 0u);
}

TEST_F(FaultTest, RegistryClampPassesThroughForShortIo)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    testing::armFault("unit.clamp", {.firstHit = 0, .count = 1,
                                     .clampBytes = 3});
    const auto fa = testing::faultPoint("unit.clamp", 100);
    EXPECT_EQ(fa.err, 0);
    EXPECT_EQ(fa.clamp, 3u);
    EXPECT_TRUE(fa.injected());
}

TEST_F(FaultTest, ChaosStreamIsDeterministicPerSeed)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    auto run = [](std::uint64_t seed) {
        testing::resetFaults();
        testing::armChaos(seed, 4);
        std::vector<int> pattern;
        for (int i = 0; i < 64; ++i) {
            const auto fa = testing::faultPoint("chaos.site", 64);
            pattern.push_back(fa.err != 0 ? 1
                              : fa.clamp != static_cast<std::size_t>(-1)
                                  ? 2
                                  : 0);
        }
        return pattern;
    };
    const auto a = run(42), b = run(42), c = run(43);
    EXPECT_EQ(a, b) << "same seed must inject at the same points";
    EXPECT_NE(a, c) << "different seeds should diverge";
    // ~1-in-4 odds over 64 hits: statistically certain to fire.
    EXPECT_GT(std::accumulate(a.begin(), a.end(), 0), 0);
}

// ---- net_util.h sites ------------------------------------------------------

TEST_F(FaultTest, SendAllRetriesEintrAndReassemblesShortWrites)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    int sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    const auto payload = patternBytes(4096);

    // Two EINTRs, then every remaining attempt clamped to 17 bytes.
    testing::armFault("net.send", {.firstHit = 0, .count = 2,
                                   .err = EINTR});
    std::thread rx([&] {
        EXPECT_EQ(recvExactly(sp[1], payload.size()), payload);
    });
    ASSERT_TRUE(sendAll(sp[0], payload.data(), payload.size()));
    rx.join();
    EXPECT_EQ(testing::faultsFired("net.send"), 2u);

    testing::armFault("net.send",
                      {.firstHit = testing::faultHits("net.send"),
                       .count = UINT64_MAX, .clampBytes = 17});
    std::thread rx2([&] {
        EXPECT_EQ(recvExactly(sp[1], payload.size()), payload);
    });
    ASSERT_TRUE(sendAll(sp[0], payload.data(), payload.size()));
    rx2.join();
    // 4096 bytes at <= 17 per syscall: the loop really iterated.
    EXPECT_GE(testing::faultsFired("net.send"), 4096u / 17u);
    ::close(sp[0]);
    ::close(sp[1]);
}

TEST_F(FaultTest, SendAllReportsRealErrorsAfterEintrStorm)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    int sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    std::uint8_t byte = 0x5a;
    testing::armFault("net.send", {.firstHit = 0, .count = 3,
                                   .err = EINTR});
    ::close(sp[1]); // peer gone: after the EINTRs, send must fail
    EXPECT_FALSE(sendAll(sp[0], &byte, 1));
    EXPECT_GE(testing::faultHits("net.send"), 4u);
    ::close(sp[0]);
}

TEST_F(FaultTest, WakeFdSignalAndDrainSurviveEintr)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    const int efd = ::eventfd(0, EFD_NONBLOCK);
    ASSERT_GE(efd, 0);

    // A lost wakeup here would leave the loop asleep with queued work;
    // the write must retry through injected EINTRs until it lands.
    testing::armFault("net.wake_write", {.firstHit = 0, .count = 3,
                                         .err = EINTR});
    signalWakeFd(efd);
    EXPECT_EQ(testing::faultsFired("net.wake_write"), 3u);

    // ... and the drain side must not abandon a readable counter on
    // EINTR, or level-triggered epoll would spin on it forever.
    testing::armFault("net.wake_read", {.firstHit = 0, .count = 2,
                                        .err = EINTR});
    drainWakeFd(efd);
    std::uint64_t v = 0;
    EXPECT_EQ(::read(efd, &v, sizeof v), -1);
    EXPECT_EQ(errno, EAGAIN) << "counter was not fully drained";
    ::close(efd);
}

// ---- write_queue.h ---------------------------------------------------------

TEST_F(FaultTest, WriteQueueRetriesEintrAndResumesInjectedShortWrites)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    int sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    ASSERT_TRUE(setNonBlocking(sp[0]));
    const auto a = patternBytes(1500), b = patternBytes(700);

    // EINTR twice, then clamp every sendmsg to 64 bytes: the gather
    // loop must keep resubmitting the unsent tail in order.
    testing::armFault("wq.sendmsg", {.firstHit = 0, .count = 2,
                                     .err = EINTR});
    WriteQueue wq;
    iovec iov[2] = {{const_cast<std::uint8_t *>(a.data()), a.size()},
                    {const_cast<std::uint8_t *>(b.data()), b.size()}};
    std::thread rx([&] {
        auto got = recvExactly(sp[1], a.size() + b.size());
        ASSERT_EQ(got.size(), a.size() + b.size());
        EXPECT_EQ(std::memcmp(got.data(), a.data(), a.size()), 0);
        EXPECT_EQ(std::memcmp(got.data() + a.size(), b.data(), b.size()),
                  0);
    });
    EXPECT_EQ(wq.writeGather(sp[0], iov, 2), WriteQueue::Result::Drained);
    EXPECT_TRUE(wq.empty());
    rx.join();

    testing::armFault("wq.sendmsg",
                      {.firstHit = testing::faultHits("wq.sendmsg"),
                       .count = UINT64_MAX, .clampBytes = 64});
    std::thread rx2([&] {
        EXPECT_EQ(recvExactly(sp[1], a.size()), a);
    });
    iovec one = {const_cast<std::uint8_t *>(a.data()), a.size()};
    EXPECT_EQ(wq.writeGather(sp[0], &one, 1),
              WriteQueue::Result::Drained);
    rx2.join();
    EXPECT_GE(testing::faultsFired("wq.sendmsg"), 1500u / 64u);
    ::close(sp[0]);
    ::close(sp[1]);
}

TEST_F(FaultTest, WriteQueueTreatsInjectedEpipeAsPeerGone)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    int sp[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sp), 0);
    ASSERT_TRUE(setNonBlocking(sp[0]));
    testing::armFault("wq.sendmsg", {.firstHit = 0, .count = 1,
                                     .err = EPIPE});
    WriteQueue wq;
    std::uint8_t byte = 1;
    iovec one = {&byte, 1};
    EXPECT_EQ(wq.writeGather(sp[0], &one, 1),
              WriteQueue::Result::PeerGone);
    ::close(sp[0]);
    ::close(sp[1]);
}

// ---- client + server sites, end to end -------------------------------------

struct Loopback {
    explicit Loopback(ServerOptions o = {}) : opts(std::move(o))
    {
        opts.unixPath = faultUnixPath();
        opts.engine = &eng;
        server.emplace(opts);
        server->start();
    }
    ~Loopback()
    {
        if (server)
            server->stop();
    }
    ServerOptions opts;
    engine::PredictionEngine eng{{.numThreads = 2}};
    std::optional<PredictionServer> server;
};

std::vector<engine::Request>
smallBatch()
{
    static const auto suite = bhive::generateSuite(99, 2);
    std::vector<engine::Request> reqs;
    for (const auto &b : suite)
        reqs.push_back({b.bytesL, uarch::UArch::SKL, true, {}});
    return reqs;
}

std::vector<model::Prediction>
serialBatch(const std::vector<engine::Request> &reqs)
{
    model::PredictScratch scratch;
    std::vector<model::Prediction> out;
    for (const auto &r : reqs)
        out.push_back(model::predict(bb::analyze(r.bytes, r.arch),
                                     r.loop, r.config, scratch));
    return out;
}

void
expectBitIdentical(const std::vector<model::Prediction> &got,
                   const std::vector<model::Prediction> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i)
        ASSERT_EQ(std::memcmp(&got[i].throughput, &want[i].throughput,
                              sizeof(double)),
                  0)
            << "block " << i;
}

TEST_F(FaultTest, ClientSurvivesEintrOnConnectSendRecvAndPoll)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    Loopback lb;
    const auto reqs = smallBatch();
    const auto expected = serialBatch(reqs);

    // EINTR during connect(): completion must be picked up via
    // poll+SO_ERROR (finishInterruptedConnect), not surfaced.
    testing::armFault("client.connect", {.firstHit = 0, .count = 1,
                                         .err = EINTR});
    auto client = Client::connectUnix(lb.opts.unixPath);
    EXPECT_EQ(testing::faultsFired("client.connect"), 1u);

    // EINTR + short IO across every client-side loop, all at once.
    testing::armFault("client.send", {.firstHit = 1, .count = 4,
                                      .err = EINTR});
    testing::armFault("client.recv", {.firstHit = 0, .count = UINT64_MAX,
                                      .clampBytes = 11});
    testing::armFault("client.poll", {.firstHit = 2, .count = 3,
                                      .err = EINTR});
    expectBitIdentical(client.predictMany(reqs), expected);
    EXPECT_GE(testing::faultsFired("client.recv"), reqs.size())
        << "11-byte reads cannot carry a response frame each";
}

TEST_F(FaultTest, ServerSurvivesEintrOnAcceptEpollRecvAndCollectorPoll)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    Loopback lb;
    const auto reqs = smallBatch();
    const auto expected = serialBatch(reqs);

    testing::armFault("server.accept", {.firstHit = 0, .count = 2,
                                        .err = EINTR});
    testing::armFault("server.epoll",
                      {.firstHit = testing::faultHits("server.epoll"),
                       .count = 8, .err = EINTR});
    testing::armFault("server.recv", {.firstHit = 0, .count = UINT64_MAX,
                                      .clampBytes = 13});
    testing::armFault("server.collector_poll",
                      {.firstHit =
                           testing::faultHits("server.collector_poll"),
                       .count = 8, .err = EINTR});
    auto client = Client::connectUnix(lb.opts.unixPath);
    expectBitIdentical(client.predictMany(reqs), expected);
    EXPECT_EQ(testing::faultsFired("server.accept"), 2u);
    EXPECT_GE(testing::faultsFired("server.recv"), reqs.size());
}

TEST_F(FaultTest, RouterSurvivesEintrOnAcceptEpollAndRecv)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    Loopback backend;
    cluster::RouterOptions ro;
    ro.unixPath = faultUnixPath();
    ro.backends = {cluster::parseEndpoint("unix:" + backend.opts.unixPath)};
    cluster::Router router(ro);
    router.start();
    // The backend has answered the router's first HEALTH probe, so its
    // accept loop is done: the accept faults below land on the router.
    while (backend.server->stats().requests == 0)
        std::this_thread::yield();
    const auto reqs = smallBatch();
    const auto expected = serialBatch(reqs);

    testing::armFault("server.accept",
                      {.firstHit = testing::faultHits("server.accept"),
                       .count = 2, .err = EINTR});
    testing::armFault("server.epoll",
                      {.firstHit = testing::faultHits("server.epoll"),
                       .count = 8, .err = EINTR});
    testing::armFault("server.recv",
                      {.firstHit = testing::faultHits("server.recv"),
                       .count = 8, .err = EINTR});
    auto client = Client::connectUnix(ro.unixPath);
    expectBitIdentical(client.predictMany(reqs), expected);
    EXPECT_EQ(testing::faultsFired("server.accept"), 2u);
    EXPECT_GT(testing::faultsFired("server.recv"), 0u);
    router.stop();
}

TEST_F(FaultTest, CollectorEintrNeitherSplitsABurstNorSpins)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    ServerOptions o;
    o.batchWindowUs = 200000;
    Loopback lb(o);
    const auto reqs = smallBatch();
    const auto expected = serialBatch(reqs);
    auto control = Client::connectUnix(lb.opts.unixPath);
    auto a = Client::connectUnix(lb.opts.unixPath);
    auto b = Client::connectUnix(lb.opts.unixPath);
    a.ping();
    b.ping();

    // Every collector poll fails with EINTR while armed, so the idle
    // collector busy-retries and pops requests while the io loop is
    // still admitting them. EINTR must neither end the window early
    // nor stretch it to the 200 ms deadline.
    testing::armFault("server.collector_poll",
                      {.firstHit =
                           testing::faultHits("server.collector_poll"),
                       .count = UINT64_MAX, .err = EINTR});
    auto best = std::chrono::steady_clock::duration::max();
    for (int i = 0; i < 3; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        expectBitIdentical(control.predictMany({reqs.front()}),
                           {expected.front()});
        best = std::min(best, std::chrono::steady_clock::now() - t0);
    }
    EXPECT_LT(best, std::chrono::milliseconds(50));

    // Two 64-frame bursts on two connections, read in ONE io-loop
    // pass: an EINTR storm on epoll_wait keeps the loop from reading
    // until both have been sent. The collector pops the first
    // connection's requests while the second is still being read, and
    // must still submit all 128 as one batch.
    std::vector<engine::Request> burst;
    std::vector<model::Prediction> burstExpected;
    for (std::size_t i = 0; burst.size() < 64; ++i) {
        burst.push_back(reqs[i % reqs.size()]);
        burstExpected.push_back(expected[i % reqs.size()]);
    }
    const ServerStats before = control.stats();
    testing::armFault("server.epoll",
                      {.firstHit = testing::faultHits("server.epoll"),
                       .count = UINT64_MAX, .err = EINTR});
    // The ping ends the loop's current wait, so the storm starts now;
    // it is answered before the storm or in the pass after it.
    std::thread waker([&] { control.ping(); });
    while (testing::faultsFired("server.epoll") == 0)
        std::this_thread::yield();
    std::thread ta([&] {
        expectBitIdentical(a.predictMany(burst), burstExpected);
    });
    std::thread tb([&] {
        expectBitIdentical(b.predictMany(burst), burstExpected);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    testing::disarmFault("server.epoll");
    waker.join();
    ta.join();
    tb.join();
    const ServerStats after = control.stats();
    EXPECT_EQ(after.batches - before.batches, 1u);
    EXPECT_EQ(after.maxBatch, 128u);
    EXPECT_GT(testing::faultsFired("server.collector_poll"), 0u);

    // Once the faults stop, the idle collector blocks in poll again.
    testing::disarmFault("server.collector_poll");
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    const auto idleHits = testing::faultHits("server.collector_poll");
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(testing::faultHits("server.collector_poll"), idleHits);
}

TEST_F(FaultTest, ChaosEintrAndShortIoEverywhereStaysBitIdentical)
{
    SKIP_WITHOUT_FAULT_INJECTION();
    Loopback lb;
    const auto reqs = smallBatch();
    const auto expected = serialBatch(reqs);
    // Every wrapped site in the process rolls 1-in-3 dice per hit.
    testing::armChaos(0xfac11e01u, 3);
    auto client = Client::connectUnix(lb.opts.unixPath);
    for (int pass = 0; pass < 3; ++pass)
        expectBitIdentical(client.predictMany(reqs), expected);
}

} // namespace
} // namespace facile::server
