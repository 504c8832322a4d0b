/**
 * @file
 * Cluster-mode tests: rendezvous routing properties, the facile_lb
 * router data plane (bit-identity through backends, id isolation
 * across clients, failover on backend death with zero caller-visible
 * failures), snapshot-over-the-wire bootstrap (bit-identical to a
 * local save, torn images rejected before touching disk), and the
 * replica convergence fold.
 */
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "analysis/snapshot.h"
#include "bhive/generator.h"
#include "cluster/bootstrap.h"
#include "cluster/membership.h"
#include "cluster/router.h"
#include "facile/component.h"
#include "server/client.h"
#include "server/frame_parser.h"
#include "server/net_util.h"
#include "server/protocol.h"
#include "server/resilient_client.h"
#include "server/server.h"

namespace facile::cluster {
namespace {

using model::Prediction;

const std::vector<bhive::Benchmark> &
suite()
{
    static const auto s = bhive::generateSuite(7777, 2);
    return s;
}

std::string
freshUnixPath()
{
    static std::atomic<int> counter{0};
    return "/tmp/facile_cluster_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".sock";
}

std::string
freshFilePath(const char *tag)
{
    static std::atomic<int> counter{0};
    return "/tmp/facile_cluster_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + "_" + tag;
}

::testing::AssertionResult
bitIdentical(const Prediction &a, const Prediction &b)
{
    if (std::memcmp(&a.throughput, &b.throughput, sizeof(double)) != 0)
        return ::testing::AssertionFailure()
               << "throughput " << a.throughput << " vs " << b.throughput;
    if (std::memcmp(a.componentValue.data(), b.componentValue.data(),
                    sizeof(double) * a.componentValue.size()) != 0)
        return ::testing::AssertionFailure() << "componentValue differs";
    if (a.bottlenecks != b.bottlenecks)
        return ::testing::AssertionFailure() << "bottlenecks differ";
    return ::testing::AssertionSuccess();
}

Prediction
serialPredict(const engine::Request &r)
{
    model::PredictScratch scratch;
    return model::predict(bb::analyze(r.bytes, r.arch), r.loop, r.config,
                          scratch, r.payload);
}

/** N in-process backends, each with its own engine, on unix sockets. */
struct Fleet
{
    std::vector<std::unique_ptr<engine::PredictionEngine>> engines;
    std::vector<std::unique_ptr<server::PredictionServer>> servers;
    std::vector<Endpoint> endpoints;

    explicit Fleet(std::size_t n, int batchWindowUs = 0)
    {
        for (std::size_t i = 0; i < n; ++i) {
            engines.push_back(std::make_unique<engine::PredictionEngine>(
                engine::EngineOptions{.numThreads = 2}));
            server::ServerOptions o;
            o.unixPath = freshUnixPath();
            o.engine = engines.back().get();
            o.batchWindowUs = batchWindowUs;
            servers.push_back(
                std::make_unique<server::PredictionServer>(o));
            servers.back()->start();
            endpoints.push_back(parseEndpoint("unix:" + o.unixPath));
        }
    }

    ~Fleet()
    {
        for (auto &s : servers)
            s->stop();
    }
};

// ---- membership ------------------------------------------------------------

TEST(Membership, ParseEndpoint)
{
    Endpoint u = parseEndpoint("unix:/tmp/a.sock");
    EXPECT_TRUE(u.isUnix());
    EXPECT_EQ(u.path, "/tmp/a.sock");
    EXPECT_EQ(u.label(), "unix:/tmp/a.sock");

    Endpoint t = parseEndpoint("127.0.0.1:9000");
    EXPECT_FALSE(t.isUnix());
    EXPECT_EQ(t.host, "127.0.0.1");
    EXPECT_EQ(t.port, 9000);
    EXPECT_EQ(t.label(), "127.0.0.1:9000");

    EXPECT_THROW(parseEndpoint("unix:"), std::invalid_argument);
    EXPECT_THROW(parseEndpoint("nocolon"), std::invalid_argument);
    EXPECT_THROW(parseEndpoint("host:"), std::invalid_argument);
    EXPECT_THROW(parseEndpoint("host:notaport"), std::invalid_argument);
    EXPECT_THROW(parseEndpoint("host:70000"), std::invalid_argument);
}

TEST(Membership, RouteKeyIsContentAddressed)
{
    const std::vector<std::uint8_t> a = {0x90, 0x90};
    const std::vector<std::uint8_t> b = {0x90, 0x91};
    EXPECT_EQ(routeKey(1, a.data(), a.size()),
              routeKey(1, a.data(), a.size()));
    EXPECT_NE(routeKey(1, a.data(), a.size()),
              routeKey(2, a.data(), a.size()));
    EXPECT_NE(routeKey(1, a.data(), a.size()),
              routeKey(1, b.data(), b.size()));
}

TEST(Membership, RendezvousMovesOnlyTheDeadBackendsKeys)
{
    std::vector<Endpoint> eps;
    for (int i = 0; i < 4; ++i)
        eps.push_back(parseEndpoint("unix:/tmp/backend" +
                                    std::to_string(i) + ".sock"));
    BackendPool pool(eps);

    constexpr std::size_t kKeys = 10000;
    std::vector<std::size_t> before(kKeys);
    std::size_t onDead = 0;
    for (std::size_t k = 0; k < kKeys; ++k) {
        before[k] = pool.pick(k * 0x9e3779b97f4a7c15ULL);
        ASSERT_NE(before[k], BackendPool::npos);
        if (before[k] == 2)
            ++onDead;
    }
    // Sanity: the key space is actually spread (each backend owns a
    // nontrivial share).
    EXPECT_GT(onDead, kKeys / 10);

    pool.setState(2, BackendState::Down);
    for (std::size_t k = 0; k < kKeys; ++k) {
        const std::size_t after = pool.pick(k * 0x9e3779b97f4a7c15ULL);
        ASSERT_NE(after, BackendPool::npos);
        if (before[k] != 2)
            EXPECT_EQ(after, before[k]) << "key " << k << " moved "
                                           "although its backend lives";
        else
            EXPECT_NE(after, 2u);
    }

    // Same endpoints, fresh pool: the assignment is a pure function of
    // the labels, so a router restart reshuffles nothing.
    BackendPool again(eps);
    for (std::size_t k = 0; k < kKeys; ++k)
        EXPECT_EQ(again.pick(k * 0x9e3779b97f4a7c15ULL), before[k]);
}

// ---- router data plane -----------------------------------------------------

TEST(Router, BitIdenticalThroughTwoBackends)
{
    Fleet fleet(2);
    RouterOptions ro;
    ro.unixPath = freshUnixPath();
    ro.backends = fleet.endpoints;
    Router router(ro);
    router.start();

    std::vector<engine::Request> reqs;
    for (const auto &b : suite())
        for (uarch::UArch arch : uarch::allUArchs()) {
            reqs.push_back({b.bytesU, arch, false, {}});
            reqs.push_back({b.bytesL, arch, true, {}});
        }

    auto client = server::Client::connectUnix(ro.unixPath);
    auto out = client.predictMany(reqs);
    ASSERT_EQ(out.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_TRUE(bitIdentical(out[i], serialPredict(reqs[i])))
            << "request " << i;

    const server::ServerStats rs = router.stats();
    EXPECT_EQ(rs.routedPredicts, reqs.size());
    EXPECT_EQ(rs.backendFailovers, 0u);

    // The shards really are shards: both backends served some of the
    // traffic, and together they served all of it.
    std::uint64_t served = 0;
    for (const auto &ep : fleet.endpoints) {
        auto bc = server::Client::connectUnix(ep.path);
        const std::uint64_t p = bc.stats().predictions;
        EXPECT_GT(p, 0u) << ep.label();
        served += p;
    }
    EXPECT_EQ(served, reqs.size());
    router.stop();
}

/** The socket fds this process currently holds. */
std::set<int>
openSockets()
{
    std::set<int> fds;
    for (const auto &entry :
         std::filesystem::directory_iterator("/proc/self/fd")) {
        const int fd = std::stoi(entry.path().filename().string());
        struct ::stat sb;
        if (::fstat(fd, &sb) == 0 && S_ISSOCK(sb.st_mode))
            fds.insert(fd);
    }
    return fds;
}

/**
 * Every socket opened since @p before has FD_CLOEXEC set, so no
 * exec'd child inherits a listener (and keeps its port bound) or a
 * connection. Sockets the process inherited are not ours to judge.
 * Fails when no new socket exists.
 */
::testing::AssertionResult
newSocketsCloseOnExec(const std::set<int> &before)
{
    std::size_t checked = 0;
    for (const int fd : openSockets()) {
        if (before.count(fd))
            continue;
        ++checked;
        const int flags = ::fcntl(fd, F_GETFD);
        if (flags < 0 || !(flags & FD_CLOEXEC))
            return ::testing::AssertionFailure()
                   << "socket fd " << fd << " lacks FD_CLOEXEC";
    }
    if (checked == 0)
        return ::testing::AssertionFailure() << "no new sockets";
    return ::testing::AssertionSuccess() << checked << " sockets";
}

TEST(Router, ServerAndRouterSocketsAreCloseOnExec)
{
    // Each check runs while no other thread creates or closes sockets:
    // the clients' pings return only after the server accepted them,
    // the clients stay connected until stop() has joined the io loops
    // (an io loop closing a peer's socket would race the /proc scan),
    // and the router's one backend refuses the start() dial and is not
    // re-dialed during the check.
    const std::set<int> inherited = openSockets();
    server::ServerOptions so;
    so.unixPath = freshUnixPath();
    so.tcpPort = 0;
    server::PredictionServer srv(so);
    srv.start();
    EXPECT_TRUE(newSocketsCloseOnExec(inherited))
        << "after PredictionServer::start";
    auto unixClient = server::Client::connectUnix(so.unixPath);
    auto tcpClient = server::Client::connectTcp("127.0.0.1", srv.tcpPort());
    unixClient.ping();
    tcpClient.ping();
    EXPECT_TRUE(newSocketsCloseOnExec(inherited))
        << "after Client::connectUnix and Client::connectTcp";
    srv.stop();

    RouterOptions ro;
    ro.unixPath = freshUnixPath();
    ro.tcpPort = 0;
    ro.backends = {parseEndpoint("unix:" + freshUnixPath())};
    ro.reconnectBackoffMs = ro.reconnectBackoffMaxMs = 60000;
    Router router(ro);
    router.start();
    EXPECT_TRUE(newSocketsCloseOnExec(inherited)) << "after Router::start";
    router.stop();
}

TEST(Router, ControlOpsAnsweredLocally)
{
    Fleet fleet(1);
    RouterOptions ro;
    ro.unixPath = freshUnixPath();
    ro.backends = fleet.endpoints;
    Router router(ro);
    router.start();

    auto client = server::Client::connectUnix(ro.unixPath);
    client.ping();
    EXPECT_EQ(client.health(), server::HealthState::Ready);
    // Snapshot administration addresses a specific replica; the router
    // refuses it rather than forwarding somewhere arbitrary.
    EXPECT_FALSE(client.snapshot());
    const server::ServerStats s = client.stats();
    EXPECT_GE(s.requests, 3u);
    EXPECT_EQ(s.predictions, 0u); // the router predicts nothing itself
    // The io counters come from the event-loop core the router runs on.
    EXPECT_GT(s.epollWakeups, 0u);
    router.stop();
}

TEST(Router, PipelinedBurstLargerThanBufferCapIsServed)
{
    // A well-formed pipelined burst several times maxBufferedPerConn,
    // sent in one go so most of it already sits in the socket when the
    // router reads. Frames drain after every read chunk, so only a
    // partial frame is ever buffered and the cap never binds.
    Fleet fleet(1);
    RouterOptions ro;
    ro.unixPath = freshUnixPath();
    ro.backends = fleet.endpoints;
    ro.maxBufferedPerConn = 256 * 1024;
    Router router(ro);
    router.start();

    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    int sndbuf = 8 << 20;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, ro.unixPath.c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);

    constexpr std::uint64_t kPings = 60000;
    std::vector<std::uint8_t> burst;
    for (std::uint64_t id = 1; id <= kPings; ++id)
        server::appendControlRequest(burst, id, server::Op::Ping);
    ASSERT_GT(burst.size(), 3 * ro.maxBufferedPerConn);
    std::thread tx([&] {
        EXPECT_TRUE(server::sendAll(fd, burst.data(), burst.size()));
    });

    // Control ops are answered in order, one PING response per id.
    std::vector<std::uint8_t> in(64 * 1024);
    std::vector<std::uint8_t> pendingBytes;
    std::uint64_t answered = 0;
    while (answered < kPings) {
        pollfd pf{fd, POLLIN, 0};
        if (::poll(&pf, 1, 10000) <= 0)
            break;
        const ssize_t n = ::read(fd, in.data(), in.size());
        if (n <= 0)
            break; // the router closed the connection
        pendingBytes.insert(pendingBytes.end(), in.data(), in.data() + n);
        std::size_t off = 0;
        while (pendingBytes.size() - off >= server::kResponseHeaderSize) {
            const server::ResponseHeader h =
                server::parseResponseHeader(pendingBytes.data() + off);
            if (pendingBytes.size() - off <
                server::kResponseHeaderSize + h.len)
                break;
            ASSERT_EQ(h.id, answered + 1);
            ASSERT_EQ(h.status, static_cast<std::uint8_t>(server::Status::Ok));
            ++answered;
            off += server::kResponseHeaderSize + h.len;
        }
        pendingBytes.erase(pendingBytes.begin(),
                           pendingBytes.begin() +
                               static_cast<std::ptrdiff_t>(off));
    }
    tx.join();
    ::close(fd);
    EXPECT_EQ(answered, kPings);
    EXPECT_EQ(router.stats().quotaClosed, 0u);
    router.stop();
}

TEST(Router, NoCrossClientIdLeakage)
{
    Fleet fleet(2);
    RouterOptions ro;
    ro.unixPath = freshUnixPath();
    ro.backends = fleet.endpoints;
    Router router(ro);
    router.start();

    // Two clients pipeline concurrently. Both number their requests
    // from 1 (fresh Client state), so every id collides on the shared
    // backend pipes; each must still get exactly its own answers.
    auto work = [&](int salt) {
        std::vector<engine::Request> reqs;
        for (const auto &b : suite()) {
            engine::Request r{b.bytesL, uarch::UArch::SKL, true, {}};
            r.arch = salt ? uarch::UArch::ICL : uarch::UArch::SKL;
            reqs.push_back(std::move(r));
        }
        auto client = server::Client::connectUnix(ro.unixPath);
        for (int round = 0; round < 20; ++round) {
            auto out = client.predictMany(reqs);
            ASSERT_EQ(out.size(), reqs.size());
            for (std::size_t i = 0; i < reqs.size(); ++i)
                ASSERT_TRUE(bitIdentical(out[i], serialPredict(reqs[i])))
                    << "client " << salt << " round " << round
                    << " request " << i;
        }
    };
    std::thread t1([&] { work(0); });
    std::thread t2([&] { work(1); });
    t1.join();
    t2.join();
    router.stop();
}

TEST(Router, BackendDeathFailsOverWithZeroCallerVisibleFailures)
{
    // Three real backends plus a "blackhole": a socket that accepts
    // the router's connection and swallows forwarded frames without
    // ever answering. Requests routed to it are guaranteed to be
    // pending when its connection is cut, so the failover replay path
    // runs deterministically (killing a real server races with its
    // responses).
    Fleet fleet(3);
    const std::string holePath = freshUnixPath();
    const int listenFd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(listenFd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, holePath.c_str(),
                 sizeof addr.sun_path - 1);
    ASSERT_EQ(::bind(listenFd, reinterpret_cast<sockaddr *>(&addr),
                     sizeof addr), 0);
    ASSERT_EQ(::listen(listenFd, 8), 0);
    // The cut waits for an event, not a timer: the blackhole has read
    // a whole forwarded PREDICT frame (the router's first frame on a
    // new connection is a HEALTH probe, which does not count), or the
    // client has finished without one ever arriving.
    std::mutex cutMu;
    std::condition_variable cutCv;
    std::atomic<bool> predictHeld{false}, clientDone{false};
    const auto signal = [&](std::atomic<bool> &flag) {
        {
            std::lock_guard<std::mutex> lock(cutMu);
            flag.store(true);
        }
        cutCv.notify_all();
    };
    std::atomic<int> holeConn{-1};
    std::thread hole([&] {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        holeConn.store(fd);
        server::FrameParser parser;
        server::FrameView f;
        std::uint8_t buf[4096];
        ssize_t n;
        while (fd >= 0 && (n = ::read(fd, buf, sizeof buf)) > 0) {
            if (predictHeld.load() ||
                !parser.feed(buf, static_cast<std::size_t>(n)))
                continue;
            while (parser.next(f))
                if (f.header.op ==
                    static_cast<std::uint8_t>(server::Op::Predict))
                    signal(predictHeld);
        }
    });

    RouterOptions ro;
    ro.unixPath = freshUnixPath();
    ro.backends = fleet.endpoints;
    ro.backends.push_back(parseEndpoint("unix:" + holePath));
    // Probes must not declare the blackhole dead before the cut does.
    ro.healthIntervalMs = 10000;
    Router router(ro);
    router.start();

    std::vector<engine::Request> reqs;
    while (reqs.size() < 600)
        for (const auto &b : suite())
            reqs.push_back({b.bytesL, uarch::UArch::SKL, true, {}});

    std::thread killer([&] {
        {
            std::unique_lock<std::mutex> lock(cutMu);
            cutCv.wait(lock, [&] {
                return predictHeld.load() || clientDone.load();
            });
        }
        ::shutdown(listenFd, SHUT_RDWR); // wakes an accept still waiting
        ::close(listenFd);               // re-dials now fail too
        const int fd = holeConn.load();
        if (fd >= 0)
            ::shutdown(fd, SHUT_RDWR);
    });

    server::RetryPolicy policy;
    policy.opDeadline = std::chrono::milliseconds(60000);
    auto client = server::ResilientClient::forUnix(ro.unixPath, policy);
    std::vector<Prediction> out;
    try {
        out = client.predictMany(reqs); // throws on any real failure
    } catch (...) {
        signal(clientDone);
        killer.join();
        hole.join();
        throw;
    }
    signal(clientDone);
    killer.join();
    hole.join();
    if (holeConn.load() >= 0)
        ::close(holeConn.load());
    ::unlink(holePath.c_str());
    ASSERT_EQ(out.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_TRUE(bitIdentical(out[i], serialPredict(reqs[i])))
            << "request " << i;

    // The blackhole held its shard's requests when it died; every one
    // of them was replayed to a surviving backend, not failed.
    EXPECT_GT(router.stats().backendFailovers, 0u);

    // The fleet keeps serving after the death, bit-identically.
    auto p = client.predict(suite()[0].bytesU, uarch::UArch::RKL, false);
    EXPECT_TRUE(bitIdentical(
        p, serialPredict({suite()[0].bytesU, uarch::UArch::RKL, false,
                          {}})));
    router.stop();
}

TEST(Router, NoRoutableBackendAnswersOverloaded)
{
    // One backend that never existed: the dial fails synchronously
    // (ENOENT on the unix path), so every PREDICT is shed with the
    // retryable OVERLOADED status — the contract ResilientClient's
    // backoff is built on.
    RouterOptions ro;
    ro.unixPath = freshUnixPath();
    ro.backends = {parseEndpoint("unix:/tmp/facile_cluster_nonexistent_" +
                                 std::to_string(::getpid()) + ".sock")};
    Router router(ro);
    router.start();

    auto client = server::Client::connectUnix(ro.unixPath);
    client.ping(); // control plane still answers
    try {
        client.predict(suite()[0].bytesU, uarch::UArch::SKL, false);
        FAIL() << "expected OVERLOADED";
    } catch (const server::ProtocolError &e) {
        EXPECT_TRUE(e.retryable()) << e.what();
    }
    EXPECT_GT(router.stats().overloadedQueue, 0u);
    router.stop();
}

// ---- snapshot-over-the-wire bootstrap --------------------------------------

TEST(Bootstrap, WireFetchBitIdenticalToLocalSave)
{
    Fleet fleet(1);
    auto client = server::Client::connectUnix(fleet.endpoints[0].path);
    for (const auto &b : suite())
        client.predict(b.bytesL, uarch::UArch::SKL, true);

    const std::vector<std::uint8_t> wire = client.fetchSnapshot();
    const std::vector<std::uint8_t> local =
        analysis::saveSnapshotToMemory({fleet.engines[0].get(), 1});
    ASSERT_EQ(wire.size(), local.size());
    EXPECT_EQ(std::memcmp(wire.data(), local.data(), wire.size()), 0)
        << "wire image is not bit-identical to a local save";
    EXPECT_GT(client.stats().snapshotFetchesServed, 0u);

    // Staging writes it through the atomic path and the ordinary
    // loader serves the warm start from it.
    const std::string path = freshFilePath("boot.snap");
    ASSERT_TRUE(stageFetchedImage(wire.data(), wire.size(), path));
    engine::PredictionEngine fresh({.numThreads = 1});
    const analysis::SnapshotStats st =
        analysis::loadSnapshot(path, {&fresh});
    EXPECT_EQ(st.loadMode, analysis::SnapshotLoadMode::Loaded);
    EXPECT_EQ(st.generation, 0u);
    std::remove(path.c_str());

    // The bootstrapped engine answers the whole suite from the
    // prediction cache it received, bit-identical to serial predict.
    std::vector<engine::Request> reqs;
    for (const auto &b : suite())
        reqs.push_back({b.bytesL, uarch::UArch::SKL, true, {}});
    engine::BatchStats bs;
    const std::vector<Prediction> out = fresh.predictBatch(reqs, &bs);
    EXPECT_EQ(st.predictions, reqs.size());
    EXPECT_EQ(bs.predictionCacheHits, reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_TRUE(bitIdentical(out[i], serialPredict(reqs[i])))
            << "request " << i;
}

TEST(Bootstrap, TornImageIsRejectedBeforeTouchingDisk)
{
    Fleet fleet(1);
    auto client = server::Client::connectUnix(fleet.endpoints[0].path);
    client.predict(suite()[0].bytesU, uarch::UArch::SKL, false);
    std::vector<std::uint8_t> img = client.fetchSnapshot();
    ASSERT_GT(img.size(), 128u);

    const std::string path = freshFilePath("torn.snap");
    // Truncated mid-stream (a torn fetch) and bit-flipped images both
    // fail the deep validation and nothing lands on disk.
    EXPECT_FALSE(stageFetchedImage(img.data(), img.size() / 2, path));
    std::vector<std::uint8_t> flipped = img;
    flipped[flipped.size() / 2] ^= 0x40;
    EXPECT_FALSE(
        stageFetchedImage(flipped.data(), flipped.size(), path));
    EXPECT_NE(::access(path.c_str(), F_OK), 0)
        << "a rejected image reached the snapshot path";

    // The replica falls back to a cold start: loading the (absent)
    // path throws, exactly as if bootstrap had never been attempted.
    EXPECT_THROW(analysis::loadSnapshot(path, {}),
                 analysis::SnapshotError);
}

TEST(Bootstrap, FetchSnapshotFromPeerEndToEnd)
{
    Fleet fleet(1);
    auto client = server::Client::connectUnix(fleet.endpoints[0].path);
    client.predict(suite()[1].bytesU, uarch::UArch::TGL, false);

    const std::string path = freshFilePath("peer.snap");
    EXPECT_TRUE(fetchSnapshotFromPeer(fleet.endpoints[0], path));
    EXPECT_EQ(::access(path.c_str(), F_OK), 0);
    std::remove(path.c_str());

    // A peer that is not there exhausts retries and reports false —
    // bootstrap degrades to a cold start, it never throws out of main.
    server::RetryPolicy fast;
    fast.maxAttempts = 2;
    fast.opDeadline = std::chrono::milliseconds(200);
    fast.breakerThreshold = 1000;
    EXPECT_FALSE(fetchSnapshotFromPeer(
        parseEndpoint("unix:/tmp/facile_cluster_nopeer_" +
                      std::to_string(::getpid()) + ".sock"),
        path, fast));
    EXPECT_NE(::access(path.c_str(), F_OK), 0);
}

// ---- replica convergence ---------------------------------------------------

TEST(Convergence, FoldsPeerPredictionCacheEntries)
{
    Fleet fleet(2);
    // Each replica serves (and caches) a disjoint slice of traffic.
    auto c0 = server::Client::connectUnix(fleet.endpoints[0].path);
    auto c1 = server::Client::connectUnix(fleet.endpoints[1].path);
    const engine::Request mine{suite()[0].bytesU, uarch::UArch::SKL,
                               false, {}};
    const engine::Request theirs{suite()[1].bytesL, uarch::UArch::ICL,
                                 true, {}};
    c0.predict(mine.bytes, mine.arch, mine.loop);
    c1.predict(theirs.bytes, theirs.arch, theirs.loop);

    // Before convergence replica 0 has never seen `theirs`; afterwards
    // the entry is a prediction-cache hit — the peer's work arrived.
    ConvergenceLoop loop({.peers = {fleet.endpoints[1]},
                          .intervalMs = 60000,
                          .engine = fleet.engines[0].get(),
                          .policy = {}});
    loop.runOnce();
    const ConvergenceStats cs = loop.stats();
    EXPECT_EQ(cs.rounds, 1u);
    EXPECT_EQ(cs.merges, 1u);
    EXPECT_EQ(cs.conflicts, 0u);
    EXPECT_EQ(cs.peerFailures, 0u);

    engine::BatchStats bs;
    const Prediction folded =
        fleet.engines[0]->predictOne(theirs, &bs);
    EXPECT_EQ(bs.predictionCacheHits, 1u)
        << "peer's cached prediction did not fold in";
    EXPECT_TRUE(bitIdentical(folded, serialPredict(theirs)));

    // Convergence is a union fold: replica 0's own entry survived.
    engine::BatchStats bs2;
    fleet.engines[0]->predictOne(mine, &bs2);
    EXPECT_EQ(bs2.predictionCacheHits, 1u);
}

TEST(Convergence, BackgroundLoopConvergesAndStops)
{
    Fleet fleet(2);
    auto c1 = server::Client::connectUnix(fleet.endpoints[1].path);
    const engine::Request theirs{suite()[2].bytesU, uarch::UArch::HSW,
                                 false, {}};
    c1.predict(theirs.bytes, theirs.arch, theirs.loop);

    ConvergenceLoop loop({.peers = {fleet.endpoints[1]},
                          .intervalMs = 20,
                          .engine = fleet.engines[0].get(),
                          .policy = {}});
    loop.start();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (loop.stats().merges == 0 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    loop.stop();
    loop.stop(); // idempotent
    EXPECT_GT(loop.stats().merges, 0u);

    engine::BatchStats bs;
    fleet.engines[0]->predictOne(theirs, &bs);
    EXPECT_EQ(bs.predictionCacheHits, 1u);
}

// ---- soak (the TSan job runs this whole binary) ----------------------------

TEST(ClusterSoak, FourBackendsOneKilledUnderLoad)
{
    Fleet fleet(4);
    RouterOptions ro;
    ro.unixPath = freshUnixPath();
    ro.backends = fleet.endpoints;
    ro.healthIntervalMs = 25;
    Router router(ro);
    router.start();

    std::vector<engine::Request> reqs;
    for (const auto &b : suite())
        for (uarch::UArch arch : uarch::allUArchs())
            reqs.push_back({b.bytesL, arch, true, {}});
    std::vector<Prediction> expected(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        expected[i] = serialPredict(reqs[i]);

    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> rounds{0};
    std::vector<std::thread> clients;
    for (int t = 0; t < 3; ++t)
        clients.emplace_back([&] {
            server::RetryPolicy policy;
            policy.opDeadline = std::chrono::milliseconds(60000);
            auto rc =
                server::ResilientClient::forUnix(ro.unixPath, policy);
            while (!stop.load()) {
                auto out = rc.predictMany(reqs);
                for (std::size_t i = 0; i < reqs.size(); ++i)
                    ASSERT_TRUE(bitIdentical(out[i], expected[i]))
                        << "request " << i;
                rounds.fetch_add(1);
            }
        });

    // Let traffic flow, kill one backend, keep the load up while the
    // router fails over and the probes mark it dead.
    std::this_thread::sleep_for(std::chrono::milliseconds(150));
    fleet.servers[2]->stop();
    std::this_thread::sleep_for(std::chrono::milliseconds(400));
    stop.store(true);
    for (auto &t : clients)
        t.join();

    EXPECT_GT(rounds.load(), 0u);
    const server::ServerStats rs = router.stats();
    EXPECT_GT(rs.routedPredicts, 0u);
    router.stop();
}

} // namespace
} // namespace facile::cluster
