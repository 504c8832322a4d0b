/**
 * @file
 * Prediction-server tests: loopback serving over Unix-domain and TCP
 * sockets is bit-identical to serial model::predict across all nine
 * microarchitectures, concurrent clients multiplex correctly through
 * the admission batcher, control ops work, and protocol violations are
 * rejected without poisoning the connection.
 */
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "analysis/snapshot.h"
#include "bhive/generator.h"
#include "facile/component.h"
#include "server/client.h"
#include "server/net_util.h"
#include "server/resilient_client.h"
#include "server/server.h"

namespace facile::server {
namespace {

using model::Prediction;

const std::vector<bhive::Benchmark> &
suite()
{
    static const auto s = bhive::generateSuite(2024, 2);
    return s;
}

/** Unique-per-test unix socket path. */
std::string
freshUnixPath()
{
    static std::atomic<int> counter{0};
    return "/tmp/facile_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++) + ".sock";
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
    if (a.primaryBottleneck != b.primaryBottleneck)
        return ::testing::AssertionFailure() << "primaryBottleneck differs";
    if (a.criticalChain != b.criticalChain)
        return ::testing::AssertionFailure() << "criticalChain differs";
    if (a.contendedPorts != b.contendedPorts)
        return ::testing::AssertionFailure() << "contendedPorts differ";
    if (a.contendingInsts != b.contendingInsts)
        return ::testing::AssertionFailure() << "contendingInsts differ";
    return ::testing::AssertionSuccess();
}

Prediction
serialPredict(const engine::Request &r)
{
    // Match the request's payload depth (the wire default is the cheap
    // bound-only path; kFlagExplain requests the full payload).
    model::PredictScratch scratch;
    return model::predict(bb::analyze(r.bytes, r.arch), r.loop, r.config,
                          scratch, r.payload);
}

/** Every (benchmark, arch, notion) combination — all nine uarches. */
std::vector<engine::Request>
allArchBatch()
{
    std::vector<engine::Request> reqs;
    for (const auto &b : suite())
        for (uarch::UArch arch : uarch::allUArchs()) {
            reqs.push_back({b.bytesU, arch, false, {}});
            reqs.push_back({b.bytesL, arch, true, {}});
            // Exercise the wire explain flag (full payload on demand).
            reqs.push_back({b.bytesL, arch, true, {},
                            model::Payload::Full});
        }
    return reqs;
}

TEST(Server, StartStopAndControlOps)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    opts.tcpPort = 0; // ephemeral
    engine::PredictionEngine eng({.numThreads = 2});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();
    EXPECT_GT(server.tcpPort(), 0);

    auto client = Client::connectUnix(opts.unixPath);
    client.ping();
    ServerStats s = client.stats();
    EXPECT_GE(s.requests, 1u);
    EXPECT_EQ(s.predictions, 0u);
    EXPECT_EQ(s.connectionsAccepted, 1u);

    server.stop();
    // A second stop must be a no-op, and restarting is not required.
    server.stop();
}

TEST(Server, UnixLoopbackBitIdenticalAllUArches)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    engine::PredictionEngine eng({.numThreads = 2});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    auto reqs = allArchBatch();
    auto client = Client::connectUnix(opts.unixPath);
    auto out = client.predictMany(reqs);
    ASSERT_EQ(out.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_TRUE(bitIdentical(out[i], serialPredict(reqs[i])))
            << "request " << i << " arch "
            << uarch::config(reqs[i].arch).abbrev;
    server.stop();
}

TEST(Server, TcpLoopbackBitIdentical)
{
    ServerOptions opts;
    opts.tcpPort = 0;
    engine::PredictionEngine eng({.numThreads = 2});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    auto client = Client::connectTcp("127.0.0.1", server.tcpPort());
    for (const auto &b : suite()) {
        engine::Request r{b.bytesL, uarch::UArch::SKL, true, {}};
        auto p = client.predict(r.bytes, r.arch, r.loop, r.config);
        EXPECT_TRUE(bitIdentical(p, serialPredict(r)));
    }
    server.stop();
}

TEST(Server, ConcurrentClientsBitIdentical)
{
    // >= 4 concurrent clients hammering the same server; the admission
    // batcher interleaves their requests into shared engine batches
    // and must route every response to its owner (matched by id).
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    opts.tcpPort = 0;
    engine::PredictionEngine eng({.numThreads = 2});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    const auto reqs = allArchBatch();
    std::vector<Prediction> expected(reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        expected[i] = serialPredict(reqs[i]);

    constexpr int kClients = 5;
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
        clients.emplace_back([&, c] {
            try {
                // Mix transports; rotate each client's starting offset
                // so concurrent batches interleave different requests.
                auto client =
                    (c % 2 == 0)
                        ? Client::connectUnix(opts.unixPath)
                        : Client::connectTcp("127.0.0.1",
                                             server.tcpPort());
                std::vector<engine::Request> mine;
                mine.reserve(reqs.size());
                for (std::size_t i = 0; i < reqs.size(); ++i)
                    mine.push_back(
                        reqs[(i + static_cast<std::size_t>(c) * 7) %
                             reqs.size()]);
                auto out = client.predictMany(mine);
                for (std::size_t i = 0; i < mine.size(); ++i)
                    if (!bitIdentical(
                            out[i],
                            expected[(i + static_cast<std::size_t>(c) *
                                              7) %
                                     reqs.size()]))
                        ++failures;
            } catch (const std::exception &e) {
                ADD_FAILURE() << "client " << c << ": " << e.what();
                ++failures;
            }
        });
    }
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    ServerStats s = server.stats();
    EXPECT_EQ(s.predictions,
              static_cast<std::uint64_t>(kClients) * reqs.size());
    EXPECT_GE(s.batches, 1u);
    EXPECT_GE(s.predictionCacheHits, 1u); // clients repeat blocks
    server.stop();
}

/**
 * Fresh value variants of a few instruction forms, pipelined by several
 * clients with explain requests on three arches: the interner keys on
 * forms, so each first sighting of a form races with its variants on
 * the engine lanes. Every reply must be Ok (no overload, drain or
 * rejection) and bit-identical to analysis of the real bytes without
 * interning.
 */
TEST(Server, FreshValueVariantsAllAnsweredOkAndBitIdentical)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    engine::PredictionEngine eng({.numThreads = 2});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    auto le = [](std::vector<std::uint8_t> &b, std::uint64_t v, int w) {
        for (int i = 0; i < w; ++i)
            b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    // One block per (client, index): each value is unique to it.
    auto block = [&](int c, int k) {
        const std::uint64_t v =
            0x9E3779B97F4A7C15ULL * static_cast<std::uint64_t>(
                                        c * 100003 + k + 1);
        std::vector<std::uint8_t> b = {0x48, 0x81, 0xC0}; // add rax, i32
        le(b, v, 4);
        b.insert(b.end(), {0x8B, 0x8B}); // mov ecx, [rbx+d32]
        le(b, v >> 32, 4);
        b.insert(b.end(), {0x48, 0x8D, 0x44, 0x8B}); // lea, 3 parts
        b.push_back(static_cast<std::uint8_t>(k % 3 == 0 ? 0 : v >> 8));
        b.insert(b.end(), {0x66, 0x81, 0xC2}); // add dx, imm16 (LCP)
        le(b, v >> 16, 2);
        b.insert(b.end(), {0x48, 0xC1, 0xE6}); // shl rsi, imm8
        b.push_back(static_cast<std::uint8_t>(v >> 40));
        b.insert(b.end(), {0x48, 0x83, 0xF8}); // cmp rax, imm8
        b.push_back(static_cast<std::uint8_t>(v >> 48));
        if (k % 2) {
            b.insert(b.end(), {0x0F, 0x85}); // jne rel32
            le(b, v >> 20, 4);
        } else {
            b.insert(b.end(), {0x75}); // jne rel8
            b.push_back(static_cast<std::uint8_t>(v >> 56));
        }
        return b;
    };
    const uarch::UArch arches[] = {uarch::UArch::SKL, uarch::UArch::ICL,
                                   uarch::UArch::HSW};

    constexpr int kClients = 4, kPerClient = 768, kWindow = 128;
    std::atomic<int> failures{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c)
        clients.emplace_back([&, c] {
            try {
                auto client = Client::connectUnix(opts.unixPath);
                for (int base = 0; base < kPerClient; base += kWindow) {
                    std::vector<engine::Request> reqs;
                    for (int k = base; k < base + kWindow; ++k)
                        reqs.push_back(
                            {block(c, k), arches[k % 3], k % 2 == 0, {},
                             k % 4 == 1 ? model::Payload::Full
                                        : model::Payload::None});
                    const auto out = client.predictMany(reqs);
                    for (std::size_t i = 0; i < reqs.size(); ++i) {
                        const engine::Request &r = reqs[i];
                        model::PredictScratch scratch;
                        const Prediction want = model::predict(
                            bb::analyze(r.bytes, r.arch,
                                        bb::InternMode::Off),
                            r.loop, r.config, scratch, r.payload);
                        if (!bitIdentical(out[i], want)) {
                            ADD_FAILURE() << "client " << c << " block "
                                          << base + static_cast<int>(i);
                            ++failures;
                        }
                    }
                }
            } catch (const std::exception &e) {
                // A non-Ok status (Overloaded, Draining, BadRequest) or
                // a lost connection throws.
                ADD_FAILURE() << "client " << c << ": " << e.what();
                ++failures;
            }
        });
    for (auto &t : clients)
        t.join();
    EXPECT_EQ(failures.load(), 0);

    const ServerStats s = server.stats();
    EXPECT_EQ(s.predictions,
              static_cast<std::uint64_t>(kClients) * kPerClient);
    EXPECT_EQ(s.overloadedQueue + s.overloadedConn, 0u);
    EXPECT_EQ(s.drainSheds, 0u);
    server.stop();
}

TEST(Server, MalformedBlockFollowsCrashProtocol)
{
    // Undecodable bytes are a valid request: the engine's crash
    // protocol answers throughput 0 rather than an error.
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    auto client = Client::connectUnix(opts.unixPath);
    auto p = client.predict({0x0f, 0xff, 0xff}, uarch::UArch::SKL, false);
    EXPECT_EQ(p.throughput, 0.0);

    // The connection stays usable afterwards.
    const auto &b = suite().front();
    engine::Request good{b.bytesU, uarch::UArch::SKL, false, {}};
    EXPECT_TRUE(bitIdentical(
        client.predict(good.bytes, good.arch, good.loop),
        serialPredict(good)));
    server.stop();
}

TEST(Server, BadArchIsRejectedWithoutPoisoningConnection)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    auto client = Client::connectUnix(opts.unixPath);
    EXPECT_THROW(client.predict({0x90}, static_cast<uarch::UArch>(42),
                                false),
                 std::runtime_error);
    // Framing survived: the next well-formed request still works.
    client.ping();
    server.stop();
}

TEST(Server, AblationConfigTravelsTheWire)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    auto client = Client::connectUnix(opts.unixPath);
    const auto &b = suite().front();
    for (int c = 0; c < model::kNumComponents; ++c) {
        auto cfg =
            model::ModelConfig::without(static_cast<model::Component>(c));
        engine::Request r{b.bytesU, uarch::UArch::SKL, false, cfg};
        EXPECT_TRUE(bitIdentical(
            client.predict(r.bytes, r.arch, r.loop, cfg),
            serialPredict(r)))
            << "config without component " << c;
    }
    server.stop();
}

// ---- resource limits & backpressure (ServerOptions quotas) ----------------

/** Blocking raw-socket connect to a unix path (no Client framing). */
int
rawConnectUnix(const std::string &path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof addr.sun_path - 1);
    EXPECT_EQ(
        ::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr),
        0);
    return fd;
}

/** Read one complete response frame off a raw socket (blocking). */
bool
rawReadResponse(int fd, ResponseHeader &h,
                std::vector<std::uint8_t> &payload)
{
    std::uint8_t header[kResponseHeaderSize];
    std::size_t got = 0;
    while (got < sizeof header) {
        ssize_t n = ::recv(fd, header + got, sizeof header - got, 0);
        if (n <= 0)
            return false;
        got += static_cast<std::size_t>(n);
    }
    h = parseResponseHeader(header);
    payload.resize(h.len);
    got = 0;
    while (got < h.len) {
        ssize_t n = ::recv(fd, payload.data() + got, h.len - got, 0);
        if (n <= 0)
            return false;
        got += static_cast<std::size_t>(n);
    }
    return true;
}

TEST(ServerLimits, SlowlorisConnectionIsClosedWhileHealthyOnesServe)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    opts.readTimeoutMs = 150;
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    // The attacker: sends half a request header and then nothing —
    // the classic slowloris hold.
    int slow = rawConnectUnix(opts.unixPath);
    const std::uint8_t half[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    ASSERT_TRUE(sendAll(slow, half, sizeof half));

    // A healthy client keeps serving bit-identical predictions while
    // the slow connection ages out.
    auto client = Client::connectUnix(opts.unixPath);
    const auto &b = suite().front();
    engine::Request good{b.bytesU, uarch::UArch::SKL, false, {}};
    EXPECT_TRUE(bitIdentical(
        client.predict(good.bytes, good.arch, good.loop),
        serialPredict(good)));

    // The read deadline closes the mid-frame connection: recv sees
    // EOF well within a few deadline periods.
    std::uint8_t byte;
    ssize_t n = ::recv(slow, &byte, 1, 0); // blocks until server closes
    EXPECT_EQ(n, 0) << "slowloris connection was not closed";
    ::close(slow);

    // Still healthy afterwards, and the shed is observable.
    EXPECT_TRUE(bitIdentical(
        client.predict(good.bytes, good.arch, good.loop),
        serialPredict(good)));
    EXPECT_GE(client.stats().readTimeouts, 1u);

    // A connection idling *between* complete frames is never closed:
    // this client has been idle > readTimeoutMs by now and still works.
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    client.ping();
    server.stop();
}

TEST(ServerLimits, HandshakeSilenceIsAlsoDeadlined)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    opts.readTimeoutMs = 150;
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    // Connect and send nothing at all: the deadline applies from
    // accept, not from the first byte.
    int silent = rawConnectUnix(opts.unixPath);
    std::uint8_t byte;
    EXPECT_EQ(::recv(silent, &byte, 1, 0), 0)
        << "silent connection was not closed";
    ::close(silent);

    auto client = Client::connectUnix(opts.unixPath);
    EXPECT_GE(client.stats().readTimeouts, 1u);
    server.stop();
}

TEST(ServerLimits, InFlightQuotaAnswersOverloadedAndRecovers)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    opts.maxInFlightPerConn = 2;
    // A long bound on the window; the six frames arrive in one send
    // and are parsed in one pass, before any of them is answered.
    opts.batchWindowUs = 200000;
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    const auto &b = suite().front();
    engine::Request req{b.bytesU, uarch::UArch::SKL, false, {}};

    // Six pipelined requests against a quota of two: the four beyond
    // the quota are answered Overloaded while the admitted two are
    // still in flight; all six get a response on one connection.
    int fd = rawConnectUnix(opts.unixPath);
    std::vector<std::uint8_t> frames;
    for (std::uint64_t id = 1; id <= 6; ++id)
        appendPredictRequest(frames, id, req);
    ASSERT_TRUE(sendAll(fd, frames.data(), frames.size()));

    int ok = 0, overloaded = 0;
    const Prediction expect = serialPredict(req);
    for (int i = 0; i < 6; ++i) {
        ResponseHeader h;
        std::vector<std::uint8_t> payload;
        ASSERT_TRUE(rawReadResponse(fd, h, payload));
        if (h.status == static_cast<std::uint8_t>(Status::Ok)) {
            auto p = decodePredictPayload(payload.data(), h.len);
            ASSERT_TRUE(p.has_value());
            EXPECT_TRUE(bitIdentical(*p, expect));
            ++ok;
        } else {
            EXPECT_EQ(h.status,
                      static_cast<std::uint8_t>(Status::Overloaded));
            EXPECT_EQ(h.len, 0u);
            ++overloaded;
        }
    }
    EXPECT_EQ(ok, 2);
    EXPECT_EQ(overloaded, 4);
    ::close(fd);

    // The quota frees as requests complete: a fresh window succeeds.
    auto client = Client::connectUnix(opts.unixPath);
    EXPECT_TRUE(bitIdentical(
        client.predict(req.bytes, req.arch, req.loop), expect));
    EXPECT_EQ(client.stats().overloadedConn, 4u);
    server.stop();
}

TEST(ServerLimits, BoundedQueueShedsExcessAndServesTheRest)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    opts.maxPending = 3;
    // A long bound on the window; the eight frames are admitted in one
    // pass, so the queue is full before the collector submits any.
    opts.batchWindowUs = 200000;
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    const auto &b = suite().front();
    engine::Request req{b.bytesL, uarch::UArch::ICL, true, {}};

    int fd = rawConnectUnix(opts.unixPath);
    std::vector<std::uint8_t> frames;
    for (std::uint64_t id = 1; id <= 8; ++id)
        appendPredictRequest(frames, id, req);
    ASSERT_TRUE(sendAll(fd, frames.data(), frames.size()));

    int ok = 0, overloaded = 0;
    const Prediction expect = serialPredict(req);
    for (int i = 0; i < 8; ++i) {
        ResponseHeader h;
        std::vector<std::uint8_t> payload;
        ASSERT_TRUE(rawReadResponse(fd, h, payload));
        if (h.status == static_cast<std::uint8_t>(Status::Ok)) {
            auto p = decodePredictPayload(payload.data(), h.len);
            ASSERT_TRUE(p.has_value());
            EXPECT_TRUE(bitIdentical(*p, expect));
            ++ok;
        } else {
            EXPECT_EQ(h.status,
                      static_cast<std::uint8_t>(Status::Overloaded));
            ++overloaded;
        }
    }
    // Exactly maxPending requests got through; the flood was shed
    // with explicit backpressure, not buffered without bound.
    EXPECT_EQ(ok, 3);
    EXPECT_EQ(overloaded, 5);
    ::close(fd);

    auto client = Client::connectUnix(opts.unixPath);
    EXPECT_GE(client.stats().overloadedQueue, 5u);
    server.stop();
}

TEST(ServerLimits, ConnectionCapShedsAtAccept)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    opts.maxConnections = 1;
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    auto first = Client::connectUnix(opts.unixPath);
    first.ping(); // occupies the single slot

    // The second connection is accepted and immediately closed — the
    // peer observes EOF, never a response.
    int second = rawConnectUnix(opts.unixPath);
    std::uint8_t byte;
    EXPECT_EQ(::recv(second, &byte, 1, 0), 0)
        << "over-cap connection was not shed";
    ::close(second);

    // The surviving connection is unaffected.
    const auto &b = suite().front();
    engine::Request req{b.bytesU, uarch::UArch::SKL, false, {}};
    EXPECT_TRUE(bitIdentical(
        first.predict(req.bytes, req.arch, req.loop),
        serialPredict(req)));
    EXPECT_GE(first.stats().connectionsShed, 1u);
    server.stop();
}

TEST(ServerLimits, ClientThrowsTypedOverloadedError)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    opts.maxInFlightPerConn = 1;
    opts.batchWindowUs = 200000;
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    const auto &b = suite().front();
    std::vector<engine::Request> reqs(
        4, engine::Request{b.bytesU, uarch::UArch::SKL, false, {}});
    auto client = Client::connectUnix(opts.unixPath);
    try {
        client.predictMany(reqs); // 4 pipelined vs quota of 1
        FAIL() << "expected ProtocolError";
    } catch (const ProtocolError &e) {
        EXPECT_EQ(e.status(), Status::Overloaded);
    }
    server.stop();
}

// ---- event-loop data plane: adversarial interleavings ---------------------

TEST(ServerEventLoop, ByteAtATimeRequestsServeBitIdentical)
{
    // The cruelest read fragmentation: every byte of three pipelined
    // frames arrives in its own recv. The per-connection FrameParser
    // must reassemble them across epoll wakeups without desyncing.
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    const auto &b = suite().front();
    engine::Request req{b.bytesL, uarch::UArch::SKL, true, {}};
    const Prediction expect = serialPredict(req);

    int fd = rawConnectUnix(opts.unixPath);
    std::vector<std::uint8_t> frames;
    for (std::uint64_t id = 1; id <= 3; ++id)
        appendPredictRequest(frames, id, req);
    for (std::uint8_t byte : frames)
        ASSERT_TRUE(sendAll(fd, &byte, 1));

    for (int i = 0; i < 3; ++i) {
        ResponseHeader h;
        std::vector<std::uint8_t> payload;
        ASSERT_TRUE(rawReadResponse(fd, h, payload));
        EXPECT_EQ(h.status, static_cast<std::uint8_t>(Status::Ok));
        auto p = decodePredictPayload(payload.data(), h.len);
        ASSERT_TRUE(p.has_value());
        EXPECT_TRUE(bitIdentical(*p, expect));
    }
    ::close(fd);
    server.stop();
}

TEST(ServerEventLoop, CoalescedFloodShedsExactlyAndSurvivorsBitIdentical)
{
    // 40 frames coalesced into ONE send against an admission bound of
    // 16, all parsed in one io-loop pass: the server must read the
    // burst in as few recvs as the kernel delivers, admit exactly the
    // bound through the ring, shed the rest with OVERLOADED, and the
    // surviving predictions must be bit-identical to serial.
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    opts.maxPending = 16;
    opts.batchWindowUs = 200000;
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    const auto &b = suite().front();
    engine::Request req{b.bytesU, uarch::UArch::ICL, false, {}};
    const Prediction expect = serialPredict(req);

    int fd = rawConnectUnix(opts.unixPath);
    std::vector<std::uint8_t> frames;
    for (std::uint64_t id = 1; id <= 40; ++id)
        appendPredictRequest(frames, id, req);
    ASSERT_TRUE(sendAll(fd, frames.data(), frames.size()));

    int ok = 0, overloaded = 0;
    for (int i = 0; i < 40; ++i) {
        ResponseHeader h;
        std::vector<std::uint8_t> payload;
        ASSERT_TRUE(rawReadResponse(fd, h, payload));
        if (h.status == static_cast<std::uint8_t>(Status::Ok)) {
            auto p = decodePredictPayload(payload.data(), h.len);
            ASSERT_TRUE(p.has_value());
            EXPECT_TRUE(bitIdentical(*p, expect));
            ++ok;
        } else {
            EXPECT_EQ(h.status,
                      static_cast<std::uint8_t>(Status::Overloaded));
            ++overloaded;
        }
    }
    EXPECT_EQ(ok, 16);
    EXPECT_EQ(overloaded, 24);
    ::close(fd);

    // Every shed is attributed to a counter: the count gate or the
    // ring's own capacity backstop.
    auto client = Client::connectUnix(opts.unixPath);
    ServerStats s = client.stats();
    EXPECT_EQ(s.overloadedQueue + s.ringFull, 24u);
    EXPECT_GE(s.epollWakeups, 1u);
    server.stop();
}

TEST(ServerEventLoop, PartialWriteResumesViaEpollout)
{
    // Ask for more response bytes than the socket can buffer while
    // refusing to read: the batch flush must hit EAGAIN, queue the
    // tail (shortWrites counter), and resume on EPOLLOUT once we
    // drain — with every response byte-identical and in order.
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    engine::PredictionEngine eng({.numThreads = 2});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    const auto &b = suite().front();
    // Full interpretability payload: the largest response shape.
    engine::Request req{b.bytesL, uarch::UArch::SKL, true, {},
                        model::Payload::Full};
    const Prediction expect = serialPredict(req);

    constexpr int kRequests = 8000; // response volume >> socket buffer
    int fd = rawConnectUnix(opts.unixPath);
    std::vector<std::uint8_t> frames;
    for (std::uint64_t id = 1; id <= kRequests; ++id)
        appendPredictRequest(frames, id, req);
    std::thread sender([&] {
        EXPECT_TRUE(sendAll(fd, frames.data(), frames.size()));
    });

    // Let the server finish every batch while we sit on a full socket
    // buffer; only then start draining, so the tail must travel
    // through the WriteQueue + EPOLLOUT path.
    std::this_thread::sleep_for(std::chrono::milliseconds(400));

    std::vector<bool> seen(kRequests, false);
    for (int i = 0; i < kRequests; ++i) {
        ResponseHeader h;
        std::vector<std::uint8_t> payload;
        ASSERT_TRUE(rawReadResponse(fd, h, payload));
        ASSERT_EQ(h.status, static_cast<std::uint8_t>(Status::Ok));
        ASSERT_GE(h.id, 1u);
        ASSERT_LE(h.id, static_cast<std::uint64_t>(kRequests));
        ASSERT_FALSE(seen[h.id - 1]) << "duplicate id " << h.id;
        seen[h.id - 1] = true;
        auto p = decodePredictPayload(payload.data(), h.len);
        ASSERT_TRUE(p.has_value());
        ASSERT_TRUE(bitIdentical(*p, expect)) << "response " << i;
    }
    sender.join();
    ::close(fd);

    auto client = Client::connectUnix(opts.unixPath);
    ServerStats s = client.stats();
    EXPECT_GE(s.shortWrites, 1u)
        << "expected at least one EAGAIN-queued flush";
    server.stop();
}

TEST(ServerEventLoop, StatsCountersTravelTheWire)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    auto client = Client::connectUnix(opts.unixPath);
    client.ping();
    ServerStats s = client.stats();
    // epoll wakeups necessarily happened to serve the two frames; the
    // other event-loop counters decode (zero) rather than truncating
    // the payload.
    EXPECT_GE(s.epollWakeups, 1u);
    EXPECT_EQ(s.ringFull, 0u);
    server.stop();
}

// ---- admission window: closes once the burst has been read ---------------

TEST(ServerWindow, LonePredictDoesNotWaitOutTheWindow)
{
    // A collector that waited out its deadline would hold each lone
    // request for the whole 200 ms window. The window closes as soon
    // as the io loop has read the burst, so a lone request costs one
    // engine pass. Best of three, so that one scheduling stall on a
    // loaded host cannot fail the test.
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    opts.batchWindowUs = 200000;
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    const auto &b = suite().front();
    engine::Request req{b.bytesU, uarch::UArch::SKL, false, {}};
    const Prediction expect = serialPredict(req);
    auto client = Client::connectUnix(opts.unixPath);
    auto best = std::chrono::steady_clock::duration::max();
    for (int i = 0; i < 3; ++i) {
        const auto t0 = std::chrono::steady_clock::now();
        EXPECT_TRUE(bitIdentical(
            client.predict(req.bytes, req.arch, req.loop), expect));
        best = std::min(best, std::chrono::steady_clock::now() - t0);
    }
    EXPECT_LT(best, std::chrono::milliseconds(50));
    server.stop();
}

TEST(ServerWindow, BurstInOneSendIsOneEngineBatch)
{
    // Closing the window early must not split a burst: predictMany
    // writes its 64 frames in one send, the io loop reads them in one
    // pass, and the collector submits them as exactly one batch.
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    engine::PredictionEngine eng({.numThreads = 2});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    std::vector<engine::Request> reqs;
    for (std::size_t i = 0; reqs.size() < 64; ++i) {
        const auto &b = suite()[i % suite().size()];
        reqs.push_back({i % 2 ? b.bytesL : b.bytesU, uarch::UArch::SKL,
                        i % 2 == 1, {}});
    }
    auto client = Client::connectUnix(opts.unixPath);
    const ServerStats before = client.stats();
    const auto out = client.predictMany(reqs);
    const ServerStats after = client.stats();

    ASSERT_EQ(out.size(), reqs.size());
    for (std::size_t i = 0; i < reqs.size(); ++i)
        EXPECT_TRUE(bitIdentical(out[i], serialPredict(reqs[i])));
    EXPECT_EQ(after.batches - before.batches, 1u);
    EXPECT_EQ(after.maxBatch, 64u);
    server.stop();
}

// ---- graceful degradation: drain mode, HEALTH, self-healing client --------

TEST(ServerDrain, ShedsPredictsKeepsControlOpsAndRefusesNewConnections)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    const auto &b = suite().front();
    engine::Request req{b.bytesU, uarch::UArch::SKL, false, {}};

    auto client = Client::connectUnix(opts.unixPath);
    EXPECT_EQ(client.health(), HealthState::Ready);
    EXPECT_TRUE(bitIdentical(client.predict(req.bytes, req.arch, req.loop),
                             serialPredict(req)));
    EXPECT_FALSE(server.draining());

    server.drain();
    EXPECT_TRUE(server.draining());

    // Control ops keep answering on established connections: routers
    // need HEALTH to observe the transition and operators need STATS
    // and SNAPSHOT during the grace window.
    EXPECT_EQ(client.health(), HealthState::Draining);
    EXPECT_NO_THROW(client.ping());

    // New PREDICTs are shed with the typed retryable status.
    try {
        client.predict(req.bytes, req.arch, req.loop);
        FAIL() << "expected ProtocolError(Draining)";
    } catch (const ProtocolError &e) {
        EXPECT_EQ(e.status(), Status::Draining);
        EXPECT_TRUE(e.retryable());
    }

    // New connections are refused at accept (EOF, never a response).
    int late = rawConnectUnix(opts.unixPath);
    std::uint8_t byte;
    EXPECT_EQ(::recv(late, &byte, 1, 0), 0)
        << "connection during drain was not refused";
    ::close(late);

    // Both sheds travel the wire in the STATS payload.
    ServerStats s = client.stats();
    EXPECT_GE(s.drainSheds, 1u);
    EXPECT_GE(s.connectionsShed, 1u);
    // The client-side resilience counters are zeros from a server.
    EXPECT_EQ(s.reconnects, 0u);
    EXPECT_EQ(s.retriedRequests, 0u);
    server.stop();
}

TEST(ServerDrain, StartClearsDrainMode)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();
    server.drain();
    server.stop();
    server.start();
    EXPECT_FALSE(server.draining());
    auto client = Client::connectUnix(opts.unixPath);
    EXPECT_EQ(client.health(), HealthState::Ready);
    const auto &b = suite().front();
    engine::Request req{b.bytesU, uarch::UArch::SKL, false, {}};
    EXPECT_TRUE(bitIdentical(client.predict(req.bytes, req.arch, req.loop),
                             serialPredict(req)));
    server.stop();
}

TEST(ClientSigpipe, ClosedPeerThrowsTypedTransportErrorNotSignal)
{
    // Regression for the classic client killer: writing to a peer
    // that vanished raises SIGPIPE, whose default disposition
    // terminates the process. The client must surface a typed
    // TransportError instead (MSG_NOSIGNAL on every send) — if this
    // test survives to the assertions, the protection held.
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    auto client = Client::connectUnix(opts.unixPath);
    client.ping();
    server.stop(); // peer gone, possibly with RST in flight

    bool threw = false;
    for (int i = 0; i < 10 && !threw; ++i) {
        try {
            client.ping(); // send into the dead socket until it EPIPEs
        } catch (const TransportError &) {
            threw = true;
        }
    }
    EXPECT_TRUE(threw) << "dead peer never surfaced as TransportError";
}

TEST(SelfHeal, ResilientClientMatchesSerialAndMergesLocalCounters)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    engine::PredictionEngine eng({.numThreads = 2});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    auto rc = ResilientClient::forUnix(opts.unixPath);
    EXPECT_FALSE(rc.connected()) << "construction must not dial";

    std::vector<engine::Request> reqs;
    for (const auto &b : suite())
        reqs.push_back({b.bytesL, uarch::UArch::ICL, true, {}});
    const auto out = rc.predictMany(reqs);
    ASSERT_EQ(out.size(), reqs.size());
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_TRUE(bitIdentical(out[i], serialPredict(reqs[i]))) << i;
    EXPECT_TRUE(rc.connected());

    // An undisturbed run heals nothing and retries nothing.
    EXPECT_EQ(rc.selfHealStats().reconnects, 0u);
    EXPECT_EQ(rc.selfHealStats().retriedRequests, 0u);
    EXPECT_EQ(rc.stats().reconnects, 0u);
    server.stop();
}

TEST(SelfHeal, ReconnectsAndReplaysAcrossServerRestart)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;

    RetryPolicy policy;
    policy.initialBackoff = std::chrono::milliseconds(2);
    policy.maxAttempts = 64;
    policy.opDeadline = std::chrono::seconds(30);

    const auto &b = suite().front();
    std::vector<engine::Request> reqs(
        3, engine::Request{b.bytesU, uarch::UArch::SKL, false, {}});
    const Prediction expect = serialPredict(reqs[0]);

    auto rc = ResilientClient::forUnix(opts.unixPath, policy);
    {
        PredictionServer server(opts);
        server.start();
        for (const auto &p : rc.predictMany(reqs))
            EXPECT_TRUE(bitIdentical(p, expect));
        server.stop();
    }
    // Server gone: the held connection is dead and the socket file is
    // unlinked. Bring up a fresh instance on the same path and the
    // client must reconnect + replay without caller-visible failure.
    PredictionServer server2(opts);
    std::thread restarter([&] {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        server2.start();
    });
    for (const auto &p : rc.predictMany(reqs))
        EXPECT_TRUE(bitIdentical(p, expect));
    restarter.join();
    EXPECT_GE(rc.selfHealStats().reconnects, 1u);
    EXPECT_GE(rc.selfHealStats().retriedRequests, reqs.size());
    // The merged STATS view carries the client-side counters.
    ServerStats merged = rc.stats();
    EXPECT_GE(merged.reconnects, 1u);
    EXPECT_GE(merged.retriedRequests, reqs.size());
    server2.stop();
}

TEST(SelfHeal, DrainingServerYieldsTypedRetryableFailure)
{
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    engine::PredictionEngine eng({.numThreads = 1});
    opts.engine = &eng;
    PredictionServer server(opts);
    server.start();

    RetryPolicy policy;
    policy.maxAttempts = 2;
    policy.initialBackoff = std::chrono::milliseconds(1);
    auto rc = ResilientClient::forUnix(opts.unixPath, policy);
    rc.ping(); // dial while the server still accepts
    server.drain();

    const auto &b = suite().front();
    try {
        rc.predict(b.bytesU, uarch::UArch::SKL, false);
        FAIL() << "expected ProtocolError(Draining) after retries";
    } catch (const ProtocolError &e) {
        EXPECT_EQ(e.status(), Status::Draining);
    }
    EXPECT_GE(rc.selfHealStats().drainedPeers, 1u);
    EXPECT_GE(rc.selfHealStats().retries, 1u);
    server.stop();
}

TEST(SelfHeal, DeadlineBoundsRetriesAgainstAbsentServer)
{
    RetryPolicy policy;
    policy.maxAttempts = 1000;
    policy.initialBackoff = std::chrono::milliseconds(10);
    policy.opDeadline = std::chrono::milliseconds(150);
    policy.breakerThreshold = 1000; // keep the breaker out of this test
    auto rc = ResilientClient::forUnix(freshUnixPath(), policy);
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(rc.ping(), DeadlineError);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    EXPECT_LT(elapsed, std::chrono::seconds(10))
        << "deadline did not bound the retry loop";
}

TEST(SelfHeal, CircuitBreakerFailsFastWhenCooldownExceedsDeadline)
{
    RetryPolicy policy;
    policy.maxAttempts = 2;
    policy.initialBackoff = std::chrono::milliseconds(1);
    policy.breakerThreshold = 2;
    policy.breakerCooldown = std::chrono::minutes(10);
    policy.opDeadline = std::chrono::milliseconds(500);
    auto rc = ResilientClient::forUnix(freshUnixPath(), policy);

    // First op burns through the attempts and opens the breaker.
    EXPECT_THROW(rc.ping(), TransportError);
    EXPECT_GE(rc.selfHealStats().breakerOpens, 1u);

    // Second op cannot outwait a 10-minute cooldown inside a 500 ms
    // deadline: it must fail fast, not hammer the dead endpoint.
    const auto start = std::chrono::steady_clock::now();
    EXPECT_THROW(rc.ping(), CircuitOpenError);
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::milliseconds(400));
}

TEST(ServerWarmStart, TornPrimaryFallsBackAndCountsIt)
{
    const std::string snap =
        "/tmp/facile_warm_" + std::to_string(::getpid()) + ".bin";
    for (int g = 0; g < analysis::kSnapshotGenerations; ++g)
        std::remove(analysis::snapshotGenerationPath(snap, g).c_str());

    std::vector<engine::Request> reqs;
    for (const auto &b : suite())
        reqs.push_back({b.bytesL, uarch::UArch::SKL, true, {}});

    std::vector<Prediction> expected;
    ServerOptions opts;
    opts.unixPath = freshUnixPath();
    opts.snapshotPath = snap;
    opts.snapshotLoadPath = snap;
    {
        engine::PredictionEngine eng({.numThreads = 2});
        ServerOptions o = opts;
        o.engine = &eng;
        PredictionServer server(o);
        server.start();
        auto client = Client::connectUnix(o.unixPath);
        expected = client.predictMany(reqs);
        ASSERT_TRUE(client.snapshot());
        ASSERT_TRUE(client.snapshot()); // rotates the first save to .g1
        server.stop();
    }

    // Tear the primary the way a mid-write SIGKILL would (bypassing
    // the atomic writer on purpose).
    {
        std::FILE *f = std::fopen(snap.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("torn", f);
        std::fclose(f);
    }

    // A fresh server + engine must come up warm from .g1, count the
    // fallback, and serve bit-identically.
    {
        engine::PredictionEngine eng({.numThreads = 2});
        ServerOptions o = opts;
        o.engine = &eng;
        PredictionServer server(o);
        server.start();
        auto client = Client::connectUnix(o.unixPath);
        const auto out = client.predictMany(reqs);
        ASSERT_EQ(out.size(), expected.size());
        for (std::size_t i = 0; i < out.size(); ++i)
            EXPECT_TRUE(bitIdentical(out[i], expected[i])) << i;
        ServerStats s = client.stats();
        EXPECT_GE(s.snapshotFallbacks, 1u)
            << "generation fallback was not counted over the wire";
        server.stop();
    }

    // Total loss (no generation loadable) must cold-start, not fail.
    for (int g = 0; g < analysis::kSnapshotGenerations; ++g)
        std::remove(analysis::snapshotGenerationPath(snap, g).c_str());
    {
        engine::PredictionEngine eng({.numThreads = 1});
        ServerOptions o = opts;
        o.engine = &eng;
        PredictionServer server(o);
        EXPECT_NO_THROW(server.start());
        auto client = Client::connectUnix(o.unixPath);
        EXPECT_GE(client.stats().snapshotFallbacks, 1u);
        server.stop();
    }
}

TEST(Protocol, ConfigBitsRoundTrip)
{
    for (int c = 0; c < model::kNumComponents; ++c) {
        auto cfg =
            model::ModelConfig::only(static_cast<model::Component>(c));
        auto back = model::ModelConfig::fromBits(cfg.packBits());
        EXPECT_EQ(back.packBits(), cfg.packBits());
    }
    model::ModelConfig simple;
    simple.simpleDec = true;
    simple.simplePredec = true;
    EXPECT_EQ(model::ModelConfig::fromBits(simple.packBits()).packBits(),
              simple.packBits());
}

TEST(Protocol, PredictionRoundTripPreservesBits)
{
    const auto &b = suite().front();
    Prediction p =
        serialPredict({b.bytesL, uarch::UArch::RKL, true, {}});
    std::vector<std::uint8_t> buf;
    appendPredictResponse(buf, 77, p);
    ResponseHeader h = parseResponseHeader(buf.data());
    EXPECT_EQ(h.id, 77u);
    EXPECT_EQ(h.status, static_cast<std::uint8_t>(Status::Ok));
    ASSERT_EQ(buf.size(), kResponseHeaderSize + h.len);
    auto back = decodePredictPayload(buf.data() + kResponseHeaderSize,
                                     h.len);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(bitIdentical(*back, p));
}

TEST(Protocol, TruncatedPayloadIsRejected)
{
    const auto &b = suite().front();
    Prediction p = serialPredict({b.bytesU, uarch::UArch::SKL, false, {}});
    std::vector<std::uint8_t> buf;
    appendPredictResponse(buf, 1, p);
    ResponseHeader h = parseResponseHeader(buf.data());
    EXPECT_FALSE(decodePredictPayload(buf.data() + kResponseHeaderSize,
                                      h.len > 0 ? h.len - 1 : 0)
                     .has_value());
}

} // namespace
} // namespace facile::server
