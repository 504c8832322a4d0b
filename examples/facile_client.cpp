/**
 * @file
 * Load generator and smoke client for the prediction server.
 *
 * Usage:
 *   facile_client [--tcp HOST:PORT | --unix PATH] [--clients N]
 *                 [--passes N] [--arch ABBR] [--loop] [--stats]
 *
 * Generates the deterministic BHive-substitute suite, streams it at
 * the server from N concurrent pipelined connections, and reports
 * blocks/sec plus round-trip latency percentiles. With --stats it
 * prints the server's counters and exits.
 */
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "bhive/generator.h"
#include "server/client.h"
#include "support/stats.h"
#include "uarch/config.h"

using namespace facile;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--tcp HOST:PORT | --unix PATH] "
                 "[--clients N] [--passes N] [--arch ABBR] [--loop] "
                 "[--stats]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string unixPath = "/tmp/facile.sock";
    std::string tcpHost;
    int tcpPort = -1;
    int nClients = 4;
    int passes = 10;
    uarch::UArch arch = uarch::UArch::SKL;
    bool loop = false;
    bool statsOnly = false;

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--tcp") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            std::string hp = v;
            auto colon = hp.rfind(':');
            if (colon == std::string::npos)
                return usage(argv[0]);
            tcpHost = hp.substr(0, colon);
            tcpPort = std::atoi(hp.c_str() + colon + 1);
            unixPath.clear();
        } else if (arg == "--unix") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            unixPath = v;
        } else if (arg == "--clients") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            nClients = std::atoi(v);
        } else if (arg == "--passes") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            passes = std::atoi(v);
        } else if (arg == "--arch") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            try {
                arch = uarch::fromAbbrev(v);
            } catch (const std::exception &) {
                std::fprintf(stderr, "unknown arch: %s\n", v);
                return 2;
            }
        } else if (arg == "--loop") {
            loop = true;
        } else if (arg == "--stats") {
            statsOnly = true;
        } else {
            return usage(argv[0]);
        }
    }

    auto connect = [&]() {
        return tcpHost.empty()
                   ? server::Client::connectUnix(unixPath)
                   : server::Client::connectTcp(tcpHost, tcpPort);
    };

    try {
        if (statsOnly) {
            auto cl = connect();
            server::ServerStats s = cl.stats();
            std::printf(
                "uptime %.1f s, %llu requests, %llu predictions, "
                "%llu batches (max %llu), %llu prediction-cache hits, "
                "%llu analysis-cache hits, %llu analyzed, "
                "%llu connections (%llu open)\n",
                static_cast<double>(s.uptimeMs) / 1000.0,
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.predictions),
                static_cast<unsigned long long>(s.batches),
                static_cast<unsigned long long>(s.maxBatch),
                static_cast<unsigned long long>(s.predictionCacheHits),
                static_cast<unsigned long long>(s.analysisCacheHits),
                static_cast<unsigned long long>(s.analyzed),
                static_cast<unsigned long long>(s.connectionsAccepted),
                static_cast<unsigned long long>(s.connectionsOpen));
            std::printf(
                "shed: %llu overloaded-queue, %llu overloaded-conn, "
                "%llu read timeouts, %llu byte-quota closes, "
                "%llu refused at accept\n",
                static_cast<unsigned long long>(s.overloadedQueue),
                static_cast<unsigned long long>(s.overloadedConn),
                static_cast<unsigned long long>(s.readTimeouts),
                static_cast<unsigned long long>(s.quotaClosed),
                static_cast<unsigned long long>(s.connectionsShed));
            return 0;
        }

        const auto &suite = bhive::defaultSuite();
        std::vector<engine::Request> batch;
        batch.reserve(suite.size());
        for (const auto &b : suite)
            batch.push_back({loop ? b.bytesL : b.bytesU, arch, loop, {}});

        std::printf("load: %d client(s) x %d pass(es) x %zu blocks "
                    "(%s, %s)\n",
                    nClients, passes, batch.size(),
                    loop ? "TPL" : "TPU", uarch::config(arch).abbrev);

        // Throughput: concurrent pipelined clients. Exceptions must
        // not escape a std::thread (std::terminate): report and fail.
        std::atomic<int> workerErrors{0};
        auto t0 = std::chrono::steady_clock::now();
        std::vector<std::thread> workers;
        for (int c = 0; c < nClients; ++c)
            workers.emplace_back([&, c] {
                try {
                    auto cl = connect();
                    std::vector<model::Prediction> res;
                    for (int p = 0; p < passes; ++p)
                        cl.predictManyInto(batch, res);
                } catch (const server::ProtocolError &e) {
                    // Typed: distinguish the server shedding load
                    // (retryable — this tool reports it as a sizing
                    // hint instead) from a broken peer.
                    std::fprintf(
                        stderr, "client %d: %s%s\n", c, e.what(),
                        e.status() == server::Status::Overloaded
                            ? " (server shed load; lower --clients or "
                              "raise the server's limits)"
                            : "");
                    ++workerErrors;
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "client %d: transport: %s\n",
                                 c, e.what());
                    ++workerErrors;
                }
            });
        for (auto &w : workers)
            w.join();
        if (workerErrors.load() > 0)
            return 1;
        auto t1 = std::chrono::steady_clock::now();
        const double ms =
            std::chrono::duration<double, std::milli>(t1 - t0).count();
        const double total = static_cast<double>(batch.size()) *
                             nClients * passes;
        std::printf("throughput: %.0f blocks/s (%.3f ms per %zu-block "
                    "pass)\n",
                    1000.0 * total / ms,
                    ms / (nClients * passes), batch.size());

        // Latency: synchronous round trips on one connection.
        auto cl = connect();
        std::vector<double> us;
        const int probes = 1000;
        us.reserve(probes);
        for (int i = 0; i < probes; ++i) {
            const auto &r =
                batch[static_cast<std::size_t>(i) % batch.size()];
            auto s0 = std::chrono::steady_clock::now();
            cl.predict(r.bytes, r.arch, r.loop, r.config);
            auto s1 = std::chrono::steady_clock::now();
            us.push_back(
                std::chrono::duration<double, std::micro>(s1 - s0)
                    .count());
        }
        std::printf("latency: p50 %.1f us, p99 %.1f us (one request "
                    "in flight)\n",
                    percentile(us, 50), percentile(us, 99));
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
