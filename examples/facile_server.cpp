/**
 * @file
 * Standalone prediction server: serves the Facile throughput model
 * over TCP and/or Unix-domain sockets until interrupted.
 *
 * Usage:
 *   facile_server [--tcp PORT] [--unix PATH] [--threads N]
 *                 [--io-threads N] [--window-us MAX_US] [--max-batch N]
 *                 [--read-timeout-ms N] [--max-connections N]
 *                 [--max-pending N] [--max-inflight N]
 *                 [--snapshot-load FILE] [--snapshot-save FILE]
 *                 [--snapshot-format v1|v2] [--drain-grace-ms N]
 *
 * --threads sizes the engine worker pool; --io-threads the epoll
 * reader loops (1 is right until the reader side itself saturates a
 * core — see ServerOptions::ioThreads). --window-us is the upper bound
 * on the admission window: the collector submits a batch as soon as
 * the burst has been read, and waits at most this long for it
 * (ServerOptions::batchWindowUs). Numeric values must be whole
 * integers in range; anything else prints the usage line and exits 1.
 *
 * With no listener flags it serves on --unix /tmp/facile.sock.
 *
 * Shutdown (see PredictionServer::drain()): SIGTERM drains first —
 * new connections are refused, new PREDICTs are answered DRAINING,
 * HEALTH flips to Draining so routers move traffic off, and admitted
 * work flushes — then after --drain-grace-ms (default 1000) the
 * server stops and prints the serving counters. SIGINT skips the
 * grace period and stops immediately (a second SIGTERM too).
 *
 * The resource-limit flags override the ServerOptions defaults (see
 * src/server/README.md, "Resource limits & abuse handling"): read
 * deadline per connection (0 disables — not recommended on exposed
 * listeners), connection cap, admission-queue bound, and per-
 * connection in-flight quota. Shedding is explicit: over-quota
 * requests are answered OVERLOADED, and every limit has a counter in
 * the shutdown summary / STATS frame.
 *
 * Warm-start snapshots (src/analysis/snapshot.h): --snapshot-load
 * restores the instruction intern arenas and the engine's prediction
 * cache before the first request, so a restarted server serves warm
 * immediately — falling back through rotated generations when the
 * newest file is torn (e.g. the previous process was SIGKILLed mid-
 * save), and starting cold if none loads. --snapshot-save configures
 * the destination; a save is triggered by SIGUSR1, by the SNAPSHOT
 * admin frame (server::Client::snapshot()), and once more on clean
 * shutdown. Saves are atomic (temp + fsync + rename), so a crash
 * never leaves the destination unloadable. Point both flags at the
 * same file for crash-restart round trips. --snapshot-format picks
 * the image written by saves: v2 (default) is the mmap-native
 * sectioned image restarts bind in O(pages touched); v1 is the
 * legacy streaming format for rollback to older binaries (loads
 * accept both, whatever the flag says).
 */
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <limits>
#include <semaphore.h>
#include <string>
#include <thread>

#include "analysis/snapshot.h"
#include "server/server.h"
#include "support/cli.h"

using namespace facile;

namespace {

/** async-signal-safe shutdown latch. */
sem_t g_stopSem;

/** Set by SIGUSR1: the main loop saves a snapshot and keeps serving. */
std::atomic<bool> g_snapshotRequested{false};

/** Set by SIGINT (or a repeated SIGTERM): stop immediately. */
std::atomic<bool> g_stopRequested{false};

/** Set by SIGTERM: drain, then stop after the grace period. */
std::atomic<bool> g_drainRequested{false};

void
onSignal(int)
{
    g_stopRequested.store(true);
    sem_post(&g_stopSem);
}

void
onSigTerm(int)
{
    // Second SIGTERM escalates to an immediate stop.
    if (g_drainRequested.exchange(true))
        g_stopRequested.store(true);
    sem_post(&g_stopSem);
}

void
onSigUsr1(int)
{
    g_snapshotRequested.store(true);
    sem_post(&g_stopSem);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--tcp PORT] [--unix PATH] [--threads N] "
                 "[--io-threads N] [--window-us MAX_US] [--max-batch N]\n"
                 "       [--read-timeout-ms N] [--max-connections N] "
                 "[--max-pending N] [--max-inflight N]\n"
                 "       [--snapshot-load FILE] [--snapshot-save FILE] "
                 "[--snapshot-format v1|v2] [--drain-grace-ms N]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    server::ServerOptions opts;
    int threads = 0;
    int drainGraceMs = 1000;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        // Numeric flags take a whole integer in range (support/cli.h);
        // anything else exits 1 instead of becoming 0 or a wrapped size.
        auto num = [&](auto &dst, auto lo, auto hi) {
            const char *v = next();
            if (parseIntArg(v, dst, lo, hi))
                return true;
            std::fprintf(stderr, "%s: invalid value '%s' for %s\n",
                         argv[0], v ? v : "", arg.c_str());
            usage(argv[0]);
            return false;
        };
        constexpr auto kIntMax = std::numeric_limits<int>::max();
        constexpr auto kSizeMax = std::numeric_limits<std::size_t>::max();
        if (arg == "--tcp") {
            if (!num(opts.tcpPort, 0, 65535))
                return 1;
        } else if (arg == "--unix") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            opts.unixPath = v;
        } else if (arg == "--threads") {
            if (!num(threads, 0, 1024))
                return 1;
        } else if (arg == "--io-threads") {
            if (!num(opts.ioThreads, 1, 1024))
                return 1;
        } else if (arg == "--window-us") {
            if (!num(opts.batchWindowUs, 0, kIntMax))
                return 1;
        } else if (arg == "--max-batch") {
            if (!num(opts.maxBatch, 0, kSizeMax))
                return 1;
        } else if (arg == "--read-timeout-ms") {
            if (!num(opts.readTimeoutMs, 0, kIntMax))
                return 1;
        } else if (arg == "--max-connections") {
            if (!num(opts.maxConnections, 0, kSizeMax))
                return 1;
        } else if (arg == "--max-pending") {
            // Sizes the admission ring, so it is capped at 2^24 slots.
            if (!num(opts.maxPending, 0, std::size_t{1} << 24))
                return 1;
        } else if (arg == "--max-inflight") {
            if (!num(opts.maxInFlightPerConn, 0, kSizeMax))
                return 1;
        } else if (arg == "--snapshot-load") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            opts.snapshotLoadPath = v;
        } else if (arg == "--snapshot-save") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            opts.snapshotPath = v;
        } else if (arg == "--snapshot-format") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            if (std::string(v) == "v1")
                opts.snapshotFormat = analysis::SnapshotFormat::V1;
            else if (std::string(v) == "v2")
                opts.snapshotFormat = analysis::SnapshotFormat::V2;
            else
                return usage(argv[0]);
        } else if (arg == "--drain-grace-ms") {
            if (!num(drainGraceMs, 0, kIntMax))
                return 1;
        } else {
            return usage(argv[0]);
        }
    }
    if (opts.unixPath.empty() && opts.tcpPort < 0)
        opts.unixPath = "/tmp/facile.sock";

    engine::PredictionEngine::Options eopts;
    eopts.numThreads = threads;
    engine::PredictionEngine eng(eopts);
    opts.engine = &eng;

    // --snapshot-load flows through ServerOptions::snapshotLoadPath:
    // start() walks the rotated generations and falls back to a cold
    // start if none loads, logging either way — a missing or torn
    // snapshot must not keep a replica from coming up.
    server::PredictionServer srv(opts);
    try {
        srv.start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "failed to start: %s\n", e.what());
        return 1;
    }
    if (!opts.unixPath.empty())
        std::printf("serving on unix socket %s\n", opts.unixPath.c_str());
    if (opts.tcpPort >= 0)
        std::printf("serving on %s:%d\n", opts.tcpHost.c_str(),
                    srv.tcpPort());
    std::printf("engine: %d worker thread(s), %d io loop(s), admission "
                "window closes when a burst is read (at most %d us, "
                "max batch %zu)\n",
                eng.numThreads(), opts.ioThreads, opts.batchWindowUs,
                opts.maxBatch);
    std::printf("limits: read deadline %d ms, %zu connections, "
                "%zu pending, %zu in-flight per connection\n",
                opts.readTimeoutMs, opts.maxConnections, opts.maxPending,
                opts.maxInFlightPerConn);
    std::fflush(stdout);

    sem_init(&g_stopSem, 0, 0);
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSigTerm);
    // Installed even without --snapshot-save: the default SIGUSR1
    // disposition is process termination, and a stray ops-script
    // signal must not kill the server. saveSnapshot() reports the
    // missing path.
    std::signal(SIGUSR1, onSigUsr1);
    for (;;) {
        if (sem_wait(&g_stopSem) != 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (g_snapshotRequested.exchange(false)) {
            if (opts.snapshotPath.empty())
                std::printf("SIGUSR1 ignored: no --snapshot-save path "
                            "configured\n");
            else
                std::printf("SIGUSR1: snapshot to %s %s\n",
                            opts.snapshotPath.c_str(),
                            srv.saveSnapshot() ? "saved" : "FAILED");
            std::fflush(stdout);
        }
        if (g_drainRequested.load() && !g_stopRequested.load()) {
            std::printf("SIGTERM: draining (refusing new work, grace "
                        "%d ms; SIGINT or SIGTERM again stops now)\n",
                        drainGraceMs);
            std::fflush(stdout);
            srv.drain();
            // Sleep out the grace in slices so an escalation signal
            // still cuts it short; admitted batches flush meanwhile.
            const auto until =
                std::chrono::steady_clock::now() +
                std::chrono::milliseconds(drainGraceMs);
            while (std::chrono::steady_clock::now() < until &&
                   !g_stopRequested.load())
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(20));
            break;
        }
        // Only an explicit stop request ends the loop: back-to-back
        // SIGUSR1s leave extra semaphore posts behind, and those
        // spurious wake-ups must not read as a shutdown.
        if (g_stopRequested.load())
            break;
    }

    server::ServerStats s = srv.stats();
    if (!opts.snapshotPath.empty())
        std::printf("final snapshot to %s %s\n", opts.snapshotPath.c_str(),
                    srv.saveSnapshot() ? "saved" : "FAILED");
    srv.stop();
    std::printf("\nshut down after %.1f s: %llu requests, "
                "%llu predictions in %llu batches (max %llu), "
                "%llu prediction-cache hits, %llu connections\n",
                static_cast<double>(s.uptimeMs) / 1000.0,
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.predictions),
                static_cast<unsigned long long>(s.batches),
                static_cast<unsigned long long>(s.maxBatch),
                static_cast<unsigned long long>(s.predictionCacheHits),
                static_cast<unsigned long long>(s.connectionsAccepted));
    std::printf("event loop: %llu epoll wakeups, %llu short writes "
                "(EPOLLOUT resumes), %llu ring-full rejections\n",
                static_cast<unsigned long long>(s.epollWakeups),
                static_cast<unsigned long long>(s.shortWrites),
                static_cast<unsigned long long>(s.ringFull));
    if (s.drainSheds > 0 || s.snapshotFallbacks > 0)
        std::printf("resilience: %llu requests answered DRAINING, "
                    "%llu snapshot generation fallbacks at warm start\n",
                    static_cast<unsigned long long>(s.drainSheds),
                    static_cast<unsigned long long>(s.snapshotFallbacks));
    const std::uint64_t shed = s.overloadedQueue + s.overloadedConn +
                               s.readTimeouts + s.quotaClosed +
                               s.connectionsShed;
    if (shed > 0)
        std::printf("shed: %llu overloaded (queue %llu, conn quota "
                    "%llu), %llu read timeouts, %llu byte-quota "
                    "closes, %llu refused at accept\n",
                    static_cast<unsigned long long>(s.overloadedQueue +
                                                    s.overloadedConn),
                    static_cast<unsigned long long>(s.overloadedQueue),
                    static_cast<unsigned long long>(s.overloadedConn),
                    static_cast<unsigned long long>(s.readTimeouts),
                    static_cast<unsigned long long>(s.quotaClosed),
                    static_cast<unsigned long long>(s.connectionsShed));
    return 0;
}
