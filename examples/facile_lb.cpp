/**
 * @file
 * Standalone consistent-hash router (cluster::Router) in front of N
 * facile_server backends.
 *
 * Usage:
 *   facile_lb --backend SPEC [--backend SPEC ...]
 *             [--tcp PORT] [--unix PATH]
 *             [--health-interval-ms N] [--health-miss-limit N]
 *             [--reconnect-backoff-ms N]
 *
 * SPEC is unix:PATH or HOST:PORT (dotted-quad host). With no listener
 * flags it serves on --unix /tmp/facile-lb.sock. Clients speak the
 * ordinary prediction-server wire protocol to the router; every
 * PREDICT is sharded to the rendezvous-hash pick of
 * (arch, xxh64(block bytes)), so each backend's caches stay hot for
 * its shard of the instruction universe. Dead backends are failed
 * over and re-dialed with backoff — see src/cluster/router.h for the
 * full semantics.
 *
 * SIGINT/SIGTERM stop the router and print its forwarding counters.
 */
#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <exception>
#include <limits>
#include <semaphore.h>
#include <string>
#include <vector>

#include "cluster/router.h"
#include "support/cli.h"

using namespace facile;

namespace {

/** async-signal-safe shutdown latch. */
sem_t g_stopSem;
std::atomic<bool> g_stopRequested{false};

void
onSignal(int)
{
    g_stopRequested.store(true);
    sem_post(&g_stopSem);
}

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --backend SPEC [--backend SPEC ...] "
                 "[--tcp PORT] [--unix PATH]\n"
                 "       [--health-interval-ms N] [--health-miss-limit N] "
                 "[--reconnect-backoff-ms N]\n"
                 "       SPEC = unix:PATH | HOST:PORT\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    cluster::RouterOptions opts;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        // Numeric flags take a whole integer in range (support/cli.h);
        // anything else exits 1 instead of silently becoming 0.
        auto num = [&](int &dst, int lo, int hi) {
            const char *v = next();
            if (parseIntArg(v, dst, lo, hi))
                return true;
            std::fprintf(stderr, "%s: invalid value '%s' for %s\n",
                         argv[0], v ? v : "", arg.c_str());
            usage(argv[0]);
            return false;
        };
        constexpr int kIntMax = std::numeric_limits<int>::max();
        if (arg == "--backend") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            try {
                opts.backends.push_back(cluster::parseEndpoint(v));
            } catch (const std::exception &e) {
                std::fprintf(stderr, "%s\n", e.what());
                return usage(argv[0]);
            }
        } else if (arg == "--tcp") {
            if (!num(opts.tcpPort, 0, 65535))
                return 1;
        } else if (arg == "--unix") {
            const char *v = next();
            if (!v)
                return usage(argv[0]);
            opts.unixPath = v;
        } else if (arg == "--health-interval-ms") {
            if (!num(opts.healthIntervalMs, 1, kIntMax))
                return 1;
        } else if (arg == "--health-miss-limit") {
            if (!num(opts.healthMissLimit, 1, kIntMax))
                return 1;
        } else if (arg == "--reconnect-backoff-ms") {
            if (!num(opts.reconnectBackoffMs, 0, kIntMax))
                return 1;
        } else {
            return usage(argv[0]);
        }
    }
    if (opts.backends.empty())
        return usage(argv[0]);
    if (opts.unixPath.empty() && opts.tcpPort < 0)
        opts.unixPath = "/tmp/facile-lb.sock";

    cluster::Router router(opts);
    try {
        router.start();
    } catch (const std::exception &e) {
        std::fprintf(stderr, "failed to start: %s\n", e.what());
        return 1;
    }
    if (!opts.unixPath.empty())
        std::printf("routing on unix socket %s\n", opts.unixPath.c_str());
    if (opts.tcpPort >= 0)
        std::printf("routing on %s:%d\n", opts.tcpHost.c_str(),
                    router.tcpPort());
    std::printf("%zu backend(s):\n", opts.backends.size());
    for (const auto &ep : opts.backends)
        std::printf("  %s\n", ep.label().c_str());
    std::fflush(stdout);

    sem_init(&g_stopSem, 0, 0);
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);
    while (!g_stopRequested.load())
        if (sem_wait(&g_stopSem) != 0 && errno != EINTR)
            break;

    const server::ServerStats s = router.stats();
    router.stop();
    std::printf("\nshut down after %.1f s: %llu requests, %llu routed "
                "predicts, %llu failovers, %llu no-backend sheds, "
                "%llu connections\n",
                static_cast<double>(s.uptimeMs) / 1000.0,
                static_cast<unsigned long long>(s.requests),
                static_cast<unsigned long long>(s.routedPredicts),
                static_cast<unsigned long long>(s.backendFailovers),
                static_cast<unsigned long long>(s.overloadedQueue),
                static_cast<unsigned long long>(s.connectionsAccepted));
    return 0;
}
