/**
 * @file
 * facile_lb's engine: a thin consistent-hash router that shards
 * PREDICT traffic across N prediction-server backends.
 *
 * Data plane (one loop of the server's event-loop core,
 * server/event_loop.h): client connections are accepted, read and
 * written exactly like a PredictionServer connection; each backend
 * gets ONE pipelined nonblocking connection that multiplexes every
 * client's forwarded frames. Forwarding rewrites the request id to a
 * router-unique id (clients pick ids independently, so two clients'
 * id 1 must not collide on the shared backend pipe); the pending map
 * routerId → (client, original id) rewrites it back on the response,
 * so responses can never leak across clients.
 *
 * Routing: PREDICT frames hash to routeKey(arch, block bytes) and go
 * to the rendezvous pick among Up backends (membership.h) — the same
 * block always lands on the same backend, keeping its caches hot for
 * its shard of the universe. PING/STATS/HEALTH are answered locally
 * (STATS reports the router's own counters, including the
 * routedPredicts/backendFailovers fields backends leave 0). SNAPSHOT
 * is answered BadRequest: snapshot administration addresses a
 * specific replica, so point the client at the backend directly.
 *
 * Liveness and failover: every healthIntervalMs the router sends a
 * HEALTH probe down each backend pipe; healthMissLimit consecutive
 * unanswered probes — or any transport error — declare the backend
 * dead. Its in-flight requests are REPLAYED to the next rendezvous
 * pick (predictions are pure, so replay is idempotent — the same
 * argument ResilientClient makes), and only when no backend remains
 * routable does the caller see OVERLOADED, which ResilientClient
 * already treats as retryable backpressure. A backend that answers
 * HEALTH with Draining keeps its in-flight work but receives nothing
 * new — the drain handshake a fleet rollout needs. Dead backends are
 * re-dialed with exponential backoff.
 */
#ifndef FACILE_CLUSTER_ROUTER_H
#define FACILE_CLUSTER_ROUTER_H

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "cluster/membership.h"
#include "server/protocol.h"

namespace facile::cluster {

struct RouterOptions
{
    /** Unix-domain listener path; empty disables. */
    std::string unixPath;
    /** TCP listener port; -1 disables, 0 binds ephemeral. */
    int tcpPort = -1;
    std::string tcpHost = "127.0.0.1";

    /** Backend prediction servers (at least one). */
    std::vector<Endpoint> backends;

    /** HEALTH probe cadence per backend. */
    int healthIntervalMs = 250;
    /** Consecutive unanswered probes that declare a backend dead. */
    int healthMissLimit = 3;
    /** First re-dial delay after a backend dies; doubles per failure. */
    int reconnectBackoffMs = 50;
    int reconnectBackoffMaxMs = 2000;

    /** Per-client-connection cap on buffered unparsed bytes. */
    std::size_t maxBufferedPerConn = 1u << 20;
};

class Router
{
  public:
    explicit Router(RouterOptions opts);
    ~Router();
    Router(const Router &) = delete;
    Router &operator=(const Router &) = delete;

    /** Bind listeners, dial backends, spawn the io thread. @throws. */
    void start();
    /** Stop the io thread and close every socket. Idempotent. */
    void stop();

    /** Bound TCP port (after start(); ephemeral binds resolve here). */
    int tcpPort() const;
    const std::string &unixPath() const;

    /**
     * The router's own counters in the shared ServerStats shape:
     * requests/routedPredicts/backendFailovers plus the connection
     * fields. Thread-safe.
     */
    server::ServerStats stats() const;

  private:
    struct Impl;
    std::unique_ptr<Impl> impl_;
};

} // namespace facile::cluster

#endif // FACILE_CLUSTER_ROUTER_H
