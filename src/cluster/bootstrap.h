/**
 * @file
 * Replica bootstrap and convergence: the two snapshot-over-the-wire
 * consumers that turn N independent prediction servers into a fleet
 * with a shared warm prediction cache.
 *
 * Bootstrap: a starting replica fetches a peer's live image over
 * the SNAPSHOT-fetch admin op (Client::fetchSnapshot, retried through
 * ResilientClient — the peer may itself be starting or shedding) and
 * stages it to its own snapshot path via the same atomic temp-file +
 * fsync + generation-rotation writer the save path uses. The staged
 * bytes are exactly what the peer's saveSnapshot would have written,
 * so the replica's ordinary loadSnapshot() — validation and the
 * generation fallback ladder — serves the warm start unchanged, in
 * milliseconds. A torn or corrupted fetch is
 * rejected by the full deep validation BEFORE anything touches disk:
 * the replica falls back to a cold start, never to a poisoned one.
 *
 * Convergence: replicas behind a hashing router each predict only
 * their shard of the traffic. The ConvergenceLoop is the background
 * cadence that periodically fetches each peer's image and folds it
 * into the local engine through the append-only
 * loadSnapshotFromMemory path: keys already cached keep their live
 * entries, new ones appear, nothing is ever dropped. Before the fold,
 * mergeSnapshotModels (the union facile_snaptool merge drives) checks
 * the peer's entries against the local cache; a conflict (two
 * replicas carrying different predictions behind one key — impossible
 * unless they run different model builds) aborts that round and is
 * counted, not propagated.
 */
#ifndef FACILE_CLUSTER_BOOTSTRAP_H
#define FACILE_CLUSTER_BOOTSTRAP_H

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cluster/membership.h"
#include "server/resilient_client.h"

namespace facile::engine {
class PredictionEngine;
}

namespace facile::cluster {

/**
 * Deep-validate @p size bytes of fetched snapshot image and stage them
 * atomically (temp file + fsync + rename, rotating prior generations)
 * at @p localPath. Nothing reaches disk unless the image passes the
 * same full validation `facile_snaptool verify` runs — a torn stream
 * or bit-flipped chunk returns false and leaves any existing
 * generations untouched.
 */
bool stageFetchedImage(const std::uint8_t *data, std::size_t size,
                       const std::string &localPath);

/**
 * Fetch @p peer's live snapshot over the wire (with ResilientClient
 * retries per @p policy) and stage it at @p localPath via
 * stageFetchedImage. Returns true when a validated image landed;
 * false on transport exhaustion, an old peer that rejects the subop,
 * or a corrupt image. Callers fall back to a cold start on false —
 * bootstrap is an optimization, never a correctness dependency.
 */
bool fetchSnapshotFromPeer(const Endpoint &peer,
                           const std::string &localPath,
                           server::RetryPolicy policy = {});

/** Counters of one ConvergenceLoop (and convergeWithImage rounds). */
struct ConvergenceStats
{
    std::uint64_t rounds = 0;       ///< peer sweeps completed
    std::uint64_t merges = 0;       ///< images folded in successfully
    std::uint64_t conflicts = 0;    ///< rounds aborted on merge conflict
    std::uint64_t peerFailures = 0; ///< fetches that exhausted retries
};

/**
 * Fold one peer image into @p engine: parse it, check it against the
 * engine's cache (mergeSnapshotModels over snapshotModelOf), and load
 * it through the append-only in-memory path — existing entries stay,
 * the peer's novel predictions appear. Returns false (and folds
 * nothing) on a malformed image or a merge conflict.
 */
bool convergeWithImage(const std::uint8_t *data, std::size_t size,
                       engine::PredictionEngine *engine);

/**
 * The background convergence cadence: every intervalMs, fetch each
 * peer's snapshot and convergeWithImage it. One ResilientClient per
 * peer (kept across rounds, so its breaker state and reconnect logic
 * carry over). stop() is prompt — the sleep is a condition variable,
 * not a blind clock wait.
 */
class ConvergenceLoop
{
  public:
    struct Options
    {
        std::vector<Endpoint> peers;
        int intervalMs = 2000;
        /** Engine whose prediction cache participates in the union. */
        engine::PredictionEngine *engine = nullptr;
        server::RetryPolicy policy;
    };

    explicit ConvergenceLoop(Options opts);
    ~ConvergenceLoop();
    ConvergenceLoop(const ConvergenceLoop &) = delete;
    ConvergenceLoop &operator=(const ConvergenceLoop &) = delete;

    void start();
    /** Stop and join. Idempotent. */
    void stop();

    /** Thread-safe counters; merges maps to the STATS field
     *  convergenceMerges. */
    ConvergenceStats stats() const;

    /** One synchronous sweep over all peers (also what the thread
     *  runs per tick) — exposed so tests converge deterministically. */
    void runOnce();

  private:
    Options opts_;
    std::vector<server::ResilientClient> clients_;
    std::thread thr_;
    mutable std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;
    bool running_ = false;
    ConvergenceStats stats_;
};

} // namespace facile::cluster

#endif // FACILE_CLUSTER_BOOTSTRAP_H
