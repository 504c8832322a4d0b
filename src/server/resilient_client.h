/**
 * @file
 * Self-healing client for the prediction server: wraps the pipelining
 * Client with the fault-tolerance policy a fleet needs against a
 * replica that crashes, restarts, drains, or sheds load.
 *
 *   - **Typed taxonomy** — retryable vs fatal. TransportError (reset,
 *     refused, EOF) and ProtocolError::retryable() (Overloaded,
 *     Draining) are handled here; everything else (BadRequest,
 *     malformed frames) surfaces to the caller unchanged, because it
 *     would fail identically on retry.
 *   - **Reconnect + idempotent replay.** Predictions are pure
 *     functions of (bytes, arch, flags, config), so after a transport
 *     fault the client reconnects and replays the in-flight PREDICT
 *     requests on the fresh connection. The dead socket takes any
 *     half-delivered responses with it — no dedup bookkeeping needed.
 *   - **Deadlines + jittered exponential backoff.** Every operation
 *     gets RetryPolicy::opDeadline end to end; between attempts the
 *     client sleeps initialBackoff * 2^n (at most 500 ms), jittered by a
 *     deterministic seeded stream so a synchronized fleet de-correlates
 *     (and tests reproduce).
 *   - **Circuit breaker.** breakerThreshold consecutive transport-
 *     level failures open the breaker for breakerCooldown; while open,
 *     attempts wait for the cooldown when the deadline allows (the
 *     self-healing default) and fail fast with CircuitOpenError when
 *     it does not. One half-open probe then closes or re-opens it.
 *
 * Like Client, one instance is single-threaded; use one per thread.
 * Construction never connects (and never throws): the first operation
 * dials, so a fleet can be built while the server is still down.
 */
#ifndef FACILE_SERVER_RESILIENT_CLIENT_H
#define FACILE_SERVER_RESILIENT_CLIENT_H

#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "server/client.h"

namespace facile::server {

/** An operation exhausted RetryPolicy::opDeadline across retries. */
class DeadlineError : public std::runtime_error
{
  public:
    explicit DeadlineError(const std::string &what)
        : std::runtime_error("deadline: " + what)
    {}
};

/**
 * The circuit breaker is open and the operation's deadline ends
 * before the cooldown does — the server has been failing repeatedly
 * and hammering it again right now would help nobody.
 */
class CircuitOpenError : public std::runtime_error
{
  public:
    explicit CircuitOpenError(const std::string &what)
        : std::runtime_error("circuit open: " + what)
    {}
};

struct RetryPolicy
{
    /** Attempts per operation, including the first (>= 1). */
    int maxAttempts = 8;
    /**
     * Backoff before the second attempt; it doubles per attempt up to
     * 500 ms, jittered by +/- 50%.
     */
    std::chrono::milliseconds initialBackoff{5};
    /** End-to-end deadline per operation (connect + retries + IO). */
    std::chrono::milliseconds opDeadline{30000};
    /** Consecutive transport failures that open the breaker. */
    int breakerThreshold = 8;
    /** How long an open breaker blocks attempts. */
    std::chrono::milliseconds breakerCooldown{500};
    /** Seed of the deterministic jitter stream. */
    std::uint64_t jitterSeed = 0x5eedfac12e511e17ULL;
};

/** Local self-healing counters (also merged into stats()). */
struct SelfHealStats
{
    std::uint64_t reconnects = 0;      ///< successful re-dials
    std::uint64_t retriedRequests = 0; ///< PREDICTs re-sent after a fault
    std::uint64_t retries = 0;         ///< operation attempts beyond the first
    std::uint64_t breakerOpens = 0;    ///< breaker threshold crossings
    std::uint64_t drainedPeers = 0;    ///< Draining rejections observed
};

class ResilientClient
{
  public:
    /** Target a TCP endpoint (dotted-quad host). Does not connect. */
    static ResilientClient forTcp(std::string host, int port,
                                  RetryPolicy policy = {});

    /** Target a Unix-domain socket path. Does not connect. */
    static ResilientClient forUnix(std::string path,
                                   RetryPolicy policy = {});

    ResilientClient(ResilientClient &&) noexcept = default;
    ResilientClient &operator=(ResilientClient &&) noexcept = default;

    /** One prediction; retried per the policy. */
    model::Prediction
    predict(const std::vector<std::uint8_t> &bytes, uarch::UArch arch,
            bool loop, const model::ModelConfig &config = {},
            model::Payload payload = model::Payload::None);

    /**
     * Pipelined batch with replay-on-fault: a transport error at any
     * point reconnects and re-sends the whole batch (pure predictions
     * make that idempotent; the dead socket discards any responses of
     * the aborted attempt). out[i] corresponds to reqs[i].
     */
    std::vector<model::Prediction>
    predictMany(const std::vector<engine::Request> &reqs);

    void predictManyInto(const std::vector<engine::Request> &reqs,
                         std::vector<model::Prediction> &out);

    /**
     * Server counters, with this client's reconnects/retriedRequests
     * merged in — the two client-side fields of the STATS payload (a
     * server always sends 0 there).
     */
    ServerStats stats();

    void ping();
    bool snapshot();
    HealthState health();

    /**
     * Client::fetchSnapshot with the full retry taxonomy — the call a
     * bootstrapping replica makes against a peer that may itself be
     * starting, draining, or overloaded.
     */
    std::vector<std::uint8_t> fetchSnapshot();

    const SelfHealStats &selfHealStats() const { return heal_; }
    const RetryPolicy &policy() const { return policy_; }

    /** True while a dialed connection is held (no probe traffic). */
    bool connected() const { return client_.has_value(); }

    /** Drop the current connection; the next operation re-dials. */
    void disconnect() { client_.reset(); }

  private:
    ResilientClient(std::string host, int port, std::string path,
                    RetryPolicy policy);

    using Clock = std::chrono::steady_clock;

    /** Run @p op with connect/retry/backoff/breaker handling. */
    template <typename Fn> auto withRetries(const char *what, Fn &&op);
    template <typename Fn>
    auto withRetriesImpl(const char *what, std::size_t replayCost,
                         bool dropOnProtocolRetry, Fn &&op);

    Client &ensureConnected(Clock::time_point deadline, const char *what);
    void backoffSleep(int attempt, Clock::time_point deadline);
    void noteFailure();
    std::uint64_t nextRandom();

    std::string host_;
    int port_ = -1;
    std::string path_; ///< UDS target; empty = TCP
    RetryPolicy policy_;
    std::optional<Client> client_;
    SelfHealStats heal_;
    std::uint64_t rngState_ = 0;
    int consecutiveFailures_ = 0;
    Clock::time_point breakerOpenUntil_{};
};

} // namespace facile::server

#endif // FACILE_SERVER_RESILIENT_CLIENT_H
