#include "server/resilient_client.h"

#include <csignal>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>

namespace facile::server {

namespace {

/** Backoff growth cap. */
constexpr std::int64_t kMaxBackoffMs = 500;
/** Exponential growth factor of the backoff. */
constexpr double kBackoffMultiplier = 2.0;
/** Uniform jitter fraction: each sleep is scaled by 1 +/- kJitter. */
constexpr double kJitter = 0.5;

std::uint64_t splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/**
 * Ignore SIGPIPE process-wide, once, and only if the process still has
 * the default disposition — a host application that installed its own
 * handler keeps it. Client sends use MSG_NOSIGNAL already; this covers
 * any other fd the process writes after a peer vanishes, so a dying
 * server can never kill its clients.
 */
void ignoreSigpipeOnce()
{
    static std::once_flag once;
    std::call_once(once, [] {
        struct sigaction cur = {};
        if (::sigaction(SIGPIPE, nullptr, &cur) == 0 &&
            cur.sa_handler == SIG_DFL) {
            struct sigaction ign = {};
            ign.sa_handler = SIG_IGN;
            ::sigaction(SIGPIPE, &ign, nullptr);
        }
    });
}

} // namespace

ResilientClient ResilientClient::forTcp(std::string host, int port,
                                        RetryPolicy policy)
{
    return ResilientClient(std::move(host), port, std::string(),
                           std::move(policy));
}

ResilientClient ResilientClient::forUnix(std::string path,
                                         RetryPolicy policy)
{
    return ResilientClient(std::string(), -1, std::move(path),
                           std::move(policy));
}

ResilientClient::ResilientClient(std::string host, int port,
                                 std::string path, RetryPolicy policy)
    : host_(std::move(host)), port_(port), path_(std::move(path)),
      policy_(std::move(policy)), rngState_(policy_.jitterSeed)
{
    if (policy_.maxAttempts < 1) policy_.maxAttempts = 1;
    if (policy_.breakerThreshold < 1) policy_.breakerThreshold = 1;
}

std::uint64_t ResilientClient::nextRandom() { return splitmix64(rngState_); }

Client &ResilientClient::ensureConnected(Clock::time_point deadline,
                                         const char *what)
{
    (void)deadline;
    if (client_) return *client_;
    ignoreSigpipeOnce();
    // Dialing after a failure is the "reconnect" of the self-healing
    // contract; the very first dial of a healthy run is not.
    const bool redial = consecutiveFailures_ > 0;
    if (!path_.empty()) client_ = Client::connectUnix(path_);
    else client_ = Client::connectTcp(host_, port_);
    if (redial) ++heal_.reconnects;
    (void)what;
    return *client_;
}

void ResilientClient::backoffSleep(int attempt, Clock::time_point deadline)
{
    // attempt is 1-based: the sleep before the (attempt+1)-th try.
    double ms = static_cast<double>(policy_.initialBackoff.count());
    const double cap = static_cast<double>(kMaxBackoffMs);
    for (int i = 1; i < attempt && ms < cap; ++i)
        ms *= kBackoffMultiplier;
    if (ms > cap) ms = cap;
    // Deterministic uniform jitter in [1 - j, 1 + j].
    const double u =
        static_cast<double>(nextRandom() >> 11) * 0x1.0p-53; // [0, 1)
    ms *= 1.0 + kJitter * (2.0 * u - 1.0);
    if (ms < 0.0) ms = 0.0;

    const auto now = Clock::now();
    if (now >= deadline)
        throw DeadlineError("retries exhausted the operation deadline");
    auto sleep = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(ms));
    if (now + sleep > deadline) sleep = deadline - now;
    if (sleep.count() > 0) std::this_thread::sleep_for(sleep);
}

template <typename Fn>
auto ResilientClient::withRetries(const char *what, Fn &&op)
{
    return withRetriesImpl(what, 0, false, std::forward<Fn>(op));
}

/**
 * The retry core. @p replayCost is how many PREDICT requests a retry
 * re-sends (for the retriedRequests counter); @p dropOnProtocolRetry
 * forces a reconnect before retrying a rejected *pipelined* op, whose
 * unread sibling responses would otherwise desync id matching on the
 * old connection (single-frame ops leave the connection clean).
 */
template <typename Fn>
auto ResilientClient::withRetriesImpl(const char *what,
                                      std::size_t replayCost,
                                      bool dropOnProtocolRetry, Fn &&op)
{
    using R = std::invoke_result_t<Fn &, Client &>;
    const auto deadline = Clock::now() + policy_.opDeadline;
    int attempt = 0;
    for (;;) {
        // Circuit breaker gate: while open, wait out the cooldown when
        // the deadline allows (then fall through as the half-open
        // probe); fail fast when it does not.
        if (consecutiveFailures_ >= policy_.breakerThreshold) {
            const auto now = Clock::now();
            if (now < breakerOpenUntil_) {
                if (breakerOpenUntil_ > deadline)
                    throw CircuitOpenError(what);
                std::this_thread::sleep_until(breakerOpenUntil_);
            }
        }
        ++attempt;
        try {
            Client &c = ensureConnected(deadline, what);
            if constexpr (std::is_void_v<R>) {
                op(c);
                consecutiveFailures_ = 0;
                return;
            } else {
                R result = op(c);
                consecutiveFailures_ = 0;
                return result;
            }
        } catch (const TransportError &) {
            // Connection-level fault: the socket is gone (or doubtful).
            // Predictions are pure, so reconnect-and-replay is safe.
            client_.reset();
            noteFailure();
            if (attempt >= policy_.maxAttempts) throw;
        } catch (const ProtocolError &e) {
            if (!e.retryable()) throw; // fatal: identical on retry
            if (e.status() == Status::Draining) ++heal_.drainedPeers;
            // The server answered, so the transport is healthy; this
            // is backpressure, not failure — the breaker stays closed.
            consecutiveFailures_ = 0;
            if (dropOnProtocolRetry) client_.reset();
            if (attempt >= policy_.maxAttempts) throw;
        }
        ++heal_.retries;
        heal_.retriedRequests += replayCost;
        backoffSleep(attempt, deadline);
    }
}

void ResilientClient::noteFailure()
{
    ++consecutiveFailures_;
    if (consecutiveFailures_ >= policy_.breakerThreshold) {
        if (consecutiveFailures_ == policy_.breakerThreshold)
            ++heal_.breakerOpens;
        breakerOpenUntil_ = Clock::now() + policy_.breakerCooldown;
    }
}

model::Prediction
ResilientClient::predict(const std::vector<std::uint8_t> &bytes,
                         uarch::UArch arch, bool loop,
                         const model::ModelConfig &config,
                         model::Payload payload)
{
    return withRetriesImpl("predict", 1, false, [&](Client &c) {
        return c.predict(bytes, arch, loop, config, payload);
    });
}

std::vector<model::Prediction>
ResilientClient::predictMany(const std::vector<engine::Request> &reqs)
{
    std::vector<model::Prediction> out;
    predictManyInto(reqs, out);
    return out;
}

void ResilientClient::predictManyInto(
    const std::vector<engine::Request> &reqs,
    std::vector<model::Prediction> &out)
{
    withRetriesImpl("predictMany", reqs.size(), true,
                    [&](Client &c) { c.predictManyInto(reqs, out); });
}

ServerStats ResilientClient::stats()
{
    ServerStats s =
        withRetries("stats", [](Client &c) { return c.stats(); });
    s.reconnects += heal_.reconnects;
    s.retriedRequests += heal_.retriedRequests;
    return s;
}

void ResilientClient::ping()
{
    withRetries("ping", [](Client &c) { c.ping(); });
}

bool ResilientClient::snapshot()
{
    return withRetries("snapshot", [](Client &c) { return c.snapshot(); });
}

HealthState ResilientClient::health()
{
    return withRetries("health", [](Client &c) { return c.health(); });
}

std::vector<std::uint8_t> ResilientClient::fetchSnapshot()
{
    return withRetries("fetchSnapshot",
                       [](Client &c) { return c.fetchSnapshot(); });
}

} // namespace facile::server
