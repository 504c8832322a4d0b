/**
 * @file
 * The wire workloads' load generator and their helper subcommands.
 *
 * Open loop: arrivals are a seeded Poisson schedule, split round-robin
 * over kConnections connections, each driven by one thread that sends
 * whatever is due and reads whatever has arrived, never waiting for a
 * response before the next send. Each request is timed from when it
 * was due to be sent, so a stall is charged to every request behind
 * it; how late the generator itself ran is reported separately.
 *
 * Every response is checked: a non-OK status, a transport error or a
 * prediction that is not bit-identical to serial model::predict counts
 * as a failure, and as missing the latency limit.
 */
#include <fcntl.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <thread>

#include "analysis/snapshot.h"
#include "common.h"
#include "facile/component.h"
#include "perfbench.h"
#include "server/client.h"
#include "server/protocol.h"
#include "traffic.h"

using namespace facile;

namespace perfbench {

namespace {

constexpr int kConnections = 2; ///< one generator thread each
constexpr std::size_t kClosedWindow = 2048; ///< per connection
/** Every 16th fresh block served at the fixed rates is scored. */
constexpr std::size_t kFreshScoreStride = 16;
constexpr double kFailedUs = std::numeric_limits<double>::infinity();
constexpr std::int64_t kDrainNs = 5'000'000'000;

int
connectUds(const std::string &path)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof addr.sun_path)
        throw std::runtime_error("socket path too long: " + path);
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throw std::runtime_error("socket: " + std::string(strerror(errno)));
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size());
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr), sizeof addr) !=
        0) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("connect " + path + ": " + strerror(err));
    }
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
    return fd;
}

/** Serial references for the hot set, per payload depth. */
struct References
{
    std::vector<model::Prediction> bound; ///< Payload::None
    std::vector<model::Prediction> full;  ///< Payload::Full (if used)
    std::vector<engine::Request> boundReq;
    std::vector<engine::Request> fullReq;
};

References
buildReferences(const WireTraffic &t)
{
    References r;
    model::PredictScratch scratch;
    for (std::size_t i = 0; i < t.hot.size(); ++i) {
        WireItem it;
        it.block = t.hot[i].block;
        it.arch = static_cast<std::uint8_t>(t.hot[i].arch);
        it.loop = t.hot[i].loop;
        r.boundReq.push_back(t.request(it));
        r.bound.push_back(serialPredict(r.boundReq.back(), scratch));
        if (t.explainShare > 0.0) {
            it.explain = true;
            r.fullReq.push_back(t.request(it));
            r.full.push_back(serialPredict(r.fullReq.back(), scratch));
        }
    }
    return r;
}

/** What one request ended as. */
enum class Outcome : std::uint8_t {
    Pending,
    Ok,
    Mismatch,
    Overloaded,
    Draining,
    BadRequest,
    Transport,
    NotSent, ///< closed loop: the phase ended before its turn
};

/** Result of one open-loop phase (one rate for a fixed duration). */
struct Phase
{
    double rate = 0.0;
    double seconds = 0.0;
    /**
     * 0: open loop, each arrival sent when due. N > 0: closed loop,
     * each connection keeps N requests outstanding for `seconds`, and
     * the arrivals only supply the request sequence.
     */
    std::size_t window = 0;
    /** Traced runs: every traceEvery-th request gets spans (0: none). */
    std::size_t traceEvery = 0;
    /**
     * Score a sample of this phase's fresh blocks. Only the fixed rates
     * do, so the sample does not depend on the server's speed.
     */
    bool scoreFresh = false;
    /** Closed loop: OK answers that arrived before the window closed. */
    std::atomic<std::size_t> answeredInWindow{0};
    std::vector<Arrival> arrivals;
    std::vector<double> latUs;  ///< per arrival; +inf when failed
    std::vector<double> lateUs; ///< send time minus due time
    std::vector<Outcome> outcome;
    std::vector<std::uint8_t> traced;

    std::size_t
    count(Outcome o) const
    {
        std::size_t n = 0;
        for (Outcome x : outcome)
            n += x == o;
        return n;
    }
    std::size_t failed() const { return outcome.size() - count(Outcome::Ok); }
};

/** A response to a fresh block, verified after the phase. */
struct Deferred
{
    std::size_t index;
    std::vector<std::uint8_t> payload;
};

class Generator
{
  public:
    Generator(const std::string &target, WireTraffic &traffic,
              const References &refs)
        : traffic_(traffic), refs_(refs),
          servedHot_(kConnections,
                     std::vector<double>(traffic.hot.size(), std::nan("")))
    {
        for (int c = 0; c < kConnections; ++c)
            fds_.push_back(connectUds(target));
        Tracer &tr = Tracer::get();
        spanRequest_ = tr.nameId("wire.request");
        spanEncode_ = tr.nameId("client.encode");
        spanDecode_ = tr.nameId("client.decode");
    }

    ~Generator()
    {
        for (int fd : fds_)
            ::close(fd);
    }

    Generator(const Generator &) = delete;
    Generator &operator=(const Generator &) = delete;

    /** Run @p p's arrivals open loop and verify every response. */
    void
    run(Phase &p)
    {
        const std::size_t n = p.arrivals.size();
        p.latUs.assign(n, kFailedUs);
        p.lateUs.assign(n, 0.0);
        p.outcome.assign(n, Outcome::Pending);
        p.traced.assign(n, 0);
        std::vector<std::vector<Deferred>> deferred(kConnections);
        std::vector<std::thread> threads;
        ++phaseNo_;
        const std::int64_t start = nowNs() + 2'000'000; // 2 ms lead-in
        for (int c = 0; c < kConnections; ++c)
            threads.emplace_back([&, c] {
                try {
                    connLoop(c, p, start, deferred[c]);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "generator: %s\n", e.what());
                }
            });
        for (auto &t : threads)
            t.join();
        verifyDeferred(p, deferred);
        std::size_t kept = 0;
        for (std::size_t i = 0; i < n; ++i) {
            if (p.outcome[i] == Outcome::NotSent)
                continue;
            if (p.outcome[i] == Outcome::Pending)
                p.outcome[i] = Outcome::Transport;
            if (p.outcome[i] != Outcome::Ok)
                p.latUs[i] = kFailedUs;
            p.arrivals[kept] = p.arrivals[i];
            p.latUs[kept] = p.latUs[i];
            p.lateUs[kept] = p.lateUs[i];
            p.outcome[kept] = p.outcome[i];
            p.traced[kept] = p.traced[i];
            ++kept;
        }
        p.arrivals.resize(kept);
        p.latUs.resize(kept);
        p.lateUs.resize(kept);
        p.outcome.resize(kept);
        p.traced.resize(kept);
    }

    /** Throughput served per hot entry (NaN where never answered). */
    std::vector<double>
    servedHot() const
    {
        std::vector<double> out = servedHot_[0];
        for (const auto &v : servedHot_)
            for (std::size_t i = 0; i < v.size(); ++i)
                if (!std::isnan(v[i]))
                    out[i] = v[i];
        return out;
    }

    std::size_t mismatches = 0;

    /** A sample of verified fresh-block responses, for scoring. */
    std::vector<ScoredBlock> freshScored;

  private:
    void
    connLoop(int c, Phase &p, std::int64_t start, std::vector<Deferred> &def)
    {
        const int fd = fds_[c];
        std::vector<std::size_t> mine; // arrival indices of this conn
        for (std::size_t i = c; i < p.arrivals.size(); i += kConnections)
            mine.push_back(i);
        const std::size_t n = mine.size();
        std::vector<std::int64_t> encNs(p.traceEvery ? 2 * n : 0);
        std::vector<std::uint8_t> out, in(1 << 16);
        std::size_t outOff = 0, inLen = 0, next = 0, done = 0;
        model::Prediction decoded;
        Tracer &tr = Tracer::get();
        const std::int64_t lastDue =
            n ? start + p.arrivals[mine.back()].dueNs : start;
        // Ids are unique across phases, so a straggler from an earlier
        // phase can never be taken for a response of this one.
        const std::uint64_t idBase = phaseNo_ << 32;

        const std::int64_t endNs =
            start + static_cast<std::int64_t>(p.seconds * 1e9);
        std::vector<std::int64_t> sentNs(p.window ? n : 0);
        std::size_t limit = n; // closed loop: lowered when time is up
        while (done < limit) {
            std::int64_t now = nowNs();
            if (p.window && now >= endNs && limit == n) {
                limit = next;
                for (std::size_t k = next; k < n; ++k)
                    p.outcome[mine[k]] = Outcome::NotSent;
                if (done == limit)
                    break;
            }
            // Send everything that is due.
            while (next < limit && out.size() - outOff < (1u << 18)) {
                const Arrival &a = p.arrivals[mine[next]];
                if (p.window ? next - done >= p.window
                             : start + a.dueNs > now)
                    break;
                if (p.window)
                    sentNs[next] = now;
                const bool traced =
                    p.traceEvery && mine[next] % p.traceEvery == 1;
                const std::int64_t e0 = traced ? nowNs() : 0;
                const WireItem &it = a.item;
                if (it.hot >= 0)
                    server::appendPredictRequest(
                        out, idBase + next + 1,
                        it.explain ? refs_.fullReq[it.hot]
                                   : refs_.boundReq[it.hot]);
                else
                    server::appendPredictRequest(out, idBase + next + 1,
                                                 traffic_.request(it));
                if (traced) {
                    encNs[2 * next] = e0;
                    encNs[2 * next + 1] = nowNs();
                    p.traced[mine[next]] = 1;
                }
                if (!p.window)
                    p.lateUs[mine[next]] =
                        static_cast<double>(now - start - a.dueNs) / 1e3;
                ++next;
            }
            while (outOff < out.size()) {
                const ssize_t w = ::send(fd, out.data() + outOff,
                                         out.size() - outOff, MSG_NOSIGNAL);
                if (w > 0) {
                    outOff += static_cast<std::size_t>(w);
                    continue;
                }
                if (w < 0 && (errno == EAGAIN || errno == EINTR))
                    break;
                return; // transport failure: the rest stay Pending
            }
            if (outOff == out.size()) {
                out.clear();
                outOff = 0;
            }
            // Read whatever has arrived.
            bool closed = false;
            for (;;) {
                if (in.size() - inLen < 4096)
                    in.resize(in.size() * 2);
                const ssize_t r =
                    ::recv(fd, in.data() + inLen, in.size() - inLen, 0);
                if (r > 0) {
                    inLen += static_cast<std::size_t>(r);
                    continue;
                }
                if (r == 0)
                    closed = true;
                else if (errno != EAGAIN && errno != EINTR)
                    closed = true;
                break;
            }
            now = nowNs();
            std::size_t off = 0;
            while (inLen - off >= server::kResponseHeaderSize) {
                const server::ResponseHeader h =
                    server::parseResponseHeader(in.data() + off);
                if (inLen - off < server::kResponseHeaderSize + h.len)
                    break;
                const std::uint8_t *payload =
                    in.data() + off + server::kResponseHeaderSize;
                off += server::kResponseHeaderSize + h.len;
                if (h.id <= idBase || h.id > idBase + next)
                    continue; // not ours; stays Pending -> failure
                const std::size_t k = h.id - idBase - 1;
                const std::size_t idx = mine[k];
                if (p.outcome[idx] != Outcome::Pending)
                    continue;
                ++done;
                const Arrival &a = p.arrivals[idx];
                p.latUs[idx] =
                    static_cast<double>(
                        now - (p.window ? sentNs[k] : start + a.dueNs)) /
                    1e3;
                const std::int64_t d0 = p.traced[idx] ? nowNs() : 0;
                p.outcome[idx] =
                    check(h, payload, a.item, idx, decoded, def,
                          servedHot_[c]);
                if (p.window && now < endNs && p.outcome[idx] == Outcome::Ok)
                    p.answeredInWindow.fetch_add(1, std::memory_order_relaxed);
                if (p.traced[idx]) {
                    const std::int64_t d1 = nowNs();
                    const std::uint64_t rid = tr.newId();
                    tr.record(spanEncode_, encNs[2 * k], encNs[2 * k + 1],
                              rid, rid);
                    tr.record(spanDecode_, d0, d1, rid, rid);
                    tr.record(spanRequest_, start + a.dueNs, now, 0, rid,
                              rid);
                }
            }
            std::memmove(in.data(), in.data() + off, inLen - off);
            inLen -= off;
            if (closed || done == limit)
                break;
            if (next == limit && now > std::max(lastDue, endNs) + kDrainNs)
                break; // unanswered requests stay Pending -> failure
            // Sleep until the next send is due or a response arrives.
            std::int64_t waitNs =
                next < limit && !p.window
                    ? start + p.arrivals[mine[next]].dueNs - nowNs()
                    : 1'000'000;
            if (waitNs > 0) {
                pollfd pfd{fd, POLLIN, 0};
                if (outOff < out.size())
                    pfd.events |= POLLOUT;
                timespec ts{static_cast<time_t>(waitNs / 1'000'000'000),
                            static_cast<long>(waitNs % 1'000'000'000)};
                ::ppoll(&pfd, 1, &ts, nullptr);
            }
        }
    }

    Outcome
    check(const server::ResponseHeader &h, const std::uint8_t *payload,
          const WireItem &it, std::size_t idx, model::Prediction &decoded,
          std::vector<Deferred> &def, std::vector<double> &served)
    {
        switch (static_cast<server::Status>(h.status)) {
          case server::Status::Ok:
            break;
          case server::Status::Overloaded:
            return Outcome::Overloaded;
          case server::Status::Draining:
            return Outcome::Draining;
          default:
            return Outcome::BadRequest;
        }
        if (it.hot < 0) {
            def.push_back({idx, std::vector<std::uint8_t>(
                                    payload, payload + h.len)});
            return Outcome::Ok; // verified after the phase
        }
        if (!server::decodePredictInto(payload, h.len, decoded))
            return Outcome::Mismatch;
        const model::Prediction &ref =
            it.explain ? refs_.full[it.hot] : refs_.bound[it.hot];
        if (!eval::samePrediction(decoded, ref))
            return Outcome::Mismatch;
        served[it.hot] = decoded.throughput;
        return Outcome::Ok;
    }

    void
    verifyDeferred(Phase &p, const std::vector<std::vector<Deferred>> &def)
    {
        std::vector<const Deferred *> all;
        for (const auto &v : def)
            for (const auto &d : v)
                all.push_back(&d);
        constexpr int kThreads = 3;
        std::vector<std::vector<ScoredBlock>> scored(kThreads);
        std::vector<std::thread> pool;
        for (int t = 0; t < kThreads; ++t)
            pool.emplace_back([&, t] {
                model::PredictScratch scratch;
                model::Prediction got;
                for (std::size_t i = t; i < all.size(); i += kThreads) {
                    const Deferred &d = *all[i];
                    const WireItem &it = p.arrivals[d.index].item;
                    const auto req = traffic_.request(it);
                    if (!server::decodePredictInto(d.payload.data(),
                                                   d.payload.size(), got) ||
                        !eval::samePrediction(got, serialPredict(req, scratch)))
                        p.outcome[d.index] = Outcome::Mismatch;
                    else if (p.scoreFresh && it.block % kFreshScoreStride == 0)
                        scored[t].push_back(
                            {req.bytes, it.arch, it.loop, got.throughput});
                }
            });
        for (auto &t : pool)
            t.join();
        mismatches += p.count(Outcome::Mismatch);
        for (auto &v : scored)
            for (auto &s : v)
                freshScored.push_back(std::move(s));
    }

    WireTraffic &traffic_;
    const References &refs_;
    std::vector<std::vector<double>> servedHot_; ///< per connection
    std::vector<int> fds_;
    std::uint64_t phaseNo_ = 0;
    std::uint32_t spanRequest_ = 0, spanEncode_ = 0, spanDecode_ = 0;
};

/** Latency summary of a phase, whole and per equal-time window. */
struct PhaseStats
{
    Summary all;
    std::vector<double> winP50, winP99;
    double lateP99Us = 0.0;
    double achieved = 0.0; ///< answered OK per second
    bool backlog = false;  ///< latency still rising at the end
    bool pass = false;
};

PhaseStats
phaseStats(const Phase &p, int windows, double limitUs)
{
    PhaseStats s;
    s.all = summarize(p.latUs);
    const std::int64_t winNs =
        static_cast<std::int64_t>(p.seconds * 1e9 / windows);
    std::vector<std::vector<double>> w(windows);
    for (std::size_t i = 0; i < p.arrivals.size(); ++i)
        w[std::min<std::int64_t>(p.arrivals[i].dueNs / winNs, windows - 1)]
            .push_back(p.latUs[i]);
    for (const auto &v : w) {
        const Summary ws = summarize(v);
        s.winP50.push_back(ws.p50);
        s.winP99.push_back(ws.p99);
    }
    s.lateP99Us = summarize(p.lateUs).p99;
    s.achieved = static_cast<double>(p.count(Outcome::Ok)) / p.seconds;
    // Growing backlog: the last tenth of the arrivals waits longer at
    // the median than the limit allows.
    const std::size_t tail = p.arrivals.size() / 10;
    std::vector<double> last(p.latUs.end() - tail, p.latUs.end());
    s.backlog = tail > 0 && summarize(last).p50 > limitUs;
    s.pass = p.failed() == 0 && s.all.p99 <= limitUs && !s.backlog;
    return s;
}

/** STATS of every named endpoint ("name=path"). */
std::map<std::string, server::ServerStats>
readStats(const std::vector<std::string> &specs)
{
    std::map<std::string, server::ServerStats> out;
    for (const std::string &s : specs) {
        const auto eq = s.find('=');
        auto c = server::Client::connectUnix(s.substr(eq + 1));
        out[s.substr(0, eq)] = c.stats();
    }
    return out;
}

/** The monotonic STATS counters the benchmark takes deltas of. */
constexpr std::uint64_t server::ServerStats::*kCounters[] = {
    &server::ServerStats::requests,
    &server::ServerStats::predictions,
    &server::ServerStats::batches,
    &server::ServerStats::analysisCacheHits,
    &server::ServerStats::predictionCacheHits,
    &server::ServerStats::analyzed,
    &server::ServerStats::overloadedQueue,
    &server::ServerStats::overloadedConn,
    &server::ServerStats::epollWakeups,
    &server::ServerStats::shortWrites,
    &server::ServerStats::ringFull,
    &server::ServerStats::routedPredicts,
    &server::ServerStats::backendFailovers,
};

/** Counter-wise after - before. */
server::ServerStats
delta(const server::ServerStats &before, server::ServerStats after)
{
    for (auto field : kCounters)
        after.*field -= before.*field;
    return after;
}

/** Counter-wise sum. */
server::ServerStats
sum(server::ServerStats a, const server::ServerStats &b)
{
    for (auto field : kCounters)
        a.*field += b.*field;
    return a;
}

/** Server-side per-layer metrics from a STATS delta of the servers. */
void
reportServerStats(Report &rep, const server::ServerStats &d)
{
    const double preds = static_cast<double>(d.predictions);
    const auto frac = [&](std::uint64_t x) {
        return preds > 0 ? static_cast<double>(x) / preds : 0.0;
    };
    rep.metric("server.batch_size_mean",
               d.batches ? preds / static_cast<double>(d.batches) : 0.0,
               "count", d.batches);
    rep.metric("server.prediction_hit_frac", frac(d.predictionCacheHits),
               "ratio", d.predictions);
    rep.metric("server.epoll_wakeups_per_req",
               d.requests ? static_cast<double>(d.epollWakeups) /
                                static_cast<double>(d.requests)
                          : 0.0,
               "ratio", d.requests);
    rep.metric("server.short_writes", static_cast<double>(d.shortWrites),
               "count");
    rep.metric("server.ring_full", static_cast<double>(d.ringFull), "count");
    rep.metric("server.overloaded",
               static_cast<double>(d.overloadedQueue + d.overloadedConn),
               "count");
    rep.metric("engine.analysis_hit_frac", frac(d.analysisCacheHits),
               "ratio", d.predictions);
    rep.metric("engine.prediction_hit_frac", frac(d.predictionCacheHits),
               "ratio", d.predictions);
    rep.metric("engine.analyzed", static_cast<double>(d.analyzed), "count");
}

/** The servers' STATS entries ("server", or the "b*" backends). */
server::ServerStats
serverTotal(const std::map<std::string, server::ServerStats> &before,
            const std::map<std::string, server::ServerStats> &after)
{
    server::ServerStats t;
    for (const auto &[name, s] : after)
        if (name != "lb")
            t = sum(t, delta(before.at(name), s));
    return t;
}

} // namespace

int
runWire(const Args &a)
{
    const std::string workload = a.str("workload");
    const auto seed = static_cast<std::uint64_t>(a.num("seed"));
    const double seconds = a.num("seconds", 15);
    const bool trace = a.num("trace") != 0;
    const double limitUs = a.num("limit-us", 1000);
    const double rates[3] = {a.num("low"), a.num("mid"), a.num("high")};
    static const char *kRateNames[3] = {"low", "mid", "high"};
    const auto statSpecs = a.all("stats");
    if (trace)
        Tracer::get().enable();
    ::prctl(PR_SET_TIMERSLACK, 1UL);

    WireTraffic traffic(workload, seed);
    const References refs = buildReferences(traffic);
    Generator gen(a.str("target"), traffic, refs);
    Rng rng(mixSeed(seed, 5));
    Report rep;

    // Budget: each fixed rate runs three windows, the closed-loop
    // saturation phase five, the ladder four.
    const double win = seconds / 18.0;
    constexpr int kWindows = 3;
    std::size_t sent = 0, failed = 0, attempted = 0, attemptedFailed = 0;
    std::size_t fresh = 0, explain = 0;
    double lateP99 = 0.0;
    auto account = [&](const Phase &p) {
        sent += p.arrivals.size();
        failed += p.failed();
        for (const Arrival &x : p.arrivals) {
            fresh += x.item.hot < 0;
            explain += x.item.explain;
        }
    };

    const auto statsStart = readStats(statSpecs);
    PhaseStats fixed[3];
    double overhead = 0.0;
    for (int r = 0; r < 3; ++r) {
        Phase p;
        p.rate = rates[r];
        p.seconds = kWindows * win;
        // Spans on one request in 16 of the fixed rates keep the trace
        // to a few hundred thousand spans; the rest are the untraced
        // baseline trace.overhead_frac compares against.
        p.traceEvery = trace ? 16 : 0;
        p.scoreFresh = true;
        p.arrivals = traffic.schedule(rng, p.rate, p.seconds);
        gen.run(p);
        account(p);
        const PhaseStats s = phaseStats(p, kWindows, limitUs);
        fixed[r] = s;
        const std::string k = kRateNames[r];
        rep.median("lat_p50_us." + k, s.winP50, "us", p.arrivals.size());
        rep.median("lat_p99_us." + k, s.winP99, "us", p.arrivals.size());
        rep.metric("failed_frac." + k,
                   static_cast<double>(p.failed()) /
                       static_cast<double>(p.arrivals.size()),
                   "ratio", p.arrivals.size());
        rep.info("late_p99_us." + k, s.lateP99Us);
        rep.info("achieved_rps." + k, s.achieved);
        rep.info("rate_rps." + k, p.rate);
        rep.info("overloaded." + k,
                 static_cast<double>(p.count(Outcome::Overloaded)));
        rep.info("transport_failures." + k,
                 static_cast<double>(p.count(Outcome::Transport)));
        lateP99 = std::max(lateP99, s.lateP99Us);
        if (r < 2) { // low and mid: the rates on which nothing may fail
            attempted += p.arrivals.size();
            attemptedFailed += p.failed();
        }
        if (r == 1 && trace) {
            std::vector<double> t, u;
            for (std::size_t i = 0; i < p.arrivals.size(); ++i)
                (p.traced[i] ? t : u).push_back(p.latUs[i]);
            const double up50 = summarize(u).p50;
            overhead = up50 > 0 ? summarize(t).p50 / up50 - 1.0 : 0.0;
        }
    }
    const auto fixedAfter = readStats(statSpecs);
    // Peak memory of the processes under test over the fixed-rate
    // phases: a fixed amount of work, unlike the closed loop and the
    // ladder, whose request count grows with the server's speed.
    double rssMb = 0.0;
    for (const std::string &pid : a.all("rss-pid"))
        rssMb += procStatusMb("VmHWM", pid);
    rep.metric("peak_rss_mb", rssMb, "MB");
    // The gated end-to-end latency is the median at the low rate: the
    // steadiest of the three on a shared host (see README.md).
    rep.median("lat_p50_us", fixed[0].winP50, "us",
               static_cast<std::size_t>(fixed[0].all.n));

    // Saturation throughput: closed loop, kClosedWindow requests kept
    // outstanding per connection, one window at a time.
    std::vector<double> satRate, satP50;
    std::size_t satServed = 0;
    for (int w = 0; w < 5; ++w) {
        Phase p;
        p.window = kClosedWindow;
        p.seconds = win;
        // The request sequence must outlast the window at any rate the
        // server can sustain.
        p.arrivals = traffic.schedule(rng, 5.0 * rates[2], win);
        gen.run(p);
        account(p);
        const Summary s = summarize(p.latUs);
        satRate.push_back(static_cast<double>(p.answeredInWindow.load()) /
                          win);
        satP50.push_back(s.p50);
        satServed += p.count(Outcome::Ok);
        attempted += p.arrivals.size();
        attemptedFailed += p.failed();
    }
    rep.median("throughput_per_s", satRate, "1/s", satServed);
    rep.median("saturated_lat_p50_us", satP50, "us", satServed);

    // max_rate: the highest rate on a x1.25 ladder from mid whose p99
    // meets the limit with no failures and no growing backlog. The
    // climb goes on past a rung that only misses the p99 limit and
    // stops at the first rung that saturates (failures or a growing
    // backlog; retried once, so one disturbance on a shared host does
    // not end it). Two bisection steps then refine between the highest
    // passing rung and the rung above it.
    double budget = 4.0 * win;
    double lastPass = fixed[1].pass ? rates[1] : 0.0;
    double passAchieved = fixed[1].pass ? fixed[1].achieved : 0.0;
    double saturated = 0.0;
    std::size_t rungs = 0;
    // Runs one rung; returns 1 pass, 0 p99 miss, -1 saturated.
    auto rung = [&](double rate) {
        int verdict = -1;
        for (int attempt = 0; attempt < 2 && verdict < 0 && budget >= win;
             ++attempt) {
            Phase p;
            p.rate = rate;
            p.seconds = win;
            p.arrivals = traffic.schedule(rng, rate, win);
            gen.run(p);
            account(p);
            budget -= win;
            ++rungs;
            const PhaseStats s = phaseStats(p, 1, limitUs);
            verdict = s.pass ? 1 : (p.failed() == 0 && !s.backlog ? 0 : -1);
            if (s.pass && rate > lastPass) {
                lastPass = rate;
                passAchieved = s.achieved;
            }
        }
        return verdict;
    };
    for (double r = rates[1] * 1.25; budget >= win; r *= 1.25)
        if (rung(r) < 0) {
            saturated = r;
            break;
        }
    double above = lastPass > 0.0 ? lastPass * 1.25 : rates[1];
    if (saturated > 0.0)
        above = std::min(above, saturated);
    double below = lastPass > 0.0 ? lastPass : rates[0];
    for (int step = 0; step < 2 && budget >= win; ++step) {
        const double m = std::sqrt(below * above);
        if (rung(m) > 0)
            below = m;
        else
            above = m;
    }
    if (lastPass == 0.0) {
        // No rate from mid upwards met the limit: fall back to low.
        lastPass = rates[0];
        passAchieved = fixed[0].pass ? fixed[0].achieved : 0.0;
    }
    rep.metric("max_rate_rps", passAchieved, "1/s");
    rep.info("max_rate_offered_rps", lastPass);
    rep.info("ladder_saturated_rps", saturated);
    rep.info("ladder_rungs", static_cast<double>(rungs));
    rep.info("ladder_capped", saturated == 0.0 ? 1.0 : 0.0);
    const auto statsEnd = readStats(statSpecs);

    // Quality: the served predictions of the whole hot set, and of a
    // sample of the fresh blocks, against the simulator.
    std::vector<ScoredBlock> sample = gen.freshScored;
    const auto served = gen.servedHot();
    for (std::size_t i = 0; i < traffic.hot.size(); ++i) {
        if (std::isnan(served[i]))
            continue;
        const auto &h = traffic.hot[i];
        sample.push_back({traffic.blocks[h.block],
                          static_cast<std::uint8_t>(h.arch), h.loop,
                          served[i]});
    }
    const Quality q = scoreAgainstSim(sample);
    rep.metric("mape_pct", q.mapePct, "%", q.blocks);
    rep.metric("kendall_tau", q.kendall, "tau", q.blocks);

    rep.info("attempted", static_cast<double>(attempted));
    rep.info("failed", static_cast<double>(attemptedFailed));
    rep.info("mismatches", static_cast<double>(gen.mismatches));
    rep.metric("loadgen.late_p99_us", lateP99, "us");
    rep.metric("loadgen.sent", static_cast<double>(sent), "count");
    rep.metric("loadgen.failed", static_cast<double>(failed), "count");
    rep.metric("traffic.fresh_frac",
               static_cast<double>(fresh) / static_cast<double>(sent),
               "ratio", sent);
    rep.metric("traffic.explain_frac",
               static_cast<double>(explain) / static_cast<double>(sent),
               "ratio", sent);
    rep.metric("traffic.distinct_blocks",
               static_cast<double>(traffic.blocks.size()), "count");

    // Per-layer counters from the servers' STATS over the fixed rates.
    const server::ServerStats srv = serverTotal(statsStart, fixedAfter);
    reportServerStats(rep, srv);
    rep.metric("traffic.hit_frac",
               srv.predictions ? static_cast<double>(srv.predictionCacheHits) /
                                     static_cast<double>(srv.predictions)
                               : 0.0,
               "ratio", srv.predictions);
    for (const auto &[name, s] : statsEnd)
        if (name != "lb") {
            rep.metric("snapshot.load_mode",
                       static_cast<double>(s.snapshotLoadMode), "count");
            rep.metric("snapshot.fallbacks",
                       static_cast<double>(s.snapshotFallbacks), "count");
            break;
        }
    if (statsEnd.count("lb")) {
        const auto lb = delta(statsStart.at("lb"), statsEnd.at("lb"));
        rep.metric("cluster.routed_predicts",
                   static_cast<double>(lb.routedPredicts), "count");
        rep.metric("cluster.backend_failovers",
                   static_cast<double>(lb.backendFailovers), "count");
        double total = 0.0, top = 0.0;
        for (const auto &[name, s] : statsEnd)
            if (name != "lb") {
                const double d = static_cast<double>(
                    s.predictions - statsStart.at(name).predictions);
                total += d;
                top = std::max(top, d);
            }
        rep.metric("cluster.backend_share_max", total > 0 ? top / total : 0,
                   "ratio", static_cast<std::size_t>(total));
    }
    if (trace) {
        rep.metric("trace.overhead_frac", overhead, "ratio");
        reportSpans(rep, Tracer::get().flush(a.str("spans")));
    }
    rep.write(a.str("out"));
    if (gen.mismatches) {
        std::fprintf(stderr, "wire: %zu predictions differ from serial\n",
                     gen.mismatches);
        return 3;
    }
    return 0;
}

int
runWirePrep(const Args &a)
{
    WireTraffic traffic(a.str("workload"),
                        static_cast<std::uint64_t>(a.num("seed")));
    const References refs = buildReferences(traffic);
    auto c = server::Client::connectUnix(a.str("target"));
    const auto got = c.predictMany(refs.boundReq);
    for (std::size_t i = 0; i < got.size(); ++i)
        if (!eval::samePrediction(got[i], refs.bound[i])) {
            std::fprintf(stderr, "wire-prep: mismatch at %zu\n", i);
            return 3;
        }
    if (!c.snapshot()) {
        std::fprintf(stderr, "wire-prep: SNAPSHOT failed\n");
        return 1;
    }
    return 0;
}

int
runFirstFrame(const Args &a)
{
    const auto reqs = probeRequests(
        a.str("workload"), static_cast<std::uint64_t>(a.num("seed")), 1);
    std::printf("%s\n", frameHex(reqs.front()).c_str());
    return 0;
}

int
runIdle(const Args &a)
{
    const auto seed = static_cast<std::uint64_t>(a.num("seed"));
    const auto reqs = probeRequests(a.str("workload"), seed, 1000);
    const auto statSpecs = a.all("stats");
    auto direct = server::Client::connectUnix(a.str("direct"));
    auto routed = server::Client::connectUnix(a.str("routed"));
    model::PredictScratch scratch;
    std::vector<model::Prediction> refs;
    for (const auto &r : reqs) {
        refs.push_back(serialPredict(r, scratch));
        // Warm both paths so every timed request is a cache hit.
        direct.predict(r.bytes, r.arch, r.loop);
        routed.predict(r.bytes, r.arch, r.loop);
    }
    const auto before = readStats(statSpecs);
    Tracer &tr = Tracer::get();
    tr.enable();
    const std::uint32_t spanDirect = tr.nameId("idle.direct");
    const std::uint32_t spanRouted = tr.nameId("idle.routed");
    std::vector<double> d, r;
    std::size_t mismatches = 0;
    for (int pass = 0; pass < 2; ++pass)
        for (std::size_t i = 0; i < reqs.size(); ++i) {
            const auto &q = reqs[i];
            std::int64_t t0 = nowNs();
            const auto pd = direct.predict(q.bytes, q.arch, q.loop);
            std::int64_t t1 = nowNs();
            tr.record(spanDirect, t0, t1, 0, i + 1);
            d.push_back(static_cast<double>(t1 - t0) / 1e3);
            t0 = nowNs();
            const auto pr = routed.predict(q.bytes, q.arch, q.loop);
            t1 = nowNs();
            tr.record(spanRouted, t0, t1, 0, i + 1);
            r.push_back(static_cast<double>(t1 - t0) / 1e3);
            mismatches += !eval::samePrediction(pd, refs[i]);
            mismatches += !eval::samePrediction(pr, refs[i]);
        }
    const auto after = readStats(statSpecs);
    const Summary ds = summarize(d), rs = summarize(r);
    Report rep;
    rep.metric("server.idle_rtt_us.p50", ds.p50, "us", ds.n);
    rep.metric("server.idle_rtt_us.p99", ds.p99, "us", ds.n);
    rep.metric("cluster.hop_us.p50", rs.p50 - ds.p50, "us", rs.n);
    rep.metric("cluster.hop_us.p99", rs.p99 - ds.p99, "us", rs.n);
    if (before.count("server"))
        reportServerStats(rep, delta(before.at("server"),
                                     after.at("server")));
    if (before.count("lb")) {
        const auto lb = delta(before.at("lb"), after.at("lb"));
        rep.metric("cluster.routed_predicts",
                   static_cast<double>(lb.routedPredicts), "count");
        rep.metric("cluster.backend_failovers",
                   static_cast<double>(lb.backendFailovers), "count");
        rep.metric("cluster.backend_share_max", 1.0, "ratio",
                   lb.routedPredicts);
    }
    if (after.count("server")) {
        rep.metric("snapshot.load_mode",
                   static_cast<double>(after.at("server").snapshotLoadMode),
                   "count");
        rep.metric("snapshot.fallbacks",
                   static_cast<double>(after.at("server").snapshotFallbacks),
                   "count");
    }
    reportSpans(rep, tr.flush(a.str("spans")));
    rep.info("mismatches", static_cast<double>(mismatches));
    rep.write(a.str("out"));
    return mismatches == 0 ? 0 : 3;
}

int
runSnapLoad(const Args &a)
{
    const std::int64_t t0 = nowNs();
    const auto st = analysis::loadSnapshot(a.str("file"));
    const std::int64_t t1 = nowNs();
    std::printf("%.9f %d\n", static_cast<double>(t1 - t0) / 1e6,
                static_cast<int>(st.loadMode));
    return 0;
}

} // namespace perfbench
