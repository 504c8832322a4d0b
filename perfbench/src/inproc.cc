/**
 * @file
 * inproc_cold: the compiler-style caller. A closed loop in one process
 * feeds back-to-back predictBatch calls of 32 never-repeated requests
 * to a PredictionEngine with default options and two worker threads.
 *
 * The stream is cut into segments of 1024 calls; each segment gets a
 * freshly constructed engine (outside the timed calls), so the engine
 * caches stay bounded in memory while every request still misses both
 * of them. The segments are the repeats the metrics take medians over.
 * A run is a fixed number of segments (two per requested second), so
 * the work done, and with it the memory the instruction universe
 * grows to, does not depend on how fast the engine is.
 */
#include <cstdio>
#include <thread>

#include "analysis/intern.h"
#include "common.h"
#include "facile/component.h"
#include "perfbench.h"
#include "traffic.h"

using namespace facile;

namespace perfbench {

namespace {

constexpr std::size_t kBatch = 32;
constexpr std::size_t kSegmentCalls = 1024;
constexpr std::size_t kSegmentRequests = kBatch * kSegmentCalls;
constexpr int kNumThreads = 2;
/** Every 61st request of the run is scored: ~16k blocks at 15 s. */
constexpr std::size_t kQualityStride = 61;

/** Count requests whose engine result differs from serial predict. */
std::size_t
countMismatches(const std::vector<engine::Request> &reqs,
                const std::vector<model::Prediction> &got)
{
    constexpr int kThreads = 3;
    std::vector<std::size_t> bad(kThreads, 0);
    std::vector<std::thread> pool;
    for (int t = 0; t < kThreads; ++t)
        pool.emplace_back([&, t] {
            model::PredictScratch scratch;
            for (std::size_t i = t; i < reqs.size(); i += kThreads)
                if (!eval::samePrediction(got[i],
                                          serialPredict(reqs[i], scratch)))
                    ++bad[t];
        });
    for (auto &th : pool)
        th.join();
    std::size_t n = 0;
    for (std::size_t b : bad)
        n += b;
    return n;
}

std::vector<std::vector<engine::Request>>
toBatches(const std::vector<engine::Request> &reqs)
{
    std::vector<std::vector<engine::Request>> out;
    for (std::size_t i = 0; i < reqs.size(); i += kBatch)
        out.emplace_back(reqs.begin() + i,
                         reqs.begin() + std::min(i + kBatch, reqs.size()));
    return out;
}

} // namespace

int
runInproc(const Args &a)
{
    const auto seed = static_cast<std::uint64_t>(a.num("seed"));
    const double seconds = a.num("seconds", 10);
    const bool trace = a.num("trace") != 0;
    Tracer &tr = Tracer::get();
    if (trace)
        tr.enable();
    const std::uint32_t spanCall = tr.nameId("engine.predictBatch");
    const std::uint32_t spanSegment = tr.nameId("inproc.segment");

    FreshBlocks src(seed, 1);
    Report rep;

    std::vector<double> segRate, segP50, segP99, tracedUs, untracedUs;
    std::vector<ScoredBlock> sample;
    engine::BatchStats total;
    std::size_t requests = 0, calls = 0, mismatches = 0;
    double timedS = 0.0;
    // Counter deltas over the engine calls only: verification runs the
    // same layers in this process and must not count.
    double hits = 0, misses = 0, precEvals = 0, precShort = 0;

    const std::size_t segments =
        std::max<std::size_t>(4, static_cast<std::size_t>(seconds * 2));
    while (segRate.size() < segments) {
        const auto reqs = inprocRequests(src, kSegmentRequests);
        const auto batches = toBatches(reqs);
        std::vector<model::Prediction> got;
        got.reserve(reqs.size());
        std::vector<double> callUs;
        std::int64_t segNs = 0;
        const std::int64_t segStart = nowNs();
        const std::uint64_t segId = tr.newId();
        const analysis::InternStats i0 =
            analysis::InstInterner::statsAllArchs();
        const model::PredictCountersSnapshot c0 = model::predictCounters();
        {
            engine::PredictionEngine::Options eo;
            eo.numThreads = kNumThreads;
            engine::PredictionEngine eng(eo);
            for (std::size_t c = 0; c < batches.size(); ++c) {
                // Traced runs alternate traced and untraced calls so
                // the tracing overhead is measured on the same stream.
                const bool traced = trace && (c % 2 == 1);
                engine::BatchStats st;
                const std::int64_t t0 = nowNs();
                auto out = eng.predictBatch(batches[c], &st);
                const std::int64_t t1 = nowNs();
                if (traced)
                    tr.record(spanCall, t0, t1, segId, calls + 1);
                const double us = static_cast<double>(t1 - t0) / 1e3;
                callUs.push_back(us);
                (traced ? tracedUs : untracedUs).push_back(us);
                segNs += t1 - t0;
                total.requests += st.requests;
                total.analysisCacheHits += st.analysisCacheHits;
                total.predictionCacheHits += st.predictionCacheHits;
                total.analyzed += st.analyzed;
                for (auto &p : out)
                    got.push_back(std::move(p));
                ++calls;
            }
        }
        tr.record(spanSegment, segStart, nowNs(), 0, segId, segId);
        const analysis::InternStats i1 =
            analysis::InstInterner::statsAllArchs();
        const model::PredictCountersSnapshot c1 = model::predictCounters();
        hits += static_cast<double>(i1.hits - i0.hits);
        misses += static_cast<double>(i1.misses - i0.misses);
        precEvals +=
            static_cast<double>(c1.precedenceEvals - c0.precedenceEvals);
        precShort += static_cast<double>(c1.precedenceShortCircuits -
                                         c0.precedenceShortCircuits);
        const Summary s = summarize(callUs);
        segRate.push_back(static_cast<double>(reqs.size()) /
                          (static_cast<double>(segNs) / 1e9));
        segP50.push_back(s.p50);
        segP99.push_back(s.p99);
        requests += reqs.size();
        timedS += static_cast<double>(segNs) / 1e9;
        mismatches += countMismatches(reqs, got);
        for (std::size_t i = (seed + requests) % kQualityStride;
             i < reqs.size(); i += kQualityStride)
            sample.push_back({reqs[i].bytes,
                              static_cast<std::uint8_t>(reqs[i].arch),
                              reqs[i].loop, got[i].throughput});
    }

    rep.median("throughput_per_s", segRate, "1/s", requests);
    rep.median("lat_p50_us", segP50, "us", calls);
    rep.median("lat_p99_us", segP99, "us", calls);
    const Quality q = scoreAgainstSim(sample);
    rep.metric("mape_pct", q.mapePct, "%", q.blocks);
    rep.metric("kendall_tau", q.kendall, "tau", q.blocks);
    rep.info("segments", static_cast<double>(segRate.size()));
    rep.info("calls", static_cast<double>(calls));
    rep.info("timed_s", timedS);
    rep.info("attempted", static_cast<double>(requests));
    rep.info("failed", static_cast<double>(mismatches));
    rep.info("mismatches", static_cast<double>(mismatches));

    // Per-layer counters, measured where the work happened: this
    // process.
    rep.metric("analysis.intern_hit_frac",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
               static_cast<std::size_t>(hits + misses));
    rep.metric("analysis.intern_misses", misses, "count");
    rep.metric("facile.precedence_short_circuit_frac",
               precEvals > 0 ? precShort / precEvals : 0.0, "ratio",
               static_cast<std::size_t>(precEvals));
    const double nreq = static_cast<double>(total.requests);
    rep.metric("engine.analysis_hit_frac",
               static_cast<double>(total.analysisCacheHits) / nreq, "ratio",
               total.requests);
    rep.metric("engine.prediction_hit_frac",
               static_cast<double>(total.predictionCacheHits) / nreq,
               "ratio", total.requests);
    rep.metric("engine.analyzed", static_cast<double>(total.analyzed),
               "count");
    // The workload's defining property: every request misses both
    // engine caches.
    rep.metric("traffic.hit_frac",
               static_cast<double>(total.analysisCacheHits +
                                   total.predictionCacheHits) /
                   nreq,
               "ratio", total.requests);
    rep.metric("traffic.fresh_frac", 1.0, "ratio", total.requests);
    rep.metric("traffic.explain_frac", 0.0, "ratio", total.requests);
    rep.metric("traffic.distinct_blocks", nreq, "count");
    // A closed loop sends when the previous call returns: never late.
    rep.metric("loadgen.late_p99_us", 0.0, "us");
    rep.metric("loadgen.sent", static_cast<double>(requests), "count");
    rep.metric("loadgen.failed", static_cast<double>(mismatches), "count");

    if (trace) {
        // Serial reference rate on a further, never-seen segment of
        // the same stream (one thread, bb::analyze + model::predict).
        const auto reqs = inprocRequests(src, kSegmentRequests);
        model::PredictScratch scratch;
        const std::uint32_t spanSerial = tr.nameId("serial.segment");
        const std::int64_t t0 = nowNs();
        for (const auto &r : reqs)
            (void)serialPredict(r, scratch);
        const std::int64_t t1 = nowNs();
        tr.record(spanSerial, t0, t1);
        const double serialRate = static_cast<double>(reqs.size()) /
                                  (static_cast<double>(t1 - t0) / 1e9);
        rep.metric("engine.speedup_vs_serial",
                   rep.value("throughput_per_s") / serialRate, "x",
                   reqs.size());
        const Summary ts = summarize(tracedUs);
        const Summary us = summarize(untracedUs);
        rep.metric("trace.overhead_frac",
                   us.p50 > 0 ? ts.p50 / us.p50 - 1.0 : 0.0, "ratio",
                   tracedUs.size());
        reportSpans(rep, tr.flush(a.str("spans")));
    }
    rep.metric("peak_rss_mb", procStatusMb("VmHWM"), "MB");
    rep.write(a.str("out"));
    return mismatches == 0 ? 0 : 3;
}

int
runInprocSetup(const Args &a)
{
    const auto seed = static_cast<std::uint64_t>(a.num("seed"));
    FreshBlocks src(seed, 1);
    const auto reqs = inprocRequests(src, kBatch);
    const std::int64_t t0 = nowNs();
    engine::PredictionEngine::Options eo;
    eo.numThreads = kNumThreads;
    engine::PredictionEngine eng(eo);
    const auto out = eng.predictBatch(reqs);
    const std::int64_t t1 = nowNs();
    model::PredictScratch scratch;
    for (std::size_t i = 0; i < reqs.size(); ++i)
        if (!eval::samePrediction(out[i], serialPredict(reqs[i], scratch))) {
            std::fprintf(stderr, "inproc-setup: mismatch at %zu\n", i);
            return 3;
        }
    std::printf("%.9f\n", static_cast<double>(t1 - t0) / 1e9);
    return 0;
}

} // namespace perfbench
