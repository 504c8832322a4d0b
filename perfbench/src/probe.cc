/**
 * @file
 * Per-layer probes of traced runs. In a fresh process, over the
 * workload's own distinct blocks, time the public entry points of each
 * layer one call at a time: bb::analyze (first touch), every Facile
 * component through model::component(c).bound, model::predict and
 * model::explain, the engine's cache-hit path (predictBatchVisit), and
 * the protocol codecs. Each timed call is a span.
 */
#include <atomic>
#include <cstdio>

#include "analysis/intern.h"
#include "analysis/snapshot.h"
#include "common.h"
#include "facile/component.h"
#include "perfbench.h"
#include "server/protocol.h"
#include "traffic.h"
#include "uarch/config.h"

using namespace facile;

namespace perfbench {

namespace {

constexpr std::size_t kBlocks = 4096;
constexpr std::size_t kBatch = 32;
constexpr std::size_t kCodecBatch = 64;

void
reportDist(Report &rep, const std::string &name, const std::vector<double> &v,
           const char *unit, bool p99 = true)
{
    const Summary s = summarize(v);
    rep.metric(name + ".p50", s.p50, unit, s.n);
    if (p99)
        rep.metric(name + ".p99", s.p99, unit, s.n);
}

} // namespace

int
runProbe(const Args &a)
{
    const std::string workload = a.str("workload");
    const auto seed = static_cast<std::uint64_t>(a.num("seed"));
    Tracer &tr = Tracer::get();
    tr.enable();
    const std::uint32_t spBlock = tr.nameId("probe.block");
    const std::uint32_t spAnalyze = tr.nameId("bb.analyze");
    const std::uint32_t spPredict = tr.nameId("facile.predict");
    const std::uint32_t spExplain = tr.nameId("facile.explain");
    std::uint32_t spBound[model::kNumComponents];
    for (int c = 0; c < model::kNumComponents; ++c)
        spBound[c] = tr.nameId("facile.bound." +
                               std::string(model::componentName(
                                   static_cast<model::Component>(c))));
    const std::uint32_t spVisit = tr.nameId("engine.predictBatchVisit");
    const std::uint32_t spEncode = tr.nameId("client.encode");
    const std::uint32_t spDecode = tr.nameId("client.decode");

    const auto reqs = probeRequests(workload, seed, kBlocks);
    Report rep;

    // bb: first touch of the instruction universe, in stream order.
    const analysis::InternStats i0 = analysis::InstInterner::statsAllArchs();
    std::vector<bb::BasicBlock> blocks;
    std::vector<std::uint64_t> blockSpan;
    std::vector<double> analyzeUs;
    blocks.reserve(reqs.size());
    for (const auto &r : reqs) {
        const std::uint64_t id = tr.newId();
        const std::int64_t t0 = nowNs();
        blocks.push_back(bb::analyze(r.bytes, r.arch));
        const std::int64_t t1 = nowNs();
        tr.record(spAnalyze, t0, t1, id, id);
        blockSpan.push_back(id);
        analyzeUs.push_back(static_cast<double>(t1 - t0) / 1e3);
    }
    const analysis::InternStats i1 = analysis::InstInterner::statsAllArchs();
    reportDist(rep, "bb.analyze_us", analyzeUs, "us");
    const double hits = static_cast<double>(i1.hits - i0.hits);
    const double misses = static_cast<double>(i1.misses - i0.misses);
    rep.metric("analysis.intern_hit_frac",
               hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio",
               static_cast<std::size_t>(hits + misses));
    rep.metric("analysis.intern_misses", misses, "count");

    // facile: each component, the full bound-only predict, and explain.
    model::PredictScratch scratch;
    std::vector<double> boundUs[model::kNumComponents];
    std::vector<double> predictUs, explainUs;
    const model::PredictCountersSnapshot c0 = model::predictCounters();
    volatile double sink = 0.0;
    for (std::size_t i = 0; i < blocks.size(); ++i) {
        const bb::BasicBlock &blk = blocks[i];
        const bool loop = reqs[i].loop;
        const std::uint64_t id = blockSpan[i];
        const std::int64_t b0 = nowNs();
        for (int c = 0; c < model::kNumComponents; ++c) {
            const auto comp = static_cast<model::Component>(c);
            // As in fig4_component_times: no front-end mode uses the
            // DSB or LSD under TPU.
            if (!loop && (comp == model::Component::DSB ||
                          comp == model::Component::LSD))
                continue;
            const model::PredictContext ctx{blk, uarch::config(blk.arch),
                                            loop, model::Payload::None,
                                            scratch};
            const std::int64_t t0 = nowNs();
            sink = sink + model::component(comp).bound(ctx);
            const std::int64_t t1 = nowNs();
            tr.record(spBound[c], t0, t1, id, id);
            boundUs[c].push_back(static_cast<double>(t1 - t0) / 1e3);
        }
        std::int64_t t0 = nowNs();
        model::Prediction p = model::predict(blk, loop, {}, scratch);
        std::int64_t t1 = nowNs();
        tr.record(spPredict, t0, t1, id, id);
        predictUs.push_back(static_cast<double>(t1 - t0) / 1e3);
        t0 = nowNs();
        model::explain(blk, {}, scratch, p);
        t1 = nowNs();
        tr.record(spExplain, t0, t1, id, id);
        explainUs.push_back(static_cast<double>(t1 - t0) / 1e3);
        tr.record(spBlock, b0, t1, 0, id, id);
    }
    (void)sink;
    const model::PredictCountersSnapshot c1 = model::predictCounters();
    for (int c = 0; c < model::kNumComponents; ++c)
        reportDist(rep,
                   "facile." +
                       std::string(model::componentName(
                           static_cast<model::Component>(c))) +
                       ".bound_us",
                   boundUs[c], "us");
    reportDist(rep, "facile.predict_us", predictUs, "us");
    reportDist(rep, "facile.explain_us", explainUs, "us", false);
    const double pe =
        static_cast<double>(c1.precedenceEvals - c0.precedenceEvals);
    rep.metric("facile.precedence_short_circuit_frac",
               pe > 0 ? static_cast<double>(c1.precedenceShortCircuits -
                                            c0.precedenceShortCircuits) /
                            pe
                      : 0.0,
               "ratio", static_cast<std::size_t>(pe));

    // engine: cold batches on a fresh engine against the serial path
    // (both with the instruction universe already interned), then the
    // prediction-cache hit path.
    std::int64_t t0 = nowNs();
    for (const auto &r : reqs)
        (void)serialPredict(r, scratch);
    const double serialS = static_cast<double>(nowNs() - t0) / 1e9;
    engine::PredictionEngine::Options eo;
    eo.numThreads = 2;
    engine::PredictionEngine eng(eo);
    std::vector<std::vector<engine::Request>> batches;
    for (std::size_t i = 0; i < reqs.size(); i += kBatch)
        batches.emplace_back(reqs.begin() + i,
                             reqs.begin() + std::min(i + kBatch, reqs.size()));
    t0 = nowNs();
    for (const auto &b : batches)
        (void)eng.predictBatch(b);
    const double engineS = static_cast<double>(nowNs() - t0) / 1e9;
    rep.metric("engine.speedup_vs_serial", serialS / engineS, "x",
               reqs.size());
    std::vector<double> hitUs;
    std::atomic<std::size_t> visited{0};
    const auto visit = [&](int, std::size_t, const model::Prediction &) {
        visited.fetch_add(1, std::memory_order_relaxed);
    };
    for (int pass = 0; pass < 3; ++pass)
        for (const auto &b : batches) {
            const std::int64_t h0 = nowNs();
            eng.predictBatchVisit(b, visit);
            const std::int64_t h1 = nowNs();
            tr.record(spVisit, h0, h1);
            hitUs.push_back(static_cast<double>(h1 - h0) / 1e3 /
                            static_cast<double>(b.size()));
        }
    reportDist(rep, "engine.hit_us", hitUs, "us", false);

    // protocol / client: request encode and response decode, per frame,
    // timed over groups of kCodecBatch frames.
    std::vector<double> encNs, decNs;
    std::vector<std::uint8_t> buf;
    std::vector<std::vector<std::uint8_t>> responses;
    for (const auto &r : reqs) {
        std::vector<std::uint8_t> frame;
        server::appendPredictResponse(frame, 1, serialPredict(r, scratch));
        responses.push_back(std::move(frame));
    }
    model::Prediction decoded;
    std::size_t badDecodes = 0;
    for (int pass = 0; pass < 3; ++pass)
        for (std::size_t i = 0; i + kCodecBatch <= reqs.size();
             i += kCodecBatch) {
            buf.clear();
            std::int64_t e0 = nowNs();
            for (std::size_t k = i; k < i + kCodecBatch; ++k)
                server::appendPredictRequest(buf, k + 1, reqs[k]);
            std::int64_t e1 = nowNs();
            tr.record(spEncode, e0, e1);
            encNs.push_back(static_cast<double>(e1 - e0) / kCodecBatch);
            e0 = nowNs();
            for (std::size_t k = i; k < i + kCodecBatch; ++k) {
                const auto &f = responses[k];
                badDecodes += !server::decodePredictInto(
                    f.data() + server::kResponseHeaderSize,
                    f.size() - server::kResponseHeaderSize, decoded);
            }
            e1 = nowNs();
            tr.record(spDecode, e0, e1);
            decNs.push_back(static_cast<double>(e1 - e0) / kCodecBatch);
        }
    rep.metric("client.encode_ns.p50", summarize(encNs).p50, "ns",
               encNs.size() * kCodecBatch);
    rep.metric("client.decode_ns.p50", summarize(decNs).p50, "ns",
               decNs.size() * kCodecBatch);

    if (a.has("image-out")) {
        analysis::SnapshotOptions so;
        so.engine = &eng;
        so.generations = 1;
        analysis::saveSnapshot(a.str("image-out"), so);
    }
    reportSpans(rep, tr.flush(a.str("spans")));
    rep.write(a.str("out"));
    if (visited.load() != 3 * reqs.size()) {
        std::fprintf(stderr, "probe: predictBatchVisit skipped requests\n");
        return 3;
    }
    if (badDecodes) {
        std::fprintf(stderr, "probe: %zu responses failed to decode\n",
                     badDecodes);
        return 3;
    }
    return 0;
}

} // namespace perfbench
