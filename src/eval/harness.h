/**
 * @file
 * Evaluation harness: prepares per-microarchitecture suites with ground
 * truth (the reference simulator standing in for hardware measurement),
 * scores predictors (MAPE, Kendall's tau), measures per-benchmark
 * execution times, and provides the aggregation helpers behind every
 * table and figure of the paper.
 *
 * Suite preparation and predictor sweeps run through the shared
 * PredictionEngine worker pool, so the paper harness and the batch
 * serving path exercise the same code.
 */
#ifndef FACILE_EVAL_HARNESS_H
#define FACILE_EVAL_HARNESS_H

#include <cstring>
#include <functional>
#include <string>
#include <vector>

#include "baselines/predictor_iface.h"
#include "bhive/generator.h"
#include "engine/engine.h"

namespace facile::eval {

/**
 * The bit-identity oracle shared by the perf benches and tests: exact
 * bit pattern on throughput and component values (NaN markers
 * included), value equality on the interpretability payload.
 */
inline bool
samePrediction(const model::Prediction &a, const model::Prediction &b)
{
    if (std::memcmp(&a.throughput, &b.throughput, sizeof(double)) != 0)
        return false;
    if (std::memcmp(a.componentValue.data(), b.componentValue.data(),
                    sizeof(double) * a.componentValue.size()) != 0)
        return false;
    return a.bottlenecks == b.bottlenecks &&
           a.primaryBottleneck == b.primaryBottleneck &&
           a.criticalChain == b.criticalChain &&
           a.contendedPorts == b.contendedPorts &&
           a.contendingInsts == b.contendingInsts;
}

/** One microarchitecture's analyzed suite with measured ground truth. */
struct ArchSuite
{
    uarch::UArch arch;
    std::vector<const bhive::Benchmark *> benchmarks;
    std::vector<bb::BasicBlock> blocksU;
    std::vector<bb::BasicBlock> blocksL;
    std::vector<double> measuredU; ///< rounded to 2 decimals, cycles/iter
    std::vector<double> measuredL;
};

/**
 * Analyze and measure the given benchmarks on @p arch. The measurement
 * pass (cycle-level simulation of every block in both variants) is the
 * expensive part; prepare once and evaluate many predictors against it.
 * Analysis and simulation fan out over @p engine's worker pool.
 */
ArchSuite prepare(uarch::UArch arch,
                  const std::vector<bhive::Benchmark> &benchmarks,
                  engine::PredictionEngine &engine);

/** As above, on the process-wide shared engine. */
ArchSuite prepare(uarch::UArch arch,
                  const std::vector<bhive::Benchmark> &benchmarks);

/** Accuracy of one predictor against the suite's ground truth. */
struct Accuracy
{
    double mape = 0.0;    ///< MAPE; NaN when no pair was evaluable
    double kendall = 0.0; ///< Kendall's tau-b rank correlation

    /** Pairs excluded from MAPE because the measured value was zero. */
    std::size_t mapeSkipped = 0;
};

/**
 * Predictions of one predictor over a suite (rounded to 2 decimals).
 * Blocks are predicted in parallel on the shared engine pool; out[i]
 * always corresponds to suite block i, identical to a serial pass.
 */
std::vector<double> runPredictor(const baselines::ThroughputPredictor &p,
                                 const ArchSuite &suite, bool loop);

/** Score a prediction vector against the ground truth. */
Accuracy score(const std::vector<double> &measured,
               const std::vector<double> &predicted);

/** Convenience: run and score in one step. */
Accuracy evaluate(const baselines::ThroughputPredictor &p,
                  const ArchSuite &suite, bool loop);

/**
 * The timing protocol shared by every perf number in the repo: one
 * untimed warm-up call of @p fn (unless @p warmup is false), then the
 * minimum wall time over @p repeats timed calls, in milliseconds. The
 * minimum estimates the undisturbed cost and de-jitters the numbers.
 */
double bestOfRunsMs(const std::function<void()> &fn, int repeats = 3,
                    bool warmup = true);

/**
 * Wall-clock time per benchmark in milliseconds, under the
 * bestOfRunsMs protocol (warm-up + min of three sequential passes).
 */
double timePerBenchmarkMs(const baselines::ThroughputPredictor &p,
                          const ArchSuite &suite, bool loop);

/** End-to-end engine throughput over a prepared suite. */
struct EngineThroughput
{
    double blocksPerSec = 0.0; ///< best of the timed repeats
    double msPerBlock = 0.0;
    std::size_t blocks = 0;
    engine::BatchStats stats; ///< accumulated over the timed repeats
                              ///< (the warm-up batch is excluded)
};

/**
 * Measure end-to-end batch throughput (bytes in, predictions out) of
 * @p engine over the suite's benchmarks: one warm-up batch, then the
 * best of @p repeats timed batches. Set cacheEnabled=false on the
 * engine (no prediction cache, so every request is analysed and
 * predicted) to measure pure compute scaling.
 */
EngineThroughput measureEngineThroughput(engine::PredictionEngine &engine,
                                         const ArchSuite &suite, bool loop,
                                         int repeats = 3);

/**
 * 2-D histogram relating measured and predicted throughput (Figure 3).
 * Cells count benchmarks with (measured, predicted) in the respective
 * bin; both axes span [0, max_tp) with @p bins bins.
 */
std::vector<std::vector<int>> heatmap(const std::vector<double> &measured,
                                      const std::vector<double> &predicted,
                                      double max_tp, int bins);

/** Render a heatmap as an ASCII density plot with log shading. */
std::string renderHeatmap(const std::vector<std::vector<int>> &grid,
                          double max_tp);

} // namespace facile::eval

#endif // FACILE_EVAL_HARNESS_H
