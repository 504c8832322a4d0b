/**
 * @file
 * End-to-end integration tests, parameterized over all nine
 * microarchitectures: Facile vs the reference simulator on the
 * generated suite (accuracy thresholds per notion), the optimism
 * property reported in the paper, monotonicity of ablations, and
 * cross-predictor ordering.
 */
#include <gtest/gtest.h>

#include <cmath>

#include "eval/harness.h"

namespace facile {
namespace {

using uarch::UArch;

/** Shared fixture: prepare each µarch suite once (simulation is slow). */
class Integration : public ::testing::TestWithParam<UArch>
{
  protected:
    static const eval::ArchSuite &
    suiteFor(UArch arch)
    {
        static std::map<UArch, eval::ArchSuite> cache;
        auto it = cache.find(arch);
        if (it == cache.end()) {
            it = cache
                     .emplace(arch, eval::prepare(
                                        arch, bhive::generateSuite(555, 8)))
                     .first;
        }
        return it->second;
    }
};

INSTANTIATE_TEST_SUITE_P(UArch, Integration,
                         ::testing::ValuesIn(uarch::allUArchs()),
                         [](const auto &info) {
                             return uarch::config(info.param).abbrev;
                         });

TEST_P(Integration, FacileTracksSimulatorClosely)
{
    const auto &suite = suiteFor(GetParam());
    baselines::FacilePredictor facile;
    eval::Accuracy u = eval::evaluate(facile, suite, false);
    eval::Accuracy l = eval::evaluate(facile, suite, true);
    EXPECT_LT(u.mape, 0.12) << "TPU MAPE too high";
    EXPECT_LT(l.mape, 0.12) << "TPL MAPE too high";
    EXPECT_GT(u.kendall, 0.80);
    EXPECT_GT(l.kendall, 0.80);
}

TEST_P(Integration, FacileIsMostlyOptimistic)
{
    // Paper section 6.2: Facile is always optimistic (predicts at most
    // the measured throughput). Small simulator-side second-order
    // effects allow rare exceptions; require >= 90% of blocks.
    const auto &suite = suiteFor(GetParam());
    baselines::FacilePredictor facile;
    auto preds = eval::runPredictor(facile, suite, false);
    int optimistic = 0;
    for (std::size_t i = 0; i < preds.size(); ++i)
        optimistic += preds[i] <= suite.measuredU[i] + 0.01;
    EXPECT_GE(optimistic, static_cast<int>(preds.size() * 9) / 10);
}

TEST_P(Integration, AblationsDegradeAccuracy)
{
    const auto &suite = suiteFor(GetParam());
    baselines::FacilePredictor full;
    double fullMape = eval::evaluate(full, suite, false).mape;

    // Dropping Ports or Precedence must hurt (they carry the back end).
    for (model::Component c :
         {model::Component::Ports, model::Component::Precedence}) {
        baselines::FacilePredictor ablated(model::ModelConfig::without(c));
        double mape = eval::evaluate(ablated, suite, false).mape;
        EXPECT_GE(mape + 1e-9, fullMape)
            << "w/o " << model::componentName(c);
    }

    // "only X" can never beat the full model on MAPE by more than noise.
    for (int ci = 0; ci < model::kNumComponents; ++ci) {
        model::Component c = static_cast<model::Component>(ci);
        if (c == model::Component::DSB || c == model::Component::LSD)
            continue; // not used under TPU
        baselines::FacilePredictor only(model::ModelConfig::only(c));
        double mape = eval::evaluate(only, suite, false).mape;
        EXPECT_GE(mape + 1e-9, fullMape)
            << "only " << model::componentName(c);
    }
}

TEST_P(Integration, FacileBeatsEveryBaseline)
{
    const auto &suite = suiteFor(GetParam());
    baselines::FacilePredictor facile;
    double facileU = eval::evaluate(facile, suite, false).mape;
    double facileL = eval::evaluate(facile, suite, true).mape;
    for (const auto &p : baselines::makeBaselines()) {
        EXPECT_LT(facileU, eval::evaluate(*p, suite, false).mape)
            << p->name() << " (U)";
        EXPECT_LT(facileL, eval::evaluate(*p, suite, true).mape)
            << p->name() << " (L)";
    }
}

TEST_P(Integration, ComponentBoundsAreLowerBoundsOnMeasurement)
{
    // Every individual component bound must not exceed the measured
    // throughput by more than rounding noise on more than a small
    // fraction of blocks (components are relaxations of the machine).
    const auto &suite = suiteFor(GetParam());
    int violations = 0, total = 0;
    for (std::size_t i = 0; i < suite.blocksU.size(); ++i) {
        model::Prediction p = model::predictUnrolled(suite.blocksU[i]);
        for (int ci = 0; ci < model::kNumComponents; ++ci) {
            double v = p.componentValue[ci];
            if (std::isnan(v))
                continue;
            ++total;
            violations += v > suite.measuredU[i] + 0.05;
        }
    }
    EXPECT_LT(violations, total / 10);
}

TEST_P(Integration, LoopPredictionsHonorFrontEndSelection)
{
    const auto &suite = suiteFor(GetParam());
    const auto &cfg = uarch::config(GetParam());
    for (const auto &blk : suite.blocksL) {
        model::Prediction p = model::predictLoop(blk);
        bool jcc = cfg.jccErratum && blk.touchesJccErratumBoundary();
        bool lsdUsed = !std::isnan(
            p.componentValue[static_cast<int>(model::Component::LSD)]);
        bool dsbUsed = !std::isnan(
            p.componentValue[static_cast<int>(model::Component::DSB)]);
        bool legacyUsed = !std::isnan(
            p.componentValue[static_cast<int>(model::Component::Predec)]);
        EXPECT_EQ(lsdUsed + dsbUsed + legacyUsed, 1)
            << "exactly one front-end path";
        if (jcc) {
            EXPECT_TRUE(legacyUsed);
        }
        if (!cfg.lsdEnabled) {
            EXPECT_FALSE(lsdUsed);
        }
    }
}

} // namespace
} // namespace facile
