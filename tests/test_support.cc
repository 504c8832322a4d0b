/**
 * @file
 * Unit tests for the support library: math helpers, accuracy metrics,
 * the deterministic RNG, and strict numeric command-line values.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>

#include "support/cli.h"
#include "support/math_util.h"
#include "support/rng.h"
#include "support/stats.h"

namespace facile {
namespace {

TEST(MathUtil, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 5), 0);
    EXPECT_EQ(ceilDiv(1, 5), 1);
    EXPECT_EQ(ceilDiv(5, 5), 1);
    EXPECT_EQ(ceilDiv(6, 5), 2);
    EXPECT_EQ(ceilDiv(10, 5), 2);
    EXPECT_EQ(ceilDiv(11, 5), 3);
}

TEST(MathUtil, Lcm)
{
    EXPECT_EQ(lcm(12, 16), 48);
    EXPECT_EQ(lcm(16, 16), 16);
    EXPECT_EQ(lcm(1, 16), 16);
    EXPECT_EQ(lcm(7, 16), 112);
}

TEST(MathUtil, Round2)
{
    EXPECT_DOUBLE_EQ(round2(1.004), 1.0);
    EXPECT_DOUBLE_EQ(round2(1.006), 1.01);
    EXPECT_DOUBLE_EQ(round2(26.0), 26.0);
    EXPECT_DOUBLE_EQ(round2(0.333333), 0.33);
}

TEST(Stats, MapeBasics)
{
    EXPECT_DOUBLE_EQ(mape({1, 2, 4}, {1, 2, 4}), 0.0);
    EXPECT_NEAR(mape({2.0}, {1.0}), 0.5, 1e-12);
    EXPECT_NEAR(mape({2.0, 4.0}, {1.0, 4.0}), 0.25, 1e-12);
}

TEST(Stats, MapeSkipsZeroMeasured)
{
    EXPECT_NEAR(mape({0.0, 2.0}, {5.0, 1.0}), 0.5, 1e-12);
}

TEST(Stats, MapeReportsSkippedCount)
{
    std::size_t skipped = 99;
    EXPECT_NEAR(mape({0.0, 2.0, 4.0}, {5.0, 1.0, 4.0}, &skipped), 0.25,
                1e-12);
    EXPECT_EQ(skipped, 1u);

    EXPECT_DOUBLE_EQ(mape({1.0, 2.0}, {1.0, 2.0}, &skipped), 0.0);
    EXPECT_EQ(skipped, 0u);
}

TEST(Stats, MapeAllZeroMeasuredIsNaN)
{
    // An all-zero measured vector evaluates nothing; returning 0 here
    // would report a perfect score for an unevaluated metric.
    std::size_t skipped = 0;
    EXPECT_TRUE(std::isnan(mape({0.0, 0.0}, {1.0, 2.0}, &skipped)));
    EXPECT_EQ(skipped, 2u);
}

TEST(Stats, MapeEmptyIsNaN)
{
    std::size_t skipped = 99;
    EXPECT_TRUE(std::isnan(mape({}, {}, &skipped)));
    EXPECT_EQ(skipped, 0u);
}

TEST(Stats, MapeSizeMismatchThrows)
{
    EXPECT_THROW(mape({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Stats, KendallSizeMismatchThrows)
{
    EXPECT_THROW(kendallTau({1.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(Stats, KendallPerfectCorrelation)
{
    EXPECT_NEAR(kendallTau({1, 2, 3, 4}, {10, 20, 30, 40}), 1.0, 1e-12);
}

TEST(Stats, KendallPerfectAntiCorrelation)
{
    EXPECT_NEAR(kendallTau({1, 2, 3, 4}, {40, 30, 20, 10}), -1.0, 1e-12);
}

TEST(Stats, KendallKnownValue)
{
    // x = (1,2,3,4,5), y = (3,1,4,2,5): 7 concordant, 3 discordant
    // pairs out of 10 -> tau = (7-3)/10 = 0.4.
    EXPECT_NEAR(kendallTau({1, 2, 3, 4, 5}, {3, 1, 4, 2, 5}), 0.4, 1e-12);
}

TEST(Stats, KendallWithTies)
{
    // x = (1,1,2,3), y = (1,2,2,3): C=4, D=0, one x-tie, one y-tie:
    // tau-b = 4 / sqrt(5*5) = 0.8.
    EXPECT_NEAR(kendallTau({1, 1, 2, 3}, {1, 2, 2, 3}), 0.8, 1e-9);
}

TEST(Stats, KendallAllTied)
{
    EXPECT_DOUBLE_EQ(kendallTau({1, 1, 1}, {2, 2, 2}), 0.0);
}

TEST(Stats, KendallLargePermutationMatchesBruteForce)
{
    Rng rng(7);
    std::vector<double> x(200), y(200);
    for (int i = 0; i < 200; ++i) {
        x[i] = rng.below(50);
        y[i] = rng.below(50);
    }
    // O(n^2) reference for tau-b.
    std::int64_t concordant = 0, discordant = 0, tx = 0, ty = 0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        for (std::size_t j = i + 1; j < x.size(); ++j) {
            double dx = x[i] - x[j], dy = y[i] - y[j];
            if (dx == 0 && dy == 0)
                continue;
            else if (dx == 0)
                ++tx;
            else if (dy == 0)
                ++ty;
            else if (dx * dy > 0)
                ++concordant;
            else
                ++discordant;
        }
    }
    double num = static_cast<double>(concordant - discordant);
    double den = std::sqrt(static_cast<double>(concordant + discordant + tx)) *
                 std::sqrt(static_cast<double>(concordant + discordant + ty));
    EXPECT_NEAR(kendallTau(x, y), num / den, 1e-9);
}

TEST(Stats, MeanAndGeoMean)
{
    EXPECT_DOUBLE_EQ(mean({1, 2, 3}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(geoMean({1, 4}), 2.0, 1e-12);
    EXPECT_NEAR(geoMean({2, 2, 2}), 2.0, 1e-12);
}

TEST(Stats, Percentile)
{
    std::vector<double> v = {4, 1, 3, 2};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 4.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 2.5);
}

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 32; ++i)
        differing += a.next() != b.next();
    EXPECT_GT(differing, 16);
}

TEST(Rng, BelowRespectsBound)
{
    Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.below(7), 7u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(11);
    bool sawLo = false, sawHi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.range(3, 5);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 5);
        sawLo |= v == 3;
        sawHi |= v == 5;
    }
    EXPECT_TRUE(sawLo);
    EXPECT_TRUE(sawHi);
}

TEST(Rng, RangeSmallSpanKeepsHistoricalSequence)
{
    // Spans that fit in 32 bits must keep drawing exactly one below()
    // sample, or every deterministic BHive suite silently changes.
    Rng a(20231020), b(20231020);
    for (int i = 0; i < 500; ++i)
        EXPECT_EQ(a.range(-16, 64),
                  -16 + static_cast<std::int64_t>(b.below(81)));
}

TEST(Rng, RangeDegenerate)
{
    Rng rng(3);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.range(5, 5), 5);
    EXPECT_EQ(rng.range(-7, -7), -7);
}

TEST(Rng, RangeWiderThan32BitsCoversFullSpan)
{
    // The pre-fix code truncated hi - lo + 1 to uint32: for a span of
    // 2^40 + 1 that truncates to 1, so every sample came out as lo.
    Rng rng(17);
    const std::int64_t hi = std::int64_t{1} << 40;
    bool sawAbove32Bits = false, sawNonZero = false;
    for (int i = 0; i < 200; ++i) {
        std::int64_t v = rng.range(0, hi);
        ASSERT_GE(v, 0);
        ASSERT_LE(v, hi);
        sawNonZero |= v != 0;
        sawAbove32Bits |= v > std::int64_t{0xffffffff};
    }
    EXPECT_TRUE(sawNonZero);
    EXPECT_TRUE(sawAbove32Bits);
}

TEST(Rng, RangeFullInt64SpanDoesNotCollapse)
{
    // hi - lo + 1 overflows int64 here; the unsigned span wraps to 0.
    // Pre-fix this collapsed to below(0) == 0, i.e. always INT64_MIN.
    Rng rng(23);
    const std::int64_t lo = std::numeric_limits<std::int64_t>::min();
    const std::int64_t hi = std::numeric_limits<std::int64_t>::max();
    bool sawNegative = false, sawPositive = false;
    for (int i = 0; i < 200; ++i) {
        std::int64_t v = rng.range(lo, hi);
        sawNegative |= v < 0;
        sawPositive |= v > 0;
    }
    EXPECT_TRUE(sawNegative);
    EXPECT_TRUE(sawPositive);
}

TEST(Rng, Below64RespectsBound)
{
    Rng rng(29);
    const std::uint64_t bound = (std::uint64_t{1} << 40) + 3;
    for (int i = 0; i < 500; ++i)
        EXPECT_LT(rng.below64(bound), bound);
    EXPECT_EQ(rng.below64(1), 0u);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(13);
    double sum = 0;
    for (int i = 0; i < 1000; ++i) {
        double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 1000.0, 0.5, 0.05);
}

TEST(Cli, ParseIntArgAcceptsWholeNumbersInRange)
{
    int i = -7;
    EXPECT_TRUE(parseIntArg("200", i, 0));
    EXPECT_EQ(i, 200);
    EXPECT_TRUE(parseIntArg("0", i, 0, 10));
    EXPECT_EQ(i, 0);
    EXPECT_TRUE(parseIntArg("-3", i, -5, 5));
    EXPECT_EQ(i, -3);
    std::size_t z = 0;
    EXPECT_TRUE(parseIntArg("18446744073709551615", z, 0));
    EXPECT_EQ(z, std::numeric_limits<std::size_t>::max());
}

TEST(Cli, ParseIntArgRejectsGarbageAndLeavesTheValue)
{
    int i = 42;
    for (const char *bad : {"abc", "x", "", " 5", "5 ", "+5", "5x", "0x10",
                            "1e3", "1.5", "--1"})
        EXPECT_FALSE(parseIntArg(bad, i, 0)) << "'" << bad << "'";
    EXPECT_FALSE(parseIntArg(nullptr, i, 0));
    EXPECT_EQ(i, 42);
}

TEST(Cli, ParseIntArgRejectsNegativesAndOutOfRange)
{
    // The atoll bugs this replaces: -1 wrapped to SIZE_MAX, and values
    // past the type's range were silently truncated.
    std::size_t z = 7;
    EXPECT_FALSE(parseIntArg("-1", z, 0));
    EXPECT_FALSE(parseIntArg("18446744073709551616", z, 0));
    EXPECT_EQ(z, 7u);

    int i = 7;
    EXPECT_FALSE(parseIntArg("-1", i, 0));
    EXPECT_FALSE(parseIntArg("2147483648", i, 0));
    EXPECT_FALSE(parseIntArg("65536", i, 0, 65535));
    EXPECT_FALSE(parseIntArg("0", i, 1, 1024));
    EXPECT_EQ(i, 7);
    EXPECT_TRUE(parseIntArg("65535", i, 0, 65535));
    EXPECT_EQ(i, 65535);
}

} // namespace
} // namespace facile
