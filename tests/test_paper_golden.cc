/**
 * @file
 * Golden pin of the paper tables on the quick evaluation suite (the
 * one `FACILE_BENCH_QUICK=1` selects for the bench/ binaries).
 *
 * The suite is prepared per µarch through eval::prepare, exactly as
 * bench/table2_accuracy.cc does, and two things are pinned:
 *   1. Facile's MAPE and Kendall's tau per (µarch, notion), at the
 *      precision Table 2 prints;
 *   2. one xxh64 digest over every prediction bit (throughput and
 *      component values) of every ablation variant of Table 3, under
 *      both notions on all nine µarches, plus every ground-truth value.
 *
 * Any change to the model, the analysis, the interner or the reference
 * simulator that moves a single bit fails here. A deliberate model
 * change re-pins both: run the test, copy the printed values.
 */
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "../bench/bench_common.h"
#include "baselines/predictor_iface.h"
#include "corpus/sections.h"
#include "facile/component.h"

namespace facile {
namespace {

/** The quick suite, selected the way the bench binaries select it. */
const std::vector<bhive::Benchmark> &
quickSuite()
{
    ::setenv("FACILE_BENCH_QUICK", "1", 1);
    return bench::evalSuite();
}

void
appendBits(std::vector<std::uint8_t> &buf, const void *p, std::size_t n)
{
    const auto *b = static_cast<const std::uint8_t *>(p);
    buf.insert(buf.end(), b, b + n);
}

TEST(PaperGolden, QuickSuiteTablesArePinned)
{
    // Table 2's Facile row per µarch: MAPE(U) Kendall(U) MAPE(L)
    // Kendall(L), printed as the table prints them.
    const char *const kTable2[] = {
        "RKL 3.12% 0.9740 2.04% 0.9833",
        "TGL 3.12% 0.9740 2.04% 0.9833",
        "ICL 3.12% 0.9740 2.04% 0.9833",
        "CLX 3.12% 0.9762 2.15% 0.9818",
        "SKL 3.12% 0.9762 2.15% 0.9818",
        "BDW 3.37% 0.9757 2.18% 0.9812",
        "HSW 3.43% 0.9766 2.22% 0.9829",
        "IVB 3.78% 0.9743 1.98% 0.9835",
        "SNB 4.05% 0.9732 2.32% 0.9808",
    };
    const char *const kDigest = "9174d457ba93c4a5";

    const baselines::FacilePredictor facile;
    const std::vector<model::AblationVariant> variants =
        model::ablationVariants();
    std::vector<std::uint8_t> bits;
    std::vector<std::string> rows;
    for (uarch::UArch arch : uarch::allUArchs()) {
        const eval::ArchSuite suite = eval::prepare(arch, quickSuite());
        const eval::Accuracy u = eval::evaluate(facile, suite, false);
        const eval::Accuracy l = eval::evaluate(facile, suite, true);
        char row[96];
        std::snprintf(row, sizeof row, "%s %.2f%% %.4f %.2f%% %.4f",
                      uarch::config(arch).abbrev, u.mape * 100.0,
                      u.kendall, l.mape * 100.0, l.kendall);
        rows.push_back(row);

        for (bool loop : {false, true}) {
            const std::vector<double> &measured =
                loop ? suite.measuredL : suite.measuredU;
            appendBits(bits, measured.data(),
                       sizeof(double) * measured.size());
            for (const model::AblationVariant &v : variants)
                for (const bb::BasicBlock &blk :
                     loop ? suite.blocksL : suite.blocksU) {
                    const model::Prediction p =
                        model::predict(blk, loop, v.config);
                    appendBits(bits, &p.throughput, sizeof p.throughput);
                    appendBits(bits, p.componentValue.data(),
                               sizeof(double) * p.componentValue.size());
                }
        }
    }
    char digest[17];
    std::snprintf(digest, sizeof digest, "%016llx",
                  static_cast<unsigned long long>(
                      corpus::xxh64(bits.data(), bits.size())));

    std::string printed;
    for (const std::string &r : rows)
        printed += "        \"" + r + "\",\n";
    SCOPED_TRACE("measured rows:\n" + printed + "digest " + digest);
    ASSERT_EQ(rows.size(), std::size(kTable2));
    for (std::size_t i = 0; i < rows.size(); ++i)
        EXPECT_EQ(rows[i], kTable2[i]);
    EXPECT_EQ(std::string(digest), kDigest);
}

} // namespace
} // namespace facile
