/**
 * @file
 * Shared helpers for the table/figure reproduction binaries: the
 * evaluation suite (with a quick mode), its per-arch prepared ground
 * truth, and the bit-identity oracle.
 */
#ifndef FACILE_BENCH_COMMON_H
#define FACILE_BENCH_COMMON_H

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <vector>

#include "eval/harness.h"
#include "facile/predictor.h"

namespace facile::bench {

/**
 * Quick mode: FACILE_BENCH_QUICK=1 shrinks the suite so a table or
 * figure finishes fast. Its numbers are indicative only.
 */
inline bool
quickMode()
{
    const char *q = std::getenv("FACILE_BENCH_QUICK");
    return q && *q && std::strcmp(q, "0") != 0;
}

/** The evaluation suite used by every table/figure binary. */
inline const std::vector<bhive::Benchmark> &
evalSuite()
{
    if (quickMode()) {
        // Same generator and seed, fewer benchmarks per category.
        static const std::vector<bhive::Benchmark> quick =
            bhive::generateSuite(20231020, 10);
        return quick;
    }
    return bhive::defaultSuite();
}

/** Prepared (simulated) suite for one µarch, cached per process. */
inline const eval::ArchSuite &
archSuite(uarch::UArch arch)
{
    static std::map<uarch::UArch, eval::ArchSuite> cache;
    auto it = cache.find(arch);
    if (it == cache.end()) {
        std::fprintf(stderr, "[prepare] measuring ground truth for %s...\n",
                     uarch::config(arch).abbrev);
        it = cache.emplace(arch, eval::prepare(arch, evalSuite())).first;
    }
    return it->second;
}

inline void
printRule(int width = 78)
{
    for (int i = 0; i < width; ++i)
        std::putchar('-');
    std::putchar('\n');
}

/** Bit-identity oracle (defined once in eval/harness.h). */
using eval::samePrediction;

} // namespace facile::bench

#endif // FACILE_BENCH_COMMON_H
