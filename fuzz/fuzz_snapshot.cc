/**
 * @file
 * Fuzz harness for warm-start snapshot loading
 * (src/analysis/snapshot.h) — images can arrive from disk or over an
 * operator channel, so the parser must withstand arbitrary bytes.
 *
 * Drives validateSnapshot(), which runs the complete validation and
 * decodes every prediction entry but imports nothing, which keeps
 * iterations independent. The harness asserts that it reports no load
 * (loadMode None) plus the reported size.
 */
#include <cstddef>
#include <cstdint>

#include "analysis/snapshot.h"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    using namespace facile::analysis;
    try {
        const SnapshotStats st = validateSnapshot(data, size);
        if (st.loadMode != SnapshotLoadMode::None)
            __builtin_trap(); // validation must import nothing
        if (st.bytes != size)
            __builtin_trap();
    } catch (const SnapshotError &) {
        // Every malformed image must surface as SnapshotError — any
        // other escape (bad_alloc, UB caught by ASan) is a finding.
    }
    return 0;
}
