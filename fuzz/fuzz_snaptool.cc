/**
 * @file
 * Fuzz harness for the snapshot-as-data layer behind facile_snaptool
 * (analysis/snapshot.h: parseSnapshotModel / buildSnapshotImage) —
 * the tool's verify/diff/merge/compact subcommands feed
 * operator-supplied files through exactly this path.
 *
 * Beyond no-crash/no-UB, the harness asserts the rebuild invariant
 * the tool's bit-identity guarantee rests on: once a model parses,
 * build -> parse -> build is a fixed point (otherwise merge and
 * compact could silently drift).
 */
#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/snapshot.h"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    using namespace facile::analysis;
    SnapshotModel m;
    try {
        m = parseSnapshotModel(data, size);
    } catch (const SnapshotError &) {
        return 0; // malformed image: rejection is the correct outcome
    }
    std::vector<std::uint8_t> img;
    try {
        img = buildSnapshotImage(m);
    } catch (const SnapshotError &) {
        __builtin_trap(); // a parsed model must always rebuild
    }
    try {
        const SnapshotModel back = parseSnapshotModel(img.data(), img.size());
        if (buildSnapshotImage(back) != img)
            __builtin_trap(); // rebuild round trip drifted
    } catch (const SnapshotError &) {
        __builtin_trap(); // built images must always re-parse
    }
    return 0;
}
