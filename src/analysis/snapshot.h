/**
 * @file
 * Warm-start snapshots: persist an engine's prediction cache to a
 * versioned, checksummed binary file, so a new process answers the
 * blocks its predecessor served from the cache instead of re-deriving
 * them. A prediction is a pure function of the block's bytes and the
 * model, so the image carries exactly the PREDICT response payloads.
 * The intern arenas are not persisted: a record is a pure function of
 * its form key, and a never-seen form costs one cold analysis
 * (src/analysis/README.md).
 *
 * One on-disk format, little-endian, crash-safe (temp file → fsync →
 * generation rotation → atomic rename): one fixed header, then the
 * entries, nothing else (layout diagram in src/analysis/README.md):
 *
 *   offset 0   char[8]  magic       "FACSNP2\n"
 *   offset 8   u32      version     4
 *   offset 12  u32      endianTag   corpus::kLittleEndianTag — a
 *                                   foreign-endian image is rejected,
 *                                   never misparsed
 *   offset 16  u64      fileBytes   total file size (truncation check)
 *   offset 24  u64      count       number of entries
 *   offset 32  u64      entriesHash xxh64 over bytes [56, fileBytes)
 *   offset 40  u64      reserved    0
 *   offset 48  u64      headerHash  xxh64 over bytes [0, 48)
 *   offset 56  count entries of (u32 keyLen + opaque engine cache
 *              key, u32 predLen + PREDICT response payload), to the
 *              end of the file. Raw IEEE-754 bit patterns throughout.
 *
 * A load reads the file, verifies the header and entries hashes,
 * decodes every entry, and only then imports the entries into
 * SnapshotOptions::engine. The fallback ladder, outermost first:
 *   1. the newest generation (`path`);
 *   2. older generations (`path.g1`, ...) — a file that is missing,
 *      not an image of this version (any other magic, versions 1–3
 *      included), foreign-endian, or fails validation throws, and the
 *      walk moves on;
 *   3. cold — no generation loads; the caller starts cold.
 *
 * Loading is append-only: an engine key that is already cached keeps
 * its live entry.
 *
 * Corruption handling: a bad magic, unsupported version, truncated
 * file, forged count, bad entry, trailing byte or checksum mismatch throws
 * SnapshotError; nothing is imported from a file that fails
 * validation.
 *
 * Crash safety: saves are atomic and durable — written to a
 * pid-suffixed temp file, fflush+fsync'd, then rename(2)'d over the
 * target with the parent directory fsync'd after. Saves keep a bounded
 * history of rotated *generations* (`path` → `path.g1` → ... per
 * SnapshotOptions::generations); loadSnapshot walks that chain
 * newest-first and warm-starts from the first image that validates.
 * SnapshotStats::generation reports which one loaded.
 */
#ifndef FACILE_ANALYSIS_SNAPSHOT_H
#define FACILE_ANALYSIS_SNAPSHOT_H

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace facile::engine {
class PredictionEngine;
}

namespace facile::analysis {

inline constexpr std::uint32_t kSnapshotVersion = 4;

/** Bytes of the fixed header that precedes the entries. */
inline constexpr std::size_t kSnapshotHeaderSize = 56;

/**
 * Whether a load happened. The values are reported on the wire (STATS
 * field 22); 1 and 3 are retired and never reused.
 */
enum class SnapshotLoadMode : std::uint8_t {
    None = 0,   ///< nothing loaded (saves, validation, cold start)
    Loaded = 2, ///< an image was validated and imported
};

/**
 * Default on-disk history depth: the primary file plus two rotated
 * prior generations (`path`, `path.g1`, `path.g2`).
 */
inline constexpr int kSnapshotGenerations = 3;

/** Thrown on malformed, truncated, or corrupted snapshot files. */
class SnapshotError : public std::runtime_error
{
  public:
    explicit SnapshotError(const std::string &what)
        : std::runtime_error("snapshot: " + what)
    {}
};

/** What was written or read. */
struct SnapshotStats
{
    std::size_t predictions = 0; ///< engine prediction-cache entries
    std::size_t bytes = 0;       ///< file size
    /** The header's xxh64 over the entry bytes (loads and validation). */
    std::uint64_t entriesHash = 0;
    /**
     * Which generation a load came from: 0 = the primary path, g > 0 =
     * the g-th rotated fallback (`path.gN`) after newer generations
     * failed validation. Always 0 for saves.
     */
    std::size_t generation = 0;
    /** Loaded for a load, None for saves and validation. */
    SnapshotLoadMode loadMode = SnapshotLoadMode::None;
};

struct SnapshotOptions
{
    /**
     * The engine whose prediction cache save() serializes and load()
     * restores into. Without one, save() writes an image with no
     * entries and load() only validates.
     */
    engine::PredictionEngine *engine = nullptr;

    /**
     * On-disk generations kept by save (and scanned by load). 1 means
     * no rotation. Values < 1 are treated as 1.
     */
    int generations = kSnapshotGenerations;
};

/** Name of generation @p gen of @p path (gen 0 is @p path itself). */
std::string snapshotGenerationPath(const std::string &path, int gen);

/**
 * Serialize the prediction cache of SnapshotOptions::engine to
 * @p path, atomically and durably (temp file + fsync + rename),
 * rotating prior generations per SnapshotOptions::generations.
 */
SnapshotStats saveSnapshot(const std::string &path,
                           const SnapshotOptions &opts = {});

/**
 * As saveSnapshot, but into a byte vector instead of a file — the
 * entry point for snapshots that leave over a wire rather than to
 * disk (the SNAPSHOT-fetch admin op). The image is byte-identical to
 * what saveSnapshot would have written for the same live state.
 */
std::vector<std::uint8_t>
saveSnapshotToMemory(const SnapshotOptions &opts = {});

/**
 * Validate and load @p path into SnapshotOptions::engine. Falls back
 * through rotated generations (`path.g1`, ...) when newer files are
 * missing, of another version, or fail validation;
 * SnapshotStats::generation records which one was used.
 * @throws SnapshotError when no generation validates (nothing
 * imported).
 */
SnapshotStats loadSnapshot(const std::string &path,
                           const SnapshotOptions &opts = {});

/**
 * As loadSnapshot, but from an in-memory image — the entry point for
 * snapshots that arrive over a wire rather than from disk.
 */
SnapshotStats loadSnapshotFromMemory(const std::uint8_t *data,
                                     std::size_t size,
                                     const SnapshotOptions &opts = {});

/**
 * Run the full validation of an in-memory image — header, entries
 * hash, every entry — and import nothing. Returns what a load
 * would have reported (with loadMode None); throws SnapshotError
 * exactly when a load would. This is the path the fuzz_snapshot
 * harness and `facile_snaptool verify` drive.
 */
SnapshotStats validateSnapshot(const std::uint8_t *data,
                               std::size_t size);

// ---- snapshot-as-data (facile_snaptool, replica convergence) ---------------

/**
 * The entries of one image in file order: the operand of
 * facile_snaptool's diff/merge/compact subcommands. File order is
 * preserved, so buildSnapshotImage(parseSnapshotModel(img)) == img for
 * every valid image.
 */
struct SnapshotModel
{
    /** (opaque engine cache key, PREDICT response payload). */
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        predictions;
};

/**
 * Parse an image into a SnapshotModel, validating everything
 * validateSnapshot validates. @throws SnapshotError.
 */
SnapshotModel parseSnapshotModel(const std::uint8_t *data,
                                 std::size_t size);

/**
 * Serialize @p model as an image. Deterministic: equal models yield
 * equal bytes. @throws SnapshotError when a payload is not a valid
 * PREDICT response payload.
 */
std::vector<std::uint8_t> buildSnapshotImage(const SnapshotModel &model);

/**
 * The prediction-cache entries of @p engine as a model, in the order a
 * save writes them; empty for nullptr.
 */
SnapshotModel snapshotModelOf(const engine::PredictionEngine *engine);

/**
 * The set union of @p models, sorted by key: commutative and
 * associative, so the same inputs yield the same image whatever order
 * they arrive in. Duplicate entries collapse.
 * @throws SnapshotError (message contains "merge conflict") when two
 * inputs carry different payloads behind one key — impossible unless
 * they came from different model builds.
 */
SnapshotModel
mergeSnapshotModels(const std::vector<SnapshotModel> &models);

// ---- building blocks (exposed for tests) ----------------------------------

/** FNV-1a 64-bit over @p len bytes. */
std::uint64_t fnv1a64(const std::uint8_t *data, std::size_t len,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

} // namespace facile::analysis

#endif // FACILE_ANALYSIS_SNAPSHOT_H
