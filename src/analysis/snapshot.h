/**
 * @file
 * Warm-start snapshots: persist the per-arch instruction intern arenas
 * (src/analysis/intern.h) — and optionally an engine's prediction
 * cache — to a versioned, checksummed binary file, so a new process
 * starts with the instruction universe already analyzed instead of
 * paying the decode + uops::lookup + read/write-set cold path per
 * first sighting.
 *
 * One on-disk format, little-endian, crash-safe (temp file → fsync →
 * generation rotation → atomic rename): a relocatable, page-aligned,
 * mmap-able image with magic "FACSNP2\n" (full layout diagram in
 * src/analysis/README.md):
 *
 *   offset 0   char[8]  magic       "FACSNP2\n"
 *   offset 8   u32      version     2
 *   offset 12  u32      endianTag   corpus::kLittleEndianTag — a
 *                                   foreign-endian image is rejected,
 *                                   never misparsed
 *   offset 16  u32      pageSize    corpus::kSectionAlign (4096)
 *   offset 20  u32      sectionCount
 *   offset 24  u64      fileBytes   total file size (truncation check)
 *   offset 32  u64      tableOffset 64
 *   offset 40  u64      tableHash   xxh64 over the section table
 *   offset 48  u64      headerHash  xxh64 over bytes [0, 48)
 *   offset 56  u64      reserved    0
 *   offset 64  section table: corpus::SectionEntry × sectionCount,
 *              each carrying a per-section xxh64 and a 4 KiB-aligned
 *              payload offset. Section types: 1 = intern records,
 *              2 = fused pairs, 3 = prediction cache.
 *
 *   Records sections hold a flat, position-independent arena: a
 *   64-byte section head, fixed-layout records (POD head + trailing
 *   arrays, every pointer replaced by an offset/count), and an
 *   open-addressed key index (keyLo/keyHi/recOffset slots, linear
 *   probing on xxh64 of the 16-byte packed instruction key — the same
 *   packing the interner's canonical maps use). A record key is
 *   the interner's map key: the canonical bytes of the instruction's
 *   form (isa::canonicalForm), itself the encoding of a real
 *   instruction whose analysis the record holds. Images saved while
 *   the maps were keyed on exact bytes therefore load unchanged: their
 *   records are correct, and those under non-canonical keys are never
 *   probed. Fused-pair and
 *   prediction sections are small sequential tails: u32 count, then
 *   u32 (firstIdx, secondIdx) pairs indexing the same arch's records
 *   in file order, or (u32 keyLen + opaque engine cache key, u32
 *   predLen + serialized Prediction) entries.
 *
 *   A load is O(pages touched): open + mmap + header/table
 *   verification + madvise(MADV_WILLNEED) on the record sections +
 *   binding each section into its InstInterner as a RecordSource.
 *   Records materialize lazily on first canonical-map miss; section
 *   hashes are verified lazily on first touch of each section, and a
 *   section that fails verification (bit flips) is poisoned — lookups
 *   fall through to the cold analysis path, so predictions stay
 *   bit-identical to a cold start no matter what the image contains.
 *   Fused pairs are not imported at load; internFused re-derives them
 *   on demand, bit-identically. The prediction tail is parsed eagerly
 *   (it is the small parsed tail by design).
 *
 *   Graceful degradation, outermost first (SnapshotLoadMode reports
 *   which rung served the load):
 *     1. mmap bind (MmapV2);
 *     2. eager parse (EagerV2) — an image whose sections are
 *        unaligned, or whose mmap fails, is parsed eagerly through
 *        the fully validated path instead of being mapped;
 *     3. previous generation — an image that is not a v2 image (any
 *        other magic), foreign-endian, version-mismatched, or fails
 *        header/table/tail validation throws, and the generation walk
 *        moves on to the next older file;
 *     4. cold — no generation loads; the caller starts cold.
 *   A records section that fails its lazy hash check merely poisons
 *   that section.
 *
 * Loading is append-only in every mode: records land in the same
 * arenas internAt fills, an already-interned key keeps its live
 * record, and published `const InstRecord *` values stay valid and
 * immutable.
 *
 * Corruption handling: a bad magic, unsupported version, truncated
 * file, out-of-bounds section, or checksum mismatch throws
 * SnapshotError; nothing is imported from a file that fails
 * validation.
 *
 * Crash safety: saves are atomic and durable — streamed to a
 * pid-suffixed temp file (incremental checksumming; peak save memory
 * is one record plus the index, not the whole image),
 * fflush+fsync'd, then rename(2)'d over the target with the parent
 * directory fsync'd after. Saves keep a bounded history of rotated
 * *generations* (`path` → `path.g1` → ... per
 * SnapshotOptions::generations); loadSnapshot walks that chain
 * newest-first and warm-starts from the first image that validates.
 * SnapshotStats::generation reports which one loaded.
 */
#ifndef FACILE_ANALYSIS_SNAPSHOT_H
#define FACILE_ANALYSIS_SNAPSHOT_H

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/intern.h"

namespace facile::engine {
class PredictionEngine;
}

namespace facile::analysis {

inline constexpr std::uint32_t kSnapshotVersionV2 = 2;

/**
 * Which code path actually served a load. The values are reported on
 * the wire (STATS field 22); 1 is retired and never reused.
 */
enum class SnapshotLoadMode : std::uint8_t {
    None = 0,    ///< nothing loaded (saves, or validation-only)
    EagerV2 = 2, ///< v2 image, fully parsed (unaligned / mmap failed
                 ///< / SnapshotOptions::eagerLoad / wire image)
    MmapV2 = 3,  ///< v2 image mapped; records materialize lazily
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
    std::size_t records = 0;     ///< canonical InstRecords
    std::size_t fusedPairs = 0;  ///< macro-fused pair variants
    std::size_t predictions = 0; ///< engine prediction-cache entries
    std::size_t newRecords = 0;  ///< load: records actually appended
                                 ///< (0 in MmapV2 mode — records
                                 ///< materialize on first touch)
    std::size_t bytes = 0;       ///< file size
    /**
     * Which generation a load came from: 0 = the primary path, g > 0 =
     * the g-th rotated fallback (`path.gN`) after newer generations
     * failed validation. Always 0 for saves.
     */
    std::size_t generation = 0;
    /** How the image was consumed (None for saves). */
    SnapshotLoadMode loadMode = SnapshotLoadMode::None;
};

struct SnapshotOptions
{
    /**
     * When set, save() also serializes this engine's prediction cache
     * and load() restores entries into it. The intern arenas are
     * process-wide and always included.
     */
    engine::PredictionEngine *engine = nullptr;

    /**
     * On-disk generations kept by save (and scanned by load). 1 means
     * no rotation — the pre-PR 8 single-file behavior. Values < 1 are
     * treated as 1.
     */
    int generations = kSnapshotGenerations;

    /**
     * Load-side: force the image through the fully-validated eager
     * parse (every section hash checked, every record decoded and
     * committed) instead of the lazy mmap bind. This flag is how
     * operators trade startup time for up-front corruption detection.
     */
    bool eagerLoad = false;
};

/** Name of generation @p gen of @p path (gen 0 is @p path itself). */
std::string snapshotGenerationPath(const std::string &path, int gen);

/**
 * Serialize the intern arenas (all nine arches) to @p path, atomically
 * and durably (temp file + fsync + rename), rotating prior generations
 * per SnapshotOptions::generations. Sections stream to the temp file
 * with incremental checksumming, so peak save memory is one record
 * plus the index, not the whole image.
 */
SnapshotStats saveSnapshot(const std::string &path,
                           const SnapshotOptions &opts = {});

/**
 * As saveSnapshot, but into a byte vector instead of a file — the
 * entry point for snapshots that leave over a wire rather than to
 * disk (the SNAPSHOT-fetch admin op, replica convergence). The image
 * is byte-identical to what saveSnapshot would have written for the
 * same live state, so a replica that loads it warm-starts with a
 * bit-identical universe.
 */
std::vector<std::uint8_t>
saveSnapshotToMemory(const SnapshotOptions &opts = {});

/**
 * Validate and load @p path, appending to the process-wide arenas.
 * The image is mmap'd and bound lazily (or parsed eagerly — see
 * SnapshotLoadMode for the fallback ladder). Falls back through
 * rotated generations (`path.g1`, ...) when newer files are missing,
 * are not v2 images, or fail validation; SnapshotStats::generation
 * records which one was used.
 * @throws SnapshotError when no generation validates (nothing
 * imported).
 */
SnapshotStats loadSnapshot(const std::string &path,
                           const SnapshotOptions &opts = {});

/**
 * As loadSnapshot, but from an in-memory image — the entry point for
 * snapshots that arrive over a wire rather than from disk. Always the
 * eager parse (there is no backing file to map).
 */
SnapshotStats loadSnapshotFromMemory(const std::uint8_t *data,
                                     std::size_t size,
                                     const SnapshotOptions &opts = {});

/**
 * Run the full parse-and-validate staging phase on an in-memory image
 * and commit NOTHING: no records are interned, no predictions
 * imported, whatever the outcome. This is the deep eager walk —
 * header, table, every section hash, every record, full
 * index-consistency probing — i.e. strictly stronger than what the
 * lazy mmap path checks at load time. Returns what a
 * load would have reported (with newRecords = 0); throws SnapshotError
 * exactly when an eager load would. This is the path the
 * fuzz_snapshot harness and `facile_snaptool verify` drive.
 */
SnapshotStats validateSnapshot(const std::uint8_t *data,
                               std::size_t size);

/** Counters of the lazy (mmap-bound) record sources, process-wide. */
struct SnapshotSourceStats
{
    std::uint64_t imagesBound = 0;      ///< v2 images mmap'd + bound
    std::uint64_t sectionsVerified = 0; ///< lazy hash checks passed
    std::uint64_t sectionsPoisoned = 0; ///< failed checks / bad records
};

SnapshotSourceStats snapshotSourceStats();

// ---- snapshot-as-data (facile_snaptool: diff/merge/compact) ----------------

/**
 * A fully-parsed view of one snapshot image: the operand
 * facile_snaptool's diff/merge/compact subcommands work on. File order
 * is preserved exactly, so buildSnapshotImage(parseSnapshotModel(img))
 * reproduces a canonically-written image byte for byte.
 */
struct SnapshotModel
{
    struct Arch
    {
        std::uint32_t arch = 0; ///< uarch::UArch value
        /** (exact encoded instruction bytes, full analysis record). */
        std::vector<std::pair<std::vector<std::uint8_t>, InstRecord>>
            records;
        /** Indices into records, in file order. */
        std::vector<std::pair<std::uint32_t, std::uint32_t>> fusedPairs;
    };
    std::vector<Arch> arches; ///< file order

    /** Present even when empty iff the image carried the section. */
    bool hasPredictions = false;
    /** (opaque engine cache key, serialized prediction payload). */
    std::vector<std::pair<std::string, std::vector<std::uint8_t>>>
        predictions;
};

/**
 * Deep-parse an image into a SnapshotModel, validating everything
 * validateSnapshot validates. @throws SnapshotError.
 */
SnapshotModel parseSnapshotModel(const std::uint8_t *data,
                                 std::size_t size);

/**
 * Serialize @p model as an image. Deterministic: equal models yield
 * equal bytes. @throws SnapshotError on unrepresentable models (e.g.
 * duplicate record keys, or forged inline dependence data that does
 * not mirror the record's vectors).
 */
std::vector<std::uint8_t> buildSnapshotImage(const SnapshotModel &model);

/**
 * Order-independent set view over one or more SnapshotModels — the
 * merge layer behind `facile_snaptool merge|diff|compact` and the
 * cluster replica-convergence loop. accumulate() folds models in;
 * canonical() rebuilds a deterministic model, so the same input set
 * yields the same image whatever order the inputs arrived in (merge
 * commutativity — the property the convergence cadence relies on).
 */
class SnapshotModelSet
{
  public:
    /** Intern key bytes (a form's canonical encoding): the comparison key. */
    using Key = std::vector<std::uint8_t>;

    /** One arch's contents keyed for order-independent set ops. */
    struct ArchSet
    {
        /** key → (flat-encoded record bytes, record). */
        std::map<Key, std::pair<std::vector<std::uint8_t>, InstRecord>>
            records;
        /** Macro-fused pairs as (key, key) — index-free. */
        std::set<std::pair<Key, Key>> pairs;
    };

    std::map<std::uint32_t, ArchSet> arches;
    bool hasPredictions = false;
    std::map<std::string, std::vector<std::uint8_t>> predictions;

    /**
     * Fold @p m in; @p name labels the source in error messages.
     * @throws SnapshotError (message contains "merge conflict") when
     * two sources carry different content behind one key — two
     * records for one encoding, or two cached predictions for one
     * engine key. Union-compatible inputs (the normal replica case:
     * same analysis code, disjoint-or-equal universes) never conflict.
     */
    void accumulate(const SnapshotModel &m, const std::string &name);

    /**
     * Rebuild a SnapshotModel in canonical order: arches ascending,
     * records sorted by key bytes, pairs sorted, predictions sorted.
     */
    SnapshotModel canonical() const;
};

/**
 * accumulate() every model of @p models (named by index) into one set
 * and return its canonical union — commutative and associative.
 * @throws SnapshotError on content conflicts.
 */
SnapshotModel
mergeSnapshotModels(const std::vector<SnapshotModel> &models);

// ---- building blocks (exposed for tests) ----------------------------------

/** FNV-1a 64-bit over @p len bytes. */
std::uint64_t fnv1a64(const std::uint8_t *data, std::size_t len,
                      std::uint64_t seed = 0xcbf29ce484222325ULL);

} // namespace facile::analysis

#endif // FACILE_ANALYSIS_SNAPSHOT_H
