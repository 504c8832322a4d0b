/**
 * @file
 * Shared building blocks for sectioned container files (the snapshot
 * image today; sectioned corpora next): a 64-bit xxHash, a fixed
 * 64-byte section-table entry with page-aligned payload offsets and a
 * per-section hash, and a buffered atomic file writer that keeps the
 * crash-safety contract of snapshot saves (temp file → writes → fsync
 * → generation rotation → rename → parent dir fsync).
 *
 * Everything here is format-agnostic: the container owner supplies the
 * magic/header layout and the meaning of SectionEntry::type/tag; this
 * layer owns alignment, hashing, the table codec, and durable IO.
 *
 * All multi-byte fields are little-endian (the host is asserted
 * little-endian by the server protocol; sectioned files share that
 * assumption and carry an endian tag so a foreign-endian image is
 * rejected instead of misparsed).
 */
#ifndef FACILE_CORPUS_SECTIONS_H
#define FACILE_CORPUS_SECTIONS_H

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

namespace facile::corpus {

/** Thrown on IO failures and malformed section tables. */
class SectionError : public std::runtime_error
{
  public:
    explicit SectionError(const std::string &what)
        : std::runtime_error("sections: " + what)
    {}
};

/** Section payloads start on this boundary. */
inline constexpr std::uint64_t kSectionAlign = 4096;

/** Value all sectioned containers stamp as their endianness witness. */
inline constexpr std::uint32_t kLittleEndianTag = 0x0A0B0C0D;

/** @return @p v rounded up to the next multiple of @p align (pow 2). */
constexpr std::uint64_t
alignUp(std::uint64_t v, std::uint64_t align)
{
    return (v + align - 1) & ~(align - 1);
}

/**
 * xxHash64 (Yann Collet's XXH64, the standard single-shot variant) —
 * implemented in-repo because the toolchain image carries no xxhash
 * package. Verified against the reference vectors in test_corpus.
 */
std::uint64_t xxh64(const void *data, std::size_t len,
                    std::uint64_t seed = 0);

/**
 * One section-table entry, exactly 64 bytes on disk and in memory
 * (plain little-endian PODs, memcpy-codec'd):
 *
 *   offset 0   u32  type       container-defined section type
 *   offset 4   u32  tag        container-defined (e.g. uarch value)
 *   offset 8   u64  offset     payload start from file byte 0;
 *                              kSectionAlign-aligned for mappable types
 *   offset 16  u64  length     payload bytes (excludes padding)
 *   offset 24  u64  hash       xxh64 over the payload bytes
 *   offset 32  u64  itemCount  container-defined logical item count
 *   offset 40  u64  reserved[3]  zero; readers ignore
 */
struct SectionEntry
{
    std::uint32_t type = 0;
    std::uint32_t tag = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
    std::uint64_t hash = 0;
    std::uint64_t itemCount = 0;
    std::uint64_t reserved[3] = {0, 0, 0};
};
static_assert(sizeof(SectionEntry) == 64,
              "SectionEntry is the on-disk layout");

/** Serialize @p entries back to back (64 bytes each). */
std::vector<std::uint8_t>
encodeSectionTable(const std::vector<SectionEntry> &entries);

/**
 * Decode a section table of @p count entries from @p data (@p size
 * bytes) and validate every entry against the containing file size:
 * payload in bounds, no overflow, reserved fields zero.
 * @throws SectionError.
 */
std::vector<SectionEntry>
decodeSectionTable(const std::uint8_t *data, std::size_t size,
                   std::uint32_t count, std::uint64_t fileBytes);

/**
 * Buffered durable writer with the snapshot crash-safety contract.
 * Bytes go to `path.tmp.<pid>`; commit() fsyncs, rotates existing
 * generations (`path` → `path.g1` → ...), renames the temp file over
 * @p path and fsyncs the parent directory. Abandoning the writer
 * (destructor without commit) removes the temp file and leaves every
 * existing generation untouched.
 *
 * Fault injection: each syscall boundary consults the named hook
 * `<sitePrefix>.{open,write,fsync,rotate,rename}` via
 * testing::faultPoint, which the torn-write / failed-rename matrices
 * arm. Appends are staged through a fixed buffer and the write hook
 * fires once per flushed chunk, not once per append — a save hits the
 * fault site O(bytes / kWriteBuf) times, so seeded chaos (1-in-N per
 * hit) doesn't make large saves statistically impossible.
 */
class AtomicFileWriter
{
  public:
    AtomicFileWriter(std::string path, std::string sitePrefix,
                     int generations);
    ~AtomicFileWriter();

    AtomicFileWriter(const AtomicFileWriter &) = delete;
    AtomicFileWriter &operator=(const AtomicFileWriter &) = delete;

    /** Append @p len bytes at the current offset. @throws SectionError. */
    void write(const void *data, std::size_t len);

    /** Flush + fsync + rotate + rename + dir fsync. @throws SectionError. */
    void commit();

  private:
    /** Stage @p buf_ to the file (one write-hook hit). @throws. */
    void flush();
    void abort() noexcept;

    static constexpr std::size_t kWriteBuf = 256 * 1024;

    std::string path_;
    std::string tmp_;
    std::string site_;
    int generations_;
    std::FILE *f_ = nullptr;
    std::vector<std::uint8_t> buf_;
    bool committed_ = false;
};

/** Name of generation @p gen of @p path (gen 0 is @p path itself). */
std::string generationPath(const std::string &path, int gen);

/**
 * Best-effort parent-directory fsync after a rename (without it the
 * rename itself may not survive power loss). Failure is ignored.
 */
void fsyncParentDir(const std::string &path);

} // namespace facile::corpus

#endif // FACILE_CORPUS_SECTIONS_H
