/**
 * @file
 * Building blocks for checksummed binary files written crash-safely
 * (the snapshot image, facile_snaptool's outputs): a 64-bit xxHash,
 * the little-endian witness such files stamp, and a buffered atomic
 * file writer that keeps the crash-safety contract of snapshot saves
 * (temp file → writes → fsync → generation rotation → rename → parent
 * dir fsync).
 *
 * Everything here is format-agnostic: the file's owner supplies its
 * magic and layout; this layer owns hashing and durable IO.
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

/** Thrown on IO failures. */
class SectionError : public std::runtime_error
{
  public:
    explicit SectionError(const std::string &what)
        : std::runtime_error("sections: " + what)
    {}
};

/**
 * Value checksummed files stamp as their endianness witness, so a
 * foreign-endian file is rejected instead of misparsed.
 */
inline constexpr std::uint32_t kLittleEndianTag = 0x0A0B0C0D;

/**
 * xxHash64 (Yann Collet's XXH64, the standard single-shot variant) —
 * implemented in-repo because the toolchain image carries no xxhash
 * package. Verified against the reference vectors in test_corpus.
 */
std::uint64_t xxh64(const void *data, std::size_t len,
                    std::uint64_t seed = 0);

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
