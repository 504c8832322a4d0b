#include "corpus/sections.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "testing/fault.h"

namespace facile::corpus {

// ---- xxHash64 --------------------------------------------------------------

namespace {

constexpr std::uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr std::uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr std::uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline std::uint64_t
rotl64(std::uint64_t x, int r)
{
    return (x << r) | (x >> (64 - r));
}

inline std::uint64_t
readU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, 8);
    return v;
}

inline std::uint32_t
readU32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

inline std::uint64_t
round1(std::uint64_t acc, std::uint64_t input)
{
    acc += input * kPrime2;
    acc = rotl64(acc, 31);
    acc *= kPrime1;
    return acc;
}

inline std::uint64_t
mergeRound(std::uint64_t acc, std::uint64_t val)
{
    acc ^= round1(0, val);
    acc = acc * kPrime1 + kPrime4;
    return acc;
}

} // namespace

std::uint64_t
xxh64(const void *data, std::size_t len, std::uint64_t seed)
{
    const auto *p = static_cast<const std::uint8_t *>(data);
    const std::uint8_t *const end = p + len;
    std::uint64_t h;

    if (len >= 32) {
        const std::uint8_t *const limit = end - 32;
        std::uint64_t v1 = seed + kPrime1 + kPrime2;
        std::uint64_t v2 = seed + kPrime2;
        std::uint64_t v3 = seed;
        std::uint64_t v4 = seed - kPrime1;
        do {
            v1 = round1(v1, readU64(p));
            v2 = round1(v2, readU64(p + 8));
            v3 = round1(v3, readU64(p + 16));
            v4 = round1(v4, readU64(p + 24));
            p += 32;
        } while (p <= limit);
        h = rotl64(v1, 1) + rotl64(v2, 7) + rotl64(v3, 12) +
            rotl64(v4, 18);
        h = mergeRound(h, v1);
        h = mergeRound(h, v2);
        h = mergeRound(h, v3);
        h = mergeRound(h, v4);
    } else {
        h = seed + kPrime5;
    }

    h += static_cast<std::uint64_t>(len);
    while (p + 8 <= end) {
        h ^= round1(0, readU64(p));
        h = rotl64(h, 27) * kPrime1 + kPrime4;
        p += 8;
    }
    if (p + 4 <= end) {
        h ^= static_cast<std::uint64_t>(readU32(p)) * kPrime1;
        h = rotl64(h, 23) * kPrime2 + kPrime3;
        p += 4;
    }
    while (p < end) {
        h ^= static_cast<std::uint64_t>(*p) * kPrime5;
        h = rotl64(h, 11) * kPrime1;
        ++p;
    }

    h ^= h >> 33;
    h *= kPrime2;
    h ^= h >> 29;
    h *= kPrime3;
    h ^= h >> 32;
    return h;
}

// ---- section table codec ---------------------------------------------------

std::vector<std::uint8_t>
encodeSectionTable(const std::vector<SectionEntry> &entries)
{
    std::vector<std::uint8_t> out(entries.size() * sizeof(SectionEntry));
    if (!entries.empty())
        std::memcpy(out.data(), entries.data(), out.size());
    return out;
}

std::vector<SectionEntry>
decodeSectionTable(const std::uint8_t *data, std::size_t size,
                   std::uint32_t count, std::uint64_t fileBytes)
{
    if (size / sizeof(SectionEntry) < count)
        throw SectionError("truncated section table");
    std::vector<SectionEntry> entries(count);
    if (count)
        std::memcpy(entries.data(), data,
                    count * sizeof(SectionEntry));
    for (const SectionEntry &e : entries) {
        if (e.offset > fileBytes || e.length > fileBytes - e.offset)
            throw SectionError("section payload out of bounds");
        if (e.reserved[0] || e.reserved[1] || e.reserved[2])
            throw SectionError("nonzero reserved section field");
    }
    return entries;
}

// ---- durable buffered writer -----------------------------------------------

std::string
generationPath(const std::string &path, int gen)
{
    return gen <= 0 ? path : path + ".g" + std::to_string(gen);
}

void
fsyncParentDir(const std::string &path)
{
    const std::size_t slash = path.find_last_of('/');
    const std::string dir =
        slash == std::string::npos ? "." : path.substr(0, slash + 1);
    const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (dfd >= 0) {
        ::fsync(dfd);
        ::close(dfd);
    }
}

AtomicFileWriter::AtomicFileWriter(std::string path,
                                   std::string sitePrefix,
                                   int generations)
    : path_(std::move(path)),
      site_(std::move(sitePrefix)),
      generations_(std::max(1, generations))
{
    // Pid-suffixed temp name so concurrent savers sharing a target
    // path cannot tear each other's staging file.
    tmp_ = path_ + ".tmp." +
           std::to_string(static_cast<long>(::getpid()));
    const auto fa = testing::faultPoint((site_ + ".open").c_str(), 0);
    if (fa.err) {
        errno = fa.err;
        f_ = nullptr;
    } else {
        f_ = std::fopen(tmp_.c_str(), "wb");
    }
    if (!f_)
        throw SectionError("cannot create " + tmp_);
}

AtomicFileWriter::~AtomicFileWriter()
{
    if (!committed_)
        abort();
}

void
AtomicFileWriter::abort() noexcept
{
    if (f_) {
        std::fclose(f_);
        f_ = nullptr;
    }
    std::remove(tmp_.c_str());
}

void
AtomicFileWriter::write(const void *data, std::size_t len)
{
    const std::uint8_t *p = static_cast<const std::uint8_t *>(data);
    while (len > 0) {
        if (buf_.size() == kWriteBuf)
            flush();
        const std::size_t take = std::min(len, kWriteBuf - buf_.size());
        buf_.insert(buf_.end(), p, p + take);
        p += take;
        len -= take;
    }
}

void
AtomicFileWriter::flush()
{
    if (buf_.empty())
        return;
    // Torn-write injection point: a clamp cuts the staging file short,
    // an errno fails the write outright — either way nothing has
    // touched the target path yet and every generation stays loadable.
    const auto fa =
        testing::faultPoint((site_ + ".write").c_str(), buf_.size());
    bool ok;
    if (fa.err) {
        errno = fa.err;
        ok = false;
    } else {
        const std::size_t n = std::min(buf_.size(), fa.clamp);
        ok = std::fwrite(buf_.data(), 1, n, f_) == n && n == buf_.size();
    }
    if (!ok) {
        abort();
        throw SectionError("short write on " + tmp_);
    }
    buf_.clear();
}

void
AtomicFileWriter::commit()
{
    flush();
    // Durability before visibility: the bytes must be on stable
    // storage before the rename can make them the file readers see.
    bool ok;
    {
        const auto fa =
            testing::faultPoint((site_ + ".fsync").c_str(), 0);
        if (fa.err) {
            errno = fa.err;
            ok = false;
        } else {
            ok = std::fflush(f_) == 0 && ::fsync(::fileno(f_)) == 0;
        }
    }
    if (std::fclose(f_) != 0)
        ok = false;
    f_ = nullptr;
    if (!ok) {
        std::remove(tmp_.c_str());
        throw SectionError("fsync failed on " + tmp_);
    }

    // Rotate prior generations (path -> .g1 -> .g2, oldest renamed
    // first). A missing generation is fine; any other failure aborts
    // the save with every existing generation intact.
    for (int g = generations_ - 1; g >= 1; --g) {
        const std::string from = generationPath(path_, g - 1);
        const std::string to = generationPath(path_, g);
        int rc;
        const auto fa =
            testing::faultPoint((site_ + ".rotate").c_str(), 0);
        if (fa.err) {
            errno = fa.err;
            rc = -1;
        } else {
            rc = std::rename(from.c_str(), to.c_str());
        }
        if (rc != 0 && errno != ENOENT) {
            std::remove(tmp_.c_str());
            throw SectionError("cannot rotate " + from + " to " + to);
        }
    }

    // The commit point. If this fails after a rotation, the primary
    // name is vacant but `path.g1` holds the previous good image and
    // the loader's generation walk finds it.
    int rc;
    {
        const auto fa =
            testing::faultPoint((site_ + ".rename").c_str(), 0);
        if (fa.err) {
            errno = fa.err;
            rc = -1;
        } else {
            rc = std::rename(tmp_.c_str(), path_.c_str());
        }
    }
    if (rc != 0) {
        std::remove(tmp_.c_str());
        throw SectionError("cannot rename " + tmp_ + " to " + path_);
    }
    fsyncParentDir(path_);
    committed_ = true;
}

} // namespace facile::corpus
