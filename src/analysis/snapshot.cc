#include "analysis/snapshot.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <map>
#include <utility>
#include <vector>

#include "corpus/sections.h"
#include "engine/engine.h"
// Snapshot entries reuse the wire codec (one Prediction body layout in
// the repo, not two drifting copies).
#include "server/protocol.h"
#include "testing/fault.h"

namespace facile::analysis {

namespace {

constexpr char kMagic[8] = {'F', 'A', 'C', 'S', 'N', 'P', '2', '\n'};
/** The header hash covers every header byte before it. */
constexpr std::size_t kHashedHeader = kSnapshotHeaderSize - 8;

// ---- append helpers (little-endian; the host is asserted little-
// endian by the server protocol, and the snapshot shares that
// assumption via memcpy codecs) ---------------------------------------------

void
putU32(std::vector<std::uint8_t> &out, std::uint32_t v)
{
    const std::size_t n = out.size();
    out.resize(n + 4);
    std::memcpy(out.data() + n, &v, 4);
}

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    const std::size_t n = out.size();
    out.resize(n + 8);
    std::memcpy(out.data() + n, &v, 8);
}

/** Bounds-checked sequential reader; every overrun is a SnapshotError. */
struct Reader
{
    const std::uint8_t *data;
    std::size_t size;
    std::size_t pos = 0;

    std::uint32_t
    u32()
    {
        std::uint32_t v;
        std::memcpy(&v, bytes(4), 4);
        return v;
    }

    std::uint64_t
    u64()
    {
        std::uint64_t v;
        std::memcpy(&v, bytes(8), 8);
        return v;
    }

    const std::uint8_t *
    bytes(std::size_t n)
    {
        if (size - pos < n)
            throw SnapshotError("truncated data");
        const std::uint8_t *p = data + pos;
        pos += n;
        return p;
    }
};

// ---- Prediction codec ------------------------------------------------------
//
// Snapshot entries carry exactly the wire protocol's PREDICT response
// payload, which is also what the engine's cache holds: saves copy the
// cache's bytes, and loads check each payload with decodePredictInto
// (which validates lengths and component ranges) before importing it.

void
validatePrediction(const std::uint8_t *data, std::size_t len)
{
    model::Prediction p;
    if (!server::decodePredictInto(data, len, p))
        throw SnapshotError("bad prediction entry");
}

std::vector<std::uint8_t>
readFile(const std::string &path)
{
    std::FILE *f;
    const auto fa = testing::faultPoint("snapshot.read", 0);
    if (fa.err) {
        errno = fa.err;
        f = nullptr;
    } else {
        f = std::fopen(path.c_str(), "rb");
    }
    if (!f)
        throw SnapshotError("cannot open " + path);
    std::fseek(f, 0, SEEK_END);
    const long sz = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<std::uint8_t> buf(sz > 0 ? static_cast<std::size_t>(sz)
                                         : 0);
    if (!buf.empty() && std::fread(buf.data(), 1, buf.size(), f) !=
                            buf.size()) {
        std::fclose(f);
        throw SnapshotError("short read on " + path);
    }
    std::fclose(f);
    return buf;
}

/**
 * Validate an image of (@p data, @p size) — header, entries hash,
 * every entry — and call @p visit(key, keyLen, payload, len) for each
 * entry in file order. @p name
 * labels errors. Callers stage what they visit: an image that throws
 * part-way must not have been imported from. Returns the entries hash.
 */
template <class Visit>
std::uint64_t
walkImage(const std::uint8_t *data, std::size_t size,
          const std::string &name, Visit &&visit)
{
    if (size < kSnapshotHeaderSize)
        throw SnapshotError("truncated header in " + name);
    if (std::memcmp(data, kMagic, sizeof kMagic) != 0)
        throw SnapshotError("bad magic in " + name);
    Reader hd{data, size, sizeof kMagic};
    const std::uint32_t version = hd.u32();
    if (version != kSnapshotVersion)
        throw SnapshotError("unsupported version " +
                            std::to_string(version) + " in " + name);
    if (hd.u32() != corpus::kLittleEndianTag)
        throw SnapshotError("foreign-endian image " + name);
    const std::uint64_t fileBytes = hd.u64();
    const std::uint64_t count = hd.u64();
    const std::uint64_t entriesHash = hd.u64();
    const std::uint64_t reserved = hd.u64();
    if (corpus::xxh64(data, kHashedHeader) != hd.u64())
        throw SnapshotError("header checksum mismatch in " + name);
    if (fileBytes != size)
        throw SnapshotError("file size mismatch in " + name);
    if (reserved != 0)
        throw SnapshotError("nonzero reserved header field in " + name);

    Reader rd{data + kSnapshotHeaderSize, size - kSnapshotHeaderSize};
    if (corpus::xxh64(rd.data, rd.size) != entriesHash)
        throw SnapshotError("entries checksum mismatch in " + name);
    // Every entry holds at least its two lengths, so a forged count
    // cannot claim more entries than the image has bytes for.
    if (count > rd.size / 8)
        throw SnapshotError("entry count exceeds image size in " + name);
    for (std::uint64_t i = 0; i < count; ++i) {
        const std::uint32_t keyLen = rd.u32();
        const std::uint8_t *key = rd.bytes(keyLen);
        const std::uint32_t predLen = rd.u32();
        const std::uint8_t *pred = rd.bytes(predLen);
        validatePrediction(pred, predLen);
        visit(key, keyLen, pred, predLen);
    }
    if (rd.pos != rd.size)
        throw SnapshotError("trailing bytes in " + name);
    return entriesHash;
}

/** Validate every entry, then import them all into opts.engine. */
SnapshotStats
loadImage(const std::uint8_t *data, std::size_t size,
          const SnapshotOptions &opts, const std::string &name)
{
    struct Staged
    {
        const std::uint8_t *key;
        std::size_t keyLen;
        const std::uint8_t *payload;
        std::size_t len;
    };
    std::vector<Staged> staged;
    SnapshotStats st;
    st.entriesHash = walkImage(
        data, size, name,
        [&](const std::uint8_t *key, std::size_t keyLen,
            const std::uint8_t *payload, std::size_t len) {
            ++st.predictions;
            if (opts.engine)
                staged.push_back({key, keyLen, payload, len});
        });
    st.bytes = size;
    st.loadMode = SnapshotLoadMode::Loaded;
    for (const Staged &e : staged)
        opts.engine->importPredictionCacheEntry(e.key, e.keyLen, e.payload,
                                                e.len);
    return st;
}

} // namespace

std::string
snapshotGenerationPath(const std::string &path, int gen)
{
    return corpus::generationPath(path, gen);
}

std::uint64_t
fnv1a64(const std::uint8_t *data, std::size_t len, std::uint64_t seed)
{
    std::uint64_t h = seed;
    for (std::size_t i = 0; i < len; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

SnapshotModel
snapshotModelOf(const engine::PredictionEngine *engine)
{
    SnapshotModel m;
    if (engine)
        engine->exportPredictionCache(
            [&](const std::uint8_t *key, std::size_t keyLen,
                const std::uint8_t *payload, std::size_t len) {
                m.predictions.emplace_back(
                    std::string(reinterpret_cast<const char *>(key), keyLen),
                    std::vector<std::uint8_t>(payload, payload + len));
            });
    return m;
}

std::vector<std::uint8_t>
buildSnapshotImage(const SnapshotModel &model)
{
    std::vector<std::uint8_t> img(kSnapshotHeaderSize, 0);
    for (const auto &[key, payload] : model.predictions) {
        validatePrediction(payload.data(), payload.size());
        putU32(img, static_cast<std::uint32_t>(key.size()));
        img.insert(img.end(), key.begin(), key.end());
        putU32(img, static_cast<std::uint32_t>(payload.size()));
        img.insert(img.end(), payload.begin(), payload.end());
    }

    std::vector<std::uint8_t> hd(kMagic, kMagic + sizeof kMagic);
    putU32(hd, kSnapshotVersion);
    putU32(hd, corpus::kLittleEndianTag);
    putU64(hd, img.size());
    putU64(hd, model.predictions.size());
    putU64(hd, corpus::xxh64(img.data() + kSnapshotHeaderSize,
                             img.size() - kSnapshotHeaderSize));
    putU64(hd, 0); // reserved
    putU64(hd, corpus::xxh64(hd.data(), kHashedHeader));
    std::copy(hd.begin(), hd.end(), img.begin());
    return img;
}

SnapshotStats
saveSnapshot(const std::string &path, const SnapshotOptions &opts)
{
    const SnapshotModel m = snapshotModelOf(opts.engine);
    const std::vector<std::uint8_t> img = buildSnapshotImage(m);
    try {
        corpus::AtomicFileWriter writer(path, "snapshot",
                                        std::max(1, opts.generations));
        writer.write(img.data(), img.size());
        writer.commit();
    } catch (const corpus::SectionError &e) {
        // Keep the subsystem's exception type: callers (and the fault
        // matrices) catch SnapshotError for every failed save.
        throw SnapshotError(e.what());
    }
    SnapshotStats st;
    st.predictions = m.predictions.size();
    st.bytes = img.size();
    return st;
}

std::vector<std::uint8_t>
saveSnapshotToMemory(const SnapshotOptions &opts)
{
    return buildSnapshotImage(snapshotModelOf(opts.engine));
}

SnapshotStats
loadSnapshot(const std::string &path, const SnapshotOptions &opts)
{
    // Walk the generation chain newest-first and warm-start from the
    // first image that validates. Nothing is imported from a failing
    // image, so a torn primary costs only the attempt.
    const int gens = std::max(1, opts.generations);
    std::string firstError;
    for (int g = 0; g < gens; ++g) {
        const std::string cand = snapshotGenerationPath(path, g);
        try {
            const std::vector<std::uint8_t> img = readFile(cand);
            SnapshotStats st = loadImage(img.data(), img.size(), opts, cand);
            st.generation = static_cast<std::size_t>(g);
            return st;
        } catch (const SnapshotError &e) {
            if (firstError.empty())
                firstError = e.what();
        }
    }
    throw SnapshotError("no loadable generation of " + path + " (" +
                        firstError + ")");
}

SnapshotStats
loadSnapshotFromMemory(const std::uint8_t *data, std::size_t size,
                       const SnapshotOptions &opts)
{
    return loadImage(data, size, opts, "<memory>");
}

SnapshotStats
validateSnapshot(const std::uint8_t *data, std::size_t size)
{
    SnapshotStats st = loadImage(data, size, {}, "<memory>");
    st.loadMode = SnapshotLoadMode::None;
    return st;
}

SnapshotModel
parseSnapshotModel(const std::uint8_t *data, std::size_t size)
{
    SnapshotModel m;
    walkImage(data, size, "<memory>",
              [&](const std::uint8_t *key, std::size_t keyLen,
                  const std::uint8_t *payload, std::size_t len) {
                  m.predictions.emplace_back(
                      std::string(reinterpret_cast<const char *>(key),
                                  keyLen),
                      std::vector<std::uint8_t>(payload, payload + len));
              });
    return m;
}

SnapshotModel
mergeSnapshotModels(const std::vector<SnapshotModel> &models)
{
    std::map<std::string, std::vector<std::uint8_t>> set;
    for (std::size_t i = 0; i < models.size(); ++i)
        for (const auto &[key, payload] : models[i].predictions) {
            const auto [it, inserted] = set.try_emplace(key, payload);
            if (!inserted && it->second != payload)
                throw SnapshotError(
                    "merge conflict: two different predictions for one "
                    "key (input " +
                    std::to_string(i) + ")");
        }
    SnapshotModel m;
    m.predictions.assign(set.begin(), set.end());
    return m;
}

} // namespace facile::analysis
