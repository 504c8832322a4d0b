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
// The predictions section reuses the wire codec (one Prediction body
// layout in the repo, not two drifting copies).
#include "server/protocol.h"
#include "testing/fault.h"

namespace facile::analysis {

namespace {

constexpr char kMagic[8] = {'F', 'A', 'C', 'S', 'N', 'P', '2', '\n'};
constexpr std::size_t kHeaderSize = 64;
/** The one section type; 1 (records) and 2 (fused pairs) are retired. */
constexpr std::uint32_t kPredictionsSection = 3;

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
// payload: appendPredictResponse minus its frame header on the way
// out, decodePredictInto (which validates lengths and component
// ranges) on the way in.

std::vector<std::uint8_t>
encodePrediction(const model::Prediction &p)
{
    std::vector<std::uint8_t> frame;
    server::appendPredictResponse(frame, 0, p);
    return {frame.begin() + server::kResponseHeaderSize, frame.end()};
}

model::Prediction
decodePrediction(const std::uint8_t *data, std::size_t len)
{
    model::Prediction p;
    if (!server::decodePredictInto(data, len, p))
        throw SnapshotError("bad prediction entry");
    return p;
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
 * Validate an image of (@p data, @p size) — header, table, section
 * hash, every entry — and call @p visit(key, keyLen, payload, len,
 * pred) for each entry in file order, pred being the decoded payload.
 * @p name labels errors. Callers stage what they visit: an image that
 * throws part-way must not have been imported from.
 */
template <class Visit>
void
walkImage(const std::uint8_t *data, std::size_t size,
          const std::string &name, Visit &&visit)
{
    if (size < kHeaderSize)
        throw SnapshotError("truncated header in " + name);
    if (std::memcmp(data, kMagic, sizeof kMagic) != 0)
        throw SnapshotError("bad magic in " + name);
    std::uint64_t headerHash;
    std::memcpy(&headerHash, data + 48, 8);
    if (corpus::xxh64(data, 48) != headerHash)
        throw SnapshotError("header checksum mismatch in " + name);

    Reader hd{data, size, sizeof kMagic};
    const std::uint32_t version = hd.u32();
    if (version != kSnapshotVersion)
        throw SnapshotError("unsupported version " +
                            std::to_string(version) + " in " + name);
    if (hd.u32() != corpus::kLittleEndianTag)
        throw SnapshotError("foreign-endian image " + name);
    if (hd.u32() != corpus::kSectionAlign)
        throw SnapshotError("unsupported page size in " + name);
    if (hd.u32() != 1)
        throw SnapshotError("bad section count in " + name);
    if (hd.u64() != size)
        throw SnapshotError("file size mismatch in " + name);
    if (hd.u64() != kHeaderSize)
        throw SnapshotError("bad table offset in " + name);
    const std::uint64_t tableHash = hd.u64();
    hd.pos = 56; // past the header hash, checked above
    if (hd.u64() != 0)
        throw SnapshotError("nonzero reserved header field in " + name);

    constexpr std::size_t kTableEnd =
        kHeaderSize + sizeof(corpus::SectionEntry);
    if (size < kTableEnd)
        throw SnapshotError("truncated section table in " + name);
    if (corpus::xxh64(data + kHeaderSize, sizeof(corpus::SectionEntry)) !=
        tableHash)
        throw SnapshotError("table checksum mismatch in " + name);
    corpus::SectionEntry e;
    try {
        e = corpus::decodeSectionTable(data + kHeaderSize,
                                       size - kHeaderSize, 1, size)
                .front();
    } catch (const corpus::SectionError &err) {
        throw SnapshotError(std::string(err.what()) + " in " + name);
    }
    if (e.type != kPredictionsSection || e.tag != 0)
        throw SnapshotError("unknown section type " +
                            std::to_string(e.type) + " in " + name);
    if (e.offset < kTableEnd)
        throw SnapshotError("overlapping sections in " + name);
    // No byte escapes a check: the padding up to the section is zero
    // and the section runs to the end of the file.
    if (e.offset + e.length != size)
        throw SnapshotError("trailing bytes in " + name);
    if (std::any_of(data + kTableEnd, data + e.offset,
                    [](std::uint8_t b) { return b != 0; }))
        throw SnapshotError("nonzero padding in " + name);
    const std::uint8_t *sec = data + e.offset;
    if (corpus::xxh64(sec, e.length) != e.hash)
        throw SnapshotError("section checksum mismatch in " + name);

    Reader rd{sec, static_cast<std::size_t>(e.length)};
    const std::uint32_t count = rd.u32();
    // Every entry holds at least its two lengths, so a forged count
    // cannot claim more entries than the section has bytes for.
    if (count != e.itemCount || count > (rd.size - rd.pos) / 8)
        throw SnapshotError(
            "prediction count disagrees with section in " + name);
    for (std::uint32_t i = 0; i < count; ++i) {
        const std::uint32_t keyLen = rd.u32();
        const std::uint8_t *key = rd.bytes(keyLen);
        const std::uint32_t predLen = rd.u32();
        const std::uint8_t *pred = rd.bytes(predLen);
        visit(key, keyLen, pred, predLen,
              decodePrediction(pred, predLen));
    }
    if (rd.pos != rd.size)
        throw SnapshotError("section length mismatch in " + name);
}

/** Validate, stage every entry, then import them all into opts.engine. */
SnapshotStats
loadImage(const std::uint8_t *data, std::size_t size,
          const SnapshotOptions &opts, const std::string &name)
{
    std::vector<std::pair<std::string, model::Prediction>> staged;
    SnapshotStats st;
    walkImage(data, size, name,
              [&](const std::uint8_t *key, std::size_t keyLen,
                  const std::uint8_t *, std::size_t,
                  model::Prediction &&pred) {
                  ++st.predictions;
                  if (opts.engine)
                      staged.emplace_back(
                          std::string(reinterpret_cast<const char *>(key),
                                      keyLen),
                          std::move(pred));
              });
    st.bytes = size;
    st.loadMode = SnapshotLoadMode::Loaded;
    if (opts.engine)
        for (auto &[key, pred] : staged)
            opts.engine->importPredictionCacheEntry(std::move(key),
                                                    std::move(pred));
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
            [&](const std::string &key, const model::Prediction &p) {
                m.predictions.emplace_back(key, encodePrediction(p));
            });
    return m;
}

std::vector<std::uint8_t>
buildSnapshotImage(const SnapshotModel &model)
{
    std::vector<std::uint8_t> sec;
    putU32(sec, static_cast<std::uint32_t>(model.predictions.size()));
    for (const auto &[key, payload] : model.predictions) {
        decodePrediction(payload.data(), payload.size()); // validate
        putU32(sec, static_cast<std::uint32_t>(key.size()));
        sec.insert(sec.end(), key.begin(), key.end());
        putU32(sec, static_cast<std::uint32_t>(payload.size()));
        sec.insert(sec.end(), payload.begin(), payload.end());
    }

    corpus::SectionEntry e;
    e.type = kPredictionsSection;
    e.offset = corpus::kSectionAlign;
    e.length = sec.size();
    e.hash = corpus::xxh64(sec.data(), sec.size());
    e.itemCount = model.predictions.size();
    const std::vector<std::uint8_t> table = corpus::encodeSectionTable({e});

    std::vector<std::uint8_t> img(kMagic, kMagic + sizeof kMagic);
    putU32(img, kSnapshotVersion);
    putU32(img, corpus::kLittleEndianTag);
    putU32(img, corpus::kSectionAlign);
    putU32(img, 1); // section count
    putU64(img, e.offset + e.length);
    putU64(img, kHeaderSize);
    putU64(img, corpus::xxh64(table.data(), table.size()));
    putU64(img, corpus::xxh64(img.data(), 48));
    putU64(img, 0); // reserved
    img.insert(img.end(), table.begin(), table.end());
    img.resize(e.offset, 0);
    img.insert(img.end(), sec.begin(), sec.end());
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
                  const std::uint8_t *payload, std::size_t len,
                  model::Prediction &&) {
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
