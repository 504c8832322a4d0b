/**
 * @file
 * Tests for the warm-start snapshot (src/analysis/snapshot.h).
 *
 * The core contracts: (1) a saved image restores an engine's
 * prediction cache entry for entry, and the restored entries are
 * bit-identical to serial predictions; (2) a load into a warm engine
 * is an append-only no-op; (3) a *fresh process* started from a
 * snapshot serves the whole suite from the restored cache,
 * bit-identical to a cold process (child-process probes); (4)
 * corrupted, truncated, forged or old-version files are rejected
 * without importing anything, and the generation walk falls back past
 * them.
 */
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "analysis/snapshot.h"
#include "bb/basic_block.h"
#include "bhive/generator.h"
#include "corpus/sections.h"
#include "engine/engine.h"
#include "eval/harness.h"
#include "facile/predictor.h"
#include "testing/fault.h"

namespace facile {
namespace {

using eval::samePrediction;

/** A randomized suite distinct from the default evaluation seed. */
const std::vector<bhive::Benchmark> &
snapshotSuite()
{
    static const std::vector<bhive::Benchmark> suite =
        bhive::generateSuite(0x5eedfac5a9ULL, 5);
    return suite;
}

std::string
tmpPath(const char *tag)
{
    return "test_snapshot_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".bin";
}

/** TPU and TPL requests for the whole suite on every arch. */
std::vector<engine::Request>
suiteRequests()
{
    std::vector<engine::Request> reqs;
    for (uarch::UArch arch : uarch::allUArchs())
        for (const auto &b : snapshotSuite())
            for (bool loop : {false, true})
                reqs.push_back({loop ? b.bytesL : b.bytesU, arch, loop, {}});
    return reqs;
}

/** A one-lane engine whose prediction cache holds the whole suite. */
engine::PredictionEngine &
warmEngine()
{
    static engine::PredictionEngine *eng = [] {
        auto *e = new engine::PredictionEngine({.numThreads = 1});
        e->predictBatch(suiteRequests());
        return e;
    }();
    return *eng;
}

/** Order- and bit-sensitive digest of a prediction sequence. */
std::uint64_t
digestOf(const std::vector<model::Prediction> &preds)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const model::Prediction &p : preds) {
        h = analysis::fnv1a64(
            reinterpret_cast<const std::uint8_t *>(&p.throughput), 8, h);
        h = analysis::fnv1a64(
            reinterpret_cast<const std::uint8_t *>(p.componentValue.data()),
            sizeof(double) * p.componentValue.size(), h);
    }
    return h;
}

/** @p v as 16 hex digits, the form the probe children write. */
std::string
hex16(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

/** Digest of serial predictions over suiteRequests(). */
std::uint64_t
suiteDigest()
{
    model::PredictScratch &scratch = model::tlsPredictScratch();
    std::vector<model::Prediction> preds;
    for (const engine::Request &r : suiteRequests())
        preds.push_back(model::predict(bb::analyze(r.bytes, r.arch), r.loop,
                                       r.config, scratch));
    return digestOf(preds);
}

/** What a SnapshotProbe.Emit child reports. */
struct ProbeAnswer
{
    std::uint64_t serial = 0; ///< serial model::predict digest
    std::uint64_t served = 0; ///< digest of the engine's answers
    std::size_t hits = 0;     ///< of those, prediction-cache hits
};

/**
 * Run SnapshotProbe.Emit in a fresh child process of this binary with
 * @p env (`NAME='value' ` pairs) plus FACILE_SNAPSHOT_PROBE_OUT naming
 * a file for the child's answer. nullopt if the child failed.
 */
std::optional<ProbeAnswer>
runProbe(const std::string &env)
{
    // Resolved here: inside std::system's shell child /proc/self/exe
    // would name the shell, not this binary.
    char self[4096];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
    if (n <= 0)
        return std::nullopt;
    self[n] = '\0';
    static int probes = 0;
    const std::string out =
        tmpPath(("probe_out_" + std::to_string(probes++)).c_str());
    const std::string cmd = "FACILE_SNAPSHOT_PROBE_OUT='" + out + "' " +
                            env + "'" + self +
                            "' --gtest_filter=SnapshotProbe.Emit"
                            " >/dev/null 2>&1";
    std::optional<ProbeAnswer> answer;
    if (std::system(cmd.c_str()) == 0)
        if (std::FILE *f = std::fopen(out.c_str(), "r")) {
            unsigned long long serial = 0, served = 0;
            ProbeAnswer a;
            if (std::fscanf(f, "%llx %llx %zu", &serial, &served,
                            &a.hits) == 3) {
                a.serial = serial;
                a.served = served;
                answer = a;
            }
            std::fclose(f);
        }
    std::remove(out.c_str());
    return answer;
}

/**
 * Child half of the fresh-process properties: when the probe env vars
 * are set (by runProbe, in a *child* process), warm-start a one-lane
 * engine from FACILE_SNAPSHOT_PROBE_SNAP if given — starting cold,
 * as the server does, when no generation loads — serve the whole
 * suite through it, and write the serial digest, the served digest
 * and the engine's prediction-cache hit count for the parent. In a
 * normal test run the env vars are unset and this is a skip.
 */
TEST(SnapshotProbe, Emit)
{
    const char *out = std::getenv("FACILE_SNAPSHOT_PROBE_OUT");
    if (!out)
        GTEST_SKIP() << "probe mode only (spawned by runProbe)";
    engine::PredictionEngine eng({.numThreads = 1});
    if (const char *snap = std::getenv("FACILE_SNAPSHOT_PROBE_SNAP")) {
        try {
            analysis::loadSnapshot(snap, {&eng});
        } catch (const analysis::SnapshotError &) {
        }
    }
    engine::BatchStats bs;
    const std::uint64_t served =
        digestOf(eng.predictBatch(suiteRequests(), &bs));
    const std::string answer = hex16(suiteDigest()) + " " + hex16(served) +
                               " " + std::to_string(bs.predictionCacheHits) +
                               "\n";
    std::FILE *f = std::fopen(out, "w");
    ASSERT_NE(f, nullptr);
    std::fputs(answer.c_str(), f);
    std::fclose(f);
}

/** Read the whole file (for the in-memory entry-point tests). */
std::vector<std::uint8_t>
slurpFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr) << path;
    if (!f)
        return {};
    std::fseek(f, 0, SEEK_END);
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(buf.data(), 1, buf.size(), f), buf.size());
    std::fclose(f);
    return buf;
}

/** Overwrite @p path with @p bytes. */
void
writeFile(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (!bytes.empty()) {
        ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
                  bytes.size());
    }
    std::fclose(f);
}

bool
fileExists(const std::string &p)
{
    std::FILE *f = std::fopen(p.c_str(), "rb");
    if (f)
        std::fclose(f);
    return f != nullptr;
}

void
removeGenerations(const std::string &path)
{
    for (int g = 0; g < analysis::kSnapshotGenerations + 1; ++g)
        std::remove(analysis::snapshotGenerationPath(path, g).c_str());
}

/** Save warmEngine() to @p path, rotating generations. */
analysis::SnapshotStats
saveWarm(const std::string &path)
{
    return analysis::saveSnapshot(path, {&warmEngine()});
}

/** The section table of an image (validated against its size). */
std::vector<corpus::SectionEntry>
imageTable(const std::vector<std::uint8_t> &img)
{
    EXPECT_GE(img.size(), 64u);
    std::uint32_t count = 0;
    std::memcpy(&count, img.data() + 20, 4);
    return corpus::decodeSectionTable(img.data() + 64, img.size() - 64,
                                      count, img.size());
}

/** Re-stamp the header hash after forging header bytes [0, 48). */
void
restampHeader(std::vector<std::uint8_t> &img)
{
    const std::uint64_t headerHash = corpus::xxh64(img.data(), 48);
    std::memcpy(img.data() + 48, &headerHash, 8);
}

/**
 * Re-stamp the section hash, table, file size, table hash and header
 * hash of @p img after forging bytes of its predictions section, so
 * the forged image passes every checksum.
 */
void
restamp(std::vector<std::uint8_t> &img)
{
    std::vector<corpus::SectionEntry> table = imageTable(img);
    table.front().length = img.size() - table.front().offset;
    table.front().hash = corpus::xxh64(img.data() + table.front().offset,
                                       table.front().length);
    const std::vector<std::uint8_t> tbl = corpus::encodeSectionTable(table);
    std::copy(tbl.begin(), tbl.end(), img.begin() + 64);
    const std::uint64_t fileBytes = img.size();
    std::memcpy(img.data() + 24, &fileBytes, 8);
    const std::uint64_t tableHash = corpus::xxh64(tbl.data(), tbl.size());
    std::memcpy(img.data() + 40, &tableHash, 8);
    restampHeader(img);
}

/** Number of entries in @p eng's prediction cache. */
std::size_t
cacheEntries(const engine::PredictionEngine &eng)
{
    return eng.exportPredictionCache(
        [](const std::string &, const model::Prediction &) {});
}

TEST(Snapshot, SaveLoadSameProcessIsAppendOnlyNoOp)
{
    engine::PredictionEngine &eng = warmEngine();
    const std::vector<engine::Request> reqs = suiteRequests();
    const std::uint64_t before = digestOf(eng.predictBatch(reqs));
    const std::size_t entries = cacheEntries(eng);
    const std::string path = tmpPath("noop");

    const analysis::SnapshotStats saved =
        analysis::saveSnapshot(path, {&eng, 1});
    EXPECT_EQ(saved.predictions, reqs.size());
    EXPECT_GT(saved.bytes, 0u);

    const analysis::SnapshotStats loaded =
        analysis::loadSnapshot(path, {&eng, 1});
    EXPECT_EQ(loaded.predictions, saved.predictions);
    // Every key is already cached; nothing may be added or replaced.
    EXPECT_EQ(cacheEntries(eng), entries);
    engine::BatchStats bs;
    EXPECT_EQ(before, digestOf(eng.predictBatch(reqs, &bs)));
    EXPECT_EQ(bs.predictionCacheHits, reqs.size());
    std::remove(path.c_str());
}

TEST(Snapshot, EnginePredictionCacheRoundTrip)
{
    std::vector<engine::Request> batch;
    for (const auto &b : snapshotSuite())
        batch.push_back({b.bytesL, uarch::UArch::SKL, true, {}});

    engine::PredictionEngine::Options opts;
    opts.numThreads = 2;
    engine::PredictionEngine source(opts);
    const std::vector<model::Prediction> expected =
        source.predictBatch(batch);

    const std::string path = tmpPath("engine");
    const analysis::SnapshotStats saved =
        analysis::saveSnapshot(path, {&source});
    EXPECT_GE(saved.predictions, batch.size());

    engine::PredictionEngine restored(opts);
    const analysis::SnapshotStats loaded =
        analysis::loadSnapshot(path, {&restored});
    EXPECT_EQ(loaded.predictions, saved.predictions);

    engine::BatchStats bs;
    const std::vector<model::Prediction> out =
        restored.predictBatch(batch, &bs);
    EXPECT_EQ(bs.predictionCacheHits, batch.size());
    EXPECT_EQ(bs.analyzed, 0u);
    for (std::size_t i = 0; i < batch.size(); ++i)
        EXPECT_TRUE(samePrediction(out[i], expected[i])) << i;
    removeGenerations(path);
}

TEST(Snapshot, MemoryLoadMatchesFileLoad)
{
    const std::string path = tmpPath("memload");
    const analysis::SnapshotStats saved =
        analysis::saveSnapshot(path, {&warmEngine(), 1});
    const std::vector<std::uint8_t> img = slurpFile(path);
    EXPECT_EQ(img, analysis::saveSnapshotToMemory({&warmEngine()}));

    engine::PredictionEngine fromFile({.numThreads = 1});
    engine::PredictionEngine fromMemory({.numThreads = 1});
    const analysis::SnapshotStats f =
        analysis::loadSnapshot(path, {&fromFile, 1});
    const analysis::SnapshotStats m = analysis::loadSnapshotFromMemory(
        img.data(), img.size(), {&fromMemory});
    std::remove(path.c_str());
    for (const analysis::SnapshotStats &st : {f, m}) {
        EXPECT_EQ(st.predictions, saved.predictions);
        EXPECT_EQ(st.bytes, img.size());
        EXPECT_EQ(st.loadMode, analysis::SnapshotLoadMode::Loaded);
    }
    EXPECT_EQ(analysis::saveSnapshotToMemory({&fromFile}),
              analysis::saveSnapshotToMemory({&fromMemory}));
}

TEST(Snapshot, ValidateStagesEverythingAndCommitsNothing)
{
    const std::vector<std::uint8_t> good =
        analysis::saveSnapshotToMemory({&warmEngine()});
    const analysis::SnapshotStats st =
        analysis::validateSnapshot(good.data(), good.size());
    EXPECT_EQ(st.predictions, suiteRequests().size());
    EXPECT_EQ(st.loadMode, analysis::SnapshotLoadMode::None);

    // Forge the LAST entry's primary bottleneck out of range, behind
    // valid checksums: every earlier entry decodes, but a load must
    // import none of them, because the image as a whole is invalid.
    std::vector<std::uint8_t> bad = good;
    const analysis::SnapshotModel m =
        analysis::parseSnapshotModel(good.data(), good.size());
    bad[bad.size() - m.predictions.back().second.size() + 64] = 0xFF;
    restamp(bad);
    EXPECT_THROW(analysis::validateSnapshot(bad.data(), bad.size()),
                 analysis::SnapshotError);
    engine::PredictionEngine fresh({.numThreads = 1});
    EXPECT_THROW(
        analysis::loadSnapshotFromMemory(bad.data(), bad.size(), {&fresh}),
        analysis::SnapshotError);
    EXPECT_EQ(cacheEntries(fresh), 0u);
}

TEST(Snapshot, ForgedPredictionCountsCannotBloatMemory)
{
    // The hashes are plain xxh64, so an attacker can re-stamp them
    // after forging any length. An item count, key length or payload
    // length of 2^32-1 must be rejected by the bounds checks, before
    // anything of that size is allocated.
    const std::vector<std::uint8_t> good =
        analysis::saveSnapshotToMemory({&warmEngine()});
    const std::size_t sec = imageTable(good).front().offset;
    const std::uint32_t huge = 0xFFFFFFFFu;
    std::uint32_t keyLen = 0;
    std::memcpy(&keyLen, good.data() + sec + 4, 4);

    // (offset of the forged u32, also forge the table's item count)
    const std::pair<std::size_t, bool> forgeries[] = {
        {sec, true},               // item count, table agrees
        {sec, false},              // item count, table disagrees
        {sec + 4, false},          // first key length
        {sec + 8 + keyLen, false}, // first payload length
    };
    for (const auto &[off, table] : forgeries) {
        std::vector<std::uint8_t> img = good;
        std::memcpy(img.data() + off, &huge, 4);
        restamp(img);
        if (table) {
            std::vector<corpus::SectionEntry> t = imageTable(img);
            t.front().itemCount = huge;
            const std::vector<std::uint8_t> tbl =
                corpus::encodeSectionTable(t);
            std::copy(tbl.begin(), tbl.end(), img.begin() + 64);
            const std::uint64_t tableHash =
                corpus::xxh64(tbl.data(), tbl.size());
            std::memcpy(img.data() + 40, &tableHash, 8);
            restampHeader(img);
        }
        EXPECT_THROW(analysis::validateSnapshot(img.data(), img.size()),
                     analysis::SnapshotError)
            << "forged u32 at " << off;
        EXPECT_THROW(analysis::parseSnapshotModel(img.data(), img.size()),
                     analysis::SnapshotError)
            << "forged u32 at " << off;
        engine::PredictionEngine fresh({.numThreads = 1});
        EXPECT_THROW(analysis::loadSnapshotFromMemory(img.data(), img.size(),
                                                      {&fresh}),
                     analysis::SnapshotError)
            << "forged u32 at " << off;
    }
}

/**
 * The headline property: a fresh process warm-started from a snapshot
 * serves the whole suite (all nine arches, both notions) from its
 * restored prediction cache, bit-identical to a fresh cold process.
 * Each probe runs this test binary as a child — a genuinely cold
 * process.
 */
TEST(Snapshot, FreshProcessBitIdentity)
{
    const std::vector<engine::Request> reqs = suiteRequests();
    const std::string snap = tmpPath("fresh");
    const analysis::SnapshotStats saved =
        analysis::saveSnapshot(snap, {&warmEngine(), 1});
    ASSERT_EQ(saved.predictions, reqs.size());

    const std::optional<ProbeAnswer> cold = runProbe("");
    const std::optional<ProbeAnswer> warm =
        runProbe("FACILE_SNAPSHOT_PROBE_SNAP='" + snap + "' ");
    std::remove(snap.c_str());
    ASSERT_TRUE(cold && warm) << "probe child failed";
    EXPECT_EQ(cold->hits, 0u);
    EXPECT_EQ(cold->served, cold->serial);
    EXPECT_EQ(warm->hits, reqs.size())
        << "requests the restored cache answered";
    EXPECT_EQ(warm->served, cold->serial) << "restored prediction cache";
    EXPECT_EQ(warm->serial, cold->serial);
    // And all match this (differently warmed) process.
    EXPECT_EQ(cold->serial, suiteDigest());
}

TEST(Snapshot, ResaveAfterWarmStartKeepsEveryPrediction)
{
    // A fresh engine warm-started from an image and saved again at
    // once, before serving anything, writes every entry it loaded.
    const std::string snap = tmpPath("resave_src");
    const std::string resaved = tmpPath("resave_dst");
    const analysis::SnapshotStats saved =
        analysis::saveSnapshot(snap, {&warmEngine(), 1});
    engine::PredictionEngine fresh({.numThreads = 1});
    analysis::loadSnapshot(snap, {&fresh, 1});
    const analysis::SnapshotStats again =
        analysis::saveSnapshot(resaved, {&fresh, 1});
    EXPECT_EQ(again.predictions, saved.predictions);

    const std::vector<std::uint8_t> a = slurpFile(snap);
    const std::vector<std::uint8_t> b = slurpFile(resaved);
    std::remove(snap.c_str());
    std::remove(resaved.c_str());
    EXPECT_EQ(analysis::mergeSnapshotModels(
                  {analysis::parseSnapshotModel(a.data(), a.size())})
                  .predictions,
              analysis::mergeSnapshotModels(
                  {analysis::parseSnapshotModel(b.data(), b.size())})
                  .predictions);
}

// ---- crash safety: atomic writes + generation rotation + fallback ----------

/** Replace @p p with the first @p len bytes of @p full (a torn write). */
void
writeTorn(const std::string &p, const std::vector<std::uint8_t> &full,
          std::size_t len)
{
    ASSERT_LE(len, full.size());
    writeFile(p, std::vector<std::uint8_t>(
                     full.begin(),
                     full.begin() + static_cast<std::ptrdiff_t>(len)));
}

TEST(SnapshotCrashSafety, GenerationPathLayout)
{
    EXPECT_EQ(analysis::snapshotGenerationPath("snap.bin", 0),
              "snap.bin");
    EXPECT_EQ(analysis::snapshotGenerationPath("snap.bin", 1),
              "snap.bin.g1");
    EXPECT_EQ(analysis::snapshotGenerationPath("snap.bin", 2),
              "snap.bin.g2");
}

TEST(SnapshotCrashSafety, SavesRotateGenerationsAndLeaveNoTempFiles)
{
    const std::string path = tmpPath("rotate");
    removeGenerations(path);

    saveWarm(path);
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".g1")) << "one save, one generation";

    saveWarm(path);
    EXPECT_TRUE(fileExists(path + ".g1"));
    saveWarm(path);
    EXPECT_TRUE(fileExists(path + ".g2"));
    saveWarm(path);
    // kSnapshotGenerations == 3: nothing rotates beyond .g2.
    EXPECT_FALSE(fileExists(path + ".g3"));

    // The staging file never outlives a save (atomic temp + rename).
    EXPECT_FALSE(fileExists(path + ".tmp." +
                            std::to_string(::getpid())));

    // Every kept generation is independently loadable.
    for (int g = 0; g < analysis::kSnapshotGenerations; ++g) {
        const analysis::SnapshotStats st = analysis::loadSnapshot(
            analysis::snapshotGenerationPath(path, g), {});
        EXPECT_EQ(st.predictions, suiteRequests().size())
            << "generation " << g;
        EXPECT_EQ(st.generation, 0u)
            << "direct load, no fallback involved";
    }
    removeGenerations(path);
}

TEST(SnapshotCrashSafety, TornPrimaryFallsBackToPreviousGeneration)
{
    const std::string path = tmpPath("torn");
    removeGenerations(path);

    const analysis::SnapshotStats first = saveWarm(path);
    saveWarm(path); // rotates the first image to .g1
    const std::vector<std::uint8_t> primary = slurpFile(path);

    // A SIGKILL mid-write (without the atomic temp) would leave a
    // prefix of the image; emulate every interesting tear point and
    // require the loader to land on .g1 each time.
    for (const std::size_t cut :
         {std::size_t{0}, std::size_t{7}, std::size_t{31},
          primary.size() / 3, primary.size() / 2, primary.size() - 1}) {
        writeTorn(path, primary, cut);
        const analysis::SnapshotStats st = analysis::loadSnapshot(path);
        EXPECT_EQ(st.generation, 1u) << "cut " << cut;
        EXPECT_EQ(st.predictions, first.predictions) << "cut " << cut;
    }

    // With the fallback gone too, the walk must report the root cause.
    std::remove((path + ".g1").c_str());
    writeTorn(path, primary, 31);
    EXPECT_THROW(analysis::loadSnapshot(path), analysis::SnapshotError);
    removeGenerations(path);
}

TEST(SnapshotCrashSafety, FallbackWarmStartIsBitIdenticalInFreshProcess)
{
    // The chaos-restart property at snapshot granularity: a fresh
    // process pointed at a torn primary with a good .g1 behind it
    // must serve the suite from the .g1 cache, bit-identically to a
    // cold run.
    const std::string snap = tmpPath("fallback");
    removeGenerations(snap);
    saveWarm(snap);
    saveWarm(snap);
    {
        const std::vector<std::uint8_t> primary = slurpFile(snap);
        writeTorn(snap, primary, primary.size() / 2);
    }

    const std::optional<ProbeAnswer> cold = runProbe("");
    const std::optional<ProbeAnswer> warm =
        runProbe("FACILE_SNAPSHOT_PROBE_SNAP='" + snap + "' ");
    removeGenerations(snap);
    ASSERT_TRUE(cold && warm);
    EXPECT_EQ(warm->hits, suiteRequests().size());
    EXPECT_EQ(warm->served, cold->serial);
}

/**
 * Injected save-time crashes (torn staging write, failed fsync,
 * failed rotation, failed commit rename): every failure mode must
 * abort the save with the previous on-disk state fully loadable —
 * the acceptance bar "no save failure leaves the on-disk state
 * unloadable". Skips in builds without FACILE_FAULT_INJECT.
 */
TEST(SnapshotCrashSafety, InjectedSaveFailuresNeverCorruptOnDiskState)
{
    if (!testing::kFaultInjection)
        GTEST_SKIP() << "built without FACILE_FAULT_INJECT";
    testing::resetFaults();
    const std::string path = tmpPath("inject");
    removeGenerations(path);
    const analysis::SnapshotStats good = saveWarm(path);

    struct Case {
        const char *site;
        facile::testing::FaultSpec spec;
    };
    const Case cases[] = {
        {"snapshot.open", {.firstHit = 0, .count = 1, .err = EACCES}},
        {"snapshot.write", {.firstHit = 0, .count = 1, .err = ENOSPC}},
        // The torn write proper: stage only 100 bytes of the image.
        {"snapshot.write",
         {.firstHit = 0, .count = 1, .clampBytes = 100}},
        {"snapshot.fsync", {.firstHit = 0, .count = 1, .err = EIO}},
        {"snapshot.rotate", {.firstHit = 0, .count = 1, .err = EACCES}},
        {"snapshot.rename", {.firstHit = 0, .count = 1, .err = EACCES}},
    };
    for (const Case &c : cases) {
        testing::resetFaults();
        testing::armFault(c.site, c.spec);
        EXPECT_THROW(saveWarm(path), analysis::SnapshotError) << c.site;
        testing::resetFaults();
        // The failed save must not have torn what was there before...
        const analysis::SnapshotStats st = analysis::loadSnapshot(path);
        EXPECT_EQ(st.predictions, good.predictions) << c.site;
        // ...nor leaked its staging file.
        EXPECT_FALSE(fileExists(path + ".tmp." +
                                std::to_string(::getpid())))
            << c.site;
    }

    // Special case: a commit-rename failure AFTER rotation leaves the
    // primary name vacant — the generation walk must still recover
    // via .g1 (the image the rotation preserved).
    saveWarm(path); // ensure .g1 exists
    testing::armFault("snapshot.rename",
                      {.firstHit = testing::faultHits("snapshot.rename"),
                       .count = 1, .err = EACCES});
    EXPECT_THROW(saveWarm(path), analysis::SnapshotError);
    testing::resetFaults();
    EXPECT_FALSE(fileExists(path)) << "rotation moved the primary away";
    const analysis::SnapshotStats st = analysis::loadSnapshot(path);
    EXPECT_EQ(st.generation, 1u);
    EXPECT_EQ(st.predictions, good.predictions);
    removeGenerations(path);
}

TEST(SnapshotCrashSafety, InjectedReadFailureFallsBackAGeneration)
{
    // A primary that cannot be read (EIO at open) costs one step of
    // the generation walk, like a torn one. Skips in builds without
    // FACILE_FAULT_INJECT.
    if (!testing::kFaultInjection)
        GTEST_SKIP() << "built without FACILE_FAULT_INJECT";
    const std::string path = tmpPath("readfault");
    removeGenerations(path);
    const analysis::SnapshotStats first = saveWarm(path);
    saveWarm(path); // rotates the first image to .g1
    testing::resetFaults();
    testing::armFault("snapshot.read",
                      {.firstHit = 0, .count = 1, .err = EIO});
    const analysis::SnapshotStats st = analysis::loadSnapshot(path);
    testing::resetFaults();
    EXPECT_EQ(st.generation, 1u);
    EXPECT_EQ(st.predictions, first.predictions);
    removeGenerations(path);
}

// ---- the image format ------------------------------------------------------

TEST(SnapshotImage, LayoutAndLoadMode)
{
    // Header, one section table entry, one page-aligned predictions
    // section, nothing else.
    const std::vector<std::uint8_t> img =
        analysis::saveSnapshotToMemory({&warmEngine()});
    std::uint32_t version = 0;
    std::memcpy(&version, img.data() + 8, 4);
    EXPECT_EQ(version, analysis::kSnapshotVersion);
    const std::vector<corpus::SectionEntry> table = imageTable(img);
    ASSERT_EQ(table.size(), 1u);
    EXPECT_EQ(table.front().type, 3u);
    EXPECT_EQ(table.front().tag, 0u);
    EXPECT_EQ(table.front().offset % corpus::kSectionAlign, 0u);
    EXPECT_EQ(table.front().offset + table.front().length, img.size());
    EXPECT_EQ(table.front().itemCount, suiteRequests().size());

    // A load reports Loaded (STATS wire value 2), validation None.
    EXPECT_EQ(static_cast<int>(analysis::loadSnapshotFromMemory(
                                   img.data(), img.size())
                                   .loadMode),
              2);
    EXPECT_EQ(analysis::validateSnapshot(img.data(), img.size()).loadMode,
              analysis::SnapshotLoadMode::None);

    // An engine-less save is a valid image with no entries.
    const std::vector<std::uint8_t> empty = analysis::saveSnapshotToMemory();
    EXPECT_EQ(analysis::validateSnapshot(empty.data(), empty.size())
                  .predictions,
              0u);
}

TEST(SnapshotImage, HeaderTableAndSectionCorruptionRejected)
{
    const std::string path = tmpPath("corrupt");
    removeGenerations(path);
    saveWarm(path);
    const std::vector<std::uint8_t> file = slurpFile(path);
    ASSERT_GT(file.size(), 8192u);

    // Truncations: header, table, first section, mid-image, last byte.
    for (std::size_t cut :
         {std::size_t{0}, std::size_t{7}, std::size_t{31},
          std::size_t{63}, std::size_t{4095}, file.size() / 2,
          file.size() - 1}) {
        writeTorn(path, file, cut);
        EXPECT_THROW(analysis::loadSnapshot(path),
                     analysis::SnapshotError)
            << "truncated to " << cut;
    }

    // Single-byte header damage: magic, version, endian tag, page
    // size, section count, file size, table offset, table hash,
    // header hash, reserved tail.
    for (std::size_t off : {std::size_t{0}, std::size_t{8},
                            std::size_t{12}, std::size_t{16},
                            std::size_t{20}, std::size_t{24},
                            std::size_t{32}, std::size_t{40},
                            std::size_t{48}, std::size_t{56}}) {
        std::vector<std::uint8_t> bad = file;
        bad[off] ^= 0x01;
        writeFile(path, bad);
        EXPECT_THROW(analysis::loadSnapshot(path),
                     analysis::SnapshotError)
            << "header flip at " << off;
        EXPECT_THROW(analysis::validateSnapshot(bad.data(), bad.size()),
                     analysis::SnapshotError)
            << "header flip at " << off;
    }

    // Forged header fields behind a re-stamped header hash: the field
    // checks themselves must reject an older or newer version, a
    // foreign endian tag, a foreign page size and a second section.
    for (const auto &[off, value] :
         {std::pair<std::size_t, std::uint32_t>{8, 2},
          std::pair<std::size_t, std::uint32_t>{8, 4},
          std::pair<std::size_t, std::uint32_t>{12, 0x04030201},
          std::pair<std::size_t, std::uint32_t>{16, 8192},
          std::pair<std::size_t, std::uint32_t>{20, 2}}) {
        std::vector<std::uint8_t> bad = file;
        std::memcpy(bad.data() + off, &value, 4);
        restampHeader(bad);
        writeFile(path, bad);
        EXPECT_THROW(analysis::loadSnapshot(path),
                     analysis::SnapshotError)
            << "forged field at " << off << " = " << value;
        EXPECT_THROW(analysis::validateSnapshot(bad.data(), bad.size()),
                     analysis::SnapshotError)
            << "forged field at " << off << " = " << value;
    }

    // Table damage is caught by the table hash wherever it lands.
    for (std::size_t off = 64; off < 128; off += 13) {
        std::vector<std::uint8_t> bad = file;
        bad[off] ^= 0x80;
        writeFile(path, bad);
        EXPECT_THROW(analysis::loadSnapshot(path),
                     analysis::SnapshotError)
            << "table flip at " << off;
    }

    // No byte escapes a check: the zero padding between the table and
    // the section, and bytes appended after the section (behind a
    // re-stamped file size), are rejected too.
    for (std::size_t off : {std::size_t{128}, std::size_t{2048},
                            std::size_t{4095}}) {
        std::vector<std::uint8_t> bad = file;
        bad[off] ^= 0x01;
        EXPECT_THROW(analysis::validateSnapshot(bad.data(), bad.size()),
                     analysis::SnapshotError)
            << "padding flip at " << off;
    }
    {
        std::vector<std::uint8_t> bad = file;
        bad.push_back(0);
        const std::uint64_t fileBytes = bad.size();
        std::memcpy(bad.data() + 24, &fileBytes, 8);
        restampHeader(bad);
        EXPECT_THROW(analysis::validateSnapshot(bad.data(), bad.size()),
                     analysis::SnapshotError)
            << "trailing byte";
    }

    // The pristine image still loads (the harness is not lossy).
    writeFile(path, file);
    EXPECT_NO_THROW(analysis::loadSnapshot(path));
    removeGenerations(path);
}

TEST(SnapshotImage, SectionBitFlipsRejectAndWalkFallsBack)
{
    // A flip anywhere in the predictions section — count, a length, a
    // key, a payload — fails the section hash: every entry point
    // rejects the image, and with a good .g1 behind it the generation
    // walk loads that instead.
    const std::string path = tmpPath("flip");
    removeGenerations(path);
    const analysis::SnapshotStats first = saveWarm(path);
    saveWarm(path); // rotates the first image to .g1
    const std::vector<std::uint8_t> file = slurpFile(path);
    const corpus::SectionEntry e = imageTable(file).front();

    for (const std::size_t at :
         {std::size_t{0}, std::size_t{4}, std::size_t{9}, e.length / 3,
          e.length / 2, e.length - 1}) {
        std::vector<std::uint8_t> bad = file;
        bad[e.offset + at] ^= 0x5a;
        EXPECT_THROW(analysis::validateSnapshot(bad.data(), bad.size()),
                     analysis::SnapshotError)
            << "section byte " << at;
        engine::PredictionEngine fresh({.numThreads = 1});
        EXPECT_THROW(analysis::loadSnapshotFromMemory(bad.data(),
                                                      bad.size(), {&fresh}),
                     analysis::SnapshotError)
            << "section byte " << at;
        EXPECT_EQ(cacheEntries(fresh), 0u);

        writeFile(path, bad);
        const analysis::SnapshotStats st =
            analysis::loadSnapshot(path, {&fresh});
        EXPECT_EQ(st.generation, 1u) << "section byte " << at;
        EXPECT_EQ(st.predictions, first.predictions);
    }
    removeGenerations(path);
}

TEST(SnapshotImage, OldImagesAreRejectedAndWalkFallsBack)
{
    // The retired v1 format ("FACSNAP\n", u32 version 1, u32 sections,
    // u64 payload bytes, u64 FNV-1a checksum): this header describes
    // a well-formed empty v1 image.
    std::vector<std::uint8_t> v1(32, 0);
    std::memcpy(v1.data(), "FACSNAP\n", 8);
    const std::uint32_t version = 1;
    std::memcpy(v1.data() + 8, &version, 4);
    const std::uint64_t emptyFnv = analysis::fnv1a64(nullptr, 0);
    std::memcpy(v1.data() + 24, &emptyFnv, 8);
    // A real image of the retired record-carrying version 2, with
    // valid hashes throughout.
    const std::vector<std::uint8_t> v2 = slurpFile(FACILE_SNAPSHOT_V2_IMAGE);
    ASSERT_GT(v2.size(), 64u);

    const std::vector<std::uint8_t> *const olds[] = {&v1, &v2};
    for (const std::vector<std::uint8_t> *old : olds) {
        const std::string tag = old == &v1 ? "v1" : "v2";
        engine::PredictionEngine fresh({.numThreads = 1});
        EXPECT_THROW(analysis::loadSnapshotFromMemory(old->data(),
                                                      old->size(), {&fresh}),
                     analysis::SnapshotError)
            << tag;
        EXPECT_THROW(analysis::validateSnapshot(old->data(), old->size()),
                     analysis::SnapshotError)
            << tag;
        EXPECT_THROW(analysis::parseSnapshotModel(old->data(), old->size()),
                     analysis::SnapshotError)
            << tag;
        EXPECT_EQ(cacheEntries(fresh), 0u) << tag;

        // As the primary in front of a good .g1: the walk lands there.
        const std::string path = tmpPath(("old_" + tag).c_str());
        removeGenerations(path);
        const analysis::SnapshotStats first = saveWarm(path);
        saveWarm(path); // rotates the first image to .g1
        writeFile(path, *old);
        const analysis::SnapshotStats st =
            analysis::loadSnapshot(path, {&fresh});
        EXPECT_EQ(st.generation, 1u) << tag;
        EXPECT_EQ(st.loadMode, analysis::SnapshotLoadMode::Loaded) << tag;
        EXPECT_EQ(st.predictions, first.predictions) << tag;

        // With no older generation the load fails: the caller starts
        // cold.
        std::remove((path + ".g1").c_str());
        std::remove((path + ".g2").c_str());
        EXPECT_THROW(analysis::loadSnapshot(path), analysis::SnapshotError)
            << tag;
        if (old == &v2) {
            try {
                analysis::loadSnapshot(path, {.generations = 1});
                ADD_FAILURE() << "a v2 image loaded";
            } catch (const analysis::SnapshotError &err) {
                EXPECT_NE(std::string(err.what()).find(
                              "unsupported version 2"),
                          std::string::npos)
                    << err.what();
            }
            // A fresh process pointed at it starts cold and serves
            // the suite bit-identically to serial predict.
            const std::optional<ProbeAnswer> cold = runProbe(
                "FACILE_SNAPSHOT_PROBE_SNAP='" + path + "' ");
            ASSERT_TRUE(cold) << "probe child failed";
            EXPECT_EQ(cold->hits, 0u);
            EXPECT_EQ(cold->served, cold->serial);
            EXPECT_EQ(cold->serial, suiteDigest());
        }
        removeGenerations(path);
    }
}

TEST(SnapshotImage, ModelRoundTripIsByteIdentical)
{
    // The contract snaptool merge/compact rely on:
    // buildSnapshotImage(parseSnapshotModel(img)) == img, bit for bit,
    // and the parsed model carries exactly the engine's cache entries.
    engine::PredictionEngine &eng = warmEngine();
    const std::vector<std::uint8_t> img =
        analysis::saveSnapshotToMemory({&eng});
    const analysis::SnapshotModel m =
        analysis::parseSnapshotModel(img.data(), img.size());
    EXPECT_EQ(analysis::buildSnapshotImage(m), img);
    EXPECT_EQ(m.predictions, analysis::snapshotModelOf(&eng).predictions);
    ASSERT_EQ(m.predictions.size(), suiteRequests().size());

    // A payload that is not a PREDICT response cannot be written.
    analysis::SnapshotModel bad = m;
    bad.predictions.front().second.resize(8);
    EXPECT_THROW(analysis::buildSnapshotImage(bad), analysis::SnapshotError);
}

TEST(SnapshotImage, MergeIsASortedConflictCheckedUnion)
{
    analysis::SnapshotModel m = analysis::snapshotModelOf(&warmEngine());
    ASSERT_GE(m.predictions.size(), 4u);
    const std::size_t mid = m.predictions.size() / 2;
    analysis::SnapshotModel a, b;
    a.predictions.assign(m.predictions.begin(),
                         m.predictions.begin() +
                             static_cast<std::ptrdiff_t>(mid + 1));
    b.predictions.assign(m.predictions.begin() +
                             static_cast<std::ptrdiff_t>(mid - 1),
                         m.predictions.end());
    const analysis::SnapshotModel ab = analysis::mergeSnapshotModels({a, b});
    EXPECT_EQ(ab.predictions,
              analysis::mergeSnapshotModels({b, a}).predictions);
    EXPECT_EQ(ab.predictions, analysis::mergeSnapshotModels({m}).predictions);
    EXPECT_EQ(ab.predictions.size(), m.predictions.size());
    EXPECT_TRUE(std::is_sorted(ab.predictions.begin(), ab.predictions.end()));

    // Same key, different payload: a content conflict.
    b.predictions.front().second[0] ^= 1;
    try {
        analysis::mergeSnapshotModels({a, b});
        ADD_FAILURE() << "conflicting inputs merged";
    } catch (const analysis::SnapshotError &e) {
        EXPECT_NE(std::string(e.what()).find("merge conflict"),
                  std::string::npos);
    }
}

} // namespace
} // namespace facile
