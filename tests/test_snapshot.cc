/**
 * @file
 * Tests for the warm-start snapshot (src/analysis/snapshot.h).
 *
 * The core contracts: (1) a saved image round-trips every InstRecord
 * field bit-for-bit on all nine arches; (2) save → load in the same
 * process is an append-only
 * no-op (existing records win; predictions stay bit-identical); (3) a
 * *fresh process* started from a snapshot produces bit-identical
 * predictions to a cold process over the full suite on all nine
 * arches (child-process probes); (4) corrupted, truncated, or
 * version-mismatched files are rejected without importing anything;
 * (5) a restored engine prediction cache serves hits immediately.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/intern.h"
#include "analysis/snapshot.h"
#include "corpus/sections.h"
#include "testing/fault.h"
#include "bb/basic_block.h"
#include "bhive/generator.h"
#include "engine/engine.h"
#include "eval/harness.h"
#include "facile/predictor.h"

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

/** Analyze the suite on every arch so the interners have content. */
void
populateInterners()
{
    static const bool done = [] {
        for (uarch::UArch arch : uarch::allUArchs())
            for (const auto &b : snapshotSuite()) {
                bb::analyze(b.bytesU, arch);
                bb::analyze(b.bytesL, arch);
            }
        return true;
    }();
    (void)done;
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

/**
 * Run the probe test @p filter of this binary in a fresh child process
 * whose interners are empty, with @p env (`NAME='value' ` pairs) plus
 * FACILE_SNAPSHOT_PROBE_OUT naming a file for the child's answer.
 * Returns what the child wrote there, or "" if it failed.
 */
std::string
runProbe(const std::string &env, const char *filter = "SnapshotProbe.Emit")
{
    // Resolved here: inside std::system's shell child /proc/self/exe
    // would name the shell, not this binary.
    char self[4096];
    const ssize_t n = ::readlink("/proc/self/exe", self, sizeof self - 1);
    if (n <= 0)
        return "";
    self[n] = '\0';
    static int probes = 0;
    const std::string out =
        tmpPath(("probe_out_" + std::to_string(probes++)).c_str());
    const std::string cmd = "FACILE_SNAPSHOT_PROBE_OUT='" + out + "' " +
                            env + "'" + self + "' --gtest_filter=" +
                            filter + " >/dev/null 2>&1";
    std::string text;
    if (std::system(cmd.c_str()) == 0)
        if (std::FILE *f = std::fopen(out.c_str(), "r")) {
            char buf[256];
            while (std::fgets(buf, sizeof buf, f))
                text += buf;
            std::fclose(f);
        }
    std::remove(out.c_str());
    return text;
}

/** The suite digest a SnapshotProbe.Emit child wrote (nullopt: failed). */
std::optional<std::uint64_t>
probeDigest(const std::string &env)
{
    unsigned long long d = 0;
    if (std::sscanf(runProbe(env).c_str(), "%llx", &d) != 1)
        return std::nullopt;
    return d;
}

bool
sameRecord(const analysis::InstRecord &a, const analysis::InstRecord &b)
{
    if (a.dec.inst.mnem != b.dec.inst.mnem ||
        a.dec.inst.cc != b.dec.inst.cc ||
        a.dec.inst.nopLen != b.dec.inst.nopLen ||
        a.dec.inst.ops != b.dec.inst.ops ||
        a.dec.length != b.dec.length ||
        a.dec.opcodeOffset != b.dec.opcodeOffset ||
        a.dec.lcp != b.dec.lcp)
        return false;
    if (a.info.fusedUops != b.info.fusedUops ||
        a.info.issueUops != b.info.issueUops ||
        a.info.latency != b.info.latency ||
        a.info.needsComplexDecoder != b.info.needsComplexDecoder ||
        a.info.nAvailableSimpleDecoders !=
            b.info.nAvailableSimpleDecoders ||
        a.info.macroFusible != b.info.macroFusible ||
        a.info.eliminated != b.info.eliminated ||
        a.info.portUops.size() != b.info.portUops.size())
        return false;
    for (std::size_t i = 0; i < a.info.portUops.size(); ++i)
        if (a.info.portUops[i].ports != b.info.portUops[i].ports ||
            a.info.portUops[i].kind != b.info.portUops[i].kind)
            return false;
    if (a.rw.reads != b.rw.reads || a.rw.writes != b.rw.writes ||
        a.rw.depBreaking != b.rw.depBreaking)
        return false;
    if (a.depReads.size() != b.depReads.size())
        return false;
    for (std::size_t i = 0; i < a.depReads.size(); ++i)
        if (a.depReads[i].value != b.depReads[i].value ||
            std::memcmp(&a.depReads[i].latency, &b.depReads[i].latency,
                        sizeof(double)) != 0)
            return false;
    if (a.portMasks != b.portMasks || a.stackOp != b.stackOp ||
        a.depBreaking != b.depBreaking ||
        a.nWritesInl != b.nWritesInl || a.nDepInl != b.nDepInl)
        return false;
    if (a.nWritesInl != analysis::InstRecord::kSpilled)
        for (std::uint8_t i = 0; i < a.nWritesInl; ++i)
            if (a.writesInl[i] != b.writesInl[i])
                return false;
    if (a.nDepInl != analysis::InstRecord::kSpilled)
        for (std::uint8_t i = 0; i < a.nDepInl; ++i)
            if (a.depInl[i].value != b.depInl[i].value ||
                std::memcmp(&a.depInl[i].latency, &b.depInl[i].latency,
                            sizeof(double)) != 0)
                return false;
    return a.fuseClass == b.fuseClass && a.isJcc == b.isJcc &&
           a.jccReadsCf == b.jccReadsCf &&
           a.jccTestsSOP == b.jccTestsSOP;
}

TEST(Snapshot, SaveLoadSameProcessIsAppendOnlyNoOp)
{
    populateInterners();
    const std::uint64_t before = suiteDigest();
    const std::string path = tmpPath("noop");

    const analysis::SnapshotStats saved = analysis::saveSnapshot(path);
    EXPECT_GT(saved.records, 1000u);
    EXPECT_GT(saved.fusedPairs, 0u);
    EXPECT_GT(saved.bytes, 0u);

    const analysis::SnapshotStats loaded = analysis::loadSnapshot(path);
    EXPECT_EQ(loaded.records, saved.records);
    EXPECT_EQ(loaded.fusedPairs, saved.fusedPairs);
    // Same process: every key is already interned; nothing may append.
    EXPECT_EQ(loaded.newRecords, 0u);

    // Predictions after the load are bit-identical to before.
    EXPECT_EQ(before, suiteDigest());
    std::remove(path.c_str());
}

TEST(Snapshot, EnginePredictionCacheRoundTrip)
{
    populateInterners();
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
    std::remove(path.c_str());
}

/** Read the whole file (for the in-memory entry-point tests). */
std::vector<std::uint8_t>
slurpFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    std::vector<std::uint8_t> buf(
        static_cast<std::size_t>(std::ftell(f)));
    std::fseek(f, 0, SEEK_SET);
    EXPECT_EQ(std::fread(buf.data(), 1, buf.size(), f), buf.size());
    std::fclose(f);
    return buf;
}

/** Decode the section table of a v2 image (validated, file order). */
std::vector<corpus::SectionEntry>
v2Table(const std::vector<std::uint8_t> &img)
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
 * Write @p entries as the section table of @p img and re-stamp the
 * file size, table hash and header hash, so the forged image passes
 * every header check.
 */
void
restampTable(std::vector<std::uint8_t> &img,
             const std::vector<corpus::SectionEntry> &entries)
{
    const std::vector<std::uint8_t> tbl =
        corpus::encodeSectionTable(entries);
    std::copy(tbl.begin(), tbl.end(), img.begin() + 64);
    const std::uint64_t fileBytes = img.size();
    std::memcpy(img.data() + 24, &fileBytes, 8);
    const std::uint64_t tableHash =
        corpus::xxh64(img.data() + 64, tbl.size());
    std::memcpy(img.data() + 40, &tableHash, 8);
    restampHeader(img);
}

/** Count canonical records currently interned for @p arch. */
std::size_t
recordCount(uarch::UArch arch)
{
    std::size_t n = 0;
    analysis::InstInterner::forArch(arch).exportRecords(
        [&](const std::uint8_t *, std::size_t,
            const analysis::InstRecord &) { ++n; });
    return n;
}

TEST(Snapshot, MemoryLoadMatchesFileLoad)
{
    populateInterners();
    const std::string path = tmpPath("memload");
    const analysis::SnapshotStats saved = analysis::saveSnapshot(path);

    const std::vector<std::uint8_t> img = slurpFile(path);
    std::remove(path.c_str());
    const analysis::SnapshotStats st =
        analysis::loadSnapshotFromMemory(img.data(), img.size());
    EXPECT_EQ(st.records, saved.records);
    EXPECT_EQ(st.fusedPairs, saved.fusedPairs);
    EXPECT_EQ(st.bytes, img.size());
    // Same process: every key already interned, nothing appended.
    EXPECT_EQ(st.newRecords, 0u);
}

TEST(Snapshot, ValidateStagesEverythingAndCommitsNothing)
{
    populateInterners();
    analysis::SnapshotModel m = [] {
        const std::vector<std::uint8_t> img =
            analysis::saveSnapshotToMemory();
        return analysis::parseSnapshotModel(img.data(), img.size());
    }();

    // Forge a never-seen intern key: flip the first key byte of the
    // first record (the key is opaque to validation), so a committing
    // load WOULD append a record.
    ASSERT_FALSE(m.arches.empty());
    ASSERT_FALSE(m.arches.front().records.empty());
    m.arches.front().records.front().first[0] ^= 0xFF;
    const auto arch = static_cast<uarch::UArch>(m.arches.front().arch);
    const std::vector<std::uint8_t> img = analysis::buildSnapshotImage(m);

    // validateSnapshot: full staging pass, zero commitment.
    const std::size_t before = recordCount(arch);
    const analysis::SnapshotStats st =
        analysis::validateSnapshot(img.data(), img.size());
    EXPECT_GT(st.records, 0u);
    EXPECT_EQ(st.newRecords, 0u);
    EXPECT_EQ(recordCount(arch), before);

    // The same image, committed, appends the forged-key record.
    const analysis::SnapshotStats loaded =
        analysis::loadSnapshotFromMemory(img.data(), img.size());
    EXPECT_GE(loaded.newRecords, 1u);
    EXPECT_EQ(recordCount(arch), before + loaded.newRecords);
}

TEST(Snapshot, ForgedRecordCountCannotBloatMemory)
{
    // A records section whose table entry claims 2^48 records must be
    // rejected — and, with the clamped reserve, without first
    // attempting a count-sized allocation (the hashes are plain
    // xxh64, so an attacker can re-stamp them after forging any
    // count).
    populateInterners();
    std::vector<std::uint8_t> img = analysis::saveSnapshotToMemory();
    std::vector<corpus::SectionEntry> table = v2Table(img);
    ASSERT_FALSE(table.empty());
    ASSERT_EQ(table.front().type, 1u); // records section first
    table.front().itemCount = std::uint64_t{1} << 48;
    restampTable(img, table);

    EXPECT_THROW(analysis::validateSnapshot(img.data(), img.size()),
                 analysis::SnapshotError);
    EXPECT_THROW(analysis::loadSnapshotFromMemory(img.data(), img.size()),
                 analysis::SnapshotError);
}

/**
 * Child half of the fresh-process properties: when the probe env vars
 * are set (by runProbe, in a *child* process whose interners are
 * empty), optionally load the snapshot, predict the whole suite, and
 * write the digest for the parent. In a normal test run the env vars
 * are unset and this is a skip.
 *
 *   FACILE_SNAPSHOT_PROBE_SNAP    load this image first
 *   FACILE_SNAPSHOT_PROBE_EAGER   ... with SnapshotOptions::eagerLoad
 *   FACILE_SNAPSHOT_PROBE_ENGINE  ... into a 1-lane engine, and first
 *                                 serve the suite through it; also
 *                                 writes that digest and the engine's
 *                                 prediction-cache hit count
 *   FACILE_SNAPSHOT_PROBE_RESAVE  save again before predicting
 */
TEST(SnapshotProbe, Emit)
{
    const char *out = std::getenv("FACILE_SNAPSHOT_PROBE_OUT");
    if (!out)
        GTEST_SKIP() << "probe mode only (spawned by runProbe)";
    const std::vector<engine::Request> reqs = suiteRequests();
    engine::PredictionEngine eng({.numThreads = 1});
    const bool viaEngine =
        std::getenv("FACILE_SNAPSHOT_PROBE_ENGINE") != nullptr;
    if (const char *snap = std::getenv("FACILE_SNAPSHOT_PROBE_SNAP")) {
        analysis::SnapshotOptions so;
        so.engine = viaEngine ? &eng : nullptr;
        so.eagerLoad = std::getenv("FACILE_SNAPSHOT_PROBE_EAGER") != nullptr;
        const analysis::SnapshotStats st = analysis::loadSnapshot(snap, so);
        // A fresh process appends every record — nothing pre-existing.
        // Under the lazy v2 mmap bind nothing is appended at load
        // time at all; records materialize on first touch instead.
        if (so.eagerLoad) {
            ASSERT_EQ(st.loadMode, analysis::SnapshotLoadMode::EagerV2);
        }
        if (st.loadMode == analysis::SnapshotLoadMode::MmapV2) {
            ASSERT_EQ(st.newRecords, 0u);
        } else {
            ASSERT_EQ(st.newRecords, st.records);
        }
        ASSERT_GT(st.records, 0u);
        // Resave *immediately* — before any prediction touches a
        // record — so ResaveAfterMmapStartKeepsUniverse exercises the
        // worst case: every record still behind the lazy mmap bind.
        if (const char *re =
                std::getenv("FACILE_SNAPSHOT_PROBE_RESAVE")) {
            const analysis::SnapshotStats rs = analysis::saveSnapshot(
                re, {.generations = 1});
            ASSERT_EQ(rs.records, st.records);
            ASSERT_EQ(rs.fusedPairs, st.fusedPairs);
        }
    }
    std::string answer;
    if (viaEngine) {
        // Served from the restored prediction cache alone, before any
        // serial prediction touches a record.
        engine::BatchStats bs;
        const std::uint64_t d = digestOf(eng.predictBatch(reqs, &bs));
        answer = " " + hex16(d) + " " + std::to_string(bs.predictionCacheHits);
    }
    answer = hex16(suiteDigest()) + answer + "\n";
    std::FILE *f = std::fopen(out, "w");
    ASSERT_NE(f, nullptr);
    std::fputs(answer.c_str(), f);
    std::fclose(f);
}

/**
 * The headline property: a fresh process warm-started from a snapshot
 * produces bit-identical predictions (all nine arches, both notions)
 * to a fresh cold process, whether its records come through the mmap
 * bind, the eager parse or its restored prediction cache. Each probe
 * runs this test binary as a child — a genuinely cold process.
 */
TEST(Snapshot, FreshProcessBitIdentity)
{
    populateInterners();
    const std::vector<engine::Request> reqs = suiteRequests();
    engine::PredictionEngine eng({.numThreads = 1});
    eng.predictBatch(reqs); // fill the prediction cache the image carries
    const std::string snap = tmpPath("fresh");
    const analysis::SnapshotStats saved =
        analysis::saveSnapshot(snap, {&eng, 1});
    ASSERT_EQ(saved.predictions, reqs.size());

    const std::string at = "FACILE_SNAPSHOT_PROBE_SNAP='" + snap + "' ";
    const std::optional<std::uint64_t> cold = probeDigest("");
    const std::optional<std::uint64_t> eager =
        probeDigest(at + "FACILE_SNAPSHOT_PROBE_EAGER=1 ");
    const std::string warm =
        runProbe(at + "FACILE_SNAPSHOT_PROBE_ENGINE=1 ");
    unsigned long long mmapDigest = 0, engineDigest = 1;
    std::size_t hits = 0;
    ASSERT_EQ(std::sscanf(warm.c_str(), "%llx %llx %zu", &mmapDigest,
                          &engineDigest, &hits),
              3)
        << "warm child failed";
    ASSERT_TRUE(cold && eager);
    EXPECT_EQ(mmapDigest, *cold) << "mmap warm start";
    EXPECT_EQ(*eager, mmapDigest) << "eager load vs mmap bind";
    EXPECT_EQ(engineDigest, *cold) << "restored prediction cache";
    EXPECT_EQ(hits, reqs.size()) << "requests the restored cache answered";
    // And all match this (differently warmed) process.
    EXPECT_EQ(*cold, suiteDigest());
    std::remove(snap.c_str());
}

// ---- crash safety: atomic writes + generation rotation + fallback ----------

bool
fileExists(const std::string &p)
{
    std::FILE *f = std::fopen(p.c_str(), "rb");
    if (f)
        std::fclose(f);
    return f != nullptr;
}

/** Replace @p p with the first @p len bytes of @p full (a torn write). */
void
writeTorn(const std::string &p, const std::vector<std::uint8_t> &full,
          std::size_t len)
{
    ASSERT_LE(len, full.size());
    std::FILE *f = std::fopen(p.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    if (len > 0) {
        ASSERT_EQ(std::fwrite(full.data(), 1, len, f), len);
    }
    std::fclose(f);
}

void
removeGenerations(const std::string &path)
{
    for (int g = 0; g < analysis::kSnapshotGenerations + 1; ++g)
        std::remove(analysis::snapshotGenerationPath(path, g).c_str());
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
    populateInterners();
    const std::string path = tmpPath("rotate");
    removeGenerations(path);

    analysis::saveSnapshot(path);
    EXPECT_TRUE(fileExists(path));
    EXPECT_FALSE(fileExists(path + ".g1")) << "one save, one generation";

    analysis::saveSnapshot(path);
    EXPECT_TRUE(fileExists(path + ".g1"));
    analysis::saveSnapshot(path);
    EXPECT_TRUE(fileExists(path + ".g2"));
    analysis::saveSnapshot(path);
    // kSnapshotGenerations == 3: nothing rotates beyond .g2.
    EXPECT_FALSE(fileExists(path + ".g3"));

    // The staging file never outlives a save (atomic temp + rename).
    EXPECT_FALSE(fileExists(path + ".tmp." +
                            std::to_string(::getpid())));

    // Every kept generation is independently loadable.
    for (int g = 0; g < analysis::kSnapshotGenerations; ++g) {
        const analysis::SnapshotStats st = analysis::loadSnapshot(
            analysis::snapshotGenerationPath(path, g), {});
        EXPECT_GT(st.records, 0u) << "generation " << g;
        EXPECT_EQ(st.generation, 0u)
            << "direct load, no fallback involved";
    }
    removeGenerations(path);
}

TEST(SnapshotCrashSafety, TornPrimaryFallsBackToPreviousGeneration)
{
    populateInterners();
    const std::string path = tmpPath("torn");
    removeGenerations(path);

    const analysis::SnapshotStats first = analysis::saveSnapshot(path);
    analysis::saveSnapshot(path); // rotates the first image to .g1
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
        EXPECT_EQ(st.records, first.records) << "cut " << cut;
        // Same process, so the fallback image appends nothing — and
        // predictions stay bit-identical by the no-op property.
        EXPECT_EQ(st.newRecords, 0u);
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
    // must warm-start bit-identically to a cold run. Reuses the
    // SnapshotProbe.Emit child (it calls loadSnapshot, which walks
    // generations).
    populateInterners();
    const std::string snap = tmpPath("fallback");
    removeGenerations(snap);
    analysis::saveSnapshot(snap);
    analysis::saveSnapshot(snap);
    {
        const std::vector<std::uint8_t> primary = slurpFile(snap);
        writeTorn(snap, primary, primary.size() / 2);
    }

    const std::optional<std::uint64_t> cold = probeDigest("");
    const std::optional<std::uint64_t> warm =
        probeDigest("FACILE_SNAPSHOT_PROBE_SNAP='" + snap + "' ");
    ASSERT_TRUE(cold && warm);
    EXPECT_EQ(*cold, *warm);
    removeGenerations(snap);
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
    populateInterners();
    testing::resetFaults();
    const std::string path = tmpPath("inject");
    removeGenerations(path);
    const analysis::SnapshotStats good = analysis::saveSnapshot(path);

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
        EXPECT_THROW(analysis::saveSnapshot(path),
                     analysis::SnapshotError)
            << c.site;
        testing::resetFaults();
        // The failed save must not have torn what was there before...
        const analysis::SnapshotStats st = analysis::loadSnapshot(path);
        EXPECT_EQ(st.records, good.records) << c.site;
        // ...nor leaked its staging file.
        EXPECT_FALSE(fileExists(path + ".tmp." +
                                std::to_string(::getpid())))
            << c.site;
    }

    // Special case: a commit-rename failure AFTER rotation leaves the
    // primary name vacant — the generation walk must still recover
    // via .g1 (the image the rotation preserved).
    analysis::saveSnapshot(path); // ensure .g1 exists
    testing::armFault("snapshot.rename",
                      {.firstHit = testing::faultHits("snapshot.rename"),
                       .count = 1, .err = EACCES});
    EXPECT_THROW(analysis::saveSnapshot(path), analysis::SnapshotError);
    testing::resetFaults();
    EXPECT_FALSE(fileExists(path)) << "rotation moved the primary away";
    const analysis::SnapshotStats st = analysis::loadSnapshot(path);
    EXPECT_EQ(st.generation, 1u);
    EXPECT_EQ(st.records, good.records);
    removeGenerations(path);
}

// ---- snapshot v2: mmap-native sectioned image ------------------------------

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

TEST(SnapshotV2, RoundTripLoadModes)
{
    populateInterners();
    const std::uint64_t before = suiteDigest();
    const std::string path = tmpPath("v2_roundtrip");
    removeGenerations(path);

    const analysis::SnapshotStats saved = analysis::saveSnapshot(path);
    EXPECT_GT(saved.records, 1000u);

    // Default load: mmap + lazy bind — no records parsed, none appended.
    const auto binds = analysis::snapshotSourceStats().imagesBound;
    const analysis::SnapshotStats mm = analysis::loadSnapshot(path);
    EXPECT_EQ(mm.loadMode, analysis::SnapshotLoadMode::MmapV2);
    EXPECT_EQ(mm.records, saved.records);
    EXPECT_EQ(mm.fusedPairs, saved.fusedPairs);
    EXPECT_EQ(mm.newRecords, 0u);
    EXPECT_EQ(analysis::snapshotSourceStats().imagesBound, binds + 1);

    // Opting out of the mmap bind parses the same file eagerly.
    const analysis::SnapshotStats eager =
        analysis::loadSnapshot(path, {.eagerLoad = true});
    EXPECT_EQ(eager.loadMode, analysis::SnapshotLoadMode::EagerV2);
    EXPECT_EQ(eager.records, saved.records);
    EXPECT_EQ(eager.fusedPairs, saved.fusedPairs);

    // Wire images have no file behind them: always eager.
    const std::vector<std::uint8_t> img = slurpFile(path);
    const analysis::SnapshotStats mem =
        analysis::loadSnapshotFromMemory(img.data(), img.size());
    EXPECT_EQ(mem.loadMode, analysis::SnapshotLoadMode::EagerV2);
    EXPECT_EQ(mem.records, saved.records);

    // Every section payload starts on a page boundary.
    for (const corpus::SectionEntry &e : v2Table(img))
        EXPECT_EQ(e.offset % corpus::kSectionAlign, 0u)
            << "section type " << e.type << " tag " << e.tag;

    EXPECT_EQ(before, suiteDigest());
    removeGenerations(path);
}

TEST(SnapshotV2, HeaderTableAndTailCorruptionRejected)
{
    populateInterners();
    const std::string path = tmpPath("v2_corrupt");
    removeGenerations(path);
    analysis::saveSnapshot(path);
    const std::vector<std::uint8_t> file = slurpFile(path);
    ASSERT_GT(file.size(), 8192u);

    // Truncations: header, table, first section, mid-image, last byte.
    for (std::size_t cut :
         {std::size_t{0}, std::size_t{7}, std::size_t{31},
          std::size_t{63}, std::size_t{4095}, file.size() / 2,
          file.size() - 1}) {
        std::vector<std::uint8_t> t(file.begin(),
                                    file.begin() +
                                        static_cast<std::ptrdiff_t>(cut));
        writeFile(path, t);
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
    // foreign endian tag and a foreign page size.
    for (const auto &[off, value] :
         {std::pair<std::size_t, std::uint32_t>{8, 1},
          std::pair<std::size_t, std::uint32_t>{8, 3},
          std::pair<std::size_t, std::uint32_t>{12, 0x04030201},
          std::pair<std::size_t, std::uint32_t>{16, 8192}}) {
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
    const std::size_t tableBytes = v2Table(file).size() * 64;
    for (std::size_t off = 64; off < 64 + tableBytes; off += 13) {
        std::vector<std::uint8_t> bad = file;
        bad[off] ^= 0x80;
        writeFile(path, bad);
        EXPECT_THROW(analysis::loadSnapshot(path),
                     analysis::SnapshotError)
            << "table flip at " << off;
    }

    // The pristine image still loads (the harness is not lossy).
    writeFile(path, file);
    EXPECT_NO_THROW(analysis::loadSnapshot(path));
    removeGenerations(path);
}

TEST(SnapshotV2, SectionBitFlipsEagerRejectLazyPoison)
{
    populateInterners();
    const std::string path = tmpPath("v2_flip");
    removeGenerations(path);
    analysis::saveSnapshot(path);
    const std::vector<std::uint8_t> file = slurpFile(path);
    const std::vector<corpus::SectionEntry> table = v2Table(file);

    for (const corpus::SectionEntry &e : table) {
        std::vector<std::uint8_t> bad = file;
        bad[e.offset + e.length / 2] ^= 0x5a;

        // The deep eager walk (validateSnapshot / snaptool verify /
        // wire images) rejects a flip in ANY section.
        EXPECT_THROW(analysis::validateSnapshot(bad.data(), bad.size()),
                     analysis::SnapshotError)
            << "section type " << e.type << " tag " << e.tag;

        writeFile(path, bad);
        if (e.type == 1) {
            // Records sections are verified lazily: the mmap load
            // itself succeeds, the damaged section is poisoned on
            // first touch (covered end-to-end by the fresh-process
            // test below — here every key is already interned, so
            // the source is never consulted).
            const analysis::SnapshotStats st =
                analysis::loadSnapshot(path);
            EXPECT_EQ(st.loadMode, analysis::SnapshotLoadMode::MmapV2)
                << "tag " << e.tag;
        } else {
            // Pairs/prediction tails are verified eagerly at load.
            EXPECT_THROW(analysis::loadSnapshot(path),
                         analysis::SnapshotError)
                << "section type " << e.type << " tag " << e.tag;
        }
    }
    removeGenerations(path);
}

TEST(SnapshotV2, MisalignedImageFallsBackToEagerParse)
{
    populateInterners();
    const std::string path = tmpPath("v2_misaligned");
    removeGenerations(path);
    const analysis::SnapshotStats saved = analysis::saveSnapshot(path);
    const std::vector<std::uint8_t> file = slurpFile(path);
    const std::vector<corpus::SectionEntry> table = v2Table(file);

    // Repack the image with 8-byte instead of page-aligned sections:
    // a legal-but-unmappable layout (e.g. a foreign writer). Payload
    // bytes are untouched, so the per-section hashes still hold; only
    // the table offsets, file size, and the two header hashes change.
    std::vector<corpus::SectionEntry> packed = table;
    std::vector<std::uint8_t> img(
        file.begin(),
        file.begin() + 64 + static_cast<std::ptrdiff_t>(table.size() * 64));
    for (std::size_t i = 0; i < table.size(); ++i) {
        img.resize(corpus::alignUp(img.size(), 8), 0);
        packed[i].offset = img.size();
        img.insert(img.end(),
                   file.begin() +
                       static_cast<std::ptrdiff_t>(table[i].offset),
                   file.begin() + static_cast<std::ptrdiff_t>(
                                      table[i].offset + table[i].length));
    }
    ASSERT_LT(img.size(), file.size()) << "padding actually removed";
    restampTable(img, packed);

    writeFile(path, img);
    const analysis::SnapshotStats st = analysis::loadSnapshot(path);
    EXPECT_EQ(st.loadMode, analysis::SnapshotLoadMode::EagerV2);
    EXPECT_EQ(st.records, saved.records);
    EXPECT_EQ(st.fusedPairs, saved.fusedPairs);
    removeGenerations(path);
}

TEST(SnapshotV2, MmapFaultFallsBackToEagerParse)
{
    if (!testing::kFaultInjection)
        GTEST_SKIP() << "built without FACILE_FAULT_INJECT";
    populateInterners();
    testing::resetFaults();
    const std::string path = tmpPath("v2_mmapfault");
    removeGenerations(path);
    const analysis::SnapshotStats saved = analysis::saveSnapshot(path);

    testing::armFault("snapshot.mmap",
                      {.firstHit = testing::faultHits("snapshot.mmap"),
                       .count = 1, .err = ENOMEM});
    const analysis::SnapshotStats st = analysis::loadSnapshot(path);
    testing::resetFaults();
    EXPECT_EQ(st.loadMode, analysis::SnapshotLoadMode::EagerV2)
        << "failed mmap degrades to the parse path, never to an error";
    EXPECT_EQ(st.records, saved.records);
    removeGenerations(path);
}

TEST(SnapshotV2, V1ImageIsRejectedAndWalkFallsBack)
{
    // The retired v1 format ("FACSNAP\n", u32 version 1, u32 sections,
    // u64 payload bytes, u64 FNV-1a checksum): this header describes
    // a well-formed empty v1 image. It is not a v2 image, so every
    // entry point rejects it, and the generation walk moves past it.
    std::vector<std::uint8_t> v1(32, 0);
    std::memcpy(v1.data(), "FACSNAP\n", 8);
    const std::uint32_t version = 1;
    std::memcpy(v1.data() + 8, &version, 4);
    const std::uint64_t emptyFnv = analysis::fnv1a64(nullptr, 0);
    std::memcpy(v1.data() + 24, &emptyFnv, 8);

    EXPECT_THROW(analysis::loadSnapshotFromMemory(v1.data(), v1.size()),
                 analysis::SnapshotError);
    EXPECT_THROW(analysis::validateSnapshot(v1.data(), v1.size()),
                 analysis::SnapshotError);
    EXPECT_THROW(analysis::parseSnapshotModel(v1.data(), v1.size()),
                 analysis::SnapshotError);

    populateInterners();
    const std::string path = tmpPath("v1_primary");
    removeGenerations(path);
    const analysis::SnapshotStats first = analysis::saveSnapshot(path);
    analysis::saveSnapshot(path); // rotates the first image to .g1
    writeFile(path, v1);          // a v1 primary in front of a v2 .g1

    const analysis::SnapshotStats st = analysis::loadSnapshot(path);
    EXPECT_EQ(st.generation, 1u);
    EXPECT_EQ(st.loadMode, analysis::SnapshotLoadMode::MmapV2);
    EXPECT_EQ(st.records, first.records);

    std::remove((path + ".g1").c_str());
    EXPECT_THROW(analysis::loadSnapshot(path), analysis::SnapshotError);
    removeGenerations(path);
}

TEST(SnapshotV2, BitFlippedRecordsStayBitIdenticalInFreshProcess)
{
    // End-to-end poison property: a fresh process warm-started from a
    // v2 image whose records section is silently damaged must still
    // produce bit-identical predictions — the poisoned section falls
    // back to cold analysis per lookup instead of serving garbage.
    populateInterners();
    const std::string snap = tmpPath("v2_poison");
    removeGenerations(snap);
    analysis::saveSnapshot(snap);
    {
        std::vector<std::uint8_t> img = slurpFile(snap);
        const std::vector<corpus::SectionEntry> table = v2Table(img);
        bool flipped = false;
        for (const corpus::SectionEntry &e : table)
            if (e.type == 1 && !flipped) {
                img[e.offset + e.length / 2] ^= 0xff;
                flipped = true;
            }
        ASSERT_TRUE(flipped);
        writeFile(snap, img);
    }

    const std::optional<std::uint64_t> cold = probeDigest("");
    const std::optional<std::uint64_t> warm =
        probeDigest("FACILE_SNAPSHOT_PROBE_SNAP='" + snap + "' ");
    ASSERT_TRUE(cold && warm);
    EXPECT_EQ(*cold, *warm);
    removeGenerations(snap);
}

TEST(SnapshotV2, ResaveAfterMmapStartKeepsUniverse)
{
    // Regression: a process warm-started from an mmap'd v2 image
    // serves records through the lazily bound RecordSource, which
    // exportRecords cannot see — an immediate save used to persist
    // only the (empty) canonical arenas, silently shrinking the
    // snapshot to zero records. saveSnapshot must materialize the
    // bound sources first, so save-after-mmap-start round-trips the
    // whole universe. Only reproducible in a fresh child: this
    // process's interners are already warm.
    populateInterners();
    const std::string snap = tmpPath("v2_resave_src");
    const std::string resaved = tmpPath("v2_resave_dst");
    removeGenerations(snap);
    std::remove(resaved.c_str());
    const analysis::SnapshotStats saved = analysis::saveSnapshot(snap);

    ASSERT_FALSE(runProbe("FACILE_SNAPSHOT_PROBE_SNAP='" + snap +
                          "' FACILE_SNAPSHOT_PROBE_RESAVE='" + resaved +
                          "' ")
                     .empty())
        << "child probe failed (load or resave assertions)";

    // The child's resave carries the full universe, not just the
    // records it happened to touch.
    const std::vector<std::uint8_t> img = slurpFile(resaved);
    const analysis::SnapshotModel m =
        analysis::parseSnapshotModel(img.data(), img.size());
    std::size_t records = 0, pairs = 0;
    for (const analysis::SnapshotModel::Arch &a : m.arches) {
        records += a.records.size();
        pairs += a.fusedPairs.size();
    }
    EXPECT_EQ(records, saved.records);
    EXPECT_EQ(pairs, saved.fusedPairs);
    std::remove(resaved.c_str());
    removeGenerations(snap);
}

/**
 * Intern distinct memory-operand forms `op r, [base+index*scale+disp]`
 * (opcode, REX.W, destination, base, index, scale, displacement width)
 * on @p arch, eight per analyzed block, until @p count new records
 * have been published.
 */
void
growFormUniverse(uarch::UArch arch, std::uint64_t count)
{
    const std::uint8_t ops[] = {0x8B, 0x03, 0x2B, 0x33,
                                0x23, 0x0B, 0x3B, 0x85};
    const std::uint64_t target =
        analysis::InstInterner::statsAllArchs().records + count;
    std::vector<std::uint8_t> block;
    int inBlock = 0;
    for (std::uint32_t n = 0; n < 8 * 98304; ++n) {
        const int dispKind = n % 3;
        const int sc = (n / 3) % 4;
        const int idx = (n / 12) % 16;
        const int bas = (n / 192) % 16;
        const int dst = (n / 3072) % 16;
        const int w = (n / 49152) % 2;
        // No-index and base-less SIB encodings are other shapes.
        if (idx == 4 || (dispKind == 0 && (bas & 7) == 5))
            continue;
        block.insert(block.end(),
                     {static_cast<std::uint8_t>(0x40 | w << 3 |
                                                (dst >> 3) << 2 |
                                                (idx >> 3) << 1 | bas >> 3),
                      ops[n / 98304],
                      static_cast<std::uint8_t>(dispKind << 6 |
                                                (dst & 7) << 3 | 4),
                      static_cast<std::uint8_t>(sc << 6 | (idx & 7) << 3 |
                                                (bas & 7))});
        if (dispKind == 1)
            block.push_back(0x10);
        else if (dispKind == 2)
            block.insert(block.end(), {0x00, 0x10, 0x00, 0x00});
        if (++inBlock < 8)
            continue;
        bb::analyze(block, arch);
        block.clear();
        inBlock = 0;
        if (analysis::InstInterner::statsAllArchs().records >= target)
            return;
    }
    throw std::runtime_error("form generator exhausted");
}

/**
 * Child half of MmapLoadPublishesOnlyWhatOnePredictionTouches: load
 * FACILE_SNAPSHOT_PROBE_SNAP (eagerly with FACILE_SNAPSHOT_PROBE_EAGER),
 * predict one SKL block, and write the load mode, the image's record
 * count, the records published and borrowed from the image since
 * before the load, the block's instruction count and the records
 * sections verified.
 */
TEST(SnapshotProbe, FirstPredictCounts)
{
    const char *out = std::getenv("FACILE_SNAPSHOT_PROBE_OUT");
    const char *snap = std::getenv("FACILE_SNAPSHOT_PROBE_SNAP");
    if (!out || !snap)
        GTEST_SKIP() << "probe mode only (spawned by runProbe)";
    const analysis::InternStats s0 = analysis::InstInterner::statsAllArchs();
    const std::uint64_t v0 = analysis::snapshotSourceStats().sectionsVerified;
    analysis::SnapshotOptions so;
    so.eagerLoad = std::getenv("FACILE_SNAPSHOT_PROBE_EAGER") != nullptr;
    const analysis::SnapshotStats st = analysis::loadSnapshot(snap, so);
    const bb::BasicBlock blk =
        bb::analyze(snapshotSuite().front().bytesL, uarch::UArch::SKL);
    (void)model::predict(blk, true, {}, model::tlsPredictScratch());
    const analysis::InternStats s1 = analysis::InstInterner::statsAllArchs();
    std::FILE *f = std::fopen(out, "w");
    ASSERT_NE(f, nullptr);
    std::fprintf(
        f, "%d %zu %llu %llu %zu %llu\n", static_cast<int>(st.loadMode),
        st.records, static_cast<unsigned long long>(s1.records - s0.records),
        static_cast<unsigned long long>(s1.borrowed - s0.borrowed),
        blk.insts.size(),
        static_cast<unsigned long long>(
            analysis::snapshotSourceStats().sectionsVerified - v0));
    std::fclose(f);
}

/**
 * The mmap load's cost follows what is touched, not the image size,
 * checked by counts in fresh processes: after an mmap load and one
 * block's prediction, at most that block's records are published, all
 * borrowed from the image, and one records section is verified — also
 * when the image's form universe is ten times larger. An eager load of
 * the same image publishes every record.
 */
TEST(SnapshotV2, MmapLoadPublishesOnlyWhatOnePredictionTouches)
{
    populateInterners();
    const std::string small = tmpPath("forms_1x");
    const std::string big = tmpPath("forms_10x");
    const analysis::SnapshotStats saved =
        analysis::saveSnapshot(small, {.generations = 1});
    // Grow the universe in a forked child so this process keeps its own.
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        int rc = 1;
        try {
            growFormUniverse(uarch::UArch::SKL, 9 * saved.records);
            analysis::saveSnapshot(big, {.generations = 1});
            rc = 0;
        } catch (...) {
        }
        ::_exit(rc);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);

    struct Counts
    {
        int mode = -1;
        std::size_t image = 0, insts = 0;
        unsigned long long published = 0, borrowed = 0, verified = 0;
    };
    auto probe = [](const std::string &path, bool eager) {
        Counts c;
        const std::string text = runProbe(
            "FACILE_SNAPSHOT_PROBE_SNAP='" + path + "' " +
                (eager ? "FACILE_SNAPSHOT_PROBE_EAGER=1 " : ""),
            "SnapshotProbe.FirstPredictCounts");
        EXPECT_EQ(std::sscanf(text.c_str(), "%d %zu %llu %llu %zu %llu",
                              &c.mode, &c.image, &c.published,
                              &c.borrowed, &c.insts, &c.verified),
                  6)
            << "child failed on " << path;
        return c;
    };
    const Counts one = probe(small, false);
    const Counts ten = probe(big, false);
    const Counts eager = probe(big, true);
    std::remove(small.c_str());
    std::remove(big.c_str());

    EXPECT_EQ(one.image, saved.records);
    EXPECT_GE(ten.image, 10 * one.image);
    for (const Counts &c : {one, ten}) {
        EXPECT_EQ(c.mode,
                  static_cast<int>(analysis::SnapshotLoadMode::MmapV2));
        EXPECT_GE(c.published, 1u);
        EXPECT_LE(c.published, c.insts);
        EXPECT_EQ(c.borrowed, c.published);
        EXPECT_EQ(c.verified, 1u);
    }
    EXPECT_EQ(eager.mode,
              static_cast<int>(analysis::SnapshotLoadMode::EagerV2));
    EXPECT_EQ(eager.published, eager.image);
}

TEST(SnapshotV2, ModelRoundTripIsByteIdentical)
{
    // The contract snaptool merge/compact rely on:
    // buildSnapshotImage(parseSnapshotModel(img)) == img, bit for bit,
    // and the parsed model carries every record of every arch exactly
    // as the live interner holds it.
    populateInterners();
    const std::vector<std::uint8_t> img = analysis::saveSnapshotToMemory();
    const analysis::SnapshotModel m =
        analysis::parseSnapshotModel(img.data(), img.size());
    EXPECT_EQ(analysis::buildSnapshotImage(m), img);

    // The save materialized every bound record, so the canonical
    // arenas now hold exactly what the image holds.
    ASSERT_EQ(m.arches.size(), uarch::allUArchs().size());
    std::size_t checked = 0;
    for (const analysis::SnapshotModel::Arch &a : m.arches) {
        std::map<std::vector<std::uint8_t>, const analysis::InstRecord *>
            live;
        analysis::InstInterner::forArch(static_cast<uarch::UArch>(a.arch))
            .exportRecords([&](const std::uint8_t *bytes, std::size_t len,
                               const analysis::InstRecord &rec) {
                live.emplace(std::vector<std::uint8_t>(bytes, bytes + len),
                             &rec);
            });
        EXPECT_EQ(a.records.size(), live.size()) << "arch " << a.arch;
        for (const auto &[key, rec] : a.records) {
            const auto it = live.find(key);
            ASSERT_NE(it, live.end()) << "arch " << a.arch;
            EXPECT_TRUE(sameRecord(*it->second, rec)) << "arch " << a.arch;
            ++checked;
        }
    }
    // Each arch saw a few hundred distinct instructions.
    EXPECT_GT(checked, 1000u);
}

} // namespace
} // namespace facile
