/**
 * @file
 * End-to-end tests for facile_snaptool (src/tools/facile_snaptool.cc),
 * driving the real binary (FACILE_SNAPTOOL_PATH, injected by CMake)
 * through popen. The contracts: verify is exit-code-truthful on every
 * corruption class and on images of the retired v1 and v2 formats;
 * merge is a commutative union that rejects content conflicts;
 * compact is a lossless sorted rewrite; merge/compact honour --dry-run
 * by writing nothing.
 */
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "analysis/snapshot.h"
#include "bhive/generator.h"
#include "engine/engine.h"
#include "uarch/config.h"

namespace facile {
namespace {

struct RunResult {
    int status = -1;
    std::string out;
};

/** Run the snaptool with @p args, capturing exit status and output. */
RunResult
snaptool(const std::string &args)
{
    RunResult r;
    const std::string cmd =
        std::string(FACILE_SNAPTOOL_PATH) + " " + args + " 2>&1";
    std::FILE *p = ::popen(cmd.c_str(), "r");
    if (!p)
        return r;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof buf, p)) > 0)
        r.out.append(buf, n);
    const int rc = ::pclose(p);
    r.status = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    return r;
}

std::string
tmpPath(const char *tag)
{
    return "test_snaptool_" + std::string(tag) + "_" +
           std::to_string(::getpid()) + ".bin";
}

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

/** An engine whose prediction cache holds a small suite, all arches. */
engine::PredictionEngine &
warmEngine()
{
    static engine::PredictionEngine *eng = [] {
        auto *e = new engine::PredictionEngine({.numThreads = 1});
        std::vector<engine::Request> reqs;
        for (uarch::UArch arch : uarch::allUArchs())
            for (const auto &b : bhive::generateSuite(0x700157001ULL, 4)) {
                reqs.push_back({b.bytesU, arch, false, {}});
                reqs.push_back({b.bytesL, arch, true, {}});
            }
        e->predictBatch(reqs);
        return e;
    }();
    return *eng;
}

/** Path of a saved snapshot of warmEngine() (saved once, then cached). */
std::string
savedSnapshot()
{
    static std::string path;
    if (path.empty()) {
        path = tmpPath("fixture");
        analysis::saveSnapshot(path, {&warmEngine(), 1});
    }
    return path;
}

TEST(Snaptool, UsageErrorsExitTwo)
{
    EXPECT_EQ(snaptool("").status, 2);
    EXPECT_EQ(snaptool("frobnicate x").status, 2);
    EXPECT_EQ(snaptool("merge missing-inputs").status, 2);
    EXPECT_EQ(snaptool("help").status, 0);
}

TEST(Snaptool, VerifyAndCorruption)
{
    const std::string v2 = savedSnapshot();

    const RunResult ok = snaptool("verify " + v2);
    EXPECT_EQ(ok.status, 0) << ok.out;
    EXPECT_NE(ok.out.find("OK   " + v2), std::string::npos) << ok.out;

    // Every corruption class must flip the exit code: truncation,
    // header damage, table damage, payload bit flip.
    {
        const std::vector<std::uint8_t> img = slurpFile(v2);
        const std::string bad = tmpPath("verify_bad");
        struct Case {
            const char *what;
            std::size_t cut;   // SIZE_MAX = no truncation
            std::size_t flip;  // byte to xor when not truncating
        };
        const Case cases[] = {
            {"empty", 0, 0},
            {"header cut", 16, 0},
            {"tail cut", img.size() - 1, 0},
            {"magic flip", SIZE_MAX, 0},
            {"header flip", SIZE_MAX, 9},
            {"payload flip", SIZE_MAX, img.size() / 2},
            {"tail flip", SIZE_MAX, img.size() - 1},
        };
        for (const Case &c : cases) {
            std::vector<std::uint8_t> mut = img;
            if (c.cut != SIZE_MAX)
                mut.resize(c.cut);
            else
                mut[c.flip] ^= 0x40;
            writeFile(bad, mut);
            const RunResult r = snaptool("verify " + bad);
            EXPECT_EQ(r.status, 1) << c.what << "\n" << r.out;
            EXPECT_NE(r.out.find("FAIL"), std::string::npos) << c.what;
        }
        std::remove(bad.c_str());
    }

    // A well-formed empty image of the retired v1 format ("FACSNAP\n",
    // version 1, no sections, FNV-1a of the empty payload) is a FAIL,
    // and it fails the whole run even next to a good image.
    {
        std::vector<std::uint8_t> v1(32, 0);
        std::memcpy(v1.data(), "FACSNAP\n", 8);
        const std::uint32_t version = 1;
        std::memcpy(v1.data() + 8, &version, 4);
        const std::uint64_t emptyFnv = analysis::fnv1a64(nullptr, 0);
        std::memcpy(v1.data() + 24, &emptyFnv, 8);
        const std::string old = tmpPath("verify_v1");
        writeFile(old, v1);
        const RunResult r = snaptool("verify " + v2 + " " + old);
        EXPECT_EQ(r.status, 1) << r.out;
        EXPECT_NE(r.out.find("FAIL " + old), std::string::npos) << r.out;
        std::remove(old.c_str());
    }

    // So is a real image of the retired record-carrying version 2.
    {
        const std::string old = FACILE_SNAPSHOT_V2_IMAGE;
        const RunResult r = snaptool("verify " + v2 + " " + old);
        EXPECT_EQ(r.status, 1) << r.out;
        EXPECT_NE(r.out.find("unsupported version 2"), std::string::npos)
            << r.out;
    }

    // A missing file is a FAIL, not a crash.
    EXPECT_EQ(snaptool("verify does-not-exist.bin").status, 1);
}

TEST(Snaptool, DumpShowsLayout)
{
    const std::string v2 = savedSnapshot();
    const RunResult r = snaptool("dump " + v2);
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("format:      v3"), std::string::npos) << r.out;
    EXPECT_NE(r.out.find("predictions: " +
                         std::to_string(analysis::snapshotModelOf(&warmEngine())
                                            .predictions.size())),
              std::string::npos)
        << r.out;
    // The one section is listed.
    EXPECT_NE(r.out.find("sections:    1"), std::string::npos) << r.out;

    const RunResult hex = snaptool("dump --hex " + v2);
    EXPECT_EQ(hex.status, 0);
    EXPECT_NE(hex.out.find("header hex:"), std::string::npos);
}

TEST(Snaptool, DryRunWritesNothing)
{
    const std::string v2 = savedSnapshot();
    const std::string out = tmpPath("dryrun_out");
    std::remove(out.c_str());

    const RunResult r = snaptool("merge " + out + " " + v2 + " --dry-run");
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_NE(r.out.find("would write"), std::string::npos) << r.out;
    EXPECT_FALSE(fileExists(out));

    const std::vector<std::uint8_t> before = slurpFile(v2);
    EXPECT_EQ(snaptool("compact " + v2 + " --dry-run").status, 0);
    EXPECT_EQ(slurpFile(v2), before) << "in-place dry run mutated input";
}

/** Split the fixture into two overlapping-or-disjoint partial images. */
void
splitFixture(const std::string &outA, const std::string &outB,
             bool overlap)
{
    const std::string full = savedSnapshot();
    const std::vector<std::uint8_t> img = slurpFile(full);
    const analysis::SnapshotModel m =
        analysis::parseSnapshotModel(img.data(), img.size());
    ASSERT_GE(m.predictions.size(), 4u);

    const std::size_t mid = m.predictions.size() / 2;
    analysis::SnapshotModel a, b;
    for (std::size_t i = 0; i < m.predictions.size(); ++i) {
        // With overlap, a band around the midpoint lands in both.
        const bool inA = i < mid + (overlap ? 1 : 0);
        const bool inB = i >= mid - (overlap ? 1 : 0);
        if (inA)
            a.predictions.push_back(m.predictions[i]);
        if (inB)
            b.predictions.push_back(m.predictions[i]);
    }
    writeFile(outA, analysis::buildSnapshotImage(a));
    writeFile(outB, analysis::buildSnapshotImage(b));
}

TEST(Snaptool, MergeIsACommutativeUnion)
{
    for (const bool overlap : {false, true}) {
        const std::string a = tmpPath(overlap ? "merge_a_o" : "merge_a");
        const std::string b = tmpPath(overlap ? "merge_b_o" : "merge_b");
        splitFixture(a, b, overlap);

        const std::string ab = tmpPath("merge_ab");
        const std::string ba = tmpPath("merge_ba");
        ASSERT_EQ(snaptool("merge " + ab + " " + a + " " + b).status, 0)
            << "overlap=" << overlap;
        ASSERT_EQ(snaptool("merge " + ba + " " + b + " " + a).status, 0);

        // Union is order-independent down to the bytes.
        EXPECT_EQ(slurpFile(ab), slurpFile(ba)) << "overlap=" << overlap;
        EXPECT_EQ(snaptool("verify " + ab).status, 0);

        // And logically identical to the full fixture it was split
        // from (the split covered every entry).
        EXPECT_EQ(
            snaptool("diff " + ab + " " +
                     savedSnapshot())
                .status,
            0)
            << "overlap=" << overlap;

        for (const std::string &p : {a, b, ab, ba})
            std::remove(p.c_str());
    }
}

TEST(Snaptool, MergeRejectsContentConflicts)
{
    const std::string full = savedSnapshot();
    const std::vector<std::uint8_t> img = slurpFile(full);
    analysis::SnapshotModel m =
        analysis::parseSnapshotModel(img.data(), img.size());
    ASSERT_FALSE(m.predictions.empty());
    // Same key, different prediction (the low byte of its throughput
    // bits): a content conflict.
    m.predictions[0].second[0] ^= 1;
    const std::string forged = tmpPath("merge_forged");
    writeFile(forged, analysis::buildSnapshotImage(m));

    const std::string out = tmpPath("merge_conflict_out");
    const RunResult r =
        snaptool("merge " + out + " " + full + " " + forged);
    EXPECT_EQ(r.status, 1) << r.out;
    EXPECT_NE(r.out.find("merge conflict"), std::string::npos) << r.out;
    EXPECT_FALSE(fileExists(out));
    std::remove(forged.c_str());
}

TEST(Snaptool, DiffReportsDirectionalDifferences)
{
    const std::string full = savedSnapshot();
    const std::string a = tmpPath("diff_a");
    const std::string b = tmpPath("diff_b");
    splitFixture(a, b, false);

    EXPECT_EQ(snaptool("diff " + full + " " + full).status, 0);
    const RunResult r = snaptool("diff " + full + " " + a);
    EXPECT_EQ(r.status, 1) << r.out;
    EXPECT_NE(r.out.find("only in A"), std::string::npos) << r.out;
    std::remove(a.c_str());
    std::remove(b.c_str());
}

TEST(Snaptool, CompactIsALosslessSortedRewrite)
{
    // A save writes entries in cache order; compact rewrites them
    // sorted by key, keeping every entry, and is then a fixed point.
    const std::string snap = savedSnapshot();
    const std::string sorted = tmpPath("compact_sorted");
    const RunResult r = snaptool("compact " + snap + " --out " + sorted);
    EXPECT_EQ(r.status, 0) << r.out;
    EXPECT_EQ(snaptool("diff " + snap + " " + sorted).status, 0);

    const std::vector<std::uint8_t> img = slurpFile(sorted);
    const analysis::SnapshotModel m =
        analysis::parseSnapshotModel(img.data(), img.size());
    EXPECT_TRUE(std::is_sorted(m.predictions.begin(), m.predictions.end()));
    EXPECT_EQ(m.predictions.size(),
              analysis::snapshotModelOf(&warmEngine()).predictions.size());
    engine::PredictionEngine fresh({.numThreads = 1});
    EXPECT_EQ(analysis::loadSnapshot(sorted, {&fresh, 1}).predictions,
              m.predictions.size());

    EXPECT_EQ(snaptool("compact " + sorted).status, 0);
    EXPECT_EQ(slurpFile(sorted), img) << "compact is not a fixed point";

    // The flag that dropped the prediction section is gone: dropping
    // every entry would leave an empty image.
    EXPECT_EQ(snaptool("compact " + sorted + " --drop-predictions").status, 2);
    std::remove(sorted.c_str());
}

TEST(SnaptoolCleanup, RemoveFixtures)
{
    std::remove(savedSnapshot().c_str());
}

} // namespace
} // namespace facile
