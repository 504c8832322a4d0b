/**
 * @file
 * facile_snaptool — offline snapshot surgery (src/tools/README.md).
 *
 * Works on the parsed SnapshotModel (analysis/snapshot.h): every
 * mutating subcommand rebuilds a deterministic image from that model,
 * so an unchanged model rebuilds to the same bytes.
 *
 * Subcommands:
 *   dump <file> [--hex]                    layout + per-arch stats
 *   verify <file>...                       deep validation, CI-friendly
 *   diff <a> <b>                           logical comparison
 *   merge <out> <in>... [--dry-run]
 *   compact <in> [--out P] [--drop-predictions] [--dry-run]
 *
 * Exit codes: 0 success (verify: all valid; diff: identical),
 * 1 semantic failure (invalid image, diff mismatch, merge conflict),
 * 2 usage / IO error. Output files are written through the same
 * atomic temp-file + rename path the snapshot saver uses, so an
 * interrupted tool run never tears an existing file.
 */
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/intern.h"
#include "analysis/snapshot.h"
#include "corpus/sections.h"
#include "uarch/config.h"

namespace {

using facile::analysis::SnapshotError;
using facile::analysis::SnapshotModel;

/** Command-line misuse (bad flags, missing operands): exit 2. */
class UsageError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

/** File IO failure outside an image's own validity: exit 2. */
class IoError : public std::runtime_error
{
  public:
    using std::runtime_error::runtime_error;
};

std::vector<std::uint8_t>
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        throw IoError("cannot open " + path);
    std::fseek(f, 0, SEEK_END);
    const long len = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<std::uint8_t> buf(len > 0 ? static_cast<std::size_t>(len)
                                          : 0);
    if (!buf.empty() &&
        std::fread(buf.data(), 1, buf.size(), f) != buf.size()) {
        std::fclose(f);
        throw IoError("cannot read " + path);
    }
    std::fclose(f);
    return buf;
}

/** Atomic replace via the snapshot saver's temp + rename discipline. */
void
writeAtomic(const std::string &path, const std::vector<std::uint8_t> &bytes)
{
    try {
        facile::corpus::AtomicFileWriter w(path, "snaptool", 1);
        if (!bytes.empty())
            w.write(bytes.data(), bytes.size());
        w.commit();
    } catch (const facile::corpus::SectionError &e) {
        throw IoError(e.what());
    }
}

const char *
archName(std::uint32_t archWord)
{
    const auto &all = facile::uarch::allUArchs();
    if (archWord >= all.size())
        return "?";
    return facile::uarch::config(all[archWord]).abbrev;
}

// ---- canonical model (merge / compact) -------------------------------------
//
// The set/union layer itself lives in the library
// (analysis::SnapshotModelSet) — it doubles as the cluster-mode
// replica-convergence primitive, so the tool and the ConvergenceLoop
// merge identically by construction.

using ModelSet = facile::analysis::SnapshotModelSet;
using ArchSet = ModelSet::ArchSet;

// ---- subcommands -----------------------------------------------------------

int
cmdDump(const std::vector<std::string> &args)
{
    bool hex = false;
    std::string path;
    for (const std::string &a : args) {
        if (a == "--hex")
            hex = true;
        else if (!path.empty())
            throw UsageError("dump takes one file");
        else
            path = a;
    }
    if (path.empty())
        throw UsageError("dump: missing file operand");

    const std::vector<std::uint8_t> img = slurp(path);
    const facile::analysis::SnapshotStats st =
        facile::analysis::validateSnapshot(img.data(), img.size());
    std::printf("file:        %s\n", path.c_str());
    std::printf("format:      v2\n");
    std::printf("bytes:       %zu\n", img.size());
    std::printf("records:     %zu\n", st.records);
    std::printf("fused pairs: %zu\n", st.fusedPairs);
    std::printf("predictions: %zu\n", st.predictions);

    const SnapshotModel m =
        facile::analysis::parseSnapshotModel(img.data(), img.size());
    for (const SnapshotModel::Arch &a : m.arches)
        std::printf("  arch %-4s records %-6zu pairs %zu\n",
                    archName(a.arch), a.records.size(),
                    a.fusedPairs.size());

    std::uint32_t count = 0;
    std::memcpy(&count, img.data() + 20, 4);
    const auto table = facile::corpus::decodeSectionTable(
        img.data() + 64, img.size() - 64, count, img.size());
    std::printf("sections:    %u\n", count);
    for (const facile::corpus::SectionEntry &e : table) {
        static const char *kTypes[] = {"?", "records", "pairs",
                                       "predictions"};
        std::printf("  %-11s tag %-4s offset %-10llu length %-10llu "
                    "items %-6llu hash %016llx\n",
                    e.type < 4 ? kTypes[e.type] : "?",
                    e.type == 3 ? "-" : archName(e.tag),
                    static_cast<unsigned long long>(e.offset),
                    static_cast<unsigned long long>(e.length),
                    static_cast<unsigned long long>(e.itemCount),
                    static_cast<unsigned long long>(e.hash));
    }

    if (hex) {
        const std::size_t n = std::min<std::size_t>(img.size(), 64);
        std::printf("header hex:\n");
        for (std::size_t i = 0; i < n; i += 16) {
            std::printf("  %04zx ", i);
            for (std::size_t j = i; j < std::min(i + 16, n); ++j)
                std::printf(" %02x", img[j]);
            std::printf("\n");
        }
    }
    return 0;
}

int
cmdVerify(const std::vector<std::string> &args)
{
    if (args.empty())
        throw UsageError("verify: missing file operand");
    int bad = 0;
    for (const std::string &path : args) {
        try {
            const std::vector<std::uint8_t> img = slurp(path);
            const facile::analysis::SnapshotStats st =
                facile::analysis::validateSnapshot(img.data(),
                                                   img.size());
            std::printf("OK   %s  v2, %zu records, %zu pairs, "
                        "%zu predictions\n",
                        path.c_str(), st.records, st.fusedPairs,
                        st.predictions);
        } catch (const std::exception &e) {
            std::printf("FAIL %s  %s\n", path.c_str(), e.what());
            ++bad;
        }
    }
    return bad ? 1 : 0;
}

int
cmdDiff(const std::vector<std::string> &args)
{
    if (args.size() != 2)
        throw UsageError("diff takes exactly two files");
    const std::vector<std::uint8_t> ia = slurp(args[0]);
    const std::vector<std::uint8_t> ib = slurp(args[1]);
    ModelSet sa, sb;
    sa.accumulate(facile::analysis::parseSnapshotModel(ia.data(),
                                                       ia.size()),
                  args[0]);
    sb.accumulate(facile::analysis::parseSnapshotModel(ib.data(),
                                                       ib.size()),
                  args[1]);

    std::size_t differences = 0;
    auto report = [&](const char *what, std::size_t n, const char *dir) {
        if (n == 0)
            return;
        differences += n;
        std::printf("%s: %zu %s\n", what, n, dir);
    };

    std::set<std::uint32_t> archWords;
    for (const auto &[w, _] : sa.arches)
        archWords.insert(w);
    for (const auto &[w, _] : sb.arches)
        archWords.insert(w);
    for (std::uint32_t w : archWords) {
        const ArchSet empty;
        const ArchSet &a = sa.arches.count(w) ? sa.arches[w] : empty;
        const ArchSet &b = sb.arches.count(w) ? sb.arches[w] : empty;
        std::size_t onlyA = 0, onlyB = 0, changed = 0;
        for (const auto &[key, enc] : a.records) {
            auto it = b.records.find(key);
            if (it == b.records.end())
                ++onlyA;
            else if (it->second.first != enc.first)
                ++changed;
        }
        for (const auto &[key, enc] : b.records)
            if (!a.records.count(key))
                ++onlyB;
        std::size_t pairsOnlyA = 0, pairsOnlyB = 0;
        for (const auto &p : a.pairs)
            pairsOnlyA += !b.pairs.count(p);
        for (const auto &p : b.pairs)
            pairsOnlyB += !a.pairs.count(p);
        if (onlyA + onlyB + changed + pairsOnlyA + pairsOnlyB) {
            std::printf("arch %s:\n", archName(w));
            report("  records", onlyA, "only in A");
            report("  records", onlyB, "only in B");
            report("  records", changed, "changed");
            report("  pairs", pairsOnlyA, "only in A");
            report("  pairs", pairsOnlyB, "only in B");
        }
    }

    std::size_t pOnlyA = 0, pOnlyB = 0, pChanged = 0;
    for (const auto &[key, payload] : sa.predictions) {
        auto it = sb.predictions.find(key);
        if (it == sb.predictions.end())
            ++pOnlyA;
        else if (it->second != payload)
            ++pChanged;
    }
    for (const auto &[key, _] : sb.predictions)
        if (!sa.predictions.count(key))
            ++pOnlyB;
    report("predictions", pOnlyA, "only in A");
    report("predictions", pOnlyB, "only in B");
    report("predictions", pChanged, "changed");

    if (differences == 0) {
        std::printf("identical: %zu records, %zu predictions\n",
                    [&] {
                        std::size_t n = 0;
                        for (const auto &[_, a] : sa.arches)
                            n += a.records.size();
                        return n;
                    }(),
                    sa.predictions.size());
        return 0;
    }
    return 1;
}

/** Shared tail of merge/compact: stats line + guarded write. */
int
emitImage(const std::vector<std::uint8_t> &img, const std::string &out,
          bool dryRun)
{
    const facile::analysis::SnapshotStats st =
        facile::analysis::validateSnapshot(img.data(), img.size());
    std::printf("%s%s: %zu bytes, %zu records, %zu pairs, "
                "%zu predictions\n",
                dryRun ? "would write " : "wrote ", out.c_str(),
                img.size(), st.records, st.fusedPairs, st.predictions);
    if (!dryRun)
        writeAtomic(out, img);
    return 0;
}

int
cmdMerge(const std::vector<std::string> &args)
{
    std::string out;
    std::vector<std::string> inputs;
    bool dryRun = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--dry-run")
            dryRun = true;
        else if (out.empty())
            out = args[i];
        else
            inputs.push_back(args[i]);
    }
    if (out.empty() || inputs.empty())
        throw UsageError("merge <out> <in>... [--dry-run]");

    ModelSet set;
    for (const std::string &in : inputs) {
        const std::vector<std::uint8_t> img = slurp(in);
        set.accumulate(facile::analysis::parseSnapshotModel(img.data(),
                                                            img.size()),
                       in);
    }
    return emitImage(facile::analysis::buildSnapshotImage(set.canonical()),
                     out, dryRun);
}

int
cmdCompact(const std::vector<std::string> &args)
{
    std::string in, out;
    bool dropPredictions = false, dryRun = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--out" && i + 1 < args.size())
            out = args[++i];
        else if (args[i] == "--drop-predictions")
            dropPredictions = true;
        else if (args[i] == "--dry-run")
            dryRun = true;
        else if (!in.empty())
            throw UsageError("compact takes one input file");
        else
            in = args[i];
    }
    if (in.empty())
        throw UsageError(
            "compact <in> [--out P] [--drop-predictions] [--dry-run]");
    if (out.empty())
        out = in;

    const std::vector<std::uint8_t> img = slurp(in);
    ModelSet set;
    set.accumulate(facile::analysis::parseSnapshotModel(img.data(),
                                                        img.size()),
                   in);
    if (dropPredictions) {
        set.hasPredictions = false;
        set.predictions.clear();
    }
    const std::vector<std::uint8_t> rebuilt =
        facile::analysis::buildSnapshotImage(set.canonical());
    std::printf("compact %s: %zu -> %zu bytes\n", in.c_str(), img.size(),
                rebuilt.size());
    return emitImage(rebuilt, out, dryRun);
}

int
usage(std::FILE *to)
{
    std::fprintf(
        to,
        "usage: facile_snaptool <command> [args]\n"
        "  dump <file> [--hex]            show layout and stats\n"
        "  verify <file>...               validate deeply; exit 0/1\n"
        "  diff <a> <b>                   compare contents; exit 0/1\n"
        "  merge <out> <in>... [--dry-run]\n"
        "  compact <in> [--out P] [--drop-predictions] [--dry-run]\n");
    return to == stdout ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage(stderr);
    const std::string cmd = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);
    try {
        if (cmd == "dump")
            return cmdDump(args);
        if (cmd == "verify")
            return cmdVerify(args);
        if (cmd == "diff")
            return cmdDiff(args);
        if (cmd == "merge")
            return cmdMerge(args);
        if (cmd == "compact")
            return cmdCompact(args);
        if (cmd == "help" || cmd == "--help" || cmd == "-h")
            return usage(stdout);
        std::fprintf(stderr, "unknown command '%s'\n", cmd.c_str());
        return usage(stderr);
    } catch (const UsageError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const IoError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    } catch (const SnapshotError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
}
