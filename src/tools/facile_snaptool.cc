/**
 * @file
 * facile_snaptool — offline snapshot surgery (src/tools/README.md).
 *
 * Works on the parsed SnapshotModel (analysis/snapshot.h), a list of
 * (engine cache key, prediction payload) entries: diff, merge and
 * compact are set operations over those entries, and every mutating
 * subcommand rebuilds a deterministic image from the result.
 *
 * Subcommands:
 *   dump <file> [--hex]                    layout + stats
 *   verify <file>...                       deep validation, CI-friendly
 *   diff <a> <b>                           set comparison
 *   merge <out> <in>... [--dry-run]        sorted union
 *   compact <in> [--out P] [--dry-run]     sorted, deduplicated rewrite
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
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/snapshot.h"
#include "corpus/sections.h"

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

// ---- subcommands -----------------------------------------------------------

/** An image's entries keyed for set comparison. */
std::map<std::string, std::vector<std::uint8_t>>
entriesOf(const std::vector<std::uint8_t> &img)
{
    const SnapshotModel m =
        facile::analysis::parseSnapshotModel(img.data(), img.size());
    return {m.predictions.begin(), m.predictions.end()};
}

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
    std::printf("format:      v%u\n", facile::analysis::kSnapshotVersion);
    std::printf("bytes:       %zu\n", img.size());
    std::printf("predictions: %zu\n", st.predictions);

    const auto table =
        facile::corpus::decodeSectionTable(img.data() + 64,
                                           img.size() - 64, 1, img.size());
    std::printf("sections:    %zu\n", table.size());
    for (const facile::corpus::SectionEntry &e : table)
        std::printf("  predictions offset %-10llu length %-10llu "
                    "items %-6llu hash %016llx\n",
                    static_cast<unsigned long long>(e.offset),
                    static_cast<unsigned long long>(e.length),
                    static_cast<unsigned long long>(e.itemCount),
                    static_cast<unsigned long long>(e.hash));

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
            std::printf("OK   %s  v%u, %zu predictions\n", path.c_str(),
                        facile::analysis::kSnapshotVersion,
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
    const auto a = entriesOf(slurp(args[0]));
    const auto b = entriesOf(slurp(args[1]));

    std::size_t onlyA = 0, onlyB = 0, changed = 0;
    for (const auto &[key, payload] : a) {
        const auto it = b.find(key);
        if (it == b.end())
            ++onlyA;
        else if (it->second != payload)
            ++changed;
    }
    for (const auto &[key, _] : b)
        onlyB += !a.count(key);

    if (onlyA + onlyB + changed == 0) {
        std::printf("identical: %zu predictions\n", a.size());
        return 0;
    }
    for (const auto &[n, what] : {std::pair{onlyA, "only in A"},
                                  std::pair{onlyB, "only in B"},
                                  std::pair{changed, "changed"}})
        if (n)
            std::printf("predictions: %zu %s\n", n, what);
    return 1;
}

/** Shared tail of merge/compact: stats line + guarded write. */
int
emitImage(const std::vector<std::uint8_t> &img, const std::string &out,
          bool dryRun)
{
    const facile::analysis::SnapshotStats st =
        facile::analysis::validateSnapshot(img.data(), img.size());
    std::printf("%s%s: %zu bytes, %zu predictions\n",
                dryRun ? "would write " : "wrote ", out.c_str(),
                img.size(), st.predictions);
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

    std::vector<SnapshotModel> models;
    for (const std::string &in : inputs) {
        const std::vector<std::uint8_t> img = slurp(in);
        models.push_back(
            facile::analysis::parseSnapshotModel(img.data(), img.size()));
    }
    return emitImage(facile::analysis::buildSnapshotImage(
                         facile::analysis::mergeSnapshotModels(models)),
                     out, dryRun);
}

int
cmdCompact(const std::vector<std::string> &args)
{
    std::string in, out;
    bool dryRun = false;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--out" && i + 1 < args.size())
            out = args[++i];
        else if (args[i] == "--dry-run")
            dryRun = true;
        else if (!in.empty())
            throw UsageError("compact takes one input file");
        else
            in = args[i];
    }
    if (in.empty())
        throw UsageError("compact <in> [--out P] [--dry-run]");
    if (out.empty())
        out = in;

    const std::vector<std::uint8_t> img = slurp(in);
    const std::vector<std::uint8_t> rebuilt =
        facile::analysis::buildSnapshotImage(
            facile::analysis::mergeSnapshotModels(
                {facile::analysis::parseSnapshotModel(img.data(),
                                                      img.size())}));
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
        "  compact <in> [--out P] [--dry-run]\n");
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
