/**
 * @file
 * Offline corpus batch pipeline: run an entire binary corpus
 * (src/corpus/corpus.h) through the batched PredictionEngine and emit
 * per-block predictions plus Table-2-style accuracy statistics for
 * every (arch, notion) group that carries measured ground truth.
 *
 * Usage:
 *   facile_batch CORPUS [--threads N] [--csv FILE] [--explain]
 *                [--server unix:PATH | --server HOST:PORT]
 *                [--snapshot-load FILE] [--snapshot-save FILE]
 *   facile_batch --make-corpus FILE [--arch ABBR] [--per-category N]
 *                [--seed S] [--unroll] [--no-measured]
 *
 * Predict mode streams the corpus into one engine batch, prints
 * throughput (blocks/s) and the accuracy table, and optionally writes
 * a CSV (index, arch, loop, bytes, predicted, measured). With
 * --snapshot-load the process starts from a warm-start snapshot
 * (src/analysis/snapshot.h) instead of paying the instruction-
 * interning cold path; --snapshot-save persists the arenas (and the
 * engine's prediction cache) after the run.
 *
 * With --server the predictions come from a running facile_server via
 * the pipelined client (bit-identical to the local engine), so a
 * corpus can be scored against a long-lived warm server instead of a
 * cold in-process engine. Server rejections surface as typed
 * server::ProtocolError — OVERLOADED (the server shed load) is
 * reported distinctly from transport failures. Incompatible with the
 * local-engine flags (--threads, --snapshot-*).
 *
 * Make mode generates a corpus from the BHive-substitute suite with
 * simulator-measured ground truth (the expensive part; --no-measured
 * skips it), so the full pipeline is reproducible without external
 * data.
 */
#include <chrono>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include <optional>

#include "analysis/snapshot.h"
#include "corpus/corpus.h"
#include "engine/engine.h"
#include "eval/harness.h"
#include "server/client.h"

using namespace facile;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s CORPUS [--threads N] [--csv FILE] [--explain]\n"
        "       %*s        [--server unix:PATH | --server HOST:PORT]\n"
        "       %*s        [--snapshot-load FILE] [--snapshot-save FILE]\n"
        "       %s --make-corpus FILE [--arch ABBR] [--per-category N]\n"
        "       %*s        [--seed S] [--unroll] [--no-measured]\n",
        argv0, static_cast<int>(std::strlen(argv0)), "",
        static_cast<int>(std::strlen(argv0)), "", argv0,
        static_cast<int>(std::strlen(argv0)), "");
    return 2;
}

/** Group key for the accuracy table: one row per (arch, notion). */
struct GroupKey
{
    uarch::UArch arch;
    bool loop;

    bool
    operator<(const GroupKey &o) const
    {
        return arch != o.arch ? arch < o.arch : loop < o.loop;
    }
};

} // namespace

int
main(int argc, char **argv)
{
    std::string corpusPath, makePath, csvPath, snapLoad, snapSave;
    std::string serverSpec;
    uarch::UArch arch = uarch::UArch::SKL;
    int threads = 0;
    int perCategory = 10;
    std::uint64_t seed = 20231020;
    bool loop = true;
    bool measured = true;
    bool explain = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        const char *v = nullptr;
        if (arg == "--make-corpus") {
            if (!(v = next()))
                return usage(argv[0]);
            makePath = v;
        } else if (arg == "--arch") {
            if (!(v = next()))
                return usage(argv[0]);
            try {
                arch = uarch::fromAbbrev(v);
            } catch (const std::exception &) {
                std::fprintf(stderr, "unknown arch: %s\n", v);
                return 2;
            }
        } else if (arg == "--per-category") {
            if (!(v = next()))
                return usage(argv[0]);
            perCategory = std::atoi(v);
        } else if (arg == "--seed") {
            if (!(v = next()))
                return usage(argv[0]);
            seed = static_cast<std::uint64_t>(std::atoll(v));
        } else if (arg == "--threads") {
            if (!(v = next()))
                return usage(argv[0]);
            threads = std::atoi(v);
        } else if (arg == "--csv") {
            if (!(v = next()))
                return usage(argv[0]);
            csvPath = v;
        } else if (arg == "--server") {
            if (!(v = next()))
                return usage(argv[0]);
            serverSpec = v;
        } else if (arg == "--snapshot-load") {
            if (!(v = next()))
                return usage(argv[0]);
            snapLoad = v;
        } else if (arg == "--snapshot-save") {
            if (!(v = next()))
                return usage(argv[0]);
            snapSave = v;
        } else if (arg == "--unroll") {
            loop = false;
        } else if (arg == "--no-measured") {
            measured = false;
        } else if (arg == "--explain") {
            explain = true;
        } else if (!arg.empty() && arg[0] != '-' && corpusPath.empty()) {
            corpusPath = arg;
        } else {
            return usage(argv[0]);
        }
    }

    // ---- make mode ---------------------------------------------------------
    if (!makePath.empty()) {
        const auto suite = bhive::generateSuite(seed, perCategory);
        std::vector<double> truth;
        if (measured) {
            std::fprintf(stderr,
                         "[make] measuring ground truth for %s (%zu "
                         "blocks)...\n",
                         uarch::config(arch).abbrev, suite.size());
            const eval::ArchSuite prepared = eval::prepare(arch, suite);
            truth = loop ? prepared.measuredL : prepared.measuredU;
        }
        try {
            corpus::Writer w(makePath);
            for (std::size_t i = 0; i < suite.size(); ++i) {
                corpus::Entry e;
                e.arch = arch;
                e.loop = loop;
                e.bytes = loop ? suite[i].bytesL : suite[i].bytesU;
                if (measured) {
                    e.hasMeasured = true;
                    e.measured = truth[i];
                }
                w.append(e);
            }
            w.close();
            std::printf("wrote %s: %llu blocks (%s, %s%s)\n",
                        makePath.c_str(),
                        static_cast<unsigned long long>(w.count()),
                        uarch::config(arch).abbrev,
                        loop ? "TPL" : "TPU",
                        measured ? ", measured" : "");
        } catch (const corpus::CorpusError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
        return 0;
    }

    // ---- predict mode ------------------------------------------------------
    if (corpusPath.empty())
        return usage(argv[0]);

    if (!serverSpec.empty() &&
        (threads != 0 || !snapLoad.empty() || !snapSave.empty())) {
        std::fprintf(stderr,
                     "--server is incompatible with --threads and "
                     "--snapshot-* (those configure the local engine; "
                     "warm and size the server instead)\n");
        return 2;
    }

    // Remote mode: predictions come from a running facile_server over
    // the pipelined client — bit-identical to the local engine.
    std::optional<server::Client> cli;
    if (!serverSpec.empty()) {
        try {
            if (serverSpec.rfind("unix:", 0) == 0) {
                cli.emplace(
                    server::Client::connectUnix(serverSpec.substr(5)));
            } else {
                const auto colon = serverSpec.rfind(':');
                if (colon == std::string::npos)
                    return usage(argv[0]);
                cli.emplace(server::Client::connectTcp(
                    serverSpec.substr(0, colon),
                    std::atoi(serverSpec.c_str() + colon + 1)));
            }
        } catch (const std::exception &e) {
            std::fprintf(stderr, "cannot connect to %s: %s\n",
                         serverSpec.c_str(), e.what());
            return 1;
        }
    }

    std::optional<engine::PredictionEngine> eng;
    if (!cli) {
        engine::PredictionEngine::Options eopts;
        eopts.numThreads = threads;
        eng.emplace(eopts);
    }

    if (!snapLoad.empty()) {
        try {
            const analysis::SnapshotStats st =
                analysis::loadSnapshot(snapLoad, {&*eng});
            std::fprintf(stderr,
                         "[snapshot] loaded %s: %zu records (%zu new), "
                         "%zu fused pairs, %zu cached predictions\n",
                         snapLoad.c_str(), st.records, st.newRecords,
                         st.fusedPairs, st.predictions);
        } catch (const analysis::SnapshotError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    }

    // Stream the corpus in chunks — memory use is bounded by the
    // chunk size, not the corpus, as the format promises. Per-group
    // accuracy inputs (doubles) are the only whole-run accumulation.
    constexpr std::size_t kChunk = 8192;
    std::map<GroupKey, std::pair<std::vector<double>,
                                 std::vector<double>>>
        groups; // (measured, predicted)
    std::FILE *csv = nullptr;
    if (!csvPath.empty()) {
        csv = std::fopen(csvPath.c_str(), "w");
        if (!csv) {
            std::fprintf(stderr, "cannot write %s\n", csvPath.c_str());
            return 1;
        }
        std::fprintf(csv, "index,arch,loop,bytes,predicted,measured\n");
    }

    std::size_t total = 0;
    double ms = 0.0;
    engine::BatchStats bs;
    try {
        corpus::Reader reader(corpusPath);
        std::vector<corpus::Entry> entries;
        std::vector<engine::Request> batch;
        std::vector<model::Prediction> preds;
        for (;;) {
            entries.clear();
            corpus::Entry e;
            while (entries.size() < kChunk && reader.next(e))
                entries.push_back(std::move(e));
            if (entries.empty())
                break;

            batch.clear();
            batch.reserve(entries.size());
            for (const corpus::Entry &ent : entries) {
                engine::Request r;
                r.bytes = ent.bytes;
                r.arch = ent.arch;
                r.loop = ent.loop;
                r.payload = explain ? model::Payload::Full
                                    : model::Payload::None;
                batch.push_back(std::move(r));
            }
            const auto t0 = std::chrono::steady_clock::now();
            if (cli)
                cli->predictManyInto(batch, preds);
            else
                preds = eng->predictBatch(batch, &bs);
            const auto t1 = std::chrono::steady_clock::now();
            ms += std::chrono::duration<double, std::milli>(t1 - t0)
                      .count();

            for (std::size_t i = 0; i < entries.size(); ++i) {
                const corpus::Entry &ent = entries[i];
                if (csv) {
                    std::fprintf(csv, "%zu,%s,%d,%zu,%.10g,",
                                 total + i,
                                 uarch::config(ent.arch).abbrev,
                                 ent.loop ? 1 : 0, ent.bytes.size(),
                                 preds[i].throughput);
                    if (ent.hasMeasured)
                        std::fprintf(csv, "%.10g", ent.measured);
                    std::fprintf(csv, "\n");
                }
                if (ent.hasMeasured) {
                    auto &[m, p] = groups[{ent.arch, ent.loop}];
                    m.push_back(ent.measured);
                    p.push_back(preds[i].throughput);
                }
            }
            total += entries.size();
        }
    } catch (const server::ProtocolError &e) {
        if (csv)
            std::fclose(csv);
        std::fprintf(stderr, "%s%s\n", e.what(),
                     e.status() == server::Status::Overloaded
                         ? " (server shed load; retry, or raise its "
                           "--max-pending / --max-inflight)"
                         : "");
        return 1;
    } catch (const corpus::CorpusError &e) {
        if (csv)
            std::fclose(csv);
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
    } catch (const std::exception &e) {
        // Transport faults from --server mode (connection loss, short
        // writes) land here, distinct from the typed rejections above.
        if (csv)
            std::fclose(csv);
        std::fprintf(stderr, "transport: %s\n", e.what());
        return 1;
    }
    if (csv) {
        std::fclose(csv);
        std::printf("wrote %s\n", csvPath.c_str());
    }
    if (total == 0) {
        std::fprintf(stderr, "%s: empty corpus\n", corpusPath.c_str());
        return 1;
    }

    if (cli) {
        std::printf("%s: %zu blocks in %.1f ms (%.0f blocks/s via "
                    "server %s)\n",
                    corpusPath.c_str(), total, ms,
                    1000.0 * static_cast<double>(total) / ms,
                    serverSpec.c_str());
    } else {
        std::printf("%s: %zu blocks in %.1f ms (%.0f blocks/s, %d "
                    "threads)\n",
                    corpusPath.c_str(), total, ms,
                    1000.0 * static_cast<double>(total) / ms,
                    eng->numThreads());
        std::printf("engine: %zu analyzed, %zu prediction-cache hits\n",
                    bs.analyzed, bs.predictionCacheHits);
    }
    if (!groups.empty()) {
        std::printf("\n%-5s %-7s %8s %10s %10s %8s\n", "uArch",
                    "Notion", "Blocks", "MAPE", "Kendall", "Skipped");
        for (const auto &[key, mp] : groups) {
            const eval::Accuracy acc = eval::score(mp.first, mp.second);
            std::printf("%-5s %-7s %8zu %9.2f%% %10.4f %8zu\n",
                        uarch::config(key.arch).abbrev,
                        key.loop ? "TPL" : "TPU", mp.first.size(),
                        acc.mape * 100.0, acc.kendall, acc.mapeSkipped);
        }
    } else {
        std::printf("(no measured ground truth in the corpus — "
                    "accuracy table skipped)\n");
    }

    if (!snapSave.empty()) {
        try {
            const analysis::SnapshotStats st =
                analysis::saveSnapshot(snapSave, {&*eng});
            std::printf("[snapshot] saved %s: %zu records, %zu fused "
                        "pairs, %zu cached predictions (%zu bytes)\n",
                        snapSave.c_str(), st.records, st.fusedPairs,
                        st.predictions, st.bytes);
        } catch (const analysis::SnapshotError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 1;
        }
    }
    return 0;
}
