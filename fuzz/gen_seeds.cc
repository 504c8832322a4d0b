/**
 * @file
 * Seed-corpus generator: writes one small, *valid* input per format
 * into <outdir>/{decoder,protocol,snapshot,corpus}/ using the repo's
 * own encoders, so the checked-in fuzz/corpus/ set starts every fuzz
 * run (and every replay) deep inside the parsers instead of at "bad
 * magic". Deterministic: same build, same bytes.
 *
 * Usage: fuzz_gen_seeds <outdir>
 */
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/snapshot.h"
#include "bhive/generator.h"
#include "corpus/corpus.h"
#include "engine/engine.h"
#include "server/protocol.h"
#include "uarch/config.h"

namespace fs = std::filesystem;
using namespace facile;

namespace {

void
writeSeed(const fs::path &dir, const std::string &name,
          const std::vector<std::uint8_t> &bytes)
{
    fs::create_directories(dir);
    std::ofstream out(dir / name, std::ios::binary);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    if (!out)
        throw std::runtime_error("cannot write " +
                                 (dir / name).string());
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: %s <outdir>\n", argv[0]);
        return 2;
    }
    const fs::path out(argv[1]);

    // Real encoded blocks from the BHive-substitute generator: one U
    // and one L variant from a couple of categories.
    const std::vector<bhive::Benchmark> suite =
        bhive::generateSuite(20231020, 1);

    // ---- decoder: [arch byte][block bytes] ---------------------------------
    {
        int i = 0;
        for (const auto &b : suite) {
            if (i >= 4)
                break;
            std::vector<std::uint8_t> seed;
            seed.push_back(static_cast<std::uint8_t>(i % 9));
            seed.insert(seed.end(), b.bytesU.begin(), b.bytesU.end());
            writeSeed(out / "decoder",
                      "block_" + bhive::categoryName(b.category),
                      seed);
            ++i;
        }
        // A single NOP — the smallest decodable block.
        writeSeed(out / "decoder", "nop", {0, 0x90});
    }

    // ---- protocol: request frame streams (mode byte first) -----------------
    {
        const auto &b = suite.front();
        engine::Request req{b.bytesL, uarch::UArch::SKL, true, {},
                            model::Payload::None};
        std::vector<std::uint8_t> stream;
        stream.push_back(3); // delivery mode: all at once
        server::appendPredictRequest(stream, 1, req);
        server::appendControlRequest(stream, 2, server::Op::Stats);
        server::appendControlRequest(stream, 3, server::Op::Ping);
        writeSeed(out / "protocol", "predict_stats_ping", stream);

        std::vector<std::uint8_t> tiny;
        tiny.push_back(0); // delivery mode: byte at a time
        server::appendControlRequest(tiny, 7, server::Op::Snapshot);
        writeSeed(out / "protocol", "snapshot_bytewise", tiny);

        // A STATS response payload as a server sends it, every field
        // distinct (mode bit 3: the STATS decoder).
        server::ServerStats stats;
        std::uint64_t v = 1;
        for (auto field : server::kStatsLayout)
            stats.*field = v++;
        std::vector<std::uint8_t> frame;
        server::appendStatsResponse(frame, 4, stats);
        std::vector<std::uint8_t> payload{8};
        payload.insert(payload.end(),
                       frame.begin() + server::kResponseHeaderSize,
                       frame.end());
        writeSeed(out / "protocol", "stats_response", payload);
    }

    // ---- snapshot: a real saved image --------------------------------------
    // The same seed feeds the snaptool harness (model parse + rebuild).
    // The checked-in two_arch_image_v2 files are images of the retired
    // version 2 and stay as rejected-input seeds.
    {
        // Fill an engine's prediction cache on two arches, both notions.
        engine::PredictionEngine eng({.numThreads = 1});
        std::vector<engine::Request> reqs;
        for (const auto &b : suite) {
            reqs.push_back({b.bytesU, uarch::UArch::SKL, false, {}});
            reqs.push_back({b.bytesL, uarch::UArch::HSW, true, {}});
        }
        eng.predictBatch(reqs);
        const std::vector<std::uint8_t> img =
            analysis::saveSnapshotToMemory({&eng});
        writeSeed(out / "snapshot", "two_arch_predictions_v3", img);
        writeSeed(out / "snaptool", "two_arch_predictions_v3", img);
    }

    // ---- corpus: a closed two-record file ----------------------------------
    {
        const fs::path tmp = out / "corpus.tmp";
        {
            corpus::Writer w(tmp.string());
            corpus::Entry e;
            e.arch = uarch::UArch::SKL;
            e.loop = false;
            e.bytes = suite.front().bytesU;
            w.append(e);
            e.arch = uarch::UArch::ICL;
            e.loop = true;
            e.hasMeasured = true;
            e.measured = 3.25;
            e.bytes = suite.front().bytesL;
            w.append(e);
            w.close();
        }
        std::ifstream in(tmp, std::ios::binary);
        std::vector<std::uint8_t> img(
            (std::istreambuf_iterator<char>(in)),
            std::istreambuf_iterator<char>());
        fs::remove(tmp);
        writeSeed(out / "corpus", "two_records", img);
    }

    std::printf("seeds written under %s\n", out.string().c_str());
    return 0;
}
