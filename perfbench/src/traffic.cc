#include "traffic.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "analysis/snapshot.h"
#include "facile/component.h"
#include "server/protocol.h"

using namespace facile;

namespace perfbench {

std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

FreshBlocks::FreshBlocks(std::uint64_t seed, std::uint64_t salt)
    : seed_(mixSeed(seed, salt))
{}

const bhive::Benchmark &
FreshBlocks::next()
{
    for (;;) {
        if (pos_ == buf_.size()) {
            // 10 categories x 100 = 1000 benchmarks per chunk.
            buf_ = bhive::generateSuite(mixSeed(seed_, chunk_++), 100);
            pos_ = 0;
        }
        const bhive::Benchmark &b = buf_[pos_++];
        const std::uint64_t hu =
            analysis::fnv1a64(b.bytesU.data(), b.bytesU.size());
        const std::uint64_t hl =
            analysis::fnv1a64(b.bytesL.data(), b.bytesL.size());
        if (seen_.count(hu) || seen_.count(hl) || hu == hl)
            continue;
        seen_.insert(hu);
        seen_.insert(hl);
        return b;
    }
}

std::vector<engine::Request>
inprocRequests(FreshBlocks &src, std::size_t n)
{
    static const uarch::UArch kArchs[] = {
        uarch::UArch::SKL, uarch::UArch::ICL, uarch::UArch::HSW};
    std::vector<engine::Request> out;
    out.reserve(n + 6);
    while (out.size() < n) {
        const bhive::Benchmark &b = src.next();
        for (uarch::UArch arch : kArchs) {
            out.push_back({b.bytesU, arch, false, {}});
            out.push_back({b.bytesL, arch, true, {}});
        }
    }
    out.resize(n);
    return out;
}

Zipf::Zipf(std::size_t n, std::uint64_t seed) : cdf_(n), perm_(n)
{
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
        sum += 1.0 / static_cast<double>(k + 1);
        cdf_[k] = sum;
    }
    for (double &c : cdf_)
        c /= sum;
    for (std::size_t k = 0; k < n; ++k)
        perm_[k] = static_cast<std::uint32_t>(k);
    Rng rng(seed);
    for (std::size_t k = n; k > 1; --k)
        std::swap(perm_[k - 1],
                  perm_[rng.below(static_cast<std::uint32_t>(k))]);
}

std::uint32_t
Zipf::draw(Rng &rng) const
{
    const double u = rng.uniform();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const std::size_t rank =
        std::min<std::size_t>(it - cdf_.begin(), cdf_.size() - 1);
    return perm_[rank];
}

namespace {

std::size_t
hotSize(const std::string &workload)
{
    if (workload == "wire_hot")
        return 4096;
    if (workload == "routed_mixed")
        return 2048;
    throw std::invalid_argument("unknown wire workload " + workload);
}

} // namespace

WireTraffic::WireTraffic(const std::string &workload, std::uint64_t seed)
    : fresh_(seed, 2), zipf_(hotSize(workload), mixSeed(seed, 3))
{
    static const uarch::UArch kArchs[] = {
        uarch::UArch::SKL, uarch::UArch::ICL, uarch::UArch::HSW};
    const bool mixed = workload == "routed_mixed";
    if (mixed) {
        freshShare = 0.30;
        explainShare = 0.10;
    }
    Rng rng(mixSeed(seed, 4));
    const std::size_t n = hotSize(workload);
    for (std::size_t i = 0; i < n; ++i) {
        const bhive::Benchmark &b = fresh_.next();
        HotEntry e{static_cast<std::uint32_t>(blocks.size()),
                   uarch::UArch::SKL, true};
        if (mixed) {
            e.arch = kArchs[rng.below(3)];
            e.loop = rng.chance(0.5);
        }
        blocks.push_back(e.loop ? b.bytesL : b.bytesU);
        hot.push_back(e);
    }
}

WireItem
WireTraffic::draw(Rng &rng)
{
    static const uarch::UArch kArchs[] = {
        uarch::UArch::SKL, uarch::UArch::ICL, uarch::UArch::HSW};
    WireItem it;
    if (freshShare > 0.0 && rng.chance(freshShare)) {
        // Fresh: never sent before. Each generated benchmark yields two
        // distinct blocks (its U and L bytes); either serves any notion.
        if (spare_.empty()) {
            const bhive::Benchmark &b = fresh_.next();
            blocks.push_back(b.bytesU);
            spare_.push_back(b.bytesL);
        } else {
            blocks.push_back(std::move(spare_.back()));
            spare_.pop_back();
        }
        it.block = static_cast<std::uint32_t>(blocks.size() - 1);
        it.arch = static_cast<std::uint8_t>(kArchs[rng.below(3)]);
        it.loop = rng.chance(0.5);
    } else {
        const std::uint32_t h = zipf_.draw(rng);
        it.hot = static_cast<std::int32_t>(h);
        it.block = hot[h].block;
        it.arch = static_cast<std::uint8_t>(hot[h].arch);
        it.loop = hot[h].loop;
    }
    it.explain = explainShare > 0.0 && rng.chance(explainShare);
    return it;
}

std::vector<Arrival>
WireTraffic::schedule(Rng &rng, double rate, double seconds)
{
    std::vector<Arrival> out;
    out.reserve(static_cast<std::size_t>(rate * seconds * 1.05) + 16);
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= seconds)
            break;
        out.push_back({static_cast<std::int64_t>(t * 1e9), draw(rng)});
    }
    return out;
}

engine::Request
WireTraffic::request(const WireItem &it) const
{
    engine::Request r;
    r.bytes = blocks[it.block];
    r.arch = static_cast<uarch::UArch>(it.arch);
    r.loop = it.loop;
    r.payload = it.explain ? model::Payload::Full : model::Payload::None;
    return r;
}

std::vector<engine::Request>
probeRequests(const std::string &workload, std::uint64_t seed,
              std::size_t n)
{
    if (workload == "inproc_cold") {
        FreshBlocks src(seed, 1);
        return inprocRequests(src, n);
    }
    WireTraffic t(workload, seed);
    std::vector<engine::Request> out;
    for (std::size_t i = 0; i < t.hot.size() && out.size() < n; ++i) {
        WireItem it;
        it.block = t.hot[i].block;
        it.arch = static_cast<std::uint8_t>(t.hot[i].arch);
        it.loop = t.hot[i].loop;
        out.push_back(t.request(it));
    }
    return out;
}

model::Prediction
serialPredict(const engine::Request &req, model::PredictScratch &scratch)
{
    return model::predict(bb::analyze(req.bytes, req.arch), req.loop,
                          req.config, scratch, req.payload);
}

std::string
frameHex(const engine::Request &req)
{
    std::vector<std::uint8_t> buf;
    server::appendPredictRequest(buf, 1, req);
    static const char *kHex = "0123456789abcdef";
    std::string out;
    for (std::uint8_t b : buf) {
        out.push_back(kHex[b >> 4]);
        out.push_back(kHex[b & 15]);
    }
    return out;
}

} // namespace perfbench
