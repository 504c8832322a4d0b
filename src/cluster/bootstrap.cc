#include "cluster/bootstrap.h"

#include <cstdio>
#include <exception>
#include <utility>

#include "analysis/snapshot.h"
#include "corpus/sections.h"
#include "engine/engine.h"

namespace facile::cluster {

bool
stageFetchedImage(const std::uint8_t *data, std::size_t size,
                  const std::string &localPath)
{
    try {
        analysis::validateSnapshot(data, size);
        corpus::AtomicFileWriter w(localPath, "snapshot",
                                   analysis::kSnapshotGenerations);
        w.write(data, size);
        w.commit();
        return true;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bootstrap: rejected fetched image: %s\n",
                     e.what());
        return false;
    }
}

bool
fetchSnapshotFromPeer(const Endpoint &peer, const std::string &localPath,
                      server::RetryPolicy policy)
{
    try {
        auto client =
            peer.isUnix()
                ? server::ResilientClient::forUnix(peer.path, policy)
                : server::ResilientClient::forTcp(peer.host, peer.port,
                                                  policy);
        const std::vector<std::uint8_t> img = client.fetchSnapshot();
        return stageFetchedImage(img.data(), img.size(), localPath);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "bootstrap: fetch from %s failed: %s\n",
                     peer.label().c_str(), e.what());
        return false;
    }
}

bool
convergeWithImage(const std::uint8_t *data, std::size_t size,
                  engine::PredictionEngine *engine)
{
    try {
        // Conflict check first: a key both sides hold must carry one
        // payload, or the peer runs a different model build.
        analysis::mergeSnapshotModels(
            {analysis::snapshotModelOf(engine),
             analysis::parseSnapshotModel(data, size)});
        // Append-only fold: keys we already hold keep their live
        // entries, the peer's novel predictions land in our cache.
        analysis::loadSnapshotFromMemory(data, size, {engine});
        return true;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "convergence: round aborted: %s\n",
                     e.what());
        return false;
    }
}

ConvergenceLoop::ConvergenceLoop(Options opts) : opts_(std::move(opts))
{
    clients_.reserve(opts_.peers.size());
    for (const Endpoint &ep : opts_.peers)
        clients_.push_back(
            ep.isUnix()
                ? server::ResilientClient::forUnix(ep.path, opts_.policy)
                : server::ResilientClient::forTcp(ep.host, ep.port,
                                                  opts_.policy));
}

ConvergenceLoop::~ConvergenceLoop()
{
    stop();
}

void
ConvergenceLoop::runOnce()
{
    ConvergenceStats delta;
    for (std::size_t i = 0; i < clients_.size(); ++i) {
        std::vector<std::uint8_t> img;
        try {
            img = clients_[i].fetchSnapshot();
        } catch (const std::exception &e) {
            std::fprintf(stderr, "convergence: fetch from %s failed: %s\n",
                         opts_.peers[i].label().c_str(), e.what());
            ++delta.peerFailures;
            continue;
        }
        if (convergeWithImage(img.data(), img.size(), opts_.engine))
            ++delta.merges;
        else
            ++delta.conflicts;
    }
    ++delta.rounds;
    std::lock_guard<std::mutex> lock(mu_);
    stats_.rounds += delta.rounds;
    stats_.merges += delta.merges;
    stats_.conflicts += delta.conflicts;
    stats_.peerFailures += delta.peerFailures;
}

void
ConvergenceLoop::start()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (running_)
            return;
        running_ = true;
        stopping_ = false;
    }
    thr_ = std::thread([this] {
        for (;;) {
            {
                std::unique_lock<std::mutex> lock(mu_);
                cv_.wait_for(lock,
                             std::chrono::milliseconds(opts_.intervalMs),
                             [this] { return stopping_; });
                if (stopping_)
                    return;
            }
            runOnce();
        }
    });
}

void
ConvergenceLoop::stop()
{
    {
        std::lock_guard<std::mutex> lock(mu_);
        if (!running_)
            return;
        running_ = false;
        stopping_ = true;
    }
    cv_.notify_all();
    if (thr_.joinable())
        thr_.join();
}

ConvergenceStats
ConvergenceLoop::stats() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
}

} // namespace facile::cluster
