/**
 * @file
 * Client library for the prediction server: a pipelining connection
 * speaking the protocol.h wire format. The API is synchronous (every
 * call runs to completion), but the socket underneath is nonblocking:
 * when a pipelined write fills the send buffer, the client drains any
 * responses the server has already produced while waiting for
 * writability. Without that interleave, a deep pipeline deadlocks
 * against any finite-buffered peer — both sides blocked writing, both
 * socket buffers full, nobody reading.
 *
 * One Client owns one socket and is NOT thread-safe; use one Client
 * per thread (the server multiplexes any number of connections). The
 * predictMany() path is the intended high-throughput API: it writes a
 * whole window of request frames in one syscall and matches the
 * responses back by id, so a single connection can keep the server's
 * admission batcher fed.
 */
#ifndef FACILE_SERVER_CLIENT_H
#define FACILE_SERVER_CLIENT_H

#include <cstdint>
#include <string>
#include <vector>

#include "server/protocol.h"

namespace facile::server {

class Client
{
  public:
    /** Connect to a TCP endpoint (dotted-quad host). Throws on failure. */
    static Client connectTcp(const std::string &host, int port);

    /** Connect to a Unix-domain socket path. Throws on failure. */
    static Client connectUnix(const std::string &path);

    ~Client();
    Client(Client &&other) noexcept;
    Client &operator=(Client &&other) noexcept;
    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /**
     * Predict one block; one round trip. Bit-identical to serial
     * model::predict(bb::analyze(bytes, arch), loop, config, scratch,
     * payload). The default asks for the cheap bound-only prediction;
     * pass model::Payload::Full to have the server build the
     * interpretability payload (wire flag bit 1).
     *
     * Error contract (predictMany/stats/ping/snapshot/health follow
     * it too): protocol faults — a rejected status (BadRequest,
     * Overloaded, Draining), a malformed or mismatched response —
     * throw ProtocolError, with the wire status attached for
     * rejections so callers can treat Overloaded/Draining as
     * retryable backpressure (ProtocolError::retryable()); transport
     * faults (connect failure, connection loss, poll errors) throw
     * TransportError. ResilientClient wraps this class and turns both
     * retryable classes into automatic reconnect/backoff/replay.
     */
    model::Prediction
    predict(const std::vector<std::uint8_t> &bytes, uarch::UArch arch,
            bool loop, const model::ModelConfig &config = {},
            model::Payload payload = model::Payload::None);

    /**
     * Predict a batch, pipelined: all request frames are written
     * before any response is read (in windows of kPipelineWindow to
     * bound buffering). out[i] corresponds to reqs[i].
     */
    std::vector<model::Prediction>
    predictMany(const std::vector<engine::Request> &reqs);

    /**
     * As predictMany, but decodes into @p out, reusing each element's
     * vector capacities — allocation-free in steady state for callers
     * that keep the result buffer across batches (load generators,
     * polling loops).
     */
    void predictManyInto(const std::vector<engine::Request> &reqs,
                         std::vector<model::Prediction> &out);

    /** Fetch the server's counters (the STATS op). */
    ServerStats stats();

    /** Health check; throws if the server does not answer. */
    void ping();

    /**
     * Readiness probe (the HEALTH admin frame): Ready in normal
     * operation, Draining once graceful shutdown began — a router
     * shards new traffic away from draining replicas. Unknown for a
     * state this client build does not recognize.
     */
    HealthState health();

    /**
     * Ask the server to persist a warm-start snapshot to its
     * operator-configured path (the SNAPSHOT admin frame). Returns
     * false when the server has no path configured or the save failed.
     */
    bool snapshot();

    /**
     * Fetch the server's live prediction cache as a snapshot image
     * (the SNAPSHOT-fetch subop): the chunk stream is reassembled and
     * the whole image returned, ready for
     * analysis::loadSnapshotFromMemory or an AtomicFileWriter spill to
     * disk for a warm start. The image is byte-identical to a local
     * save of the same server state. Throws ProtocolError against
     * servers too old to know the subop (they answer BadRequest).
     */
    std::vector<std::uint8_t> fetchSnapshot();

    /** Requests in flight per window of predictMany(). */
    static constexpr std::size_t kPipelineWindow = 4096;

  private:
    explicit Client(int fd);

    /**
     * Read one complete response frame. @p payload points into the
     * receive buffer and stays valid only until the next call.
     */
    ResponseHeader readResponse(const std::uint8_t *&payload);

    /**
     * Send the whole buffer on the nonblocking socket. While the send
     * buffer is full, readable response bytes are drained into inbuf_
     * (see the file comment on the pipelining deadlock).
     */
    void writeAll(const std::uint8_t *data, std::size_t len);

    /**
     * Move everything currently readable into inbuf_ without blocking.
     * Returns false once the peer has closed the connection.
     */
    bool drainSocket();

    /** Reclaim inbuf_'s consumed prefix once it outgrows a read chunk. */
    static constexpr std::size_t kCompactThreshold = 64 * 1024;

    int fd_ = -1;
    std::uint64_t nextId_ = 1;
    std::vector<std::uint8_t> inbuf_; ///< unparsed bytes from the socket
    std::size_t parsed_ = 0;          ///< consumed prefix of inbuf_
};

} // namespace facile::server

#endif // FACILE_SERVER_CLIENT_H
