/**
 * @file
 * Wire protocol of the prediction server: a small framed binary format
 * shared by the server, the client library, and the load generator.
 *
 * Every frame is a fixed-size little-endian header followed by a
 * length-prefixed payload, so a reader can always stay in sync: it
 * reads the header, then exactly `len` payload bytes, regardless of
 * whether it understands the op. Doubles travel as raw IEEE-754 bit
 * patterns, which is what makes the server's responses bit-identical
 * to serial model::predict() — no text round-trip, no rounding.
 *
 * Request frame (16-byte header + len payload bytes):
 *
 *   offset 0   u64  id       client-chosen; echoed in the response
 *   offset 8   u8   op       1=PREDICT  2=STATS  3=PING  4=SNAPSHOT
 *                            (admin; see "SNAPSHOT subops" below:
 *                            persist a warm-start snapshot to the
 *                            operator-configured snapshotPath, or
 *                            stream the live image to the caller)
 *                            5=HEALTH (readiness probe: payload is one
 *                            u8, 1=READY 2=DRAINING; a router shards
 *                            traffic away from draining replicas)
 *   offset 9   u8   arch     uarch::UArch value (PREDICT only)
 *   offset 10  u8   flags    bit 0: loop (TPL vs TPU); bit 1: explain
 *                            (build the interpretability payload —
 *                            criticalChain / contendedPorts /
 *                            contendingInsts; without it the server
 *                            serves the cheap bound-only path and the
 *                            payload counts in the response are 0)
 *   offset 11  u8   reserved must be 0
 *   offset 12  u16  config   model::ModelConfig::packBits()
 *   offset 14  u16  len      payload length; PREDICT: the raw block
 *                            bytes (<= kMaxBlockBytes), others: 0
 *
 * Response frame (12-byte header + len payload bytes):
 *
 *   offset 0   u64  id       echo of the request id
 *   offset 8   u8   status   0=OK  1=BAD_REQUEST (unknown op, bad
 *                            arch, oversized block)  2=OVERLOADED
 *                            (load shed: admission queue full or the
 *                            connection's in-flight quota exceeded;
 *                            the request was valid — back off, retry)
 *                            3=DRAINING (the server is shutting down
 *                            gracefully: it no longer accepts PREDICT
 *                            work but still answers control ops; retry
 *                            against another replica or after backoff)
 *   offset 9   u8   op       echo of the request op
 *   offset 10  u16  len      payload length
 *
 * PREDICT response payload (72 bytes + variable tail):
 *
 *   u64  throughput bits          u64  componentValue bits x 7
 *   u8   primaryBottleneck        u8   nBottlenecks
 *   u16  nCriticalChain           u16  nContendingInsts
 *   u16  contendedPorts
 *   u8   bottlenecks[nBottlenecks]
 *   i32  criticalChain[nCriticalChain]
 *   i32  contendingInsts[nContendingInsts]
 *
 * STATS response payload: ServerStats as exactly kStatsFields (27) u64
 * fields in kStatsLayout order; a payload of any other length is
 * malformed. PING response payload: empty. HEALTH response payload:
 * one u8 readiness state (decoders must tolerate longer payloads).
 *
 * SNAPSHOT subops (the first request-payload byte; an empty payload
 * means SAVE for compatibility with pre-cluster clients):
 *
 *   0 = SAVE   persist a warm-start snapshot (the prediction
 *              cache) to the operator-configured
 *              snapshotPath; answers BAD_REQUEST when no path is
 *              configured or the save fails. The path is never taken
 *              from the wire.
 *   1 = FETCH  stream the live snapshot image (format version 3) to
 *              the caller: the response is a SEQUENCE of frames, all
 *              carrying the request id, op SNAPSHOT, status OK, each
 *              with a chunk payload
 *
 *                  u64 totalBytes   image size, same in every chunk
 *                  u64 offset       byte offset of this chunk's data
 *                  data             <= len - 16 image bytes, in order
 *
 *              The stream is complete when offset + data length ==
 *              totalBytes (a zero-byte image is one data-less chunk).
 *              This is how a new replica bootstraps: fetch a peer's
 *              image, validate, land it on disk, and warm-start
 *              bit-identically through the normal load path.
 *              Servers that predate the subop answer BAD_REQUEST —
 *              callers fall back to a cold start.
 *
 *   Other subop values answer BAD_REQUEST.
 *
 * A malformed-but-well-framed block (decode error) is NOT a protocol
 * error: it follows the engine's crash protocol and yields status OK
 * with a default prediction (throughput 0).
 */
#ifndef FACILE_SERVER_PROTOCOL_H
#define FACILE_SERVER_PROTOCOL_H

#include <bit>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <optional>
#include <vector>

#include "engine/engine.h"
#include "facile/predictor.h"

namespace facile::server {

static_assert(std::endian::native == std::endian::little,
              "the wire protocol and its memcpy codec assume a "
              "little-endian host");

enum class Op : std::uint8_t {
    Predict = 1,
    Stats = 2,
    Ping = 3,
    Snapshot = 4,
    Health = 5,
};

enum class Status : std::uint8_t {
    Ok = 0,
    BadRequest = 1,
    /**
     * Explicit backpressure: the server is shedding this request
     * because a resource limit was hit (admission queue full, or the
     * connection's in-flight quota exceeded). The connection stays
     * usable — the client should back off and retry; nothing about
     * the request itself was wrong.
     */
    Overloaded = 2,
    /**
     * Graceful shutdown in progress: the server is flushing in-flight
     * batches and no longer takes PREDICT work (control ops still
     * answer). Like Overloaded this says nothing was wrong with the
     * request — retry elsewhere or after backoff.
     */
    Draining = 3,
};

/** HEALTH response payload values (first u8). */
enum class HealthState : std::uint8_t {
    Unknown = 0,
    Ready = 1,
    Draining = 2,
};

/**
 * Typed protocol fault (mirrors analysis::SnapshotError): the peer
 * spoke the wire format wrong or rejected a request — as opposed to a
 * transport fault (TransportError below). status() carries the wire
 * status for rejections (Status::Overloaded and Status::Draining mean
 * "back off and retry"); locally detected faults (malformed payload,
 * id mismatch) report Status::Ok there since no wire status was
 * involved.
 */
class ProtocolError : public std::runtime_error
{
  public:
    explicit ProtocolError(const std::string &what,
                           Status status = Status::Ok)
        : std::runtime_error("protocol: " + what), status_(status)
    {}

    Status status() const { return status_; }

    /**
     * Retryable-vs-fatal taxonomy for self-healing clients: a shed
     * (Overloaded/Draining) is the server explicitly asking for a
     * retry after backoff; everything else — BadRequest, malformed
     * payloads, id mismatches — will fail the same way again and must
     * surface to the caller.
     */
    bool retryable() const
    {
        return status_ == Status::Overloaded || status_ == Status::Draining;
    }

  private:
    Status status_;
};

/**
 * Typed transport fault: the connection itself failed (reset, refused,
 * unexpected EOF, poll timeout) rather than the protocol being spoken
 * wrong. Always retryable after a reconnect — PREDICT is pure, so a
 * self-healing client may replay in-flight requests on a fresh
 * connection (ResilientClient does exactly that).
 */
class TransportError : public std::runtime_error
{
  public:
    explicit TransportError(const std::string &what)
        : std::runtime_error("transport: " + what)
    {}
};

/** Request flag bits (the u8 at offset 10). */
inline constexpr std::uint8_t kFlagLoop = 1u << 0;
inline constexpr std::uint8_t kFlagExplain = 1u << 1;

/** SNAPSHOT request subops (first payload byte; empty payload = SAVE). */
inline constexpr std::uint8_t kSnapshotSubopSave = 0;
inline constexpr std::uint8_t kSnapshotSubopFetch = 1;

inline constexpr std::size_t kRequestHeaderSize = 16;
inline constexpr std::size_t kResponseHeaderSize = 12;

/** Fixed prefix of a SNAPSHOT-fetch chunk payload (totalBytes, offset). */
inline constexpr std::size_t kSnapshotChunkHeaderSize = 16;

/** Image bytes per SNAPSHOT-fetch chunk (payload len is a u16). */
inline constexpr std::size_t kSnapshotChunkBytes =
    65535 - kSnapshotChunkHeaderSize;

/** Upper bound on block bytes per request (BHive blocks are ~10-60). */
inline constexpr std::size_t kMaxBlockBytes = 4096;

/** Parsed request frame header. */
struct RequestHeader
{
    std::uint64_t id = 0;
    std::uint8_t op = 0;
    std::uint8_t arch = 0;
    std::uint8_t flags = 0;
    std::uint16_t config = 0;
    std::uint16_t len = 0;
};

/** Parsed response frame header. */
struct ResponseHeader
{
    std::uint64_t id = 0;
    std::uint8_t status = 0;
    std::uint8_t op = 0;
    std::uint16_t len = 0;
};

/** Counters reported by the STATS op (all monotonic except open/uptime). */
struct ServerStats
{
    std::uint64_t requests = 0;        ///< frames received, any op
    std::uint64_t predictions = 0;     ///< PREDICT responses sent
    std::uint64_t batches = 0;         ///< engine batch submissions
    std::uint64_t maxBatch = 0;        ///< largest admission batch so far
    std::uint64_t analysisCacheHits = 0; ///< retired, always 0
    std::uint64_t predictionCacheHits = 0;
    std::uint64_t analyzed = 0;

    // Resource-limit counters (ServerOptions quotas; zero in healthy
    // steady state — any growth here means load shedding happened).
    std::uint64_t overloadedQueue = 0; ///< OVERLOADED: admission queue full
    std::uint64_t overloadedConn = 0;  ///< OVERLOADED: in-flight quota hit
    std::uint64_t readTimeouts = 0;    ///< conns closed by read deadline
    std::uint64_t quotaClosed = 0;     ///< conns closed: buffered-byte quota
    std::uint64_t connectionsShed = 0; ///< conns refused at accept (cap)

    std::uint64_t connectionsAccepted = 0;
    std::uint64_t connectionsOpen = 0;
    std::uint64_t uptimeMs = 0;

    // Event-loop data-plane counters.
    std::uint64_t epollWakeups = 0; ///< epoll_wait returns, all io loops
    std::uint64_t shortWrites = 0;  ///< partial writev: EPOLLOUT resume
    std::uint64_t ringFull = 0;     ///< admission-ring capacity rejections

    // Fault-tolerance counters (appended in PR 8). The first two are
    // client-side: a server always reports 0 there, and
    // ResilientClient::stats() fills in its own reconnect/retry tallies
    // so one struct describes the whole path end to end.
    std::uint64_t reconnects = 0;        ///< client: successful reconnects
    std::uint64_t retriedRequests = 0;   ///< client: requests re-sent
    std::uint64_t drainSheds = 0;        ///< PREDICTs answered DRAINING
    std::uint64_t snapshotFallbacks = 0; ///< warm-start generations skipped

    // Appended after the fault-tolerance counters.
    /**
     * Whether a warm-start snapshot was loaded, as the numeric value
     * of analysis::SnapshotLoadMode: 0 none/cold, 2 loaded. 1 and 3
     * are retired.
     */
    std::uint64_t snapshotLoadMode = 0;

    // Cluster-mode counters (appended in PR 10). routedPredicts and
    // backendFailovers are router-side: a backend server always
    // reports 0 there and facile_lb fills them in, mirroring how
    // ResilientClient owns reconnects/retriedRequests. The convergence
    // counter is likewise owned by the replica's ConvergenceLoop.
    std::uint64_t snapshotFetchesServed = 0; ///< SNAPSHOT FETCH streams
    std::uint64_t routedPredicts = 0;        ///< router: PREDICTs forwarded
    std::uint64_t backendFailovers = 0;      ///< router: in-flight replays
    std::uint64_t convergenceMerges = 0;     ///< replica: union folds done
};

/**
 * The STATS response payload: one little-endian u64 per ServerStats
 * field, in this order. appendStatsResponse and decodeStatsPayload
 * both walk this table, and the layout is frozen at kStatsFields
 * fields.
 */
inline constexpr std::uint64_t ServerStats::*kStatsLayout[] = {
    &ServerStats::requests,
    &ServerStats::predictions,
    &ServerStats::batches,
    &ServerStats::maxBatch,
    &ServerStats::analysisCacheHits,
    &ServerStats::predictionCacheHits,
    &ServerStats::analyzed,
    &ServerStats::overloadedQueue,
    &ServerStats::overloadedConn,
    &ServerStats::readTimeouts,
    &ServerStats::quotaClosed,
    &ServerStats::connectionsShed,
    &ServerStats::connectionsAccepted,
    &ServerStats::connectionsOpen,
    &ServerStats::uptimeMs,
    &ServerStats::epollWakeups,
    &ServerStats::shortWrites,
    &ServerStats::ringFull,
    &ServerStats::reconnects,
    &ServerStats::retriedRequests,
    &ServerStats::drainSheds,
    &ServerStats::snapshotFallbacks,
    &ServerStats::snapshotLoadMode,
    &ServerStats::snapshotFetchesServed,
    &ServerStats::routedPredicts,
    &ServerStats::backendFailovers,
    &ServerStats::convergenceMerges,
};

/** Number of u64 fields in the STATS response payload. */
inline constexpr std::size_t kStatsFields = std::size(kStatsLayout);
static_assert(kStatsFields == 27 &&
                  sizeof(ServerStats) == kStatsFields * sizeof(std::uint64_t),
              "every ServerStats field is on the wire, exactly once");

// ---- little-endian append/read helpers ------------------------------------
// Encoders write through a raw cursor into pre-grown buffer space: the
// serving hot path appends hundreds of frames per batch, and per-byte
// push_back bounds-checking is measurable there.

/** Extend @p buf by @p n bytes and return a cursor to the new space. */
inline std::uint8_t *
growBuf(std::vector<std::uint8_t> &buf, std::size_t n)
{
    const std::size_t old = buf.size();
    buf.resize(old + n);
    return buf.data() + old;
}

inline void
putU16(std::uint8_t *&p, std::uint16_t v)
{
    std::memcpy(p, &v, sizeof v);
    p += sizeof v;
}

inline void
putU32(std::uint8_t *&p, std::uint32_t v)
{
    std::memcpy(p, &v, sizeof v);
    p += sizeof v;
}

inline void
putU64(std::uint8_t *&p, std::uint64_t v)
{
    std::memcpy(p, &v, sizeof v);
    p += sizeof v;
}

inline std::uint16_t
getU16(const std::uint8_t *p)
{
    std::uint16_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

inline std::uint64_t
getU64(const std::uint8_t *p)
{
    std::uint64_t v;
    std::memcpy(&v, p, sizeof v);
    return v;
}

// ---- frame codec ----------------------------------------------------------

/** Append a PREDICT request frame for @p req with client id @p id. */
void appendPredictRequest(std::vector<std::uint8_t> &buf, std::uint64_t id,
                          const engine::Request &req);

/** Append a payload-less request frame (STATS, PING). */
void appendControlRequest(std::vector<std::uint8_t> &buf, std::uint64_t id,
                          Op op);

/** Append a SNAPSHOT request carrying the FETCH subop byte. */
void appendSnapshotFetchRequest(std::vector<std::uint8_t> &buf,
                                std::uint64_t id);

/** Parse a request header from kRequestHeaderSize bytes. */
RequestHeader parseRequestHeader(const std::uint8_t *p);

/** Parse a response header from kResponseHeaderSize bytes. */
ResponseHeader parseResponseHeader(const std::uint8_t *p);

/**
 * Append a complete response frame (header + payload) for a
 * prediction. The payload encodes every model::Prediction field, bits
 * preserved.
 */
void appendPredictResponse(std::vector<std::uint8_t> &buf, std::uint64_t id,
                           const model::Prediction &pred);

/** Append an error / control-op response frame. */
void appendStatusResponse(std::vector<std::uint8_t> &buf, std::uint64_t id,
                          Op op, Status status);

/** Append a STATS response frame. */
void appendStatsResponse(std::vector<std::uint8_t> &buf, std::uint64_t id,
                         const ServerStats &stats);

/** Append a HEALTH response frame (payload: one readiness u8). */
void appendHealthResponse(std::vector<std::uint8_t> &buf, std::uint64_t id,
                          HealthState state);

/**
 * Append the complete SNAPSHOT-fetch response stream for @p image:
 * one chunk frame per kSnapshotChunkBytes, all carrying @p id (a
 * zero-byte image yields a single data-less chunk, so the stream end
 * is always detectable).
 */
void appendSnapshotStream(std::vector<std::uint8_t> &buf, std::uint64_t id,
                          const std::uint8_t *image, std::size_t size);

/** One decoded SNAPSHOT-fetch chunk; data points into the payload. */
struct SnapshotChunk
{
    std::uint64_t totalBytes = 0;
    std::uint64_t offset = 0;
    const std::uint8_t *data = nullptr;
    std::size_t len = 0;
};

/**
 * Decode one SNAPSHOT-fetch chunk payload. nullopt when the payload is
 * shorter than the chunk header or internally inconsistent (offset or
 * data extending past totalBytes).
 */
std::optional<SnapshotChunk> decodeSnapshotChunk(const std::uint8_t *p,
                                                 std::size_t len);

/**
 * Decode a HEALTH response payload. Tolerates future append-only
 * extensions (extra trailing bytes); nullopt only on an empty payload.
 */
std::optional<HealthState> decodeHealthPayload(const std::uint8_t *p,
                                               std::size_t len);

/**
 * Decode a PREDICT response payload back into a Prediction. Returns
 * nullopt if the payload is truncated or inconsistent.
 */
std::optional<model::Prediction>
decodePredictPayload(const std::uint8_t *p, std::size_t len);

/**
 * As decodePredictPayload, but decodes into @p out, reusing its
 * vector capacities — the allocation-free path for clients that keep
 * a result buffer across batches. Returns false (out unspecified) on
 * a malformed payload.
 */
bool decodePredictInto(const std::uint8_t *p, std::size_t len,
                       model::Prediction &out);

/**
 * Decode a STATS response payload; nullopt unless it is exactly
 * kStatsFields u64s.
 */
std::optional<ServerStats> decodeStatsPayload(const std::uint8_t *p,
                                              std::size_t len);

} // namespace facile::server

#endif // FACILE_SERVER_PROTOCOL_H
