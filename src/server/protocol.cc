#include "server/protocol.h"

namespace facile::server {

namespace {

std::uint64_t
doubleBits(double d)
{
    std::uint64_t v;
    std::memcpy(&v, &d, sizeof v);
    return v;
}

double
bitsDouble(std::uint64_t v)
{
    double d;
    std::memcpy(&d, &v, sizeof d);
    return d;
}

} // namespace

void
appendPredictRequest(std::vector<std::uint8_t> &buf, std::uint64_t id,
                     const engine::Request &req)
{
    std::uint8_t *p =
        growBuf(buf, kRequestHeaderSize + req.bytes.size());
    putU64(p, id);
    *p++ = static_cast<std::uint8_t>(Op::Predict);
    *p++ = static_cast<std::uint8_t>(req.arch);
    *p++ = static_cast<std::uint8_t>(
        (req.loop ? kFlagLoop : 0) |
        (req.payload == model::Payload::Full ? kFlagExplain : 0));
    *p++ = 0; // reserved
    putU16(p, req.config.packBits());
    putU16(p, static_cast<std::uint16_t>(req.bytes.size()));
    if (!req.bytes.empty())
        std::memcpy(p, req.bytes.data(), req.bytes.size());
}

void
appendControlRequest(std::vector<std::uint8_t> &buf, std::uint64_t id, Op op)
{
    std::uint8_t *p = growBuf(buf, kRequestHeaderSize);
    putU64(p, id);
    *p++ = static_cast<std::uint8_t>(op);
    *p++ = 0; // arch
    *p++ = 0; // flags
    *p++ = 0; // reserved
    putU16(p, 0); // config
    putU16(p, 0); // len
}

void
appendSnapshotFetchRequest(std::vector<std::uint8_t> &buf, std::uint64_t id)
{
    std::uint8_t *p = growBuf(buf, kRequestHeaderSize + 1);
    putU64(p, id);
    *p++ = static_cast<std::uint8_t>(Op::Snapshot);
    *p++ = 0;     // arch
    *p++ = 0;     // flags
    *p++ = 0;     // reserved
    putU16(p, 0); // config
    putU16(p, 1); // len: one subop byte
    *p = kSnapshotSubopFetch;
}

RequestHeader
parseRequestHeader(const std::uint8_t *p)
{
    RequestHeader h;
    h.id = getU64(p);
    h.op = p[8];
    h.arch = p[9];
    h.flags = p[10];
    h.config = getU16(p + 12);
    h.len = getU16(p + 14);
    return h;
}

ResponseHeader
parseResponseHeader(const std::uint8_t *p)
{
    ResponseHeader h;
    h.id = getU64(p);
    h.status = p[8];
    h.op = p[9];
    h.len = getU16(p + 10);
    return h;
}

std::size_t
predictPayloadSize(const model::Prediction &pred)
{
    return 72 + pred.bottlenecks.size() + 4 * pred.criticalChain.size() +
           4 * pred.contendingInsts.size();
}

void
encodePredictPayload(std::uint8_t *p, const model::Prediction &pred)
{
    putU64(p, doubleBits(pred.throughput));
    for (double v : pred.componentValue)
        putU64(p, doubleBits(v));
    *p++ = static_cast<std::uint8_t>(pred.primaryBottleneck);
    *p++ = static_cast<std::uint8_t>(pred.bottlenecks.size());
    putU16(p, static_cast<std::uint16_t>(pred.criticalChain.size()));
    putU16(p, static_cast<std::uint16_t>(pred.contendingInsts.size()));
    putU16(p, pred.contendedPorts);
    for (model::Component c : pred.bottlenecks)
        *p++ = static_cast<std::uint8_t>(c);
    for (int i : pred.criticalChain)
        putU32(p, static_cast<std::uint32_t>(i));
    for (int i : pred.contendingInsts)
        putU32(p, static_cast<std::uint32_t>(i));
}

void
appendPredictResponse(std::vector<std::uint8_t> &buf, std::uint64_t id,
                      const model::Prediction &pred)
{
    const std::size_t payload = predictPayloadSize(pred);
    std::uint8_t *p = growBuf(buf, kResponseHeaderSize + payload);
    putU64(p, id);
    *p++ = static_cast<std::uint8_t>(Status::Ok);
    *p++ = static_cast<std::uint8_t>(Op::Predict);
    putU16(p, static_cast<std::uint16_t>(payload));
    encodePredictPayload(p, pred);
}

void
appendPredictResponse(std::vector<std::uint8_t> &buf, std::uint64_t id,
                      const std::uint8_t *payload, std::size_t len)
{
    std::uint8_t *p = growBuf(buf, kResponseHeaderSize + len);
    putU64(p, id);
    *p++ = static_cast<std::uint8_t>(Status::Ok);
    *p++ = static_cast<std::uint8_t>(Op::Predict);
    putU16(p, static_cast<std::uint16_t>(len));
    std::memcpy(p, payload, len);
}

void
appendStatusResponse(std::vector<std::uint8_t> &buf, std::uint64_t id, Op op,
                     Status status)
{
    std::uint8_t *p = growBuf(buf, kResponseHeaderSize);
    putU64(p, id);
    *p++ = static_cast<std::uint8_t>(status);
    *p++ = static_cast<std::uint8_t>(op);
    putU16(p, 0);
}

void
appendStatsResponse(std::vector<std::uint8_t> &buf, std::uint64_t id,
                    const ServerStats &stats)
{
    std::uint8_t *p = growBuf(buf, kResponseHeaderSize + kStatsFields * 8);
    putU64(p, id);
    *p++ = static_cast<std::uint8_t>(Status::Ok);
    *p++ = static_cast<std::uint8_t>(Op::Stats);
    putU16(p, kStatsFields * 8);
    for (auto field : kStatsLayout)
        putU64(p, stats.*field);
}

void
appendHealthResponse(std::vector<std::uint8_t> &buf, std::uint64_t id,
                     HealthState state)
{
    std::uint8_t *p = growBuf(buf, kResponseHeaderSize + 1);
    putU64(p, id);
    *p++ = static_cast<std::uint8_t>(Status::Ok);
    *p++ = static_cast<std::uint8_t>(Op::Health);
    putU16(p, 1);
    *p = static_cast<std::uint8_t>(state);
}

void
appendSnapshotStream(std::vector<std::uint8_t> &buf, std::uint64_t id,
                     const std::uint8_t *image, std::size_t size)
{
    std::size_t offset = 0;
    do {
        const std::size_t n = std::min(kSnapshotChunkBytes, size - offset);
        std::uint8_t *p = growBuf(
            buf, kResponseHeaderSize + kSnapshotChunkHeaderSize + n);
        putU64(p, id);
        *p++ = static_cast<std::uint8_t>(Status::Ok);
        *p++ = static_cast<std::uint8_t>(Op::Snapshot);
        putU16(p,
               static_cast<std::uint16_t>(kSnapshotChunkHeaderSize + n));
        putU64(p, size);
        putU64(p, offset);
        if (n > 0)
            std::memcpy(p, image + offset, n);
        offset += n;
    } while (offset < size);
}

std::optional<SnapshotChunk>
decodeSnapshotChunk(const std::uint8_t *p, std::size_t len)
{
    if (len < kSnapshotChunkHeaderSize)
        return std::nullopt;
    SnapshotChunk c;
    c.totalBytes = getU64(p);
    c.offset = getU64(p + 8);
    c.data = p + kSnapshotChunkHeaderSize;
    c.len = len - kSnapshotChunkHeaderSize;
    if (c.offset > c.totalBytes || c.len > c.totalBytes - c.offset)
        return std::nullopt;
    return c;
}

std::optional<HealthState>
decodeHealthPayload(const std::uint8_t *p, std::size_t len)
{
    if (len < 1)
        return std::nullopt;
    switch (p[0]) {
    case static_cast<std::uint8_t>(HealthState::Ready):
        return HealthState::Ready;
    case static_cast<std::uint8_t>(HealthState::Draining):
        return HealthState::Draining;
    default:
        // Forward compatibility: a state this build doesn't know is
        // still a well-formed answer, not a protocol error.
        return HealthState::Unknown;
    }
}

bool
decodePredictInto(const std::uint8_t *p, std::size_t len,
                  model::Prediction &out)
{
    if (len < 72)
        return false;
    out.throughput = bitsDouble(getU64(p));
    for (int c = 0; c < model::kNumComponents; ++c)
        out.componentValue[static_cast<std::size_t>(c)] =
            bitsDouble(getU64(p + 8 + 8 * c));
    const std::uint8_t primary = p[64];
    const std::size_t nBottlenecks = p[65];
    const std::size_t nChain = getU16(p + 66);
    const std::size_t nContending = getU16(p + 68);
    out.contendedPorts = getU16(p + 70);
    if (primary >= static_cast<std::uint8_t>(model::kNumComponents))
        return false;
    out.primaryBottleneck = static_cast<model::Component>(primary);
    if (len != 72 + nBottlenecks + 4 * nChain + 4 * nContending)
        return false;

    const std::uint8_t *q = p + 72;
    out.bottlenecks.resize(nBottlenecks);
    for (std::size_t i = 0; i < nBottlenecks; ++i) {
        if (q[i] >= static_cast<std::uint8_t>(model::kNumComponents))
            return false;
        out.bottlenecks[i] = static_cast<model::Component>(q[i]);
    }
    q += nBottlenecks;
    out.criticalChain.resize(nChain);
    for (std::size_t i = 0; i < nChain; ++i)
        out.criticalChain[i] = static_cast<int>(getU32(q + 4 * i));
    q += 4 * nChain;
    out.contendingInsts.resize(nContending);
    for (std::size_t i = 0; i < nContending; ++i)
        out.contendingInsts[i] = static_cast<int>(getU32(q + 4 * i));
    return true;
}

std::optional<model::Prediction>
decodePredictPayload(const std::uint8_t *p, std::size_t len)
{
    model::Prediction pred;
    if (!decodePredictInto(p, len, pred))
        return std::nullopt;
    return pred;
}

std::optional<ServerStats>
decodeStatsPayload(const std::uint8_t *p, std::size_t len)
{
    if (len != kStatsFields * 8)
        return std::nullopt;
    ServerStats s;
    for (auto field : kStatsLayout) {
        s.*field = getU64(p);
        p += 8;
    }
    return s;
}

} // namespace facile::server
