/**
 * @file
 * FrameParser unit tests: the connection-free request-frame parser
 * (src/server/frame_parser.h) must recover the same frames whatever
 * the read fragmentation — byte-at-a-time, split mid-header or
 * mid-payload, everything at once — must never desync on garbage that
 * happens to frame, and must enforce its buffered-byte quota without
 * corrupting state. Plus wire-codec coverage for the widened STATS
 * payload and the typed ProtocolError.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <iterator>
#include <vector>

#include "server/frame_parser.h"

namespace facile::server {
namespace {

/** A PREDICT frame with recognizable payload bytes. */
std::vector<std::uint8_t>
predictFrame(std::uint64_t id, std::size_t payloadLen)
{
    engine::Request req;
    req.bytes.resize(payloadLen);
    for (std::size_t i = 0; i < payloadLen; ++i)
        req.bytes[i] = static_cast<std::uint8_t>(id + i);
    std::vector<std::uint8_t> frame;
    appendPredictRequest(frame, id, req);
    return frame;
}

/** Drain every complete frame, appending copies of the views. */
std::vector<std::pair<RequestHeader, std::vector<std::uint8_t>>>
drain(FrameParser &p)
{
    std::vector<std::pair<RequestHeader, std::vector<std::uint8_t>>> out;
    FrameView f;
    while (p.next(f))
        out.emplace_back(f.header,
                         std::vector<std::uint8_t>(
                             f.payload, f.payload + f.header.len));
    return out;
}

TEST(FrameParser, ByteAtATimeRecoversEveryFrame)
{
    std::vector<std::uint8_t> stream;
    for (std::uint64_t id = 1; id <= 5; ++id) {
        auto frame = predictFrame(id, static_cast<std::size_t>(id * 3));
        stream.insert(stream.end(), frame.begin(), frame.end());
    }

    FrameParser parser;
    std::vector<std::pair<RequestHeader, std::vector<std::uint8_t>>> got;
    for (std::uint8_t byte : stream) {
        ASSERT_TRUE(parser.feed(&byte, 1));
        auto frames = drain(parser);
        got.insert(got.end(), frames.begin(), frames.end());
    }

    ASSERT_EQ(got.size(), 5u);
    for (std::uint64_t id = 1; id <= 5; ++id) {
        const auto &[h, payload] = got[id - 1];
        EXPECT_EQ(h.id, id);
        EXPECT_EQ(h.op, static_cast<std::uint8_t>(Op::Predict));
        ASSERT_EQ(payload.size(), id * 3);
        for (std::size_t i = 0; i < payload.size(); ++i)
            EXPECT_EQ(payload[i], static_cast<std::uint8_t>(id + i));
    }
    EXPECT_EQ(parser.buffered(), 0u);
    EXPECT_FALSE(parser.midFrame());
}

TEST(FrameParser, SplitAcrossReadsAtEveryBoundary)
{
    // One frame, split at every possible position: the parser must
    // yield exactly one identical frame regardless of the cut.
    const auto frame = predictFrame(42, 100);
    for (std::size_t cut = 0; cut <= frame.size(); ++cut) {
        FrameParser parser;
        ASSERT_TRUE(parser.feed(frame.data(), cut));
        FrameView f;
        if (cut < frame.size()) {
            EXPECT_FALSE(parser.next(f)) << "cut at " << cut;
            EXPECT_EQ(parser.midFrame(), cut > 0);
        }
        ASSERT_TRUE(
            parser.feed(frame.data() + cut, frame.size() - cut));
        ASSERT_TRUE(parser.next(f)) << "cut at " << cut;
        EXPECT_EQ(f.header.id, 42u);
        ASSERT_EQ(f.header.len, 100u);
        EXPECT_EQ(f.payload[0], 42);
        EXPECT_FALSE(parser.next(f));
        EXPECT_FALSE(parser.midFrame());
    }
}

TEST(FrameParser, GarbagePrefixFramesWithoutDesync)
{
    // 16 garbage bytes parse as *some* header — the parser's contract
    // is framing, not semantics. Craft garbage whose u16 len field
    // frames a bogus payload, follow it with a real frame, and check
    // the real frame comes out intact right after the bogus one.
    std::uint8_t garbage[kRequestHeaderSize];
    std::memset(garbage, 0xAB, sizeof garbage);
    const std::uint16_t bogusLen = 37;
    std::memcpy(garbage + 14, &bogusLen, 2);

    std::vector<std::uint8_t> stream(garbage, garbage + sizeof garbage);
    stream.insert(stream.end(), bogusLen, 0xCD);
    const auto real = predictFrame(7, 20);
    stream.insert(stream.end(), real.begin(), real.end());

    FrameParser parser;
    ASSERT_TRUE(parser.feed(stream.data(), stream.size()));
    auto frames = drain(parser);
    ASSERT_EQ(frames.size(), 2u);
    EXPECT_EQ(frames[0].first.op, 0xAB);
    EXPECT_EQ(frames[0].second.size(), bogusLen);
    EXPECT_EQ(frames[1].first.id, 7u);
    EXPECT_EQ(frames[1].first.op,
              static_cast<std::uint8_t>(Op::Predict));
    EXPECT_EQ(frames[1].second.size(), 20u);
    EXPECT_EQ(parser.buffered(), 0u);
}

TEST(FrameParser, BufferedQuotaRejectsWithoutBuffering)
{
    FrameParser::Options opts;
    opts.maxBuffered = 64;
    FrameParser parser(opts);

    std::vector<std::uint8_t> partial(60, 0xEE); // no complete frame
    ASSERT_TRUE(parser.feed(partial.data(), partial.size()));
    EXPECT_EQ(parser.buffered(), 60u);

    // Overflowing feed is rejected whole and buffers nothing.
    std::vector<std::uint8_t> more(10, 0xEE);
    EXPECT_FALSE(parser.feed(more.data(), more.size()));
    EXPECT_EQ(parser.buffered(), 60u);

    // The parser stays consistent: room under the cap still works.
    EXPECT_TRUE(parser.feed(more.data(), 4));
    EXPECT_EQ(parser.buffered(), 64u);
}

TEST(FrameParser, CompactionPreservesPendingPartialFrame)
{
    // Drain a large consumed prefix, leave a partial frame, and keep
    // feeding: compaction must not lose or shift the partial bytes.
    FrameParser parser;
    for (std::uint64_t id = 1; id <= 40; ++id) {
        auto frame = predictFrame(id, 3000);
        ASSERT_TRUE(parser.feed(frame.data(), frame.size()));
        auto frames = drain(parser);
        ASSERT_EQ(frames.size(), 1u);
        EXPECT_EQ(frames[0].first.id, id);
    }
    const auto last = predictFrame(99, 200);
    ASSERT_TRUE(parser.feed(last.data(), last.size() - 50));
    EXPECT_TRUE(parser.midFrame());
    ASSERT_TRUE(
        parser.feed(last.data() + last.size() - 50, 50));
    auto frames = drain(parser);
    ASSERT_EQ(frames.size(), 1u);
    EXPECT_EQ(frames[0].first.id, 99u);
    ASSERT_EQ(frames[0].second.size(), 200u);
    EXPECT_EQ(frames[0].second[0], 99);
}

TEST(Protocol, StatsPayloadRoundTripsAllCounters)
{
    // The wire order written out by hand, independently of
    // kStatsLayout, so a reordered or missing table entry fails here.
    std::uint64_t ServerStats::*const wireOrder[] = {
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
    constexpr std::size_t kFields = 27;
    static_assert(std::size(wireOrder) == kFields);

    ServerStats s;
    for (std::size_t i = 0; i < kFields; ++i)
        s.*wireOrder[i] = 1000 + i;

    std::vector<std::uint8_t> frame;
    appendStatsResponse(frame, 5, s);
    ResponseHeader h = parseResponseHeader(frame.data());
    ASSERT_EQ(h.len, kFields * 8);
    ASSERT_EQ(frame.size(), kResponseHeaderSize + kFields * 8);
    const std::uint8_t *payload = frame.data() + kResponseHeaderSize;
    for (std::size_t i = 0; i < kFields; ++i) {
        std::uint64_t v = 0;
        for (int b = 7; b >= 0; --b)
            v = (v << 8) | payload[8 * i + static_cast<std::size_t>(b)];
        EXPECT_EQ(v, 1000 + i) << "wire field " << i;
    }

    auto back = decodeStatsPayload(payload, h.len);
    ASSERT_TRUE(back.has_value());
    for (std::size_t i = 0; i < kFields; ++i)
        EXPECT_EQ((*back).*wireOrder[i], 1000 + i) << "field " << i;
}

TEST(Protocol, StatsPayloadMustBeExactly27Fields)
{
    ServerStats s;
    s.requests = 7;
    std::vector<std::uint8_t> frame;
    appendStatsResponse(frame, 5, s);
    std::vector<std::uint8_t> payload(frame.begin() + kResponseHeaderSize,
                                      frame.end());
    payload.resize(28 * 8 + 3, 0xab);

    auto exact = decodeStatsPayload(payload.data(), 27 * 8);
    ASSERT_TRUE(exact.has_value());
    EXPECT_EQ(exact->requests, 7u);

    // One field short, one field long, or not a whole number of u64s:
    // malformed.
    EXPECT_FALSE(decodeStatsPayload(payload.data(), 26 * 8).has_value());
    EXPECT_FALSE(decodeStatsPayload(payload.data(), 28 * 8).has_value());
    EXPECT_FALSE(
        decodeStatsPayload(payload.data(), 27 * 8 + 3).has_value());
}

TEST(Protocol, ProtocolErrorCarriesWireStatus)
{
    ProtocolError overloaded("server overloaded", Status::Overloaded);
    EXPECT_EQ(overloaded.status(), Status::Overloaded);
    EXPECT_TRUE(std::string(overloaded.what()).find("protocol:") == 0);

    ProtocolError local("malformed payload");
    EXPECT_EQ(local.status(), Status::Ok); // no wire status involved

    // ProtocolError is a runtime_error: code catching the old type
    // still catches the new one.
    EXPECT_THROW(throw ProtocolError("x"), std::runtime_error);
}

} // namespace
} // namespace facile::server
