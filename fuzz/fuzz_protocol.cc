/**
 * @file
 * Fuzz harness for the server's request-frame parser
 * (src/server/frame_parser.h) — the code that consumes raw bytes off
 * accepted sockets — and for the client's STATS payload decoder
 * (decodeStatsPayload in src/server/protocol.h), which parses bytes
 * a peer sent back.
 *
 * Input mapping: bit 3 of byte 0 selects the target. Set, the rest of
 * the input is one STATS response payload. Clear, the low bits pick
 * the delivery pattern (read fragmentation and buffer quota), so the
 * same frame bytes are exercised byte-at-a-time, in odd-sized chunks,
 * in transport-sized chunks, and all at once, against both a generous
 * and a tiny buffered-bytes cap.
 *
 * The harness checks what the parser guarantees: frames never desync,
 * payload views stay in bounds (every payload byte is touched, so ASan
 * sees any lie), and the buffered backlog never exceeds the cap.
 * Semantic validation of op/arch is the server's job, not the
 * parser's, so none is asserted here. For STATS it checks that exactly
 * the kStatsFields-u64 length decodes, and that a decoded payload
 * re-encodes to the same bytes.
 */
#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "server/frame_parser.h"
#include "server/protocol.h"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t *data, std::size_t size)
{
    using namespace facile::server;
    if (size == 0)
        return 0;
    const std::uint8_t mode = data[0];
    ++data;
    --size;

    if (mode & 8) {
        const auto stats = decodeStatsPayload(data, size);
        if (stats.has_value() != (size == kStatsFields * 8))
            __builtin_trap();
        if (stats) {
            std::vector<std::uint8_t> frame;
            appendStatsResponse(frame, 0, *stats);
            if (frame.size() != kResponseHeaderSize + size ||
                std::memcmp(frame.data() + kResponseHeaderSize, data,
                            size) != 0)
                __builtin_trap();
        }
        return 0;
    }

    FrameParser::Options opts;
    // The tiny cap is below the largest legal frame on purpose: it
    // makes the reject path reachable with small fuzz inputs.
    opts.maxBuffered = (mode & 4)
                           ? FrameParser::kDefaultMaxBuffered
                           : 2048;
    FrameParser parser(opts);

    std::size_t off = 0;
    while (off < size) {
        std::size_t chunk;
        switch (mode & 3) {
          case 0:
            chunk = 1;
            break;
          case 1:
            chunk = 7;
            break;
          case 2:
            chunk = 4096;
            break;
          default:
            chunk = size - off;
            break;
        }
        chunk = std::min(chunk, size - off);
        if (!parser.feed(data + off, chunk)) {
            // Quota hit: the server closes the connection here. Model
            // that with a fresh parser so later bytes still fuzz.
            parser = FrameParser(opts);
        }
        off += chunk;

        FrameView f;
        while (parser.next(f)) {
            if (f.header.len > 0 && f.payload == nullptr)
                __builtin_trap();
            std::uint8_t sum = 0;
            for (std::size_t i = 0; i < f.header.len; ++i)
                sum ^= f.payload[i];
            volatile std::uint8_t acc = sum; // every byte is read
            (void)acc;
        }
        if (parser.buffered() > opts.maxBuffered)
            __builtin_trap();
        // After a full drain, midFrame() and buffered() must agree.
        if (parser.midFrame() != (parser.buffered() > 0))
            __builtin_trap();
    }
    return 0;
}
