/**
 * @file
 * Wire framing for the TCP transport (the byte-level story, with
 * diagrams, is docs/TRANSPORT.md). Everything on a socket is
 * little-endian fixed-width fields (both ends are the same loopback
 * host; no varints on this path — headers must be parseable with a
 * fixed-size read).
 *
 * Connection handshake (sent once by the connecting side):
 *
 *     u32 magic 'SKYW' | u8 channel (0 = data) | i32 src node id
 *     | i32 reserved (0)
 *
 * Exactly one connection per node pair carries everything between the
 * two nodes — every stream, credit grant, request and reply — as
 * tagged, length-prefixed mux frames, in both directions. A stream is
 * identified by (sender, receiver, tag); on a pair connection the
 * endpoints are fixed, so the frame header only needs the writer's
 * node id (validation), the tag, and one argument word.
 *
 * Mux frame:     u8 kind | i32 origin | i32 tag | u32 arg
 *                kind 2 = request, 3 = reply: origin is the writer,
 *                tag the request's tag, arg the payload length; the
 *                payload is a u32 request id followed by the request
 *                or reply body. The id lets a requester that timed
 *                out and resent discard the stale earlier reply.
 *                Requests and replies are exempt from credit.
 *                kind 4 = stream data: origin is the writer (the
 *                stream's sender), arg is the payload length, and
 *                `arg` payload bytes follow (arg == 0 is the
 *                end-of-stream marker, no payload).
 *                kind 5 = credit grant: origin is the writer (the
 *                stream's *receiver*, granting), arg is the number of
 *                payload bytes returned to the stream's send window,
 *                no payload. See docs/TRANSPORT.md §4.
 */

#ifndef SKYWAY_NET_FRAME_HH
#define SKYWAY_NET_FRAME_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace skyway
{
namespace frame
{

constexpr std::uint32_t handshakeMagic = 0x534B5957; // "SKYW"

constexpr std::uint8_t channelData = 0;

constexpr std::uint8_t kindRequest = 2;
constexpr std::uint8_t kindReply = 3;
constexpr std::uint8_t kindStream = 4;
constexpr std::uint8_t kindCredit = 5;

constexpr std::size_t handshakeBytes = 4 + 1 + 4 + 4;
constexpr std::size_t muxHeaderBytes = 1 + 4 + 4 + 4;
/** The request id leading a request or reply frame's payload. */
constexpr std::size_t reqIdBytes = 4;

inline void
putU32(std::uint8_t *p, std::uint32_t v)
{
    std::memcpy(p, &v, 4);
}

inline std::uint32_t
getU32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

inline void
putI32(std::uint8_t *p, std::int32_t v)
{
    std::memcpy(p, &v, 4);
}

inline std::int32_t
getI32(const std::uint8_t *p)
{
    std::int32_t v;
    std::memcpy(&v, p, 4);
    return v;
}

struct Handshake
{
    std::uint8_t channel;
    std::int32_t src;
};

inline void
encodeHandshake(std::uint8_t (&buf)[handshakeBytes], const Handshake &h)
{
    putU32(buf, handshakeMagic);
    buf[4] = h.channel;
    putI32(buf + 5, h.src);
    putI32(buf + 9, 0); // reserved
}

/** False when the magic does not match (not a Skyway peer). */
inline bool
decodeHandshake(const std::uint8_t (&buf)[handshakeBytes], Handshake &h)
{
    if (getU32(buf) != handshakeMagic)
        return false;
    h.channel = buf[4];
    h.src = getI32(buf + 5);
    return true;
}

/**
 * One multiplexed frame header on a pair connection. For kindStream,
 * @p origin is the stream's sender and @p arg the payload length
 * (0 = end of stream). For kindCredit, @p origin is the granting
 * receiver and @p arg the bytes returned to the stream's window. For
 * kindRequest/kindReply, @p arg is the payload length (request id
 * included).
 */
struct MuxHeader
{
    std::uint8_t kind;
    std::int32_t origin;
    std::int32_t tag;
    std::uint32_t arg;
};

inline void
encodeMuxHeader(std::uint8_t (&buf)[muxHeaderBytes], const MuxHeader &h)
{
    buf[0] = h.kind;
    putI32(buf + 1, h.origin);
    putI32(buf + 5, h.tag);
    putU32(buf + 9, h.arg);
}

inline MuxHeader
decodeMuxHeader(const std::uint8_t (&buf)[muxHeaderBytes])
{
    return MuxHeader{buf[0], getI32(buf + 1), getI32(buf + 5),
                     getU32(buf + 9)};
}

/** The payload of a request or reply frame: @p req_id, then @p body. */
inline std::vector<std::uint8_t>
requestPayload(std::uint32_t req_id, const std::vector<std::uint8_t> &body)
{
    std::vector<std::uint8_t> p(reqIdBytes + body.size());
    putU32(p.data(), req_id);
    if (!body.empty())
        std::memcpy(p.data() + reqIdBytes, body.data(), body.size());
    return p;
}

} // namespace frame
} // namespace skyway

#endif // SKYWAY_NET_FRAME_HH
