/**
 * @file
 * Encoding of the Skyway `baddr` header word (paper sections 4.2 and
 * its "Support for Threads" discussion):
 *
 *     byte  7      shuffle-phase id (sID)
 *     bytes 5..6   sending stream/thread id
 *     bytes 0..4   relative address of the object's clone in that
 *                  stream's output buffer (40 bits)
 *
 * A baddr is *valid* only when its sID equals the current shuffle
 * phase; contents from earlier phases are stale by construction, so
 * the word never needs clearing between phases.
 */

#ifndef SKYWAY_SKYWAY_BADDR_HH
#define SKYWAY_SKYWAY_BADDR_HH

#include <cstdint>
#include <cstring>

#include "support/types.hh"

namespace skyway
{
namespace baddr
{

constexpr int sidShift = 56;
constexpr int tidShift = 40;
constexpr Word relMask = (1ull << 40) - 1;
constexpr Word tidMask = 0xffffull << tidShift;

/** Largest relative buffer address representable (40 bits = 1 TB). */
constexpr std::uint64_t maxRel = relMask;

constexpr Word
compose(std::uint8_t sid, std::uint16_t tid, std::uint64_t rel)
{
    return (static_cast<Word>(sid) << sidShift) |
           (static_cast<Word>(tid) << tidShift) | (rel & relMask);
}

constexpr std::uint8_t
sidOf(Word w)
{
    return static_cast<std::uint8_t>(w >> sidShift);
}

constexpr std::uint16_t
tidOf(Word w)
{
    return static_cast<std::uint16_t>((w & tidMask) >> tidShift);
}

constexpr std::uint64_t
relOf(Word w)
{
    return w & relMask;
}

} // namespace baddr

/**
 * Segment kind words (docs/WIRE_FORMAT.md). Every flushed segment
 * starts with one. Both set the mark word's reserved top bits, which
 * are zero in every real object header (see objectformat.hh), so a
 * receiver can never confuse a kind word with an object's mark word.
 */
namespace marker
{

constexpr Word reserved = 0x3ull << 62;

/**
 * A raw segment follows: the rest of its header (record-region
 * bytes, root count), the records, then the root table (see rawseg).
 */
constexpr Word rawSeg = reserved | 0x5E6D;

/**
 * A compact-encoded segment follows (docs/WIRE_FORMAT.md): a varint
 * payload length and then tagged compact items, re-expanded to full
 * heap format by the receiver's linear scan.
 */
constexpr Word compactSeg = reserved | 0xC0DE;

} // namespace marker

/**
 * Raw segment layout:
 *
 *     [rawSeg][record-region bytes][root count]   24-byte header
 *     [records ...]                               the logical stream
 *     [root slot] x root count                    the root table
 *
 * Only record bytes take logical (relative-address) space. The root
 * table holds one slot word per writeObject, in call order: 0 for a
 * null root, else the root record's relative address + 1, tagged
 * with firstWrite when this writeObject wrote the record (the paper's
 * top mark) rather than naming one written earlier in the phase (a
 * backward reference). A tagged root's record is in this segment or,
 * when it did not fit, the first record of the next one.
 */
namespace rawseg
{

constexpr std::size_t headerBytes = 3 * wordSize;

constexpr Word firstWrite = 1ull << 62;

/** The slot word (0 = null, else relative address + 1) of a root. */
constexpr Word
slotOf(Word root)
{
    return root & ~firstWrite;
}

constexpr bool
isFirstWrite(Word root)
{
    return (root & firstWrite) != 0;
}

/** A raw segment's header fields. */
struct Header
{
    std::size_t recordBytes = 0;
    std::size_t roots = 0;

    /** The whole segment: header, records and root table. */
    std::size_t
    bytes() const
    {
        return headerBytes + recordBytes + roots * wordSize;
    }
};

enum class Parse
{
    Ok,
    /** The first word is not rawSeg. */
    NotRaw,
    /** The header, or the lengths it names, run past the bytes. */
    Truncated,
};

/** Read the header of the raw segment at @p seg, @p len bytes long. */
inline Parse
parseHeader(const std::uint8_t *seg, std::size_t len, Header &h)
{
    Word w[3];
    if (len < wordSize)
        return Parse::Truncated;
    std::memcpy(w, seg, wordSize);
    if (w[0] != marker::rawSeg)
        return Parse::NotRaw;
    if (len < headerBytes)
        return Parse::Truncated;
    std::memcpy(w, seg, headerBytes);
    std::size_t room = len - headerBytes;
    if (w[1] > room || w[2] > (room - w[1]) / wordSize)
        return Parse::Truncated;
    h = Header{static_cast<std::size_t>(w[1]),
               static_cast<std::size_t>(w[2])};
    return Parse::Ok;
}

} // namespace rawseg
} // namespace skyway

#endif // SKYWAY_SKYWAY_BADDR_HH
