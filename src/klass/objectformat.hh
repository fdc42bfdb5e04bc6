/**
 * @file
 * Object header geometry and mark-word encoding.
 *
 * The layout follows Figure 6 of the Skyway paper (64-bit HotSpot with
 * the Skyway modification):
 *
 *     [ mark  ][ klass ][ baddr ][ array len ][ payload ... padding ]
 *        8 B      8 B      8 B     8 B (arrays only)
 *
 * The `baddr` word is the Skyway extension; a vanilla ("unmodified
 * HotSpot") format omits it, which is what the memory-overhead
 * experiment (paper section 5.2) compares against.
 *
 * Mark-word encoding (ours; HotSpot's differs in detail but carries the
 * same information):
 *
 *     bits  0..1   lock bits
 *     bits  2..5   GC bits (mark flag + object age)
 *     bit   6      "hash computed" flag
 *     bits  8..38  31-bit cached identity hashcode
 *     bits 62..63  always zero — reserved so that Skyway's in-buffer
 *                  top-mark words (which set both bits) can never
 *                  collide with a real object's mark word
 */

#ifndef SKYWAY_KLASS_OBJECTFORMAT_HH
#define SKYWAY_KLASS_OBJECTFORMAT_HH

#include <cstdint>

#include "support/types.hh"

namespace skyway
{

/** Byte offset of the mark word in every object. */
constexpr std::size_t offsetMark = 0;

/** Byte offset of the klass word in every object. */
constexpr std::size_t offsetKlass = 8;

/** Byte offset of the Skyway baddr word (when the format includes it). */
constexpr std::size_t offsetBaddr = 16;

/**
 * Geometry of objects in one runtime. A cluster is homogeneous when all
 * nodes share one ObjectFormat; when they differ, the Skyway sender
 * writes each clone in the receiver's format.
 */
struct ObjectFormat
{
    /** Whether objects carry the Skyway baddr header word. */
    bool hasBaddr = true;

    constexpr std::size_t
    headerBytes() const
    {
        return hasBaddr ? 3 * wordSize : 2 * wordSize;
    }

    /** Arrays store their length in one word after the header. */
    constexpr std::size_t
    arrayHeaderBytes() const
    {
        return headerBytes() + wordSize;
    }

    /** Byte offset of an array's length word. */
    constexpr std::size_t
    arrayLengthOffset() const
    {
        return headerBytes();
    }

    constexpr bool operator==(const ObjectFormat &o) const = default;
};

/** Operations on mark words. */
namespace mark
{

constexpr Word lockMask = 0x3;
constexpr Word gcMarkBit = 1ull << 2;
constexpr Word ageShift = 3;
constexpr Word ageMask = 0x7ull << ageShift;
constexpr Word hashComputedBit = 1ull << 6;
constexpr Word hashShift = 8;
constexpr Word hashMask = 0x7fffffffull << hashShift;

/** The reserved always-zero top bits (see file comment). */
constexpr Word reservedMask = 0x3ull << 62;

/** A fresh object's mark word: unlocked, unmarked, age 0, no hash. */
constexpr Word initial = 0;

constexpr bool hasHash(Word m) { return (m & hashComputedBit) != 0; }

constexpr std::int32_t
hashOf(Word m)
{
    return static_cast<std::int32_t>((m & hashMask) >> hashShift);
}

constexpr Word
withHash(Word m, std::int32_t h)
{
    Word hv = static_cast<Word>(static_cast<std::uint32_t>(h) & 0x7fffffff);
    return (m & ~hashMask) | (hv << hashShift) | hashComputedBit;
}

constexpr int
ageOf(Word m)
{
    return static_cast<int>((m & ageMask) >> ageShift);
}

constexpr Word
withAge(Word m, int age)
{
    return (m & ~ageMask) | (static_cast<Word>(age & 0x7) << ageShift);
}

constexpr bool isGcMarked(Word m) { return (m & gcMarkBit) != 0; }
constexpr Word setGcMarked(Word m) { return m | gcMarkBit; }

/**
 * Reset the machine-specific bits when a clone leaves the machine
 * (paper section 3.1): GC bits and lock bits are cleared, the cached
 * hashcode is preserved so hash-based structures need no rehash on the
 * receiving node.
 */
constexpr Word
resetForTransfer(Word m)
{
    return m & (hashMask | hashComputedBit);
}

} // namespace mark

} // namespace skyway

#endif // SKYWAY_KLASS_OBJECTFORMAT_HH
