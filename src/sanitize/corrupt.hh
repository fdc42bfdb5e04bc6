/**
 * @file
 * SkywaySan corruption-injection harness (docs/SANITIZER.md).
 *
 * Proves the wire-format validator actually rejects what it claims
 * to: each CorruptionKind mutates one well-aimed aspect of a valid
 * stream (using the WireIndex byte map), and expectedFaults() names
 * the diagnostic categories the validator may legitimately report for
 * it. tests/test_sanitize.cc loops kinds x random seeds and asserts
 * the first diagnostic is in the expected set — a corruption that
 * validates clean, or that is rejected for the wrong reason, fails
 * the suite.
 */

#ifndef SKYWAY_SANITIZE_CORRUPT_HH
#define SKYWAY_SANITIZE_CORRUPT_HH

#include <cstdint>
#include <vector>

#include "sanitize/wirecheck.hh"
#include "support/rng.hh"

namespace skyway
{
namespace sanitize
{

/** One class of stream corruption the validator must reject. */
enum class CorruptionKind
{
    /** Klass word rewritten to an id no registry ever assigned. */
    ForgedTypeId,
    /** A reference slot re-aimed off every object start. */
    DanglingOffset,
    /** A root count inflated past the end of the stream. */
    Truncation,
    /** A first-write root slot duplicated in its root table. */
    DuplicatedTopMark,
    /** Machine-local mark bits (lock/GC/age) left set on the wire. */
    ClobberedMark,
    /** A stale sender claim left in the baddr word. */
    StaleBaddr,
    /** A segment kind word replaced by an unknown marker word. */
    BogusMarker,
    /** One random bit flipped in a header word. */
    HeaderBitFlip,
    /** Stream cut inside a compact segment (docs/WIRE_FORMAT.md). */
    CompactTruncation,
    /** A compact item tag rewritten to a code no encoder emits. */
    CompactBadTag,
    /** A compact record's type-id varint forged past the registry. */
    CompactForgedTypeId,
};

const char *corruptionKindName(CorruptionKind kind);

/**
 * Every raw-stream kind, for parameterized tests. The Compact* kinds
 * are excluded: they only have sites in streams that contain compact
 * segments, and injectCorruption panics on a siteless kind.
 */
const std::vector<CorruptionKind> &allCorruptionKinds();

/** The kinds whose sites are compact segments (SKYWAY_WIRE_COMPACT). */
const std::vector<CorruptionKind> &compactCorruptionKinds();

/**
 * Validate @p stream (panics if it is not clean — the harness only
 * corrupts known-good streams) and return its byte map.
 */
WireIndex indexStream(TypeResolver &resolver, const WireCheckConfig &cfg,
                      const std::vector<std::uint8_t> &stream);

/**
 * Return a corrupted copy of @p stream. Panics when the stream has no
 * site for @p kind (e.g. DanglingOffset on a reference-free stream);
 * callers pick graphs that exercise every kind.
 */
std::vector<std::uint8_t> injectCorruption(
    const WireIndex &index, const WireCheckConfig &cfg,
    std::vector<std::uint8_t> stream, CorruptionKind kind, Rng &rng);

/** Diagnostic categories the validator may report for @p kind. */
const std::vector<WireFault> &expectedFaults(CorruptionKind kind);

} // namespace sanitize
} // namespace skyway

#endif // SKYWAY_SANITIZE_CORRUPT_HH
