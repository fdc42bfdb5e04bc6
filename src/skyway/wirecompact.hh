/**
 * @file
 * Adaptive per-class compact wire encoding (docs/WIRE_FORMAT.md).
 *
 * Skyway's known cost is byte inflation: raw transfer ships object
 * headers, alignment padding, and 8-byte reference slots alongside
 * the actual data. The compact encoder rides the sender's copy loop
 * and encodes each record class by class as it is cloned: classes
 * whose estimated saving beats the CPU cost of encoding travel as
 * tagged compact items (no padding, varint-narrowed in-segment
 * references, optional zero-run RLE for dense primitive arrays);
 * everything else travels verbatim inside the same segment. Each
 * flush ships the items or, when they do not win, the raw segment.
 * The receiver's wire decoder (skyway/wiredecode.hh) re-expands
 * compact items during its one linear pass, writing full heap-format
 * records into the same chunks — heap semantics, baddr relocation,
 * and everything downstream of the decoder are unchanged.
 *
 * Compact segment layout (all varints LEB128):
 *
 *   [8B marker::compactSeg][varint payloadLen][payload = items...]
 *
 *   item := 0x01                                   root: the next record
 *         | 0x02 varint(slotWord)                  root: a slot word
 *         | 0x03 varint(rawLen) rawBytes           raw record, verbatim
 *         | 0x04 varint(tid) varint(mark) fields   instance, packed
 *         | 0x05 varint(tid) varint(mark) varint(n) payload
 *                                                  primitive array
 *         | 0x06 varint(tid) varint(mark) varint(n) varint(slot)*n
 *                                                  reference array
 *         | 0x07 varint(tid) varint(mark) varint(n) rlePairs
 *                                                  primitive array, RLE
 *
 * The per-class raw/compact choice is driven by a static layout
 * estimate and refined by measured per-class byte accounting; the
 * threshold scales with the link's ns-per-byte cost so compaction
 * pays no CPU tax where bandwidth is free (see WirePolicy).
 */

#ifndef SKYWAY_SKYWAY_WIRECOMPACT_HH
#define SKYWAY_SKYWAY_WIRECOMPACT_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "klass/objectformat.hh"
#include "skyway/outputbuffer.hh"
#include "skyway/wiredecode.hh"
#include "support/thread_annotations.hh"

namespace skyway
{

class Klass;
class SkywayContext;

/** Send-path compaction switch (env `SKYWAY_WIRE_COMPACT`). */
enum class WireCompactMode
{
    /** Every segment travels raw — the seed wire format. */
    Off,
    /** Per-class adaptive choice (the default policy, see WirePolicy). */
    Auto,
    /** Every eligible record travels compact, regardless of the win
     *  estimate — for tests and the forced CI pass. */
    Force,
};

/** Parse `SKYWAY_WIRE_COMPACT` (off|auto|force; unset/unknown = Off). */
WireCompactMode wireCompactModeFromEnv();

namespace wire
{

/** Zero runs shorter than this stay literal in the RLE coder. */
constexpr std::size_t rleMinZeroRun = 16;

/** LEB128 append, write at @p p, and measure (shared by the encoder,
 *  the SkywaySan corruption harness, and the layout estimate — inline
 *  so the sanitize library needs no link dependency on the send
 *  path). */
inline void
putVarU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    out.push_back(static_cast<std::uint8_t>(v));
}

inline void
putVarU64(std::uint8_t *p, std::uint64_t v)
{
    while (v >= 0x80) {
        *p++ = static_cast<std::uint8_t>(v) | 0x80;
        v >>= 7;
    }
    *p = static_cast<std::uint8_t>(v);
}

inline std::size_t
varLen(std::uint64_t v)
{
    std::size_t n = 1;
    while (v >= 0x80) {
        v >>= 7;
        ++n;
    }
    return n;
}

/**
 * Estimated compact saving for one class, as a percent of its raw
 * wire bytes (0–100). Pure layout arithmetic: header + padding +
 * (8 − ~2) per reference slot over the raw record size, using a
 * 16-element guess for arrays (the measured feedback loop corrects
 * for real array sizes). Instances are exact up to the varint-width
 * guesses (2-byte tid, 1-byte mark, 2-byte reference slots).
 */
int staticSavingPercent(const Klass *k, const ObjectFormat &wire_fmt);

/**
 * The adaptive decision policy. A class is compacted when its
 * estimated saving (percent of raw bytes) is at least
 * `100 * kEncodeCpuNsPerByte / wire_ns_per_byte`: spending one
 * CPU-ns must buy at least one wire-ns. On links cheaper than the
 * encoder itself (threshold > 100) Auto mode builds no encoder and
 * streams stay raw.
 */
struct WirePolicy
{
    /** CPU cost charged for compact encoding, ns per raw byte. */
    static constexpr double kEncodeCpuNsPerByte = 0.5;

    static double
    minSavingPercent(double wire_ns_per_byte)
    {
        if (wire_ns_per_byte <= 0)
            return 101.0; // free wire: never worth CPU
        return 100.0 * kEncodeCpuNsPerByte / wire_ns_per_byte;
    }
};

} // namespace wire

/**
 * Shared per-context memory of per-class encoding decisions, keyed by
 * global type id: every stream's encoder consults and updates it, so
 * a class judged (or measured) not worth compacting is skipped by all
 * subsequent streams, and `compact_classes` can be published as one
 * gauge. Thread-safe (ParallelSender workers encode concurrently).
 */
class WireEncodingCache
{
  public:
    /** Cached decision for @p tid: -1 unknown, 0 raw, 1 compact. */
    int decision(std::int32_t tid) const EXCLUDES(mutex_);

    void setDecision(std::int32_t tid, int d) EXCLUDES(mutex_);

    /**
     * Fold one segment's measured bytes for @p tid into the running
     * account and demote the class to raw when, over at least
     * `kMinMeasuredRecords` records, the realized saving falls below
     * @p min_saving_pct (the static estimate was too optimistic —
     * e.g. arrays much larger than the 16-element guess whose header
     * share vanishes). Returns the possibly-updated decision.
     */
    int recordMeasured(std::int32_t tid, std::uint64_t raw_bytes,
                       std::uint64_t compact_bytes,
                       std::uint64_t records,
                       double min_saving_pct) EXCLUDES(mutex_);

    /** Classes currently decided compact (the gauge value). */
    std::size_t compactClassCount() const EXCLUDES(mutex_);

    /** Forget everything (mode changes invalidate decisions). */
    void reset() EXCLUDES(mutex_);

    /** Demotion needs this many measured records to act. */
    static constexpr std::uint64_t kMinMeasuredRecords = 32;

  private:
    struct Entry
    {
        int decision = -1;
        std::uint64_t rawBytes = 0;
        std::uint64_t compactBytes = 0;
        std::uint64_t records = 0;
    };

    mutable Mutex mutex_;
    std::unordered_map<std::int32_t, Entry> entries_ GUARDED_BY(mutex_);
};

/**
 * The send-path compaction stage, fed by the sender as it copies. One
 * instance per output stream (ParallelSender workers each own one);
 * per-class decisions are memoized locally and synchronized with the
 * context's WireEncodingCache at segment boundaries, where the metric
 * deltas also publish.
 */
class CompactEncoder
{
  public:
    CompactEncoder(SkywayContext &ctx, ObjectFormat wire_format);

    CompactEncoder(const CompactEncoder &) = delete;
    CompactEncoder &operator=(const CompactEncoder &) = delete;

    /**
     * The encoder for a new stream on @p ctx, or nullptr when
     * compaction cannot win: mode Off, or an Auto-mode link so fast
     * that even a 100%-saving class would cost more CPU than it buys
     * (the "no CPU tax where bandwidth is free" guarantee).
     */
    static std::unique_ptr<CompactEncoder>
    forStream(SkywayContext &ctx, ObjectFormat wire_format);

    /**
     * The record the sender just cloned into the open segment at
     * @p rec: @p size wire bytes of type id @p tid and klass @p k.
     */
    void record(const std::uint8_t *rec, std::size_t size,
                std::int32_t tid, const Klass *k);

    /** A root slot word (rawseg) just added to the open segment. */
    void root(Word root);

    /**
     * Ship the open segment, flushed raw as @p raw: its items as one
     * compact segment, or @p raw itself (Auto: when no record
     * compacted or the items are no smaller).
     */
    void flush(const std::uint8_t *raw, std::size_t len,
               const OutputBuffer::FlushFn &sink);

  private:
    /** Room for the compact segment's kind word and length varint. */
    static constexpr std::size_t kHeadroom = wordSize + 10;

    /** A raw-decided record not yet copied into the items. */
    struct Held
    {
        const std::uint8_t *rec;
        std::size_t size;
        /** Item bytes ahead of its raw item. */
        std::size_t at;
    };

    int decisionFor(std::int32_t tid, const Klass *k);
    void appendRaw(const std::uint8_t *rec, std::size_t size);
    void appendCompact(const std::uint8_t *rec, std::size_t size,
                       std::int32_t tid, const Klass *k);
    /** Splice the held records' raw items in among the root items. */
    void releaseHeld();
    void syncMeasured();

    SkywayContext &ctx_;
    ObjectFormat wireFmt_;
    WireCompactMode mode_;
    double minSavingPct_;
    /** The open segment's items, after kHeadroom bytes. */
    std::vector<std::uint8_t> enc_;
    /** Raw records held until the segment's first compact record. */
    std::vector<Held> held_;
    /** The open segment ships compact if its items come out smaller
     *  (always, under Force): raw records go straight into enc_. */
    bool compact_;
    /** A first-write root whose record has not been written yet. */
    Word top_ = 0;
    std::vector<std::uint8_t> rle_;
    std::unordered_map<std::int32_t, int> memo_;

    struct Measured
    {
        std::uint64_t rawBytes = 0;
        std::uint64_t compactBytes = 0;
        std::uint64_t records = 0;
    };
    std::unordered_map<std::int32_t, Measured> measured_;

    // Unpublished metric deltas (published at each segment).
    std::uint64_t savedBytes_ = 0;
    std::uint64_t compactRecords_ = 0;
    std::uint64_t compactSegments_ = 0;
};

} // namespace skyway

#endif // SKYWAY_SKYWAY_WIRECOMPACT_HH
