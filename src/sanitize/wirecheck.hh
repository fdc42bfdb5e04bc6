/**
 * @file
 * SkywaySan wire-format validator (docs/SANITIZER.md).
 *
 * Skyway ships objects in heap format: there is no deserializer on the
 * receiving side to reject a malformed stream, so a single bad
 * relativized offset or forged type ID silently corrupts the receiving
 * heap. The WireValidator analyzes a flushed output-buffer stream
 * *without materializing it* and checks every invariant the format
 * promises (paper sections 4.1-4.3):
 *
 *  - every klass word resolves in the type registry;
 *  - every relativized reference offset lands on a decoded object
 *    start within [0, flushedBytes);
 *  - every segment starts with a kind word, and a raw segment's
 *    header lengths add up to the segment;
 *  - every root slot is null or names a record start (a first-write
 *    root names a record not first written before);
 *  - the baddr header word is cleared on the wire (the sender's claim
 *    bits never leave the machine);
 *  - mark words carry only the transfer-surviving bits (the cached
 *    hashcode and its computed flag — mark::resetForTransfer);
 *  - object sizes and alignment match each klass's field layout, and
 *    no record spans a flushed segment.
 *
 * The record-level checks are the wire decoder's (skyway/wiredecode.hh),
 * the same code the receiver runs: the validator is a decoder sink
 * that adds what spans segments — record starts, pending references
 * and roots, first-write order, compact top-mark pairing — and the
 * mark/baddr hygiene checks, and builds the WireIndex from the
 * decoder's callbacks. It is incremental: feed() consumes segments in
 * flush order (the same protocol as InputBuffer::feed) and finish()
 * settles the deferred checks (forward references, roots whose record
 * is in a later segment, unterminated compact top marks).
 * It never panics on corrupt input — every violation becomes a
 * WireDiagnostic with a fault category and a stream offset, which is
 * what the corruption-injection harness (corrupt.hh) asserts against.
 */

#ifndef SKYWAY_SANITIZE_WIRECHECK_HH
#define SKYWAY_SANITIZE_WIRECHECK_HH

#include <cstdint>
#include <string>
#include <vector>

#include "skyway/wiredecode.hh"
#include "typereg/registry.hh"

namespace skyway
{
namespace sanitize
{

using wire::WireDiagnostic;
using wire::WireFault;
using wire::wireFaultName;

struct WireCheckConfig
{
    /** The format records were laid out against (receiver format). */
    ObjectFormat wireFormat{};
    /** Stop collecting after this many diagnostics. */
    std::size_t maxDiagnostics = 16;
};

/** What a validated stream contained (cross-checkable with stats). */
struct WireSummary
{
    std::uint64_t records = 0;
    /** First-write roots (tagged root slots, ctTopMark items). */
    std::uint64_t topMarks = 0;
    /** Null and backward-reference roots. */
    std::uint64_t backRefs = 0;
    std::uint64_t refSlots = 0;
    /** Record bytes (headers and root tables take no logical space). */
    std::uint64_t logicalBytes = 0;
    /** All fed bytes, headers and root tables included. */
    std::uint64_t physicalBytes = 0;
};

/**
 * Byte map of a valid stream, built as a side product of validation.
 * The corruption harness uses it to aim precise mutations.
 */
struct WireIndex
{
    struct Record
    {
        std::uint64_t physOffset;
        std::uint64_t logOffset;
        std::size_t size;
        bool isArray;
    };

    /** One root-table slot word. */
    struct Root
    {
        std::uint64_t physOffset;
        /** Index into rawSegmentOffsets. */
        std::size_t segment;
        bool firstWrite;
    };

    std::vector<Record> records;
    /** Physical offsets of raw segments (their kind words). */
    std::vector<std::uint64_t> rawSegmentOffsets;
    std::vector<Root> roots;
    /** Physical offsets of non-null reference slot words. */
    std::vector<std::uint64_t> refSlotOffsets;
    /** Physical offsets of compact item tag bytes (one per item). */
    std::vector<std::uint64_t> compactItemOffsets;
};

class WireValidator
{
  public:
    /**
     * @param resolver registry endpoint used to resolve klass words;
     *                 forged ids resolve to nullptr (never panic)
     * @param cfg      wire geometry and reporting limits
     */
    explicit WireValidator(TypeResolver &resolver,
                           WireCheckConfig cfg = WireCheckConfig{});

    /** Analyze one flushed segment (whole records, flush order). */
    void feed(const std::uint8_t *data, std::size_t len);

    /**
     * Settle deferred checks: every collected forward reference and
     * every root naming a later segment must land on a decoded record
     * start, and no compact top mark may be left without its record.
     * Idempotent; feeding may continue afterwards (the sender
     * validates at every flush).
     */
    void finish();

    bool ok() const { return diags_.empty(); }
    const std::vector<WireDiagnostic> &diagnostics() const
    {
        return diags_;
    }

    /** First diagnostic formatted, or "" when the stream is clean. */
    std::string firstFault() const;

    const WireSummary &summary() const { return sum_; }
    const WireIndex &index() const { return index_; }

  private:
    template <class> friend class wire::Decoder;

    struct PendingRef
    {
        std::uint64_t target;     // logical offset the slot names
        std::uint64_t slotOffset; // physical offset of the slot word
    };

    void report(WireFault f, std::uint64_t off, std::string detail);
    bool isRecordStart(std::uint64_t logical) const;

    /**
     * Check a root naming logical address @p target (root slot or
     * compact root item at @p phys): now when it is decoded, else at
     * finish().
     */
    void checkRootTarget(std::uint64_t target, std::uint64_t phys);

    // wire::Decoder sink (skyway/wiredecode.hh): records are checked
    // where they are and compact items without being expanded. The
    // shared accounting uses *expanded* record sizes, so references
    // between raw and compact segments of one stream cross-check.
    Klass *klassFor(std::int32_t tid) { return types_.klassFor(tid); }
    std::uint8_t *
    inPlace(const std::uint8_t *records, std::size_t)
    {
        return const_cast<std::uint8_t *>(records); // only ever read
    }
    std::uint8_t *place(std::size_t) { return nullptr; }
    void onRecord(std::uint8_t *rec, Klass *k, std::size_t size, Word m,
                  std::uint64_t at);
    void onSlot(std::uint8_t *, std::size_t, Word slot, std::uint64_t at);
    void onRoot(Word root, std::uint64_t at);
    void onTopMark(std::uint64_t at);
    void onBackRef(Word slot, std::uint64_t at);
    void onItem(std::uint64_t at) { index_.compactItemOffsets.push_back(at); }

    WireCheckConfig cfg_;
    TypeResolver &types_;

    std::vector<WireDiagnostic> diags_;
    WireSummary sum_;
    WireIndex index_;

    /** Logical offsets of decoded record starts (ascending). */
    std::vector<std::uint64_t> recordStarts_;
    std::vector<PendingRef> pendingRefs_;
    /** Roots naming a record not yet decoded (checked at finish). */
    std::vector<PendingRef> pendingRoots_;
    /** The lowest address a first-write root may name: records are
     *  first written once, in ascending order. */
    std::uint64_t nextFirstWrite_ = 0;
    /** Logical offset of the current segment's first record. */
    std::uint64_t segFirst_ = 0;

    std::uint64_t physical_ = 0;
    std::uint64_t logical_ = 0;

    /** A compact top mark was decoded and its record has not yet
     *  followed. */
    bool awaitingTopRecord_ = false;
    std::uint64_t awaitingTopOffset_ = 0;
};

} // namespace sanitize
} // namespace skyway

#endif // SKYWAY_SANITIZE_WIRECHECK_HH
