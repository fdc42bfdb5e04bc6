#include "sanitize/wirecheck.hh"

#include <algorithm>

namespace skyway
{
namespace sanitize
{

using wire::wordAt;

WireValidator::WireValidator(TypeResolver &resolver, WireCheckConfig cfg)
    : cfg_(cfg), types_(resolver)
{
}

void
WireValidator::report(WireFault f, std::uint64_t off, std::string detail)
{
    if (diags_.size() < cfg_.maxDiagnostics)
        diags_.push_back(WireDiagnostic{f, off, std::move(detail)});
}

bool
WireValidator::isRecordStart(std::uint64_t logical) const
{
    return std::binary_search(recordStarts_.begin(), recordStarts_.end(),
                              logical);
}

void
WireValidator::onRecord(std::uint8_t *rec, Klass *k, std::size_t size,
                        Word m, std::uint64_t at)
{
    // Mark word: only the cached hashcode survives transfer
    // (mark::resetForTransfer); anything else is machine-local state
    // that must not be on the wire.
    if ((m & ~(mark::hashMask | mark::hashComputedBit)) != 0)
        report(WireFault::BadMarkWord, at + offsetMark,
               "mark word carries non-transfer bits (lock/GC/age or "
               "reserved)");
    else if (!mark::hasHash(m) && (m & mark::hashMask) != 0)
        report(WireFault::BadMarkWord, at + offsetMark,
               "hash bits present without the hash-computed flag");

    // Baddr word: the sender's claim state never leaves the machine.
    // Only records that travel raw carry one (rec is null for compact
    // items, which are not expanded here).
    if (rec && cfg_.wireFormat.hasBaddr) {
        Word b = wordAt(rec + offsetBaddr);
        if (b != 0)
            report(WireFault::BadBaddrWord, at + offsetBaddr,
                   "baddr not cleared on the wire (sid=" +
                       std::to_string(baddr::sidOf(b)) + " tid=" +
                       std::to_string(baddr::tidOf(b)) + " rel=" +
                       std::to_string(baddr::relOf(b)) + ")");
    }

    index_.records.push_back(
        WireIndex::Record{at, logical_, size, k->isArray()});
    recordStarts_.push_back(logical_);
    awaitingTopRecord_ = false;
    ++sum_.records;
    logical_ += size;
}

void
WireValidator::onSlot(std::uint8_t *, std::size_t, Word slot,
                      std::uint64_t at)
{
    // Collected for the deferred (forward-reference) check.
    if (slot == 0)
        return;
    pendingRefs_.push_back(PendingRef{slot - 1, at});
    index_.refSlotOffsets.push_back(at);
    ++sum_.refSlots;
}

void
WireValidator::onRoot(Word root, std::uint64_t at)
{
    Word slot = rawseg::slotOf(root);
    bool first = rawseg::isFirstWrite(root);
    index_.roots.push_back(WireIndex::Root{
        at, index_.rawSegmentOffsets.size() - 1, first});
    if (!first) {
        // A null root, or a backward reference to a record written
        // before its writeObject ran, hence already decoded.
        ++sum_.backRefs;
        if (slot != 0 && !isRecordStart(slot - 1))
            report(WireFault::BadRootRecord, at,
                   "backward root reference " + std::to_string(slot - 1) +
                       " is not a decoded object start");
        return;
    }
    ++sum_.topMarks;
    if (slot == 0) {
        report(WireFault::BadRootRecord, at,
               "null root tagged first-write");
        return;
    }
    std::uint64_t target = slot - 1;
    if (target < nextFirstWrite_ || target < segFirst_) {
        report(WireFault::BadRootRecord, at,
               "first-write root " + std::to_string(target) +
                   " names a record already written");
        return;
    }
    nextFirstWrite_ = target + 1;
    checkRootTarget(target, at);
}

void
WireValidator::onTopMark(std::uint64_t at)
{
    if (awaitingTopRecord_)
        report(WireFault::BadRootRecord, at,
               "duplicated top mark: previous top mark at +" +
                   std::to_string(awaitingTopOffset_) + " has no record");
    else if (logical_ < nextFirstWrite_)
        report(WireFault::BadRootRecord, at,
               "top mark names record " + std::to_string(logical_) +
                   ", already first written");
    awaitingTopRecord_ = true;
    awaitingTopOffset_ = at;
    nextFirstWrite_ = logical_ + 1;
    ++sum_.topMarks;
}

void
WireValidator::onBackRef(Word slot, std::uint64_t at)
{
    if (awaitingTopRecord_) {
        report(WireFault::BadRootRecord, at,
               "top mark at +" + std::to_string(awaitingTopOffset_) +
                   " followed by a marker, not a record");
        awaitingTopRecord_ = false;
    }
    // A root whose record spilled into the next segment names it
    // forward; every other root names a decoded record.
    if (slot != 0)
        checkRootTarget(slot - 1, at);
    ++sum_.backRefs;
}

void
WireValidator::checkRootTarget(std::uint64_t target, std::uint64_t phys)
{
    if (target >= logical_)
        pendingRoots_.push_back(PendingRef{target, phys});
    else if (!isRecordStart(target))
        report(WireFault::BadRootRecord, phys,
               "root " + std::to_string(target) +
                   " is not a decoded object start");
}

void
WireValidator::feed(const std::uint8_t *data, std::size_t len)
{
    wire::Decoder<WireValidator> dec(*this, cfg_.wireFormat);
    std::size_t off = 0;
    while (off < len && diags_.size() < cfg_.maxDiagnostics) {
        std::uint64_t phys = physical_ + off;
        if (len - off >= wordSize && wordAt(data + off) == marker::rawSeg)
            index_.rawSegmentOffsets.push_back(phys);
        segFirst_ = logical_;
        std::size_t used = dec.segment(data + off, len - off, phys);
        if (used == 0) {
            // Fatal: the stream cannot be re-synchronized.
            report(dec.fault().fault, dec.fault().offset,
                   dec.fault().detail);
            break;
        }
        off += used;
    }
    physical_ += len;
    sum_.physicalBytes = physical_;
    sum_.logicalBytes = logical_;
}

void
WireValidator::finish()
{
    for (const PendingRef &p : pendingRefs_) {
        if (p.target >= logical_)
            report(WireFault::DanglingReference, p.slotOffset,
                   "reference " + std::to_string(p.target) +
                       " is outside [0, " + std::to_string(logical_) +
                       ")");
        else if (!isRecordStart(p.target))
            report(WireFault::DanglingReference, p.slotOffset,
                   "reference " + std::to_string(p.target) +
                       " does not land on a decoded object start");
    }
    pendingRefs_.clear();
    std::vector<PendingRef> roots;
    roots.swap(pendingRoots_);
    for (const PendingRef &p : roots) {
        if (p.target >= logical_)
            report(WireFault::BadRootRecord, p.slotOffset,
                   "root " + std::to_string(p.target) +
                       " names no record: the stream ends at " +
                       std::to_string(logical_));
        else
            checkRootTarget(p.target, p.slotOffset);
    }
    if (awaitingTopRecord_) {
        report(WireFault::BadRootRecord, awaitingTopOffset_,
               "top mark at end of stream has no record");
        awaitingTopRecord_ = false;
    }
}

std::string
WireValidator::firstFault() const
{
    return diags_.empty() ? std::string() : diags_.front().str();
}

} // namespace sanitize
} // namespace skyway
