#include "skyway/inputbuffer.hh"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "heap/objectops.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "sanitize/wirecheck.hh"
#include "skyway/baddr.hh"
#include "skyway/wirecompact.hh"
#include "support/stopwatch.hh"

namespace skyway
{

namespace
{

/** Registry-backed receiver counters, resolved once per process. */
struct ReceiverMetrics
{
    obs::Counter &objectsReceived;
    obs::Counter &bytesReceived;
    obs::Counter &chunksAllocated;
    obs::Counter &oversizedChunks;
    obs::Counter &refsAbsolutized;
    obs::Counter &fieldUpdatesApplied;
    obs::Counter &zeroCopyBytes;
    obs::Counter &expandedBytes;
    obs::Counter &expandNs;

    static ReceiverMetrics &
    get()
    {
        auto &r = obs::MetricsRegistry::global();
        static ReceiverMetrics m{
            r.counter("skyway.receiver.objects_received"),
            r.counter("skyway.receiver.bytes_received"),
            r.counter("skyway.receiver.chunks_allocated"),
            r.counter("skyway.receiver.oversized_chunks"),
            r.counter("skyway.receiver.refs_absolutized"),
            r.counter("skyway.receiver.field_updates_applied"),
            r.counter("skyway.receiver.zero_copy_bytes"),
            r.counter("skyway.receiver.expanded_bytes"),
            r.counter("skyway.receiver.expand_ns"),
        };
        return m;
    }
};

} // namespace

InputBuffer::InputBuffer(SkywayContext &ctx, std::size_t chunk_bytes)
    : ctx_(ctx),
      heap_(ctx.heap()),
      chunkBytes_(chunk_bytes),
      fmt_(ctx.heap().format())
{
    panicIf(chunk_bytes < 4 * wordSize,
            "InputBuffer: chunk size too small");
    // Pre-size the tid cache to the registry's current assignment
    // ceiling so the receive hot loop never grows the vector
    // mid-parse; ids assigned after construction (stale view) still
    // grow it lazily.
    std::int32_t max_id = ctx_.resolver().maxAssignedId();
    if (max_id >= 0)
        tidCache_.resize(static_cast<std::size_t>(max_id) + 1, nullptr);
    if (ctx_.debug().validateWire)
        validator_ = std::make_unique<sanitize::WireValidator>(
            ctx_.resolver(), sanitize::WireCheckConfig{fmt_});
}

InputBuffer::~InputBuffer()
{
    publishMetrics();
    free();
}

Klass *
InputBuffer::klassForTid(std::int32_t tid)
{
    panicIf(tid < 0, "InputBuffer: negative type id");
    auto idx = static_cast<std::size_t>(tid);
    if (idx < tidCache_.size() && tidCache_[idx])
        return tidCache_[idx];
    Klass *k = ctx_.resolver().klassForId(tid);
    if (!k)
        panic("InputBuffer: unresolvable type id " + std::to_string(tid));
    if (idx >= tidCache_.size())
        tidCache_.resize(idx + 1, nullptr);
    tidCache_[idx] = k;
    return k;
}

std::size_t
InputBuffer::sizeRecord(const std::uint8_t *rec, std::size_t avail,
                        Klass *&k)
{
    panicIf(avail < fmt_.headerBytes(),
            "InputBuffer: record spans a streamed segment");
    Word tid_word;
    std::memcpy(&tid_word, rec + offsetKlass, wordSize);
    k = klassForTid(static_cast<std::int32_t>(tid_word));
    std::size_t size = k->instanceBytes();
    if (k->isArray()) {
        panicIf(avail < fmt_.arrayHeaderBytes(),
                "InputBuffer: record spans a streamed segment");
        Word len;
        std::memcpy(&len, rec + fmt_.arrayLengthOffset(), wordSize);
        // Bound the length from the wire before the size arithmetic
        // can wrap.
        panicIf(len > avail / k->elemSize(),
                "InputBuffer: record spans a streamed segment");
        size = k->arrayBytes(static_cast<std::size_t>(len));
    }
    panicIf(size > avail, "InputBuffer: record spans a streamed segment");
    return size;
}

void
InputBuffer::newChunk(std::size_t at_least)
{
    // Compact wire segments have arbitrary byte lengths; round the
    // capacity up so the finalize-time tail filler (and the heap
    // allocator) always see word-aligned extents.
    std::size_t cap = wordAlign(std::max(chunkBytes_, at_least));
    if (at_least > chunkBytes_)
        ++stats_.oversizedChunks;
    // Tenured allocation: input buffers live in the old generation.
    // No zeroing: the transport fills the chunk with records and
    // finalize() covers the tail with a filler before the GC can walk
    // it.
    Address base = heap_.allocateOldRaw(cap, false);
    std::size_t pin = heap_.pinOldRange(base, cap);
    chunks_.push_back(Chunk{base, cap, 0, pin});
    ++stats_.chunksAllocated;
}

void
InputBuffer::publishMetrics()
{
    ReceiverMetrics &m = ReceiverMetrics::get();
    m.objectsReceived.add(stats_.objectsReceived -
                          published_.objectsReceived);
    m.bytesReceived.add(stats_.bytesReceived -
                        published_.bytesReceived);
    m.chunksAllocated.add(stats_.chunksAllocated -
                          published_.chunksAllocated);
    m.oversizedChunks.add(stats_.oversizedChunks -
                          published_.oversizedChunks);
    m.refsAbsolutized.add(stats_.refsAbsolutized -
                          published_.refsAbsolutized);
    m.fieldUpdatesApplied.add(stats_.fieldUpdatesApplied -
                              published_.fieldUpdatesApplied);
    m.zeroCopyBytes.add(stats_.zeroCopyBytes -
                        published_.zeroCopyBytes);
    m.expandedBytes.add(stats_.expandedBytes -
                        published_.expandedBytes);
    m.expandNs.add(stats_.expandNs - published_.expandNs);
    published_ = stats_;
}

std::uint8_t *
InputBuffer::reserveChunk(std::size_t len)
{
    panicIf(finalized_, "InputBuffer: reserveChunk after finalize");
    panicIf(reserved_ != nullptr,
            "InputBuffer: a chunk reservation is already open");
    if (chunks_.empty() ||
        chunks_.back().fill + len > chunks_.back().cap)
        newChunk(len);
    Chunk &c = chunks_.back();
    reserved_ = reinterpret_cast<std::uint8_t *>(c.base + c.fill);
    reservedLen_ = len;
    return reserved_;
}

void
InputBuffer::commitChunk(std::size_t len)
{
    commitReserved(len, /*zero_copy=*/true, /*already_validated=*/false);
}

std::span<std::uint8_t>
InputBuffer::freeTail() const
{
    if (finalized_ || reserved_ || chunks_.empty())
        return {};
    const Chunk &c = chunks_.back();
    return {reinterpret_cast<std::uint8_t *>(c.base + c.fill),
            c.cap - c.fill};
}

rawseg::Header
InputBuffer::rawSegment(const std::uint8_t *seg, std::size_t len)
{
    rawseg::Header h;
    rawseg::Parse p = rawseg::parseHeader(seg, len, h);
    panicIf(p == rawseg::Parse::NotRaw,
            "InputBuffer: unknown marker word");
    panicIf(p == rawseg::Parse::Truncated,
            "InputBuffer: segment spans past the bytes received");
    return h;
}

void
InputBuffer::commitReserved(std::size_t len, bool zero_copy,
                            bool already_validated)
{
    SKYWAY_SPAN("receiver.commit");
    panicIf(finalized_, "InputBuffer: commit after finalize");
    panicIf(reserved_ == nullptr,
            "InputBuffer: commit without a reservation");
    panicIf(len > reservedLen_,
            "InputBuffer: commit exceeds the reservation");
    if (validator_ && !already_validated) {
        // Fail on the validator's verdict *before* the parser touches
        // the segment: the parser assumes well-formed input (a forged
        // type id would panic deep inside the registry with no
        // context), while the validator names the fault and its
        // stream offset. The validator must also read the bytes
        // before the header and root table are overwritten below.
        validator_->feed(reserved_, len);
        if (!validator_->ok())
            panic("SkywaySan: receiver wire validation failed: " +
                  validator_->firstFault());
    }

    if (wire::isCompactSegment(reserved_, len)) {
        // The expander writes full-format records through the regular
        // chunk machinery — into the very region this reservation
        // covers — so the compact wire bytes are staged out first and
        // the reservation is abandoned without advancing the fill.
        // These bytes are *not* zero-copy: the wire representation is
        // not the chunk representation (stats_.expandedBytes holds
        // what the segment produced).
        scratch_.assign(reserved_, reserved_ + len);
        reserved_ = nullptr;
        reservedLen_ = 0;
        std::size_t used = expandSegment(scratch_.data(),
                                         scratch_.size());
        panicIf(used != scratch_.size(),
                "InputBuffer: trailing bytes after a compact segment");
        return;
    }

    std::uint8_t *seg = reserved_;
    rawseg::Header h = rawSegment(seg, len);
    panicIf(h.bytes() != len,
            "InputBuffer: trailing bytes after a raw segment");
    std::uint8_t *records = seg + rawseg::headerBytes;
    std::uint8_t *table = records + h.recordBytes;
    noteRoots(table, h.roots);
    // The header and root table occupy chunk space but no logical
    // space: with their words read, they become heap fillers so
    // linear chunk walks skip them.
    heap_.writeFillerAny(reinterpret_cast<Address>(seg),
                         rawseg::headerBytes);
    heap_.writeFillerAny(reinterpret_cast<Address>(table),
                         h.roots * wordSize);
    if (h.recordBytes > 0) {
        addSpan(records, h.recordBytes);
        linkRecords(records, h.recordBytes);
    }

    chunks_.back().fill += len;
    if (zero_copy)
        stats_.zeroCopyBytes += len;
    reserved_ = nullptr;
    reservedLen_ = 0;
}

void
InputBuffer::noteRoots(const std::uint8_t *table, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i) {
        Word root;
        std::memcpy(&root, table + i * wordSize, wordSize);
        pendingRoots_.push_back(rawseg::slotOf(root));
    }
}

void
InputBuffer::addSpan(std::uint8_t *base, std::size_t bytes)
{
    spans_.push_back(
        Span{logical_, reinterpret_cast<Address>(base), bytes});
    logical_ += bytes;
}

void
InputBuffer::linkSlot(std::uint8_t *p)
{
    Word slot;
    std::memcpy(&slot, p, wordSize);
    if (slot == 0)
        return;
    std::uint64_t rel = slot - 1;
    if (rel < logical_) {
        Address a = resolveRel(rel);
        std::memcpy(p, &a, wordSize);
    } else {
        pendingRefs_.push_back(
            PendingRef{reinterpret_cast<Address>(p), rel});
    }
    ++stats_.refsAbsolutized;
}

void
InputBuffer::linkRecords(std::uint8_t *rec, std::size_t bytes)
{
    std::size_t off = 0;
    while (off < bytes) {
        std::uint8_t *r = rec + off;
        Klass *k;
        std::size_t size = sizeRecord(r, bytes - off, k);
        // Absolutize the type: registry view id -> local klass
        // pointer.
        Word klass_word = reinterpret_cast<Word>(k);
        std::memcpy(r + offsetKlass, &klass_word, wordSize);
        if (!k->isArray()) {
            for (std::uint32_t slot : k->refOffsets())
                linkSlot(r + slot);
        } else if (k->elemType() == FieldType::Ref) {
            Word n;
            std::memcpy(&n, r + fmt_.arrayLengthOffset(), wordSize);
            std::uint8_t *elems = r + fmt_.arrayHeaderBytes();
            for (Word i = 0; i < n; ++i)
                linkSlot(elems + i * wordSize);
        }
        off += size;
        ++stats_.objectsReceived;
    }
    stats_.bytesReceived += bytes;
}

std::size_t
InputBuffer::recordPrefix(const std::uint8_t *data, std::size_t len,
                          std::size_t limit)
{
    std::size_t off = 0;
    while (off < len) {
        Klass *k;
        std::size_t size = sizeRecord(data + off, len - off, k);
        if (off > 0 && off + size > limit)
            break;
        off += size;
    }
    return off;
}

void
InputBuffer::feedSplit(const std::uint8_t *seg, const rawseg::Header &h)
{
    const std::uint8_t *rec = seg + rawseg::headerBytes;
    noteRoots(rec + h.recordBytes, h.roots);
    std::size_t left = h.recordBytes;
    while (left > 0) {
        std::size_t avail = chunks_.empty()
                                ? 0
                                : chunks_.back().cap - chunks_.back().fill;
        std::size_t piece = recordPrefix(rec, left, avail);
        if (piece > avail) {
            // Nothing fits the open chunk: size the piece for a fresh
            // one (oversized when one record alone exceeds it).
            piece = recordPrefix(rec, left, chunkBytes_);
        }
        std::uint8_t *dst = reserveChunk(piece);
        std::memcpy(dst, rec, piece);
        reserved_ = nullptr;
        reservedLen_ = 0;
        chunks_.back().fill += piece;
        addSpan(dst, piece);
        linkRecords(dst, piece);
        rec += piece;
        left -= piece;
    }
}

void
InputBuffer::feed(const std::uint8_t *data, std::size_t len)
{
    SKYWAY_SPAN("receiver.feed");
    panicIf(finalized_, "InputBuffer: feed after finalize");
    if (validator_) {
        validator_->feed(data, len);
        if (!validator_->ok())
            panic("SkywaySan: receiver wire validation failed: " +
                  validator_->firstFault());
    }
    // Compatibility path for byte-owning callers: every segment is
    // self-delimiting, so each is copied whole into a reservation
    // (one memcpy) and committed in place like a zero-copy receive.
    // Only a raw segment larger than a chunk is split. The zero-copy
    // path (reserveChunk/commitChunk) skips this copy entirely.
    std::size_t off = 0;
    while (off < len) {
        const std::uint8_t *seg = data + off;
        if (wire::isCompactSegment(seg, len - off)) {
            // Byte-owning caller: no aliasing with chunk storage,
            // expand straight from the caller's buffer. A file stream
            // may concatenate further segments after it.
            off += expandSegment(seg, len - off);
            continue;
        }
        rawseg::Header h = rawSegment(seg, len - off);
        std::size_t avail = chunks_.empty()
                                ? 0
                                : chunks_.back().cap - chunks_.back().fill;
        if (h.bytes() <= std::max(avail, chunkBytes_)) {
            std::memcpy(reserveChunk(h.bytes()), seg, h.bytes());
            commitReserved(h.bytes(), /*zero_copy=*/false,
                           /*already_validated=*/true);
        } else {
            feedSplit(seg, h);
        }
        off += h.bytes();
    }
}

std::size_t
InputBuffer::expandSegment(const std::uint8_t *data, std::size_t len)
{
    SKYWAY_SPAN("receiver.expand");
    Stopwatch sw;
    std::size_t first_span = spans_.size();
    wire::ExpandHooks hooks;
    hooks.klassFor = [this](std::int32_t tid) {
        return klassForTid(tid);
    };
    hooks.onMarker = [this](bool is_back_ref, Word slot) {
        // A top mark names the record placed next.
        pendingRoots_.push_back(is_back_ref ? slot : logical_ + 1);
    };
    hooks.place = [this, first_span](std::size_t size) -> std::uint8_t * {
        if (chunks_.empty() ||
            chunks_.back().fill + size > chunks_.back().cap)
            newChunk(size);
        Chunk &c = chunks_.back();
        Address pa = c.base + c.fill;
        // One span per piece of this segment: a new chunk starts one.
        if (spans_.size() > first_span &&
            spans_.back().base + spans_.back().bytes == pa)
            spans_.back().bytes += size;
        else
            spans_.push_back(Span{logical_, pa, size});
        c.fill += size;
        logical_ += size;
        stats_.expandedBytes += size;
        return reinterpret_cast<std::uint8_t *>(pa);
    };
    std::size_t used =
        wire::expandCompactSegment(data, len, fmt_, hooks);
    // Every record of the segment is placed: link them, so only
    // references into later segments wait for finalize().
    for (std::size_t i = first_span; i < spans_.size(); ++i)
        linkRecords(reinterpret_cast<std::uint8_t *>(spans_[i].base),
                    spans_[i].bytes);
    stats_.expandNs += sw.elapsedNs();
    return used;
}

Address
InputBuffer::resolveRel(std::uint64_t rel) const
{
    panicIf(rel >= logical_, "InputBuffer: bad relative address");
    // Spans tile [0, logical_) in order, and most references name the
    // segment being linked: try the last span before searching.
    const Span *s = &spans_.back();
    if (rel < s->firstLogical) {
        auto it = std::upper_bound(spans_.begin(), spans_.end(), rel,
                                   [](std::uint64_t r, const Span &sp) {
                                       return r < sp.firstLogical;
                                   });
        s = &*(it - 1);
    }
    return s->base + (rel - s->firstLogical);
}

void
InputBuffer::applyFieldUpdates()
{
    for (const Chunk &c : chunks_) {
        Address a = c.base;
        Address end = c.base + c.fill;
        while (a < end) {
            if (ManagedHeap::isFiller(a)) {
                a += ManagedHeap::fillerSize(a);
                continue;
            }
            ctx_.updates().apply(heap_, heap_.klassOf(a), a);
            ++stats_.fieldUpdatesApplied;
            a += heap_.objectSize(a);
        }
    }
}

void
InputBuffer::finalize()
{
    SKYWAY_SPAN("receiver.absolutize");
    panicIf(finalized_, "InputBuffer: finalize called twice");
    panicIf(reserved_ != nullptr,
            "InputBuffer: finalize with an open chunk reservation");
    if (validator_) {
        // Reject a corrupt stream *before* absolutization writes
        // anything more into the heap.
        validator_->finish();
        if (!validator_->ok())
            panic("SkywaySan: receiver wire validation failed: " +
                  validator_->firstFault());
    }
    // The commits absolutized every reference whose target had
    // arrived; what remains pointed into a later segment.
    for (const PendingRef &p : pendingRefs_) {
        Address a = resolveRel(p.rel);
        std::memcpy(reinterpret_cast<void *>(p.slot), &a, wordSize);
    }
    pendingRefs_.clear();

    // Resolve the roots noted while streaming, in write order.
    roots_.reserve(pendingRoots_.size());
    for (Word slot : pendingRoots_)
        roots_.push_back(slot == 0 ? nullAddr : resolveRel(slot - 1));
    pendingRoots_.clear();

    if (!ctx_.updates().empty())
        applyFieldUpdates();

    for (Chunk &c : chunks_) {
        // Make the unreached tail walkable, tell the card table about
        // the new old-generation pointers, and let the GC see the
        // chunk as a sequence of live objects.
        heap_.writeFillerAny(c.base + c.fill, c.cap - c.fill);
        if (c.fill > 0)
            heap_.dirtyCardRange(c.base, c.fill);
        heap_.makePinWalkable(c.pin);
    }
    finalized_ = true;
    if (ctx_.debug().checkReceivedGraph)
        auditRebuilt();
    publishMetrics();
}

void
InputBuffer::auditRebuilt() const
{
    std::unordered_set<Address> starts;
    for (const Chunk &c : chunks_) {
        Address a = c.base;
        Address end = c.base + c.fill;
        while (a < end) {
            if (ManagedHeap::isFiller(a)) {
                a += ManagedHeap::fillerSize(a);
                continue;
            }
            starts.insert(a);
            std::size_t size = heap_.objectSize(a);
            if (size == 0 || a + size > end)
                panic("SkywaySan: rebuilt object at " + std::to_string(a) +
                      " overruns its chunk");
            a += size;
        }
    }
    for (const Chunk &c : chunks_) {
        Address a = c.base;
        Address end = c.base + c.fill;
        while (a < end) {
            if (ManagedHeap::isFiller(a)) {
                a += ManagedHeap::fillerSize(a);
                continue;
            }
            Word m = heap_.markOf(a);
            if ((m & ~(mark::hashMask | mark::hashComputedBit)) != 0)
                panic("SkywaySan: rebuilt " + heap_.klassOf(a)->name() +
                      " carries non-transfer mark bits");
            forEachRefSlot(heap_, a, [&](std::size_t off) {
                Address t = heap_.loadRef(a, off);
                // A reference either stays inside this buffer's
                // rebuilt closure or was installed by a registered
                // field update, which may point anywhere in the local
                // heap.
                if (t != nullAddr && !starts.count(t) && !heap_.contains(t))
                    panic("SkywaySan: rebuilt " + heap_.klassOf(a)->name() +
                          " references outside the input buffer "
                          "and the heap");
            });
            a += heap_.objectSize(a);
        }
    }
    for (Address r : roots_)
        panicIf(r != nullAddr && !starts.count(r),
                "SkywaySan: a root does not name a rebuilt object");
}

const std::vector<Address> &
InputBuffer::roots() const
{
    panicIf(!finalized_, "InputBuffer: roots() before finalize()");
    return roots_;
}

void
InputBuffer::free()
{
    if (freed_)
        return;
    for (Chunk &c : chunks_)
        heap_.unpinOldRange(c.pin);
    freed_ = true;
}

} // namespace skyway
