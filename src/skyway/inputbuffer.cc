#include "skyway/inputbuffer.hh"

#include <algorithm>
#include <cstring>
#include <unordered_set>

#include "heap/objectops.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "sanitize/wirecheck.hh"
#include "skyway/baddr.hh"
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
      types_(ctx.resolver()),
      chunkBytes_(chunk_bytes),
      fmt_(ctx.heap().format())
{
    panicIf(chunk_bytes < 4 * wordSize,
            "InputBuffer: chunk size too small");
    if (ctx_.debug().validateWire)
        validator_ = std::make_unique<sanitize::WireValidator>(
            types_, sanitize::WireCheckConfig{fmt_});
}

InputBuffer::~InputBuffer()
{
    publishMetrics();
    free();
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
    if (stats_ == published_)
        return;
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

void
InputBuffer::checkWire() const
{
    if (!validator_->ok())
        panic("SkywaySan: receiver wire validation failed: " +
              validator_->firstFault());
}

std::size_t
InputBuffer::decode(const std::uint8_t *seg, std::size_t len)
{
    wire::Decoder<InputBuffer> d(*this, fmt_);
    std::size_t used = d.segment(seg, len, 0);
    if (used == 0)
        panic("InputBuffer: " + d.fault().str());
    return used;
}

std::size_t
InputBuffer::expand(const std::uint8_t *seg, std::size_t len)
{
    SKYWAY_SPAN("receiver.expand");
    Stopwatch sw;
    std::uint64_t before = logical_;
    std::size_t used = decode(seg, len);
    stats_.expandedBytes += logical_ - before;
    stats_.expandNs += sw.elapsedNs();
    return used;
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
        // The validator must read the bytes before the header and
        // root table are overwritten below, and it also checks what
        // spans segments (dangling references, root pairing).
        validator_->feed(reserved_, len);
        checkWire();
    }

    std::uint8_t *seg = reserved_;
    if (wire::isCompactSegment(seg, len)) {
        // Expansion places full-format records through the regular
        // chunk machinery — into the very region this reservation
        // covers — so the compact wire bytes are staged out first and
        // the reservation is abandoned without advancing the fill.
        // These bytes are *not* zero-copy: the wire representation is
        // not the chunk representation (stats_.expandedBytes holds
        // what the segment produced).
        scratch_.assign(seg, seg + len);
        reserved_ = nullptr;
        reservedLen_ = 0;
        if (expand(scratch_.data(), len) != len)
            panic("InputBuffer: trailing bytes after a compact segment");
        return;
    }

    // The reservation stays open while decoding: inPlace() keeps the
    // records where they landed.
    if (decode(seg, len) != len)
        panic("InputBuffer: trailing bytes after a raw segment");
    // The header and root table occupy chunk space but no logical
    // space: with their words read, they become heap fillers so
    // linear chunk walks skip them.
    std::size_t table = rawseg::headerBytes + wire::wordAt(seg + wordSize);
    heap_.writeFillerAny(reinterpret_cast<Address>(seg),
                         rawseg::headerBytes);
    heap_.writeFillerAny(reinterpret_cast<Address>(seg + table),
                         len - table);
    chunks_.back().fill += len;
    if (zero_copy)
        stats_.zeroCopyBytes += len;
    reserved_ = nullptr;
    reservedLen_ = 0;
}

void
InputBuffer::addSpan(std::uint8_t *base, std::size_t bytes)
{
    auto a = reinterpret_cast<Address>(base);
    // The last span ends at logical_: one physically contiguous with
    // these bytes grows instead.
    if (!spans_.empty() && spans_.back().base + spans_.back().bytes == a)
        spans_.back().bytes += bytes;
    else
        spans_.push_back(Span{logical_, a, bytes});
    logical_ += bytes;
}

std::uint8_t *
InputBuffer::inPlace(const std::uint8_t *records, std::size_t bytes)
{
    if (!reserved_)
        return nullptr;
    auto *p = const_cast<std::uint8_t *>(records);
    addSpan(p, bytes);
    return p;
}

std::uint8_t *
InputBuffer::place(std::size_t bytes)
{
    if (chunks_.empty() ||
        chunks_.back().fill + bytes > chunks_.back().cap)
        newChunk(bytes);
    Chunk &c = chunks_.back();
    auto *p = reinterpret_cast<std::uint8_t *>(c.base + c.fill);
    c.fill += bytes;
    addSpan(p, bytes);
    return p;
}

void
InputBuffer::onRecord(std::uint8_t *rec, Klass *k, std::size_t size,
                      Word, std::uint64_t)
{
    // Absolutize the type: registry view id -> local klass pointer.
    wire::putWord(rec + offsetKlass, reinterpret_cast<Word>(k));
    ++stats_.objectsReceived;
    stats_.bytesReceived += size;
}

void
InputBuffer::onSlot(std::uint8_t *rec, std::size_t off, Word slot,
                    std::uint64_t)
{
    if (slot == 0)
        return;
    ++stats_.refsAbsolutized;
    std::uint64_t rel = slot - 1;
    // Most references name the span being linked: resolve those here.
    const Span &s = spans_.back();
    if (rel - s.firstLogical < s.bytes)
        wire::putWord(rec + off, s.base + (rel - s.firstLogical));
    else
        linkFar(rec + off, rel);
}

void
InputBuffer::linkFar(std::uint8_t *p, std::uint64_t rel)
{
    if (rel < logical_)
        wire::putWord(p, resolveRel(rel));
    else
        pendingRefs_.push_back(PendingRef{reinterpret_cast<Address>(p), rel});
}

void
InputBuffer::feed(const std::uint8_t *data, std::size_t len)
{
    SKYWAY_SPAN("receiver.feed");
    panicIf(finalized_, "InputBuffer: feed after finalize");
    if (validator_) {
        validator_->feed(data, len);
        checkWire();
    }
    // Compatibility path for byte-owning callers: every segment is
    // self-delimiting, so each raw one is copied whole into a
    // reservation (one memcpy) and committed in place like a zero-copy
    // receive. A compact segment — and a raw one larger than a chunk —
    // is decoded straight from the caller's bytes, its records placed
    // one by one. The zero-copy path (reserveChunk/commitChunk) skips
    // the copy entirely.
    std::size_t off = 0;
    while (off < len) {
        const std::uint8_t *seg = data + off;
        std::size_t left = len - off;
        rawseg::Header h;
        std::size_t avail = chunks_.empty()
                                ? 0
                                : chunks_.back().cap - chunks_.back().fill;
        if (rawseg::parseHeader(seg, left, h) == rawseg::Parse::Ok &&
            h.bytes() <= std::max(avail, chunkBytes_)) {
            std::memcpy(reserveChunk(h.bytes()), seg, h.bytes());
            commitReserved(h.bytes(), /*zero_copy=*/false,
                           /*already_validated=*/true);
            off += h.bytes();
        } else if (wire::isCompactSegment(seg, left)) {
            off += expand(seg, left);
        } else {
            // A raw segment larger than a chunk, or a wire fault.
            off += decode(seg, left);
        }
    }
}

Address
InputBuffer::resolveRel(std::uint64_t rel) const
{
    panicIf(rel >= logical_, "InputBuffer: bad relative address");
    // Spans tile [0, logical_) in order, and most references name a
    // record linked just before: try the last span before searching.
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
        heap_.forEachObjectIn(c.base, c.base + c.fill, [&](Address a) {
            // An update may store a young reference without the
            // write barrier; finalize() dirties no other card.
            if (ctx_.updates().apply(heap_, heap_.klassOf(a), a))
                heap_.dirtyCard(a);
            ++stats_.fieldUpdatesApplied;
        });
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
        checkWire();
    }
    // The commits absolutized every reference whose target had
    // arrived; what remains pointed to a later record.
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
        // Make the unreached tail walkable and let the GC see the
        // chunk as a sequence of live objects. No card is dirtied: a
        // received reference points into this old-generation buffer,
        // and the only others are field updates', which
        // applyFieldUpdates() covers.
        heap_.writeFillerAny(c.base + c.fill, c.cap - c.fill);
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
    // The range walk panics on an object that overruns its chunk.
    std::unordered_set<Address> starts;
    for (const Chunk &c : chunks_)
        heap_.forEachObjectIn(c.base, c.base + c.fill,
                              [&](Address a) { starts.insert(a); });
    for (const Chunk &c : chunks_) {
        heap_.forEachObjectIn(c.base, c.base + c.fill, [&](Address a) {
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
        });
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
