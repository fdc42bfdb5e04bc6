#include "gc/collector.hh"

#include <algorithm>

#include "heap/objectops.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "support/stopwatch.hh"

namespace skyway
{

namespace
{

/** Registry-backed collector counters, resolved once per process. */
struct GcMetrics
{
    obs::Counter &scavenges;
    obs::Counter &fullGcs;
    obs::Counter &youngCopiedBytes;
    obs::Counter &promotedBytes;
    obs::Counter &oldSweptBytes;
    obs::Counter &markedObjects;
    obs::Histogram &pauseNs;

    static GcMetrics &
    get()
    {
        auto &r = obs::MetricsRegistry::global();
        static GcMetrics m{
            r.counter("gc.scavenges"),
            r.counter("gc.full_gcs"),
            r.counter("gc.young_copied_bytes"),
            r.counter("gc.promoted_bytes"),
            r.counter("gc.old_swept_bytes"),
            r.counter("gc.marked_objects"),
            // 1 µs .. ~1 s in x4 steps: young pauses land at the
            // bottom, full collections near the top.
            r.histogram("gc.pause_ns",
                        obs::exponentialBounds(1000, 4.0, 10)),
        };
        return m;
    }
};

/** Forwarding is encoded in the mark word: bit 0 set, address above. */
constexpr Word forwardBit = 0x1;

bool
isForwarded(Word m)
{
    return (m & forwardBit) != 0;
}

Address
forwardee(Word m)
{
    return static_cast<Address>(m & ~forwardBit);
}

Word
makeForward(Address to)
{
    return static_cast<Word>(to) | forwardBit;
}

} // namespace

GenerationalGc::GenerationalGc(ManagedHeap &heap) : heap_(heap)
{
    heap_.setCollector(this);
}

void
GenerationalGc::scavenge()
{
    SKYWAY_SPAN("gc.scavenge");
    Stopwatch pause;
    scavengeImpl(false);

    GcMetrics &m = GcMetrics::get();
    m.scavenges.inc();
    m.youngCopiedBytes.add(last_.youngCopiedBytes);
    m.promotedBytes.add(last_.promotedBytes);
    m.pauseNs.record(pause.elapsedNs());
}

Address
GenerationalGc::evacuate(Address obj, bool promote_all)
{
    Word m = heap_.markOf(obj);
    if (isForwarded(m))
        return forwardee(m);

    std::size_t size = heap_.objectSize(obj);
    int age = mark::ageOf(m) + 1;
    bool promote =
        promote_all || age >= heap_.config().tenureThreshold;

    Address copy = nullAddr;
    if (!promote)
        copy = heap_.allocateInSurvivorTo(size);
    if (!copy) {
        copy = heap_.allocateOldForGc(size);
        promote = true;
    }
    if (!copy)
        fatal("GenerationalGc: old generation full during promotion");

    std::memcpy(reinterpret_cast<void *>(copy),
                reinterpret_cast<const void *>(obj), size);
    heap_.setMark(copy, mark::withAge(m, promote ? 0 : age));
    heap_.setMark(obj, makeForward(copy));

    if (promote) {
        last_.promotedBytes += size;
        heap_.stats().bytesPromoted += size;
    } else {
        last_.youngCopiedBytes += size;
    }
    scanQueue_.push_back(copy);
    return copy;
}

void
GenerationalGc::processSlot(Address holder, std::size_t off,
                            bool promote_all)
{
    Address target = heap_.loadRef(holder, off);
    if (target == nullAddr || !heap_.inYoung(target))
        return;
    Address moved = evacuate(target, promote_all);
    heap_.store<Address>(holder, off, moved);
    if (heap_.inOld(holder) && heap_.inYoung(moved))
        heap_.dirtyCard(holder);
}

void
GenerationalGc::scavengeImpl(bool promote_all)
{
    last_ = GcCycleStats{};
    scanQueue_.clear();

    // Roots from the handle table.
    for (Address &slot : heap_.rootSlots()) {
        if (slot != nullAddr && heap_.inYoung(slot))
            slot = evacuate(slot, promote_all);
    }

    // Card-table roots: old objects that may hold young references.
    // Snapshot and clear the dirty cards, then rescan the objects that
    // touch them, re-dirtying cards that still point young afterwards.
    std::vector<std::size_t> dirty;
    for (std::size_t i = 0; i < heap_.cardCount(); ++i) {
        if (heap_.cardIsDirty(i)) {
            dirty.push_back(i);
            heap_.clearCard(i);
        }
    }
    if (!dirty.empty()) {
        std::size_t cardBytes = heap_.config().cardBytes;
        auto cardOf = [&](Address a) {
            return (a - heap_.oldBase()) / cardBytes;
        };
        std::size_t di = 0;
        heap_.forEachOldObject([&](Address obj) {
            std::size_t size = heap_.objectSize(obj);
            std::size_t firstCard = cardOf(obj);
            std::size_t lastCard = cardOf(obj + size - 1);
            while (di < dirty.size() && dirty[di] < firstCard)
                ++di;
            if (di >= dirty.size() || dirty[di] > lastCard)
                return;
            forEachRefSlot(heap_, obj, [&](std::size_t off) {
                processSlot(obj, off, promote_all);
            });
        });
    }

    // Cheney-style transitive closure over everything evacuated.
    while (!scanQueue_.empty()) {
        Address obj = scanQueue_.back();
        scanQueue_.pop_back();
        forEachRefSlot(heap_, obj, [&](std::size_t off) {
            processSlot(obj, off, promote_all);
        });
    }

    heap_.finishScavenge();
    heap_.notePeak();
}

void
GenerationalGc::fullGc()
{
    SKYWAY_SPAN("gc.full");
    Stopwatch pause;

    // Phase 1: force-promote every young survivor so the young
    // generation is empty and marking only has to deal with the old
    // generation (as Parallel Scavenge's full GC effectively does).
    scavengeImpl(true);

    // Phase 2: mark.
    std::vector<Address> roots;
    for (Address slot : heap_.rootSlots()) {
        if (slot != nullAddr)
            roots.push_back(slot);
    }
    // Walkable pinned ranges (absolutized Skyway input buffers) are
    // kept live wholesale until explicitly freed: every object inside
    // is a root.
    for (const auto &pr : heap_.pinnedRanges()) {
        if (!pr.walkable || pr.bytes == 0)
            continue;
        Address a = pr.addr;
        Address end = pr.addr + pr.bytes;
        while (a < end) {
            if (ManagedHeap::isFiller(a)) {
                a += ManagedHeap::fillerSize(a);
                continue;
            }
            roots.push_back(a);
            a += heap_.objectSize(a);
        }
    }
    markFrom(roots);

    // Phase 3: sweep the old generation.
    sweepOld();
    ++heap_.stats().fullGcs;

    // last_ carries the whole cycle: the force-promoting scavenge of
    // phase 1 plus the mark and sweep tallies.
    GcMetrics &m = GcMetrics::get();
    m.fullGcs.inc();
    m.youngCopiedBytes.add(last_.youngCopiedBytes);
    m.promotedBytes.add(last_.promotedBytes);
    m.oldSweptBytes.add(last_.oldSweptBytes);
    m.markedObjects.add(last_.markedObjects);
    m.pauseNs.record(pause.elapsedNs());
}

void
GenerationalGc::markFrom(const std::vector<Address> &roots)
{
    std::vector<Address> stack(roots);
    while (!stack.empty()) {
        Address obj = stack.back();
        stack.pop_back();
        if (obj == nullAddr)
            continue;
        Word m = heap_.markOf(obj);
        if (mark::isGcMarked(m))
            continue;
        heap_.setMark(obj, mark::setGcMarked(m));
        ++last_.markedObjects;
        forEachRefSlot(heap_, obj, [&](std::size_t off) {
            Address t = heap_.loadRef(obj, off);
            if (t != nullAddr)
                stack.push_back(t);
        });
    }
}

void
GenerationalGc::sweepOld()
{
    heap_.resetOldFreeList();
    ManagedHeap::OpaquePinCursor opaque = heap_.opaquePins();

    Address a = heap_.oldBase();
    Address end = heap_.oldTop();
    Address freeStart = nullAddr;
    std::size_t liveBytes = 0;

    auto flushFree = [&](Address upTo) {
        if (freeStart == nullAddr)
            return;
        std::size_t len = upTo - freeStart;
        if (len >= 2 * wordSize) {
            heap_.addOldFreeRange(freeStart, len);
            last_.oldSweptBytes += len;
        } else if (len > 0) {
            // Too small to track: keep as (dead) filler-free bytes.
            liveBytes += len;
            if (len >= 2 * wordSize)
                heap_.writeFiller(freeStart, len);
        }
        freeStart = nullAddr;
    };

    while (a < end) {
        if (const auto *pr = opaque.at(a)) {
            flushFree(a);
            liveBytes += pr->bytes;
            a = pr->addr + pr->bytes;
            continue;
        }
        if (ManagedHeap::isFiller(a)) {
            if (freeStart == nullAddr)
                freeStart = a;
            a += ManagedHeap::fillerSize(a);
            continue;
        }
        std::size_t size = heap_.objectSize(a);
        Word m = heap_.markOf(a);
        if (mark::isGcMarked(m)) {
            flushFree(a);
            heap_.setMark(a, mark::clearGcMarked(m));
            liveBytes += size;
        } else {
            if (freeStart == nullAddr)
                freeStart = a;
        }
        a += size;
    }
    flushFree(end);
    heap_.setOldUsedBytes(liveBytes);
}

} // namespace skyway
