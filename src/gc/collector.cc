#include "gc/collector.hh"

#include <algorithm>
#include <bit>
#include <utility>

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
        if (pr.walkable)
            heap_.forEachObjectIn(pr.addr, pr.addr + pr.bytes,
                                  [&](Address a) { roots.push_back(a); });
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
    const Address base = heap_.oldBase();
    const Address top = heap_.oldTop();
    std::size_t words = (top - base) / wordSize;
    if (markBits_.size() * 64 < words) {
        markBits_.resize((words + 63) / 64, 0);
        markSummary_.resize((markBits_.size() + 63) / 64, 0);
    }

    std::vector<Address> stack(roots);
    while (!stack.empty()) {
        Address obj = stack.back();
        stack.pop_back();
        panicIf(obj < base || obj >= top,
                "GenerationalGc: marking an address outside the old "
                "generation");
        std::size_t bit = (obj - base) / wordSize;
        std::uint64_t mask = std::uint64_t{1} << (bit % 64);
        std::uint64_t &word = markBits_[bit / 64];
        if (word & mask)
            continue;
        word |= mask;
        markSummary_[bit / 4096] |= std::uint64_t{1} << (bit / 64 % 64);
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
    const Address base = heap_.oldBase();
    const Address top = heap_.oldTop();

    std::vector<ManagedHeap::PinnedRange> pins;
    for (const ManagedHeap::PinnedRange &pr : heap_.pinnedRanges())
        if (pr.bytes)
            pins.push_back(pr);
    std::sort(pins.begin(), pins.end(),
              [](const auto &x, const auto &y) { return x.addr < y.addr; });

    // [base, liveEnd) is swept; liveEnd is the end of the last live
    // object or pin seen.
    Address liveEnd = base;
    std::size_t usedBytes = 0;

    // A live object or pin of @p bytes at @p next: the gap since the
    // last live thing is dead.
    auto liveAt = [&](Address next, std::size_t bytes) {
        panicIf(next < liveEnd,
                "GenerationalGc: live objects or pinned ranges overlap");
        std::size_t gap = next - liveEnd;
        if (gap >= 2 * wordSize) {
            heap_.addOldFreeRange(liveEnd, gap);
            last_.oldSweptBytes += gap;
        } else if (gap) {
            // Too small to track: stays used, skippable by old-gen walks.
            heap_.writeFillerAny(liveEnd, gap);
            usedBytes += gap;
        }
        liveEnd = next + bytes;
        usedBytes += bytes;
    };

    // Pins are live whole, marked objects inside them included.
    std::size_t nextPin = 0;
    auto pinsUpTo = [&](Address a) {
        while (nextPin < pins.size() && pins[nextPin].addr <= a) {
            const ManagedHeap::PinnedRange &pr = pins[nextPin++];
            liveAt(pr.addr, pr.bytes);
        }
    };

    for (std::size_t s = 0; s < markSummary_.size(); ++s) {
        for (std::uint64_t marked = std::exchange(markSummary_[s], 0);
             marked; marked &= marked - 1) {
            std::size_t i = s * 64 + std::countr_zero(marked);
            for (std::uint64_t bits = std::exchange(markBits_[i], 0); bits;
                 bits &= bits - 1) {
                Address obj =
                    base + (i * 64 + std::countr_zero(bits)) * wordSize;
                pinsUpTo(obj);
                if (obj >= liveEnd)
                    liveAt(obj, heap_.objectSize(obj));
            }
        }
    }
    pinsUpTo(top);
    liveAt(top, 0);
    heap_.setOldUsedBytes(usedBytes);
}

} // namespace skyway
