/**
 * @file
 * The garbage collector: a Parallel-Scavenge-flavoured generational
 * collector with a copying young collection (Cheney scan over the
 * survivor to-space plus a promotion queue), card-table scanning for
 * old-to-young references, and a mark-sweep full collection of the old
 * generation.
 *
 * The full collection marks in a side bitmap (one bit per old-gen
 * word), not in object headers, so its sweep visits only what is live:
 * each gap between two live things becomes one free range under one
 * filler, and the dead objects inside it are never parsed.
 *
 * Skyway-specific behaviour: pinned old-generation ranges (input
 * buffers) are live as a whole, and the sweep never frees or
 * allocates into any part of one, fillers included. Opaque pins
 * (buffers still being filled, whose words are type IDs and relative
 * pointers) are never walked; walkable pins (absolutized buffers)
 * contribute every object inside as a marking root.
 */

#ifndef SKYWAY_GC_COLLECTOR_HH
#define SKYWAY_GC_COLLECTOR_HH

#include <cstdint>
#include <vector>

#include "heap/heap.hh"

namespace skyway
{

/** Collection statistics for reporting. */
struct GcCycleStats
{
    std::uint64_t youngCopiedBytes = 0;
    std::uint64_t promotedBytes = 0;
    std::uint64_t oldSweptBytes = 0;
    std::uint64_t markedObjects = 0;
};

/**
 * The generational collector for one heap. Install via
 * ManagedHeap::setCollector; the heap invokes it on allocation failure,
 * and tests/benches can invoke it directly.
 */
class GenerationalGc : public ManagedHeap::Collector
{
  public:
    explicit GenerationalGc(ManagedHeap &heap);

    void scavenge() override;
    void fullGc() override;

    const GcCycleStats &lastCycle() const { return last_; }

  private:
    /** Copy young survivors; when @p promote_all, tenure everything. */
    void scavengeImpl(bool promote_all);

    /**
     * Evacuate the young object at @p obj (or return its forwarding
     * address when already copied) and enqueue the copy for scanning.
     */
    Address evacuate(Address obj, bool promote_all);

    /** Fix one reference slot during scavenge scanning. */
    void
    processSlot(Address holder, std::size_t off, bool promote_all);

    /**
     * Mark phase of the full collection: set the side-bitmap bit of
     * every object reachable from @p roots. The young generation is
     * empty by then, so marking an address outside [oldBase, oldTop)
     * panics.
     */
    void markFrom(const std::vector<Address> &roots);

    /**
     * Sweep the old generation, rebuilding the free list from the
     * marks alone: walk the set bits and the pinned ranges in address
     * order, count each marked object and each whole pin as live, and
     * turn each gap between them into one free range (a one-word gap
     * into a one-word filler, still counted as used). Reads only the
     * bitmap words the summary names and zeroes each as it reads it,
     * so the next cycle starts clean. Costs O(live objects + pins +
     * oldTop/32768 summary words); no dead object and no byte inside
     * a pin is read.
     */
    void sweepOld();

    ManagedHeap &heap_;
    std::vector<Address> scanQueue_;
    GcCycleStats last_;
    /**
     * The full collection's mark bitmap: bit i of markBits_ stands for
     * the old-generation word at oldBase + 8i, and bit j of markSummary_
     * is set once markBits_[j] holds a mark, so the sweep skips empty
     * stretches of the bitmap 64 words at a time. Both grow to cover
     * oldTop at each mark and are all zero between collections.
     */
    std::vector<std::uint64_t> markBits_;
    std::vector<std::uint64_t> markSummary_;
};

} // namespace skyway

#endif // SKYWAY_GC_COLLECTOR_HH
