/**
 * @file
 * The managed heap: a HotSpot-like generational heap with bump-pointer
 * allocation in a young generation (eden + two survivor semispaces), a
 * tenured old generation with free-list allocation, a card table
 * tracking old-to-young references, and a root table for handles.
 *
 * Object references (Address) are real byte addresses inside the heap
 * arena, exactly as oops are in HotSpot, so Skyway's pointer
 * relativization/absolutization manipulates genuine pointers.
 */

#ifndef SKYWAY_HEAP_HEAP_HH
#define SKYWAY_HEAP_HEAP_HH

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "klass/klass.hh"
#include "klass/objectformat.hh"
#include "support/logging.hh"
#include "support/types.hh"

namespace skyway
{

/** Sizing and layout parameters for one node's heap. */
struct HeapConfig
{
    std::size_t edenBytes = 16ull << 20;
    std::size_t survivorBytes = 2ull << 20;
    std::size_t oldBytes = 192ull << 20;
    std::size_t cardBytes = 512;
    /** Scavenge cycles an object survives before promotion. */
    int tenureThreshold = 2;
    ObjectFormat format{};
};

/** Running totals the GC and benches report. */
struct HeapStats
{
    std::uint64_t scavenges = 0;
    std::uint64_t fullGcs = 0;
    std::uint64_t bytesPromoted = 0;
    std::uint64_t bytesAllocated = 0;
    std::uint64_t peakUsedBytes = 0;
};

/**
 * One node's managed heap.
 */
class ManagedHeap
{
  public:
    explicit ManagedHeap(const HeapConfig &config = HeapConfig{});

    ManagedHeap(const ManagedHeap &) = delete;
    ManagedHeap &operator=(const ManagedHeap &) = delete;

    const HeapConfig &config() const { return config_; }
    const ObjectFormat &format() const { return config_.format; }

    /// @name Allocation
    /// @{

    /**
     * Allocate and zero-initialize an instance of @p k in the young
     * generation (triggering a scavenge, then a full GC, on
     * exhaustion). The mark word is initialized and the klass word set.
     */
    Address allocateInstance(Klass *k);

    /** Allocate an array of @p length elements of array-klass @p k. */
    Address allocateArray(Klass *k, std::size_t length);

    /**
     * Allocate @p bytes of raw, word-aligned space directly in the
     * old generation. Used for Skyway input-buffer chunks (paper
     * section 4.3: input buffers live in the tenured generation).
     * Pass @p zero = false when the caller overwrites the whole range
     * anyway (streaming receive fills chunks with records and fillers
     * before the GC ever looks at them).
     */
    Address allocateOldRaw(std::size_t bytes, bool zero = true);

    /// @}
    /// @name Raw typed access
    /// @{

    template <typename T>
    T
    load(Address a, std::size_t off) const
    {
        T v;
        std::memcpy(&v, reinterpret_cast<const void *>(a + off), sizeof(T));
        return v;
    }

    template <typename T>
    void
    store(Address a, std::size_t off, T v)
    {
        std::memcpy(reinterpret_cast<void *>(a + off), &v, sizeof(T));
    }

    Word loadWord(Address a, std::size_t off) const
    {
        return load<Word>(a, off);
    }

    void storeWord(Address a, std::size_t off, Word v)
    {
        store<Word>(a, off, v);
    }

    Address loadRef(Address a, std::size_t off) const
    {
        return load<Address>(a, off);
    }

    /**
     * Reference store with the generational write barrier: dirties the
     * card of @p obj when it lives in the old generation.
     */
    void
    storeRef(Address obj, std::size_t off, Address val)
    {
        store<Address>(obj, off, val);
        if (inOld(obj))
            dirtyCard(obj);
    }

    /// @}
    /// @name Object introspection
    /// @{

    Word markOf(Address a) const { return loadWord(a, offsetMark); }
    void setMark(Address a, Word m) { storeWord(a, offsetMark, m); }

    Klass *
    klassOf(Address a) const
    {
        return reinterpret_cast<Klass *>(loadWord(a, offsetKlass));
    }

    std::int64_t
    arrayLength(Address a) const
    {
        return static_cast<std::int64_t>(
            loadWord(a, format().arrayLengthOffset()));
    }

    /** Byte offset of array element @p i for array @p a of klass @p k. */
    std::size_t
    arrayElemOffset(const Klass *k, std::size_t i) const
    {
        return format().arrayHeaderBytes() + i * k->elemSize();
    }

    /** Total size in bytes of the object at @p a. */
    std::size_t objectSize(Address a) const;

    /**
     * Identity hashcode: computed lazily from a heap-local counter and
     * cached in the mark word, as HotSpot does. Because the hash lives
     * in the header, Skyway transfers preserve it.
     */
    std::int32_t identityHash(Address a);

    /// @}
    /// @name Regions
    /// @{

    bool
    inYoung(Address a) const
    {
        return a >= youngBase_ && a < youngEnd_;
    }

    bool
    inOld(Address a) const
    {
        return a >= oldBase_ && a < oldEnd_;
    }

    bool contains(Address a) const { return inYoung(a) || inOld(a); }

    /// @}
    /// @name Roots
    /// @{

    /** Register @p a as a GC root; returns a slot id. */
    std::size_t addRoot(Address a);

    /** Release a root slot. */
    void removeRoot(std::size_t slot);

    Address root(std::size_t slot) const { return roots_[slot]; }
    void setRoot(std::size_t slot, Address a) { roots_[slot] = a; }

    /// @}
    /// @name Card table
    /// @{

    std::size_t cardCount() const { return cards_.size(); }

    void dirtyCard(Address a);

    bool
    cardIsDirty(std::size_t idx) const
    {
        return cards_[idx] != 0;
    }

    void clearCard(std::size_t idx) { cards_[idx] = 0; }

    /// @}
    /// @name GC interface (used by the gc module)
    /// @{

    /** Install the collector invoked on allocation failure. May be null. */
    class Collector
    {
      public:
        virtual ~Collector() = default;
        /** Run a young-generation collection. */
        virtual void scavenge() = 0;
        /** Run a full collection. */
        virtual void fullGc() = 0;
    };

    void setCollector(Collector *c) { collector_ = c; }

    Address oldBase() const { return oldBase_; }
    Address oldTop() const { return oldTop_; }

    /** Bump-allocate in the current to-survivor space; 0 when full. */
    Address allocateInSurvivorTo(std::size_t bytes);

    /** Allocate in old gen for promotion; 0 when full (caller GCs). */
    Address allocateOldForGc(std::size_t bytes);

    /** Reset eden and swap survivor semispaces after a scavenge. */
    void finishScavenge();

    /** Direct access to the root slots (for the collectors). */
    std::deque<Address> &rootSlots() { return roots_; }

    /** Old-gen free-list management used by the sweeping collector. */
    void resetOldFreeList();
    void addOldFreeRange(Address a, std::size_t bytes);

    /** Sweep support: replace the old-gen live-byte accounting. */
    void setOldUsedBytes(std::size_t bytes) { oldUsedBytes_ = bytes; }

    /**
     * Pinned old-generation ranges: Skyway input buffers. While a
     * buffer is being filled it is *opaque* — its contents are not yet
     * valid objects (klass words hold type IDs, references are
     * relative) so the GC must neither walk nor free it. After
     * absolutization the range becomes *walkable*: its objects are
     * ordinary objects the collectors treat as live roots, until the
     * developer frees the buffer (paper section 3.2) and the range is
     * unpinned. Either way the full GC keeps the whole range, fillers
     * included, and never allocates into it.
     */
    struct PinnedRange
    {
        Address addr;
        std::size_t bytes;
        bool walkable;
    };

    /** Pin [a, a+bytes); returns a pin id. */
    std::size_t pinOldRange(Address a, std::size_t bytes);

    /** Transition a pinned range to the walkable state. */
    void makePinWalkable(std::size_t pin);

    void unpinOldRange(std::size_t pin);

    const std::vector<PinnedRange> &pinnedRanges() const
    {
        return pinned_;
    }

    /**
     * Visit every object in [from, to) in address order, stepping over
     * filler records: the one walk that knows their encoding. The
     * range must hold whole objects and fillers only; a record whose
     * size is zero or runs past @p to panics.
     */
    template <typename Visitor>
    void
    forEachObjectIn(Address from, Address to, Visitor &&visit) const
    {
        for (Address a = from; a < to;) {
            bool filler = isFiller(a);
            std::size_t size = filler ? fillerSize(a) : objectSize(a);
            if (size == 0 || size > to - a)
                panic("ManagedHeap: a record overruns its walk range");
            if (!filler)
                visit(a);
            a += size;
        }
    }

    /**
     * Visit every object in the old generation in address order,
     * skipping filler records and the opaque pinned ranges, whose
     * contents are not objects yet.
     */
    template <typename Visitor>
    void
    forEachOldObject(Visitor &&visit) const
    {
        // Copies, so pinning during a walk cannot invalidate them.
        std::vector<PinnedRange> opaque;
        for (const PinnedRange &pr : pinned_)
            if (!pr.walkable && pr.bytes)
                opaque.push_back(pr);
        std::sort(opaque.begin(), opaque.end(),
                  [](const PinnedRange &x, const PinnedRange &y) {
                      return x.addr < y.addr;
                  });
        Address a = oldBase_;
        for (const PinnedRange &pr : opaque) {
            forEachObjectIn(a, pr.addr, visit);
            a = pr.addr + pr.bytes;
        }
        forEachObjectIn(a, oldTop_, visit);
    }

    /**
     * Write a filler record over [a, a+bytes) so linear old-gen walks
     * can skip the hole. @p bytes must be at least 2 words.
     */
    void writeFiller(Address a, std::size_t bytes);

    /**
     * Like writeFiller but also accepts a single-word hole, which is
     * encoded with a distinct magic (Skyway input-buffer chunk tails
     * can be as small as one word).
     */
    void writeFillerAny(Address a, std::size_t bytes);

    /** True when the word at @p a begins a filler record. */
    static bool
    isFiller(Address a)
    {
        Word w = *reinterpret_cast<const Word *>(a);
        return w == fillerMagic || w == fillerMagicOneWord;
    }

    /** Size of the filler record starting at @p a. */
    static std::size_t
    fillerSize(Address a)
    {
        if (*reinterpret_cast<const Word *>(a) == fillerMagicOneWord)
            return wordSize;
        return *reinterpret_cast<const Word *>(a + wordSize);
    }

    /// @}

    HeapStats &stats() { return stats_; }
    const HeapStats &stats() const { return stats_; }

    std::size_t
    usedYoungBytes() const
    {
        return (edenTop_ - edenBase_) + (survTop_ - survBase_[fromSpace_]);
    }

    std::size_t usedOldBytes() const { return oldUsedBytes_; }
    std::size_t usedBytes() const
    {
        return usedYoungBytes() + usedOldBytes();
    }

    /** Record current usage into the peak statistic. */
    void notePeak();

    /** Publishes the occupancy gauges one last time (level drops). */
    ~ManagedHeap();

  private:
    /**
     * Push this heap's occupancy into the process-wide
     * `skyway.heap.in_use_bytes` / `skyway.heap.peak_bytes` gauges
     * (docs/OBSERVABILITY.md): delta-published at allocation and GC
     * boundaries, never per object.
     */
    void publishOccupancy();

    std::uint64_t publishedInUseBytes_ = 0;
    std::uint64_t publishedPeakBytes_ = 0;

    static constexpr Word fillerMagic = 0xf111f111f111f111ull;
    static constexpr Word fillerMagicOneWord = 0xf111f111f111f112ull;

    Address allocateYoung(std::size_t bytes);
    void initHeader(Address a, Klass *k);

    HeapConfig config_;
    std::unique_ptr<std::uint8_t[]> arena_;

    Address youngBase_ = 0, youngEnd_ = 0;
    Address edenBase_ = 0, edenEnd_ = 0, edenTop_ = 0;
    Address survBase_[2] = {0, 0};
    Address survEnd_[2] = {0, 0};
    Address survTop_ = 0;   // allocation top in from-space (live data)
    Address survToTop_ = 0; // allocation top in to-space during scavenge
    int fromSpace_ = 0;

    Address oldBase_ = 0, oldEnd_ = 0, oldTop_ = 0;
    std::size_t oldUsedBytes_ = 0;

    /** First-fit free list of swept old-gen ranges. */
    struct FreeRange
    {
        Address addr;
        std::size_t bytes;
    };
    std::vector<FreeRange> oldFree_;
    std::vector<PinnedRange> pinned_;
    std::vector<std::size_t> freePinSlots_;

    std::vector<std::uint8_t> cards_;
    std::deque<Address> roots_;
    std::vector<std::size_t> freeRootSlots_;

    Collector *collector_ = nullptr;
    std::uint64_t hashCounter_ = 0x9e3779b97f4a7c15ull;
    HeapStats stats_;
};

} // namespace skyway

#endif // SKYWAY_HEAP_HEAP_HH
