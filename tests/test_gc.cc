/**
 * @file
 * Tests for the generational collector: scavenge correctness (copying,
 * forwarding, sharing, hash preservation), card-table old-to-young
 * scanning, promotion, full GC mark-sweep reclamation, the Skyway
 * pinned-range interactions, and a seeded property test of the
 * bitmap sweep's heap invariants.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>

#include "gc/collector.hh"
#include "heap/objectops.hh"
#include "support/rng.hh"

namespace skyway
{
namespace
{

class GcTest : public ::testing::Test
{
  protected:
    GcTest()
    {
        defineBootstrapClasses(cat_);
        cat_.define(ClassDef{
            "Node",
            "",
            {
                {"value", FieldType::Int, ""},
                {"next", FieldType::Ref, "Node"},
            },
        });
        HeapConfig cfg;
        cfg.edenBytes = 1 << 20;
        cfg.survivorBytes = 256 << 10;
        cfg.oldBytes = 8 << 20;
        klasses_ = std::make_unique<KlassTable>(cat_);
        heap_ = std::make_unique<ManagedHeap>(cfg);
        gc_ = std::make_unique<GenerationalGc>(*heap_);
        builder_ = std::make_unique<ObjectBuilder>(*heap_, *klasses_);
        nodeK_ = klasses_->load("Node");
    }

    /**
     * Build a rooted linked list of @p n Nodes valued first..first+n-1;
     * returns the root slot.
     */
    std::size_t
    makeList(int n, int first = 0)
    {
        std::size_t slot = heap_->addRoot(nullAddr);
        for (int i = n - 1; i >= 0; --i) {
            Address node = heap_->allocateInstance(nodeK_);
            field::set<std::int32_t>(*heap_, node,
                                     nodeK_->requireField("value"),
                                     first + i);
            field::setRef(*heap_, node, nodeK_->requireField("next"),
                          heap_->root(slot));
            heap_->setRoot(slot, node);
        }
        return slot;
    }

    /** Check the list rooted at @p slot counts 0..n-1. */
    void
    checkList(std::size_t slot, int n)
    {
        checkChain(heap_->root(slot), n);
    }

    /** Check the list starting at @p head counts 0..n-1. */
    void
    checkChain(Address head, int n)
    {
        Address cur = head;
        for (int i = 0; i < n; ++i) {
            ASSERT_NE(cur, nullAddr) << "list too short at " << i;
            EXPECT_EQ(field::get<std::int32_t>(
                          *heap_, cur, nodeK_->requireField("value")),
                      i);
            cur = field::getRef(*heap_, cur,
                                nodeK_->requireField("next"));
        }
        EXPECT_EQ(cur, nullAddr);
    }

    /** Write a Node header and fields into raw old-gen memory. */
    void
    placeNode(Address at, std::int32_t value, Address next)
    {
        heap_->storeWord(at, offsetMark, mark::initial);
        heap_->storeWord(at, offsetKlass, reinterpret_cast<Word>(nodeK_));
        heap_->storeWord(at, offsetBaddr, 0);
        heap_->store<std::int32_t>(
            at, nodeK_->requireField("value").offset, value);
        heap_->store<Address>(at, nodeK_->requireField("next").offset,
                              next);
    }

    std::size_t nodeBytes() const { return wordAlign(nodeK_->instanceBytes()); }

    ClassCatalog cat_;
    std::unique_ptr<KlassTable> klasses_;
    std::unique_ptr<ManagedHeap> heap_;
    std::unique_ptr<GenerationalGc> gc_;
    std::unique_ptr<ObjectBuilder> builder_;
    Klass *nodeK_;
};

TEST_F(GcTest, ScavengePreservesRootedList)
{
    std::size_t slot = makeList(100);
    Address before = heap_->root(slot);
    gc_->scavenge();
    Address after = heap_->root(slot);
    EXPECT_NE(before, after) << "live object should have been copied";
    checkList(slot, 100);
    heap_->removeRoot(slot);
}

TEST_F(GcTest, ScavengeDropsGarbage)
{
    // Allocate unrooted objects: all garbage.
    for (int i = 0; i < 500; ++i)
        heap_->allocateInstance(nodeK_);
    std::size_t used_before = heap_->usedYoungBytes();
    gc_->scavenge();
    EXPECT_LT(heap_->usedYoungBytes(), used_before);
    EXPECT_EQ(heap_->stats().scavenges, 1u);
}

TEST_F(GcTest, SharedObjectCopiedOnce)
{
    // Two roots to the same object must still point to one object
    // after the copy.
    Address obj = builder_->makeInteger(7);
    std::size_t s1 = heap_->addRoot(obj);
    std::size_t s2 = heap_->addRoot(obj);
    gc_->scavenge();
    EXPECT_EQ(heap_->root(s1), heap_->root(s2));
    heap_->removeRoot(s1);
    heap_->removeRoot(s2);
}

TEST_F(GcTest, IdentityHashSurvivesCopy)
{
    Address obj = builder_->makeInteger(3);
    std::size_t slot = heap_->addRoot(obj);
    std::int32_t h = heap_->identityHash(heap_->root(slot));
    gc_->scavenge();
    EXPECT_EQ(heap_->identityHash(heap_->root(slot)), h);
    heap_->removeRoot(slot);
}

TEST_F(GcTest, RepeatedScavengesPromote)
{
    std::size_t slot = makeList(10);
    for (int i = 0; i < 5; ++i)
        gc_->scavenge();
    // After enough scavenges the survivors must have been tenured.
    EXPECT_TRUE(heap_->inOld(heap_->root(slot)));
    checkList(slot, 10);
    EXPECT_GT(heap_->stats().bytesPromoted, 0u);
    heap_->removeRoot(slot);
}

TEST_F(GcTest, CardTableFindsOldToYoungRefs)
{
    // Promote a node to old, then point it at a fresh young node and
    // scavenge: the young node must survive via the card-table root.
    std::size_t slot = makeList(1);
    for (int i = 0; i < 5; ++i)
        gc_->scavenge();
    ASSERT_TRUE(heap_->inOld(heap_->root(slot)));

    Address young = heap_->allocateInstance(nodeK_);
    field::set<std::int32_t>(*heap_, young,
                             nodeK_->requireField("value"), 1);
    heap_->storeRef(heap_->root(slot), nodeK_->requireField("next").offset,
                    young);

    gc_->scavenge();
    checkList(slot, 2);
    heap_->removeRoot(slot);
}

TEST_F(GcTest, AllocationTriggersScavenge)
{
    // Filling eden must trigger collection rather than failure.
    std::size_t slot = heap_->addRoot(nullAddr);
    for (int i = 0; i < 40000; ++i) {
        Address node = heap_->allocateInstance(nodeK_);
        if (i % 100 == 0)
            heap_->setRoot(slot, node); // keep a few alive
    }
    EXPECT_GT(heap_->stats().scavenges, 0u);
    heap_->removeRoot(slot);
}

TEST_F(GcTest, FullGcReclaimsOldGarbage)
{
    // Tenure a big list, drop the root, full-GC: old usage must fall.
    std::size_t slot = makeList(5000);
    gc_->fullGc(); // tenures everything
    ASSERT_TRUE(heap_->inOld(heap_->root(slot)));
    std::size_t used = heap_->usedOldBytes();
    heap_->removeRoot(slot);
    gc_->fullGc();
    EXPECT_LT(heap_->usedOldBytes(), used);
}

TEST_F(GcTest, FullGcKeepsLiveOldObjects)
{
    std::size_t slot = makeList(1000);
    gc_->fullGc();
    gc_->fullGc();
    checkList(slot, 1000);
    heap_->removeRoot(slot);
}

TEST_F(GcTest, FullGcReusesSweptSpace)
{
    std::size_t slot = makeList(2000);
    gc_->fullGc();
    heap_->removeRoot(slot);
    gc_->fullGc();
    std::size_t top_before = heap_->oldTop() - heap_->oldBase();
    // New old allocations should land in the freed space, not bump.
    Address a = heap_->allocateOldRaw(1024);
    EXPECT_TRUE(heap_->inOld(a));
    EXPECT_EQ(heap_->oldTop() - heap_->oldBase(), top_before);
}

TEST_F(GcTest, OpaquePinnedRangeSurvivesFullGc)
{
    // Fill a pinned opaque range with non-object bytes (as a Skyway
    // input buffer being streamed into); a full GC must neither walk
    // nor free it.
    Address zone = heap_->allocateOldRaw(4096);
    std::size_t pin = heap_->pinOldRange(zone, 4096);
    for (std::size_t off = 0; off < 4096; off += wordSize)
        heap_->storeWord(zone, off, 0xdeadbeefcafebabeull);

    gc_->fullGc();
    for (std::size_t off = 0; off < 4096; off += wordSize)
        EXPECT_EQ(heap_->loadWord(zone, off), 0xdeadbeefcafebabeull);
    heap_->unpinOldRange(pin);
}

TEST_F(GcTest, WalkablePinnedObjectsAreLiveRoots)
{
    // Build a real object inside a pinned range, make it walkable, and
    // verify full GC retains it (input buffers are kept until freed).
    std::size_t bytes = nodeBytes();
    Address zone = heap_->allocateOldRaw(bytes + 64);
    std::size_t pin = heap_->pinOldRange(zone, bytes + 64);
    placeNode(zone, 77, nullAddr);
    heap_->writeFiller(zone + bytes, 64);
    heap_->makePinWalkable(pin);

    gc_->fullGc();
    EXPECT_EQ(heap_->load<std::int32_t>(
                  zone, nodeK_->requireField("value").offset),
              77);

    // After unpinning (developer frees the buffer) the next full GC
    // reclaims it.
    heap_->unpinOldRange(pin);
    std::size_t used = heap_->usedOldBytes();
    gc_->fullGc();
    EXPECT_LT(heap_->usedOldBytes(), used);
}

TEST_F(GcTest, SweepLeavesPinnedRangesWhole)
{
    // A received buffer's chunk tail is a filler inside its walkable
    // pin. Were the sweep to free it, a later old-gen allocation would
    // land inside the live buffer, and the next full GC's walk of the
    // pin would take those bytes for the buffer's own objects.
    std::size_t span = nodeBytes() + 4096;
    Address zone = heap_->allocateOldRaw(span);
    std::size_t pin = heap_->pinOldRange(zone, span);
    placeNode(zone, 5, nullAddr);
    heap_->writeFiller(zone + nodeBytes(), 4096);
    heap_->makePinWalkable(pin);

    gc_->fullGc();
    EXPECT_EQ(heap_->usedOldBytes(), span);
    Address a = heap_->allocateOldRaw(1024);
    EXPECT_TRUE(a + 1024 <= zone || a >= zone + span)
        << "allocation landed inside a pinned range";
    EXPECT_EQ(ManagedHeap::fillerSize(zone + nodeBytes()), 4096u);
    heap_->unpinOldRange(pin);
}

TEST_F(GcTest, OneWordRemainderKeepsOldGenWalkable)
{
    // Tenure n0 -> n1 -> n2 (contiguous, in that order), then drop n1:
    // its hole is one word larger than the request below, and the word
    // left over must not read as an object.
    std::size_t slot = makeList(3);
    gc_->fullGc();
    const FieldDesc &next = nodeK_->requireField("next");
    Address n0 = heap_->root(slot);
    Address n1 = field::getRef(*heap_, n0, next);
    Address n2 = field::getRef(*heap_, n1, next);
    ASSERT_EQ(n1, n0 + nodeBytes());
    ASSERT_EQ(n2, n1 + nodeBytes());
    field::setRef(*heap_, n0, next, n2);
    gc_->fullGc();

    Address a = heap_->allocateOldRaw(nodeBytes() - wordSize);
    ASSERT_EQ(a, n1);
    heap_->writeFiller(a, nodeBytes() - wordSize);

    std::vector<Address> seen;
    heap_->forEachOldObject([&](Address obj) { seen.push_back(obj); });
    EXPECT_EQ(seen, (std::vector<Address>{n0, n2}));
    heap_->removeRoot(slot);
}

/**
 * Seeded interleavings of list building, opaque and walkable pins,
 * unpins, dropped roots and full GCs. After every full GC the old
 * generation must walk to oldTop with pins whole and untouched,
 * usedOldBytes() must be exactly the reachable objects outside pins
 * plus the pins plus the one-word fillers, and every list must still
 * be intact. No old-gen allocation may land inside a pin.
 */
class GcSweepPropertyTest : public GcTest,
                            public ::testing::WithParamInterface<int>
{
  protected:
    /** One live pinned range and what it must still hold. */
    struct Pin
    {
        std::size_t id;
        Address addr;
        std::size_t bytes;
        bool walkable;
        /** Walkable: the chain's first node and its length. */
        Address head = nullAddr;
        int chain = 0;
        /** Walkable: offsets and sizes of the fillers laid inside. */
        std::vector<std::pair<std::size_t, std::size_t>> fillers;
    };

    /** A rooted list: a built one, or a pin chain kept past unpin. */
    struct Rooted
    {
        std::size_t slot;
        int length;
    };

    static constexpr Word junk = 0xdeadbeefcafebabeull;

    /** Old-gen raw allocation that must not overlap any pin. */
    Address
    allocate(std::size_t bytes)
    {
        Address a = heap_->allocateOldRaw(bytes);
        for (const Pin &p : pins_)
            EXPECT_TRUE(a + bytes <= p.addr || a >= p.addr + p.bytes)
                << "old-gen allocation landed inside a pinned range";
        return a;
    }

    void
    addOpaquePin(Rng &rng)
    {
        std::size_t bytes = (2 + rng.nextBounded(512)) * wordSize;
        Address a = allocate(bytes);
        for (std::size_t off = 0; off < bytes; off += wordSize)
            heap_->storeWord(a, off, junk);
        pins_.push_back(
            {heap_->pinOldRange(a, bytes), a, bytes, false, nullAddr, 0, {}});
    }

    /**
     * A walkable pin laid out like a received buffer: nodes valued
     * 0..k-1 in address order, each pointing at the next, separated
     * by one-word and larger fillers; the last node points at a young
     * list valued k.. that only the pin keeps alive.
     */
    void
    addWalkablePin(Rng &rng)
    {
        int k = 1 + static_cast<int>(rng.nextBounded(20));
        int m = static_cast<int>(rng.nextBounded(8));
        std::size_t tail = makeList(m, k);

        Pin p{0, 0, 0, true, nullAddr, k + m, {}};
        std::vector<std::size_t> nodeOffs;
        std::size_t off = 0;
        for (int i = 0; i < k; ++i) {
            std::uint64_t gap = rng.nextBounded(4);
            if (gap) {
                std::size_t len = gap == 1 ? wordSize
                                           : (2 + rng.nextBounded(64)) *
                                                 wordSize;
                p.fillers.push_back({off, len});
                off += len;
            }
            nodeOffs.push_back(off);
            off += nodeBytes();
        }
        std::size_t tailFiller = rng.nextBounded(3) * 256;
        if (tailFiller)
            p.fillers.push_back({off, tailFiller});
        p.bytes = off + tailFiller;
        p.addr = allocate(p.bytes);
        p.id = heap_->pinOldRange(p.addr, p.bytes);
        for (auto [foff, len] : p.fillers)
            heap_->writeFillerAny(p.addr + foff, len);
        for (int i = 0; i < k; ++i)
            placeNode(p.addr + nodeOffs[i], i,
                      i + 1 < k ? p.addr + nodeOffs[i + 1] : nullAddr);
        heap_->storeRef(p.addr + nodeOffs[k - 1],
                        nodeK_->requireField("next").offset,
                        heap_->root(tail));
        heap_->removeRoot(tail);
        heap_->makePinWalkable(p.id);
        p.head = p.addr + nodeOffs[0];
        pins_.push_back(std::move(p));
    }

    /**
     * Free a pin; a walkable one's chain may stay rooted. An opaque
     * one is filled first, as a buffer abandoned mid-stream must be:
     * its words are not objects, and old-gen walks would parse them.
     */
    void
    unpin(Rng &rng)
    {
        std::size_t i = rng.nextBounded(pins_.size());
        Pin p = pins_[i];
        pins_.erase(pins_.begin() + static_cast<std::ptrdiff_t>(i));
        if (!p.walkable)
            heap_->writeFiller(p.addr, p.bytes);
        else if (rng.nextBounded(2))
            rooted_.push_back({heap_->addRoot(p.head), p.chain});
        heap_->unpinOldRange(p.id);
    }

    void
    dropRoot(Rng &rng)
    {
        std::size_t i = rng.nextBounded(rooted_.size());
        heap_->removeRoot(rooted_[i].slot);
        rooted_.erase(rooted_.begin() + static_cast<std::ptrdiff_t>(i));
    }

    /** Objects reachable from the roots and the walkable pins. */
    std::unordered_set<Address>
    reachable()
    {
        std::vector<Address> stack;
        for (Address r : heap_->rootSlots())
            if (r != nullAddr)
                stack.push_back(r);
        for (const Pin &p : pins_) {
            if (!p.walkable)
                continue;
            for (Address a = p.addr; a < p.addr + p.bytes;) {
                if (ManagedHeap::isFiller(a)) {
                    a += ManagedHeap::fillerSize(a);
                    continue;
                }
                stack.push_back(a);
                a += heap_->objectSize(a);
            }
        }
        std::unordered_set<Address> seen;
        while (!stack.empty()) {
            Address obj = stack.back();
            stack.pop_back();
            if (!seen.insert(obj).second)
                continue;
            forEachRefSlot(*heap_, obj, [&](std::size_t off) {
                if (Address t = heap_->loadRef(obj, off))
                    stack.push_back(t);
            });
        }
        return seen;
    }

    bool
    inPin(Address a) const
    {
        return std::any_of(pins_.begin(), pins_.end(), [&](const Pin &p) {
            return a >= p.addr && a < p.addr + p.bytes;
        });
    }

    void
    checkAfterFullGc()
    {
        // The walk outside pins reaches oldTop without crossing a pin.
        std::vector<Pin> sorted = pins_;
        std::sort(sorted.begin(), sorted.end(),
                  [](const Pin &x, const Pin &y) { return x.addr < y.addr; });
        std::size_t oneWord = 0;
        std::size_t next = 0;
        Address a = heap_->oldBase();
        while (a < heap_->oldTop()) {
            if (next < sorted.size() && a == sorted[next].addr) {
                a += sorted[next++].bytes;
                continue;
            }
            Address limit = next < sorted.size() ? sorted[next].addr
                                                 : heap_->oldTop();
            std::size_t size = ManagedHeap::isFiller(a)
                                   ? ManagedHeap::fillerSize(a)
                                   : heap_->objectSize(a);
            if (ManagedHeap::isFiller(a) && size == wordSize)
                oneWord += wordSize;
            a += size;
            ASSERT_LE(a, limit) << "old-gen walk runs into a pin";
        }
        ASSERT_EQ(a, heap_->oldTop());

        // Pins are kept whole: nothing swept or written inside them.
        std::size_t pinned = 0;
        for (const Pin &p : pins_) {
            pinned += p.bytes;
            if (!p.walkable) {
                for (std::size_t off = 0; off < p.bytes; off += wordSize)
                    ASSERT_EQ(heap_->loadWord(p.addr, off), junk);
                continue;
            }
            for (auto [off, len] : p.fillers) {
                ASSERT_TRUE(ManagedHeap::isFiller(p.addr + off));
                ASSERT_EQ(ManagedHeap::fillerSize(p.addr + off), len);
            }
            checkChain(p.head, p.chain);
        }

        std::size_t live = 0;
        for (Address obj : reachable())
            if (!inPin(obj))
                live += heap_->objectSize(obj);
        EXPECT_EQ(heap_->usedOldBytes(), live + pinned + oneWord);

        for (const Rooted &r : rooted_)
            checkList(r.slot, r.length);
    }

    std::vector<Pin> pins_;
    std::vector<Rooted> rooted_;
};

TEST_P(GcSweepPropertyTest, FullGcKeepsHeapInvariants)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    int fullGcs = 0;
    for (int step = 0; step < 400; ++step) {
        switch (rng.nextBounded(8)) {
        case 0:
        case 1: {
            int n = 1 + static_cast<int>(rng.nextBounded(64));
            rooted_.push_back({makeList(n), n});
            break;
        }
        case 2:
            addOpaquePin(rng);
            break;
        case 3:
            addWalkablePin(rng);
            break;
        case 4:
            if (!pins_.empty())
                unpin(rng);
            break;
        case 5:
            if (!rooted_.empty())
                dropRoot(rng);
            break;
        default:
            gc_->fullGc();
            ++fullGcs;
            checkAfterFullGc();
            if (HasFatalFailure())
                return;
        }
    }
    EXPECT_GT(fullGcs, 50);
    for (const Pin &p : pins_)
        heap_->unpinOldRange(p.id);
    for (const Rooted &r : rooted_)
        heap_->removeRoot(r.slot);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GcSweepPropertyTest,
                         ::testing::Values(1, 2, 3, 4));

TEST_F(GcTest, ScavengeCountsCycles)
{
    gc_->scavenge();
    gc_->scavenge();
    EXPECT_EQ(heap_->stats().scavenges, 2u);
    gc_->fullGc();
    EXPECT_EQ(heap_->stats().fullGcs, 1u);
}

} // namespace
} // namespace skyway
