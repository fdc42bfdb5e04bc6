/**
 * @file
 * Tests for the Skyway core: heap-to-heap transfer correctness
 * (graphs, sharing, cycles, nulls), identity-hash preservation,
 * backward references across writeObject calls, streaming through
 * small output buffers, chunked input buffers with cross-chunk
 * references, multi-phase shuffles, GC interaction on the receiver,
 * multi-threaded senders with shared objects, heterogeneous formats,
 * the field-update API, the file/socket stream variants, and the
 * drop-in Serializer adapter.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <thread>

#include "skyway/streams.hh"
#include "testclasses.hh"

namespace skyway
{
namespace
{

using testing_support::makeCycle;
using testing_support::makeList;
using testing_support::makeMixed;
using testing_support::makePoint;
using testing_support::makeSharedPair;
using testing_support::makeTestCatalog;

class SkywayTest : public ::testing::Test
{
  protected:
    SkywayTest()
        : catalog_(makeTestCatalog()),
          net_(3),
          driver_(catalog_, net_, 0, 0),
          nodeA_(catalog_, net_, 1, 0),
          nodeB_(catalog_, net_, 2, 0)
    {}

    /**
     * Transfer @p root from A to B through in-memory segments with the
     * given buffer/chunk sizes; returns the received root.
     */
    Address
    transfer(Address root, std::size_t buffer_bytes = 64 << 10,
             std::size_t chunk_bytes = 64 << 10)
    {
        nodeA_.skyway().shuffleStart();
        SkywayObjectInputStream in(nodeB_.skyway(), chunk_bytes);
        SkywayObjectOutputStream out(
            nodeA_.skyway(),
            [&in](const std::uint8_t *d, std::size_t n) {
                in.feed(d, n);
            },
            buffer_bytes);
        out.writeObject(root);
        out.flush();
        in.finish();
        keep_.push_back(in.releaseBuffer());
        return keep_.back()->roots().at(0);
    }

    ClassCatalog catalog_;
    ClusterNetwork net_;
    Jvm driver_;
    Jvm nodeA_;
    Jvm nodeB_;
    std::vector<std::unique_ptr<InputBuffer>> keep_;
};

TEST_F(SkywayTest, SimpleObjectArrivesIdentical)
{
    Address p = makePoint(nodeA_, 11, -22);
    Address q = transfer(p);
    ASSERT_NE(q, nullAddr);
    EXPECT_TRUE(nodeB_.heap().inOld(q))
        << "input buffers live in the old generation";
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), p, nodeB_.heap(), q));
}

TEST_F(SkywayTest, MixedGraphArrivesIdentical)
{
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "skyway mixed");
    Address q = transfer(m);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), m, nodeB_.heap(), q));
}

TEST_F(SkywayTest, IdentityHashPreserved)
{
    Address p = makePoint(nodeA_, 1, 2);
    std::int32_t h = nodeA_.heap().identityHash(p);
    Address q = transfer(p);
    // The receiving node can use the cached hash without rehashing.
    EXPECT_TRUE(mark::hasHash(nodeB_.heap().markOf(q)));
    EXPECT_EQ(nodeB_.heap().identityHash(q), h);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), p, nodeB_.heap(), q, true));
}

TEST_F(SkywayTest, GcAndLockBitsResetOnArrival)
{
    Address p = makePoint(nodeA_, 1, 2);
    nodeA_.heap().identityHash(p);
    Word m = nodeA_.heap().markOf(p);
    nodeA_.heap().setMark(p, mark::withAge(m, 5) | mark::lockMask);
    Address q = transfer(p);
    Word mq = nodeB_.heap().markOf(q);
    EXPECT_EQ(mark::ageOf(mq), 0);
    EXPECT_EQ(mq & mark::lockMask, 0u);
    EXPECT_FALSE(mark::isGcMarked(mq));
}

TEST_F(SkywayTest, SharingAndCyclesPreserved)
{
    LocalRoots roots(nodeA_.heap());
    Address pair = makeSharedPair(nodeA_, roots);
    Address q = transfer(pair);
    Klass *k = nodeB_.klasses().load("test.Pair");
    EXPECT_EQ(field::getRef(nodeB_.heap(), q, k->requireField("left")),
              field::getRef(nodeB_.heap(), q,
                            k->requireField("right")));

    Address cyc = makeCycle(nodeA_, roots);
    Address qc = transfer(cyc);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), cyc, nodeB_.heap(), qc));
}

TEST_F(SkywayTest, NullRootTransfers)
{
    EXPECT_EQ(transfer(nullAddr), nullAddr);
}

TEST_F(SkywayTest, BackwardReferenceDedupsRootsWithinPhase)
{
    // Writing the same root twice in one phase must produce ONE copy
    // on the receiver — stronger than any byte serializer.
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "dedup");
    std::size_t rm = roots.push(m);

    nodeA_.skyway().shuffleStart();
    SkywayObjectInputStream in(nodeB_.skyway());
    SkywayObjectOutputStream out(
        nodeA_.skyway(),
        [&in](const std::uint8_t *d, std::size_t n) { in.feed(d, n); });
    out.writeObject(roots.get(rm));
    out.writeObject(roots.get(rm));
    out.flush();
    in.finish();
    ASSERT_EQ(in.buffer().roots().size(), 2u);
    EXPECT_EQ(in.buffer().roots()[0], in.buffer().roots()[1]);
    EXPECT_EQ(out.stats().backRefs, 1u);
    EXPECT_EQ(out.stats().topMarks, 1u);
    keep_.push_back(in.releaseBuffer());
}

TEST_F(SkywayTest, OverlappingGraphsShareWithinPhase)
{
    // Two different roots sharing a subtree: the subtree is copied
    // once; the second graph references it relative to the buffer.
    LocalRoots roots(nodeA_.heap());
    Address shared = makePoint(nodeA_, 9, 9);
    std::size_t rs = roots.push(shared);
    Klass *pairK = nodeA_.klasses().load("test.Pair");
    Address p1 = nodeA_.heap().allocateInstance(pairK);
    std::size_t rp1 = roots.push(p1);
    field::setRef(nodeA_.heap(), roots.get(rp1),
                  pairK->requireField("left"), roots.get(rs));
    Address p2 = nodeA_.heap().allocateInstance(pairK);
    std::size_t rp2 = roots.push(p2);
    field::setRef(nodeA_.heap(), roots.get(rp2),
                  pairK->requireField("right"), roots.get(rs));

    nodeA_.skyway().shuffleStart();
    SkywayObjectInputStream in(nodeB_.skyway());
    SkywayObjectOutputStream out(
        nodeA_.skyway(),
        [&in](const std::uint8_t *d, std::size_t n) { in.feed(d, n); });
    out.writeObject(roots.get(rp1));
    out.writeObject(roots.get(rp2));
    out.flush();
    in.finish();

    Klass *kb = nodeB_.klasses().load("test.Pair");
    Address q1 = in.buffer().roots()[0];
    Address q2 = in.buffer().roots()[1];
    EXPECT_EQ(field::getRef(nodeB_.heap(), q1,
                            kb->requireField("left")),
              field::getRef(nodeB_.heap(), q2,
                            kb->requireField("right")));
    keep_.push_back(in.releaseBuffer());
}

TEST_F(SkywayTest, StreamingThroughTinyBuffer)
{
    // A 1 KB output buffer forces many flushes mid-traversal.
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 2000);
    Address q = transfer(head, 1 << 10, 4 << 10);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), head, nodeB_.heap(), q));
}

TEST_F(SkywayTest, ChainWithLeavesArrivesIdentical)
{
    // Each pair's left is the next pair and its right a leaf, so the
    // sender's gray queue never empties while the chain is copied:
    // past 4096 records it drops the prefix it has consumed.
    LocalRoots roots(nodeA_.heap());
    Klass *pk = nodeA_.klasses().load("test.Pair");
    std::size_t chain = roots.push(nullAddr);
    for (int i = 0; i < 10000; ++i) {
        Address p = nodeA_.heap().allocateInstance(pk);
        field::setRef(nodeA_.heap(), p, pk->requireField("left"),
                      roots.get(chain));
        roots.set(chain, p);
        Address leaf = makePoint(nodeA_, i, -i);
        field::setRef(nodeA_.heap(), roots.get(chain),
                      pk->requireField("right"), leaf);
    }
    Address q = transfer(roots.get(chain));
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(chain),
                            nodeB_.heap(), q));
}

TEST_F(SkywayTest, OversizedRecordGrowsBuffers)
{
    // One array record far larger than buffer and chunk sizes.
    std::vector<std::int64_t> big(20000, 7);
    Address arr = nodeA_.builder().makeLongArray(big);
    Address q = transfer(arr, 1 << 10, 1 << 10);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), arr, nodeB_.heap(), q));
}

TEST_F(SkywayTest, CrossChunkReferencesAbsolutize)
{
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 5000);
    // Tiny receiver chunks: thousands of records spread over many
    // chunks, with every next-pointer crossing chunk boundaries.
    nodeA_.skyway().shuffleStart();
    SkywayObjectInputStream in(nodeB_.skyway(), 1 << 10);
    SkywayObjectOutputStream out(
        nodeA_.skyway(),
        [&in](const std::uint8_t *d, std::size_t n) { in.feed(d, n); });
    out.writeObject(roots.get(0) /* head rooted first */);
    out.writeObject(head);
    out.flush();
    in.finish();
    EXPECT_GT(in.buffer().chunkCount(), 10u);
    Address q = in.buffer().roots()[1];
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), head, nodeB_.heap(), q));
    keep_.push_back(in.releaseBuffer());
}

TEST_F(SkywayTest, MultiPhaseShufflesInvalidateBaddr)
{
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "multi-phase");
    std::size_t rm = roots.push(m);
    Address q1 = transfer(roots.get(rm)); // phase 1
    Address q2 = transfer(roots.get(rm)); // phase 2: fresh copy
    EXPECT_NE(q1, q2);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(rm),
                            nodeB_.heap(), q1));
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(rm),
                            nodeB_.heap(), q2));
}

TEST_F(SkywayTest, SenderRequiresShufflePhase)
{
    SkywayObjectOutputStream out(
        nodeA_.skyway(), [](const std::uint8_t *, std::size_t) {});
    if (nodeA_.skyway().currentSid() == 0) {
        Address p = makePoint(nodeA_, 1, 1);
        EXPECT_DEATH(out.writeObject(p), "shuffleStart");
    }
}

TEST_F(SkywayTest, ReceivedObjectsSurviveGc)
{
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 500);
    Address q = transfer(head);

    // Full GC on the receiver: the input buffer is pinned walkable and
    // must survive wholesale.
    nodeB_.gc().fullGc();
    nodeB_.gc().scavenge();
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), head, nodeB_.heap(), q));
}

TEST_F(SkywayTest, CardTableCoversReceivedToYoungPointers)
{
    Address p = makePoint(nodeA_, 3, 4);
    Klass *pairK_a = nodeA_.klasses().load("test.Pair");
    Address pair = nodeA_.heap().allocateInstance(pairK_a);
    std::size_t rp = nodeA_.heap().addRoot(pair);
    field::setRef(nodeA_.heap(), nodeA_.heap().root(rp),
                  pairK_a->requireField("left"), p);
    Address q = transfer(nodeA_.heap().root(rp));
    nodeA_.heap().removeRoot(rp);

    // Point a received (old) object at a young object, then scavenge:
    // the write barrier + card scan must keep the young object alive.
    Klass *pairK_b = nodeB_.klasses().load("test.Pair");
    Address young = makePoint(nodeB_, 77, 88);
    nodeB_.heap().storeRef(q, pairK_b->requireField("right").offset,
                           young);
    nodeB_.gc().scavenge();
    Address right = field::getRef(nodeB_.heap(), q,
                                  pairK_b->requireField("right"));
    ASSERT_NE(right, nullAddr);
    EXPECT_EQ((reflect::getField<std::int32_t>(nodeB_.heap(), right,
                                               "x")),
              77);
}

TEST_F(SkywayTest, FreedBufferIsCollected)
{
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 200);
    transfer(head);
    std::size_t used = nodeB_.heap().usedOldBytes();
    keep_.back()->free(); // developer frees the input buffer
    nodeB_.gc().fullGc();
    EXPECT_LT(nodeB_.heap().usedOldBytes(), used);
}

TEST_F(SkywayTest, RootedReceivedObjectOutlivesItsFreedBuffer)
{
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 200);
    nodeB_.gc().fullGc();
    std::size_t usedBefore = nodeB_.heap().usedOldBytes();
    Address q = transfer(head);

    // Keep the last ten nodes (values 9..0) reachable from a root,
    // then free the buffer: they survive in place, and the rest of the
    // buffer's chunk is reclaimed.
    Klass *nodeK = nodeB_.klasses().load("test.Node");
    const FieldDesc &next = nodeK->requireField("next");
    Address tail = q;
    for (int i = 0; i < 190; ++i)
        tail = field::getRef(nodeB_.heap(), tail, next);
    std::size_t slot = nodeB_.heap().addRoot(tail);
    keep_.back()->free();
    nodeB_.gc().fullGc();

    EXPECT_EQ(nodeB_.heap().root(slot), tail) << "old objects stay put";
    Address cur = tail;
    for (int v = 9; v >= 0; --v) {
        ASSERT_NE(cur, nullAddr);
        EXPECT_EQ(field::get<std::int64_t>(nodeB_.heap(), cur,
                                           nodeK->requireField("value")),
                  v);
        cur = field::getRef(nodeB_.heap(), cur, next);
    }
    EXPECT_EQ(cur, nullAddr);
    EXPECT_EQ(nodeB_.heap().usedOldBytes(),
              usedBefore + 10 * nodeK->instanceBytes());
    nodeB_.heap().removeRoot(slot);
}

TEST_F(SkywayTest, FieldUpdateAppliedOnReceive)
{
    nodeB_.skyway().updates().registerUpdate(
        "test.Point", "y",
        [](ManagedHeap &h, Address obj, const FieldDesc &f) {
            field::set<std::int32_t>(h, obj, f, 4242);
        });
    Address p = makePoint(nodeA_, 1, 2);
    Address q = transfer(p);
    EXPECT_EQ((reflect::getField<std::int32_t>(nodeB_.heap(), q, "x")),
              1);
    EXPECT_EQ((reflect::getField<std::int32_t>(nodeB_.heap(), q, "y")),
              4242);
}

TEST_F(SkywayTest, FieldUpdateYoungReferencesFollowScavenge)
{
    // finalize() dirties no card of a received buffer: a received
    // object references only its own old-generation buffer, except
    // through what a field update stores. applyFieldUpdates() dirties
    // the card of each object it updates, so a young target stored
    // with or without the write barrier survives a scavenge and its
    // slot follows the move.
    ManagedHeap &hb = nodeB_.heap();
    LocalRoots young(hb);
    std::size_t viaSetRef = young.push(makePoint(nodeB_, 1, 2));
    std::size_t viaStore = young.push(makePoint(nodeB_, 3, 4));
    Address before = young.get(viaStore);
    ASSERT_TRUE(hb.inYoung(young.get(viaSetRef)) && hb.inYoung(before));
    nodeB_.skyway().updates().registerUpdate(
        "test.Pair", "left",
        [&young, viaSetRef](ManagedHeap &h, Address obj,
                            const FieldDesc &f) {
            field::setRef(h, obj, f, young.get(viaSetRef));
        });
    nodeB_.skyway().updates().registerUpdate(
        "test.Node", "next",
        [&young, viaStore](ManagedHeap &h, Address obj,
                           const FieldDesc &f) {
            h.store<Address>(obj, f.offset, young.get(viaStore));
        });
    // Two streams, so the updated objects sit in separate buffers and
    // neither's card covers the other.
    Address pair = transfer(nodeA_.heap().allocateInstance(
        nodeA_.klasses().load("test.Pair")));
    Address node = transfer(nodeA_.heap().allocateInstance(
        nodeA_.klasses().load("test.Node")));

    nodeB_.gc().scavenge();
    ASSERT_NE(young.get(viaStore), before) << "the scavenge moved nothing";
    Address left = hb.loadRef(
        pair, hb.klassOf(pair)->requireField("left").offset);
    Address next = hb.loadRef(
        node, hb.klassOf(node)->requireField("next").offset);
    EXPECT_EQ(left, young.get(viaSetRef));
    EXPECT_EQ(next, young.get(viaStore));
    EXPECT_EQ((reflect::getField<std::int32_t>(hb, left, "y")), 2);
    EXPECT_EQ((reflect::getField<std::int32_t>(hb, next, "y")), 4);
}

TEST_F(SkywayTest, HeterogeneousFormatAdjustedBySender)
{
    // Receiver runs a vanilla (no-baddr) layout; the sender adjusts
    // each clone while copying. Uses a separate network so node ids
    // stay consistent.
    ClusterNetwork net2(2);
    HeapConfig vanilla;
    vanilla.format.hasBaddr = false;
    Jvm drv(catalog_, net2, 0, 0);
    Jvm recv(catalog_, net2, 1, 0, vanilla);

    LocalRoots roots(drv.heap());
    Address m = makeMixed(drv, roots, "hetero");
    std::int32_t h = drv.heap().identityHash(m);

    drv.skyway().shuffleStart();
    SkywayObjectInputStream in(recv.skyway());
    SkywayObjectOutputStream out(
        drv.skyway(),
        [&in](const std::uint8_t *d, std::size_t n) { in.feed(d, n); },
        defaultOutputBufferBytes, recv.heap().format());
    out.writeObject(m);
    out.flush();
    in.finish();
    Address q = in.buffer().roots().at(0);
    EXPECT_TRUE(graphsEqual(drv.heap(), m, recv.heap(), q));
    EXPECT_EQ(recv.heap().identityHash(q), h);
}

TEST_F(SkywayTest, FileStreamsRoundTrip)
{
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "file transfer");
    nodeA_.skyway().shuffleStart();
    SkywayFileOutputStream out(nodeA_.skyway(), nodeB_.disk(),
                               "shuffle_0.bin");
    out.writeObject(m);
    out.flush();
    EXPECT_GT(out.writeIoNs(), 0u);

    SkywayFileInputStream in(nodeB_.skyway(), nodeB_.disk(),
                             "shuffle_0.bin");
    EXPECT_GT(in.readIoNs(), 0u);
    ASSERT_TRUE(in.hasNext());
    Address q = in.readObject();
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), m, nodeB_.heap(), q));
    keep_.push_back(in.releaseBuffer());
}

TEST_F(SkywayTest, SocketStreamsRoundTrip)
{
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 300);
    nodeA_.skyway().shuffleStart();
    SkywaySocketOutputStream out(nodeA_.skyway(), net_, nodeA_.id(),
                                 nodeB_.id(), 42, 4 << 10);
    SkywaySocketInputStream in(nodeB_.skyway(), net_, nodeB_.id(), 42);
    out.writeObject(head);
    EXPECT_FALSE(in.pump()) << "stream not closed yet";
    out.close();
    ASSERT_TRUE(in.pump());
    Address q = in.readObject();
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), head, nodeB_.heap(), q));
    EXPECT_GT(net_.bytesSent(nodeA_.id(), nodeB_.id()), 0u);
    keep_.push_back(in.releaseBuffer());
}

TEST_F(SkywayTest, MultiThreadedSendersShareObjects)
{
    // Four threads send graphs that all share one subtree, each to
    // its own destination buffer. Every receiver must get a correct
    // copy; the losers of the baddr CAS use their local hash tables.
    LocalRoots roots(nodeA_.heap());
    Address shared = makeMixed(nodeA_, roots, "contended subtree");
    std::size_t rs = roots.push(shared);
    Klass *pairK = nodeA_.klasses().load("test.Pair");
    std::vector<std::size_t> tops;
    for (int t = 0; t < 4; ++t) {
        Address p = nodeA_.heap().allocateInstance(pairK);
        std::size_t rp = roots.push(p);
        field::setRef(nodeA_.heap(), roots.get(rp),
                      pairK->requireField("left"), roots.get(rs));
        tops.push_back(rp);
    }

    nodeA_.skyway().shuffleStart();
    std::vector<std::vector<std::uint8_t>> outBytes(4);
    std::vector<std::unique_ptr<SkywayObjectOutputStream>> streams;
    for (int t = 0; t < 4; ++t) {
        auto *vec = &outBytes[t];
        streams.push_back(std::make_unique<SkywayObjectOutputStream>(
            nodeA_.skyway(),
            [vec](const std::uint8_t *d, std::size_t n) {
                vec->insert(vec->end(), d, d + n);
            }));
    }

    std::vector<std::thread> threads;
    std::uint64_t fallbacks = 0;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            streams[t]->writeObject(roots.get(tops[t]));
            streams[t]->flush();
        });
    }
    for (auto &th : threads)
        th.join();
    for (int t = 0; t < 4; ++t)
        fallbacks += streams[t]->stats().hashFallbacks;
    // At least three streams lost the CAS race for the shared subtree
    // root (one winner), so fallbacks must have happened.
    EXPECT_GE(fallbacks, 3u);

    for (int t = 0; t < 4; ++t) {
        SkywayObjectInputStream in(nodeB_.skyway());
        in.feed(outBytes[t].data(), outBytes[t].size());
        in.finish();
        Address q = in.buffer().roots().at(0);
        EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(tops[t]),
                                nodeB_.heap(), q))
            << "stream " << t;
        keep_.push_back(in.releaseBuffer());
    }
}

TEST_F(SkywayTest, SerializerAdapterRoundTrip)
{
    SkywaySerializer ser(nodeA_.skyway());
    SkywaySerializer des(nodeB_.skyway());
    LocalRoots roots(nodeA_.heap());
    std::size_t r1 = roots.push(makeMixed(nodeA_, roots, "adapter"));
    std::size_t r2 = roots.push(makePoint(nodeA_, 5, 6));

    VectorSink sink;
    ser.writeObject(roots.get(r1), sink);
    ser.writeObject(roots.get(r2), sink);
    ser.writeObject(nullAddr, sink);
    ser.endStream(sink);
    EXPECT_GT(ser.sendStats().objectsCopied, 0u);

    ByteSource src(sink.bytes());
    Address q1 = des.readObject(src);
    Address q2 = des.readObject(src);
    Address q3 = des.readObject(src);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(r1),
                            nodeB_.heap(), q1));
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(r2),
                            nodeB_.heap(), q2));
    EXPECT_EQ(q3, nullAddr);
    EXPECT_TRUE(src.atEnd());
}

TEST_F(SkywayTest, AdapterByteCompositionAddsUp)
{
    SkywaySerializer ser(nodeA_.skyway());
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "composition");
    VectorSink sink;
    ser.writeObject(m, sink);
    ser.endStream(sink);
    SkywaySendStats s = ser.sendStats();
    EXPECT_EQ(s.headerBytes + s.pointerBytes + s.paddingBytes +
                  s.dataBytes,
              s.bytesCopied);
    EXPECT_GT(s.headerBytes, 0u);
    EXPECT_GT(s.pointerBytes, 0u);
}

TEST_F(SkywayTest, StreamIdWraparoundDoesNotAliasClaims)
{
    // Regression: the stream id lives in two baddr bytes. After
    // 65,536 streams the id wraps; a claim stamped 65,536 streams ago
    // must not be mistaken for the current stream's (the wrap opens a
    // fresh shuffle phase). Found by the micro benchmark's
    // many-iteration loop.
    LocalRoots roots(nodeA_.heap());
    Address p = makePoint(nodeA_, 3, 4);
    std::size_t rp = roots.push(p);
    SkywaySerializer des(nodeB_.skyway(), 64 << 10, 4 << 10);
    for (int i = 0; i < 66000; ++i) {
        SkywaySerializer ser(nodeA_.skyway());
        VectorSink sink;
        ser.writeObject(roots.get(rp), sink);
        ser.endStream(sink);
        ByteSource src(sink.bytes());
        Address q = des.readObject(src);
        ASSERT_TRUE(graphsEqual(nodeA_.heap(), roots.get(rp),
                                nodeB_.heap(), q))
            << "stream " << i;
        des.releaseReceived();
    }
}

TEST_F(SkywayTest, TransferredBytesExceedPayloadButCarryHeaders)
{
    // Skyway ships headers and padding: more bytes than Kryo would,
    // by design (the paper's bandwidth-for-CPU tradeoff).
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "bytes");
    GraphMeasure gm = measureGraph(nodeA_.heap(), m);
    SkywaySerializer ser(nodeA_.skyway());
    VectorSink sink;
    ser.writeObject(m, sink);
    ser.endStream(sink);
    EXPECT_GE(ser.sendStats().bytesCopied, gm.bytes)
        << "whole-object copies (plus marker records)";
}

// ---------------------------------------------------------------------
// Raw segments: root tables and the one-pass receiver
// ---------------------------------------------------------------------

/** The flushed segments of one stream, as the sink saw them. */
using Segments = std::vector<std::vector<std::uint8_t>>;

Word
wordAt(const std::vector<std::uint8_t> &v, std::size_t off)
{
    Word w;
    std::memcpy(&w, v.data() + off, wordSize);
    return w;
}

/** Receive @p segs the zero-copy way: each into its own reservation. */
std::unique_ptr<InputBuffer>
receiveZeroCopy(SkywayContext &ctx, const Segments &segs,
                std::size_t chunk_bytes)
{
    auto buf = std::make_unique<InputBuffer>(ctx, chunk_bytes);
    for (const auto &s : segs) {
        std::memcpy(buf->reserveChunk(s.size()), s.data(), s.size());
        buf->commitChunk(s.size());
    }
    buf->finalize();
    return buf;
}

/** Receive @p segs through feed(), concatenated as in a file. */
std::unique_ptr<InputBuffer>
receiveFed(SkywayContext &ctx, const Segments &segs,
           std::size_t chunk_bytes)
{
    std::vector<std::uint8_t> file;
    for (const auto &s : segs)
        file.insert(file.end(), s.begin(), s.end());
    auto buf = std::make_unique<InputBuffer>(ctx, chunk_bytes);
    buf->feed(file.data(), file.size());
    buf->finalize();
    return buf;
}

class RootTableTest : public SkywayTest,
                      public ::testing::WithParamInterface<WireCompactMode>
{
  protected:
    /** Write @p roots in one stream of @p buffer_bytes; keep segments. */
    Segments
    capture(const std::vector<Address> &roots, std::size_t buffer_bytes)
    {
        nodeA_.skyway().setWireCompactMode(GetParam());
        nodeA_.skyway().shuffleStart();
        Segments segs;
        SkywayObjectOutputStream out(
            nodeA_.skyway(),
            [&segs](const std::uint8_t *d, std::size_t n) {
                segs.emplace_back(d, d + n);
            },
            buffer_bytes);
        for (Address r : roots)
            out.writeObject(r);
        out.flush();
        return segs;
    }
};

TEST_P(RootTableTest, NullBackReferenceAndSpilledRootsRoundTrip)
{
    // The buffer fits the header, p1 and the three root slots, but
    // not p2's record: p2's first-write slot lands in the first
    // segment's root table while its record opens the second segment.
    LocalRoots roots(nodeA_.heap());
    std::size_t r1 = roots.push(makePoint(nodeA_, 1, 2));
    std::size_t r2 = roots.push(makePoint(nodeA_, 3, 4));
    std::size_t point =
        nodeA_.klasses().load("test.Point")->instanceBytes();
    std::size_t buffer =
        rawseg::headerBytes + point + 2 * wordSize + point / 2;
    Segments segs = capture({roots.get(r1), nullAddr, roots.get(r2),
                             roots.get(r1)},
                            std::max<std::size_t>(buffer, 64));
    ASSERT_GE(segs.size(), 2u);

    if (GetParam() == WireCompactMode::Off) {
        // [rawSeg][record bytes][root count] [p1] [p1*, null, p2*]
        const auto &s = segs.front();
        ASSERT_EQ(wordAt(s, 0), marker::rawSeg);
        ASSERT_EQ(wordAt(s, wordSize), point);
        ASSERT_EQ(wordAt(s, 2 * wordSize), 3u);
        std::size_t table = rawseg::headerBytes + point;
        EXPECT_EQ(wordAt(s, table), 1u | rawseg::firstWrite);
        EXPECT_EQ(wordAt(s, table + wordSize), 0u);
        EXPECT_EQ(wordAt(s, table + 2 * wordSize),
                  (point + 1) | rawseg::firstWrite)
            << "p2's slot names the first record of the next segment";
    }

    for (bool zero_copy : {false, true}) {
        auto buf = zero_copy ? receiveZeroCopy(nodeB_.skyway(), segs,
                                               defaultInputChunkBytes)
                             : receiveFed(nodeB_.skyway(), segs,
                                          defaultInputChunkBytes);
        const std::vector<Address> &got = buf->roots();
        ASSERT_EQ(got.size(), 4u);
        EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(r1),
                                nodeB_.heap(), got[0]));
        EXPECT_EQ(got[1], nullAddr);
        EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(r2),
                                nodeB_.heap(), got[2]));
        EXPECT_EQ(got[3], got[0]) << "backward reference root";
        keep_.push_back(std::move(buf));
    }
}

TEST_P(RootTableTest, RefsAcrossSegmentsAndChunksRoundTrip)
{
    // A 256-byte output buffer and 1 KB chunks: references point both
    // backwards into earlier segments (absolutized at commit) and
    // forwards into segments not yet received (pending until
    // finalize), and both kinds cross chunk boundaries.
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 400);
    std::size_t rh = roots.push(head);
    Address mixed = makeMixed(nodeA_, roots, "across segments");
    std::size_t rm = roots.push(mixed);
    Klass *pairK = nodeA_.klasses().load("test.Pair");
    std::size_t rp = roots.push(nodeA_.heap().allocateInstance(pairK));
    field::setRef(nodeA_.heap(), roots.get(rp), pairK->requireField("left"),
                  roots.get(rm));
    field::setRef(nodeA_.heap(), roots.get(rp),
                  pairK->requireField("right"), roots.get(rh));

    Segments segs = capture({roots.get(rh), roots.get(rp)}, 256);
    EXPECT_GT(segs.size(), 20u);
    for (bool zero_copy : {false, true}) {
        auto buf = zero_copy
                       ? receiveZeroCopy(nodeB_.skyway(), segs, 1 << 10)
                       : receiveFed(nodeB_.skyway(), segs, 1 << 10);
        EXPECT_GT(buf->chunkCount(), 10u);
        ASSERT_EQ(buf->roots().size(), 2u);
        EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(rh),
                                nodeB_.heap(), buf->roots()[0]));
        EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(rp),
                                nodeB_.heap(), buf->roots()[1]));
        keep_.push_back(std::move(buf));
    }
}

INSTANTIATE_TEST_SUITE_P(WireModes, RootTableTest,
                         ::testing::Values(WireCompactMode::Off,
                                           WireCompactMode::Force),
                         [](const auto &mode) {
                             return mode.param == WireCompactMode::Off
                                        ? std::string("raw")
                                        : std::string("force");
                         });

TEST_F(SkywayTest, ArrayPaddingIsZeroedOnTheWire)
{
    // A long[] of -1 fills the first segment of a 4 KiB buffer
    // exactly; the int[1] after it opens the second segment where
    // those -1 bytes were, and its 4-byte alignment tail must ship as
    // zeros, not as the previous segment's bytes.
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Off);
    constexpr std::size_t kBuf = 4 << 10;
    const ObjectFormat &fmt = nodeA_.heap().format();
    std::size_t n = (kBuf - rawseg::headerBytes -
                     fmt.arrayHeaderBytes() - wordSize) /
                    sizeof(std::int64_t);
    LocalRoots roots(nodeA_.heap());
    std::size_t rl = roots.push(nodeA_.builder().makeLongArray(
        std::vector<std::int64_t>(n, -1)));
    std::size_t ri = roots.push(nodeA_.builder().makeIntArray({7}));

    nodeA_.skyway().shuffleStart();
    Segments segs;
    SkywayObjectOutputStream out(
        nodeA_.skyway(),
        [&segs](const std::uint8_t *d, std::size_t len) {
            segs.emplace_back(d, d + len);
        },
        kBuf);
    out.writeObject(roots.get(rl));
    out.writeObject(roots.get(ri));
    out.flush();

    ASSERT_EQ(segs.size(), 2u);
    ASSERT_EQ(segs[0].size(), kBuf);
    const std::vector<std::uint8_t> &s = segs[1];
    std::size_t rec = rawseg::headerBytes;
    std::size_t tail = rec + fmt.arrayHeaderBytes() + sizeof(std::int32_t);
    std::size_t end = rec + wordAlign(tail - rec);
    ASSERT_EQ(wordAt(s, wordSize), end - rec) << "one int[1] record";
    for (std::size_t i = tail; i < end; ++i)
        EXPECT_EQ(s[i], 0u) << "pad byte " << i - tail;
}

TEST_F(SkywayTest, FileOfConcatenatedSegmentsRoundTrips)
{
    // A 1 KB output buffer writes the file as many raw segments back
    // to back; one feed() of the whole file copies each segment into
    // chunk storage and commits it in place.
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Off);
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 500);
    nodeA_.skyway().shuffleStart();
    SkywayFileOutputStream out(nodeA_.skyway(), nodeB_.disk(),
                               "segments.bin", 1 << 10);
    out.writeObject(head);
    out.writeObject(nullAddr);
    out.flush();
    ASSERT_GT(out.totalBytes(), 8u << 10);

    SkywayFileInputStream in(nodeB_.skyway(), nodeB_.disk(),
                             "segments.bin", 4 << 10);
    ASSERT_TRUE(in.hasNext());
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), head, nodeB_.heap(),
                            in.readObject()));
    EXPECT_EQ(in.readObject(), nullAddr);
    EXPECT_GT(in.buffer().chunkCount(), 1u);
    keep_.push_back(in.releaseBuffer());
}

/**
 * Receive-side type resolution: a receiver maps each wire type id to
 * its klass through the node's klass index, filled as classes load.
 * Node 2 is constructed in each test, so the test decides whether
 * its registry view predates a class.
 */
class ReceiveTypeIdTest : public ::testing::Test
{
  protected:
    ReceiveTypeIdTest()
        : catalog_(makeTestCatalog()),
          net_(3),
          driver_(catalog_, net_, 0, 0),
          sender_(catalog_, net_, 1, 0)
    {}

    /** One stream carrying a fresh test.Point to @p receiver. */
    void
    sendPoint(Jvm &receiver)
    {
        sender_.skyway().shuffleStart();
        Address p = makePoint(sender_, 3, 4);
        SkywayObjectInputStream in(receiver.skyway());
        SkywayObjectOutputStream out(
            sender_.skyway(), [&in](const std::uint8_t *d, std::size_t n) {
                in.feed(d, n);
            });
        out.writeObject(p);
        out.flush();
        in.finish();
        EXPECT_TRUE(graphsEqual(sender_.heap(), p, receiver.heap(),
                                in.readObject()));
    }

    static RegistryStats
    viewStats(Jvm &node)
    {
        return dynamic_cast<TypeRegistryWorker &>(node.resolver())
            .stats();
    }

    ClassCatalog catalog_;
    ClusterNetwork net_;
    Jvm driver_;
    Jvm sender_;
};

TEST_F(ReceiveTypeIdTest, StaleViewCostsOneReverseLookup)
{
    Jvm receiver(catalog_, net_, 2, 0);
    // Registered after the receiver pulled its view.
    sender_.klasses().load("test.Point");
    std::uint64_t before = viewStats(receiver).remoteLookupsIssued;

    sendPoint(receiver);
    EXPECT_EQ(viewStats(receiver).remoteLookupsIssued, before + 1)
        << "one LOOKUP_NAME for the id the view missed";
    EXPECT_EQ(driver_.registryDriver().stats().reverseLookupsServed, 1u);

    sendPoint(receiver);
    EXPECT_EQ(viewStats(receiver).remoteLookupsIssued, before + 1)
        << "a second stream resolves from the klass index";
    EXPECT_EQ(driver_.registryDriver().stats().reverseLookupsServed, 1u);
}

TEST_F(ReceiveTypeIdTest, ViewedClassLoadsDuringReceiveWithoutRequest)
{
    // Registered before the receiver pulls its view.
    Klass *sent = sender_.klasses().load("test.Point");
    Jvm receiver(catalog_, net_, 2, 0);
    ASSERT_EQ(receiver.klasses().findLoaded("test.Point"), nullptr);
    RegistryStats view = viewStats(receiver);
    RegistryStats served = driver_.registryDriver().stats();

    sendPoint(receiver);
    Klass *k = receiver.klasses().findLoaded("test.Point");
    ASSERT_NE(k, nullptr) << "the receive loaded the class";
    EXPECT_EQ(k->tid(), sent->tid());
    EXPECT_EQ(viewStats(receiver).remoteLookupsIssued,
              view.remoteLookupsIssued);
    EXPECT_EQ(driver_.registryDriver().stats().lookupsServed,
              served.lookupsServed);
    EXPECT_EQ(driver_.registryDriver().stats().reverseLookupsServed,
              served.reverseLookupsServed);
}

} // namespace
} // namespace skyway
