/**
 * @file
 * SkywaySan tests: the corruption-injection harness (every corruption
 * class must be rejected with the expected diagnostic, across random
 * seeds), clean-stream validation for every workload family in
 * src/workloads/, the heap-graph isomorphism checker as the round-trip
 * oracle, and the Context debug flags that wire the validator into the
 * sender/receiver paths.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "heap/objectops.hh"
#include "sanitize/corrupt.hh"
#include "sanitize/wirecheck.hh"
#include "skyway/streams.hh"
#include "workloads/graphgen.hh"
#include "workloads/jsbs_family.hh"
#include "workloads/media.hh"
#include "workloads/text.hh"
#include "workloads/tpch.hh"

namespace skyway
{
namespace
{

using sanitize::allCorruptionKinds;
using sanitize::CorruptionKind;
using sanitize::corruptionKindName;
using sanitize::expectedFaults;
using sanitize::indexStream;
using sanitize::injectCorruption;
using sanitize::WireCheckConfig;
using sanitize::WireDiagnostic;
using sanitize::WireFault;
using sanitize::WireIndex;
using sanitize::wireFaultName;
using sanitize::WireValidator;

ClassCatalog
makeWorkloadCatalog()
{
    ClassCatalog cat = makeStandardCatalog();
    defineMediaClasses(cat);
    defineTpchClasses(cat);
    return cat;
}

class SanitizeTest : public ::testing::Test
{
  protected:
    SanitizeTest()
        : catalog_(makeWorkloadCatalog()),
          net_(3),
          driver_(catalog_, net_, 0, 0),
          nodeA_(catalog_, net_, 1, 0),
          nodeB_(catalog_, net_, 2, 0)
    {
        // This fixture's captures and the corruption harness index
        // *raw* streams byte-for-byte; compact-encoding coverage
        // lives in test_wirecompact.cc. Pin the mode so the suite
        // passes under SKYWAY_WIRE_COMPACT=force too.
        nodeA_.skyway().setWireCompactMode(WireCompactMode::Off);
        nodeB_.skyway().setWireCompactMode(WireCompactMode::Off);
    }

    WireCheckConfig
    cfg()
    {
        WireCheckConfig c;
        c.wireFormat = nodeB_.heap().format();
        return c;
    }

    /** Serialize the graphs rooted at @p roots into raw wire bytes. */
    std::vector<std::uint8_t>
    capture(const std::vector<Address> &roots,
            std::size_t buffer_bytes = 64 << 10)
    {
        nodeA_.skyway().shuffleStart();
        std::vector<std::uint8_t> bytes;
        SkywayObjectOutputStream out(
            nodeA_.skyway(),
            [&bytes](const std::uint8_t *d, std::size_t n) {
                bytes.insert(bytes.end(), d, d + n);
            },
            buffer_bytes);
        for (Address r : roots)
            out.writeObject(r);
        out.flush();
        return bytes;
    }

    /** Feed raw wire bytes into node B and return the first root. */
    Address
    receive(const std::vector<std::uint8_t> &bytes)
    {
        SkywayObjectInputStream in(nodeB_.skyway());
        in.feed(bytes.data(), bytes.size());
        in.finish();
        keep_.push_back(in.releaseBuffer());
        return keep_.back()->roots().at(0);
    }

    /** Transfer A -> B and assert graph isomorphism via the checker. */
    void
    roundTrip(Address root, std::size_t min_objects = 1)
    {
        Address q = receive(capture({root}));
        GraphCheckResult r =
            graphsEqual(nodeA_.heap(), root, nodeB_.heap(), q, true);
        EXPECT_TRUE(r.equal) << r.divergence;
        EXPECT_GE(r.objectsCompared, min_objects);
    }

    ClassCatalog catalog_;
    ClusterNetwork net_;
    Jvm driver_;
    Jvm nodeA_;
    Jvm nodeB_;
    std::vector<std::unique_ptr<InputBuffer>> keep_;
};

// ---------------------------------------------------------------------
// Clean-stream validation
// ---------------------------------------------------------------------

TEST_F(SanitizeTest, CleanStreamValidates)
{
    LocalRoots roots(nodeA_.heap());
    Rng rng(42);
    std::size_t slot = makeMediaContent(nodeA_, roots, rng);
    std::vector<std::uint8_t> bytes = capture({roots.get(slot)});

    WireValidator v(nodeB_.resolver(), cfg());
    v.feed(bytes.data(), bytes.size());
    v.finish();
    EXPECT_TRUE(v.ok()) << v.firstFault();
    EXPECT_EQ(v.summary().topMarks, 1u);
    EXPECT_GT(v.summary().records, 4u) << "content + media + images";
    EXPECT_GT(v.summary().refSlots, 0u);
    EXPECT_EQ(v.summary().physicalBytes, bytes.size());
    EXPECT_LT(v.summary().logicalBytes, v.summary().physicalBytes);
}

TEST_F(SanitizeTest, SummaryAgreesWithSenderStats)
{
    // Write the same root twice: the second write is one backward
    // reference, and the validator must count exactly what the sender
    // reports having emitted.
    LocalRoots roots(nodeA_.heap());
    Rng rng(7);
    std::size_t slot = makeMediaContent(nodeA_, roots, rng);

    nodeA_.skyway().shuffleStart();
    std::vector<std::uint8_t> bytes;
    SkywayObjectOutputStream out(
        nodeA_.skyway(),
        [&bytes](const std::uint8_t *d, std::size_t n) {
            bytes.insert(bytes.end(), d, d + n);
        });
    out.writeObject(roots.get(slot));
    out.writeObject(roots.get(slot));
    out.flush();

    WireValidator v(nodeB_.resolver(), cfg());
    v.feed(bytes.data(), bytes.size());
    v.finish();
    ASSERT_TRUE(v.ok()) << v.firstFault();
    EXPECT_EQ(v.summary().topMarks, out.stats().topMarks);
    EXPECT_EQ(v.summary().backRefs, out.stats().backRefs);
    EXPECT_EQ(v.summary().records, out.stats().objectsCopied);
}

TEST_F(SanitizeTest, ValidatorIsIncrementalAcrossSegments)
{
    // A tiny output buffer forces many flushed segments; the validator
    // consumes them in flush order exactly as InputBuffer::feed does.
    LocalRoots roots(nodeA_.heap());
    Rng rng(11);
    std::size_t slot = makeMediaContent(nodeA_, roots, rng);

    nodeA_.skyway().shuffleStart();
    WireValidator v(nodeB_.resolver(), cfg());
    std::size_t segments = 0;
    SkywayObjectOutputStream out(
        nodeA_.skyway(),
        [&v, &segments](const std::uint8_t *d, std::size_t n) {
            v.feed(d, n);
            ++segments;
        },
        1 << 10);
    out.writeObject(roots.get(slot));
    out.flush();
    v.finish();
    EXPECT_TRUE(v.ok()) << v.firstFault();
    EXPECT_GT(segments, 1u);
}

// ---------------------------------------------------------------------
// Corruption injection: every class rejected, right diagnostic
// ---------------------------------------------------------------------

TEST_F(SanitizeTest, EveryCorruptionKindRejectedWithExpectedFault)
{
    LocalRoots roots(nodeA_.heap());
    Rng graph_rng(1234);
    std::size_t slot = makeMediaContent(nodeA_, roots, graph_rng);
    std::vector<std::uint8_t> clean = capture({roots.get(slot)});
    WireIndex index = indexStream(nodeB_.resolver(), cfg(), clean);

    for (CorruptionKind kind : allCorruptionKinds()) {
        for (std::uint64_t seed = 0; seed < 6; ++seed) {
            Rng rng(0xC0DE + seed * 977);
            std::vector<std::uint8_t> bad =
                injectCorruption(index, cfg(), clean, kind, rng);
            ASSERT_NE(bad, clean)
                << corruptionKindName(kind) << " seed " << seed
                << ": injection was a no-op";

            WireValidator v(nodeB_.resolver(), cfg());
            v.feed(bad.data(), bad.size());
            v.finish();
            ASSERT_FALSE(v.ok())
                << corruptionKindName(kind) << " seed " << seed
                << ": corrupted stream validated clean";

            const std::vector<WireFault> &expect = expectedFaults(kind);
            WireFault got = v.diagnostics().front().fault;
            bool matched = false;
            for (WireFault f : expect)
                matched = matched || f == got;
            EXPECT_TRUE(matched)
                << corruptionKindName(kind) << " seed " << seed
                << ": first diagnostic "
                << v.diagnostics().front().str()
                << " not in the expected fault set";
        }
    }
}

TEST_F(SanitizeTest, CorruptionKindsProduceDistinctDiagnostics)
{
    // The acceptance bar: at least five injected corruption classes
    // map to *distinct* first-fault categories — the validator tells
    // the developer what went wrong, not just that something did.
    LocalRoots roots(nodeA_.heap());
    Rng graph_rng(555);
    std::size_t slot = makeMediaContent(nodeA_, roots, graph_rng);
    std::vector<std::uint8_t> clean = capture({roots.get(slot)});
    WireIndex index = indexStream(nodeB_.resolver(), cfg(), clean);

    std::set<WireFault> firsts;
    for (CorruptionKind kind : allCorruptionKinds()) {
        Rng rng(31337);
        std::vector<std::uint8_t> bad =
            injectCorruption(index, cfg(), clean, kind, rng);
        WireValidator v(nodeB_.resolver(), cfg());
        v.feed(bad.data(), bad.size());
        v.finish();
        ASSERT_FALSE(v.ok()) << corruptionKindName(kind);
        firsts.insert(v.diagnostics().front().fault);
    }
    EXPECT_GE(firsts.size(), 5u);
}

TEST_F(SanitizeTest, DiagnosticsCarryOffsetsAndDetail)
{
    LocalRoots roots(nodeA_.heap());
    Rng graph_rng(99);
    std::size_t slot = makeMediaContent(nodeA_, roots, graph_rng);
    std::vector<std::uint8_t> clean = capture({roots.get(slot)});
    WireIndex index = indexStream(nodeB_.resolver(), cfg(), clean);

    Rng rng(2);
    std::vector<std::uint8_t> bad = injectCorruption(
        index, cfg(), clean, CorruptionKind::ForgedTypeId, rng);
    WireValidator v(nodeB_.resolver(), cfg());
    v.feed(bad.data(), bad.size());
    v.finish();
    ASSERT_FALSE(v.ok());
    const WireDiagnostic &d = v.diagnostics().front();
    EXPECT_EQ(d.fault, WireFault::UnresolvableTypeId);
    EXPECT_LT(d.offset, bad.size());
    EXPECT_FALSE(d.detail.empty());
    EXPECT_NE(d.str().find(wireFaultName(d.fault)), std::string::npos);
}

// ---------------------------------------------------------------------
// Workload round-trips, proven by the graph checker
// ---------------------------------------------------------------------

TEST_F(SanitizeTest, MediaWorkloadRoundTrips)
{
    LocalRoots roots(nodeA_.heap());
    Rng rng(17);
    std::size_t slot = makeMediaContent(nodeA_, roots, rng);
    ASSERT_TRUE(mediaContentWellFormed(nodeA_, roots.get(slot)));
    roundTrip(roots.get(slot), 5);
}

TEST_F(SanitizeTest, TextWorkloadRoundTrips)
{
    TextSpec spec;
    spec.lines = 64;
    std::vector<std::string> lines = generateText(spec);
    LocalRoots roots(nodeA_.heap());
    std::size_t slot = roots.push(nodeA_.builder().makeRefArray(
        "java.lang.String", lines.size()));
    for (std::size_t i = 0; i < lines.size(); ++i) {
        Address s = nodeA_.builder().makeString(lines[i]);
        array::setRef(nodeA_.heap(), roots.get(slot), i, s);
    }
    roundTrip(roots.get(slot), lines.size());
}

TEST_F(SanitizeTest, GraphWorkloadRoundTrips)
{
    GraphSpec spec = liveJournalShaped(0.002);
    EdgeList g = generateGraph(spec);
    auto adjacency = buildAdjacency(g);

    LocalRoots roots(nodeA_.heap());
    Klass *adjK = nodeA_.klasses().load("[[I");
    std::size_t slot = roots.push(
        nodeA_.heap().allocateArray(adjK, adjacency.size()));
    for (std::size_t v = 0; v < adjacency.size(); ++v) {
        std::vector<std::int32_t> neigh(adjacency[v].begin(),
                                        adjacency[v].end());
        Address a = nodeA_.builder().makeIntArray(neigh);
        array::setRef(nodeA_.heap(), roots.get(slot), v, a);
    }
    roundTrip(roots.get(slot), adjacency.size());
}

TEST_F(SanitizeTest, TpchWorkloadRoundTrips)
{
    TpchSpec spec;
    spec.scale = 0.001;
    TpchData data = generateTpch(spec);
    ASSERT_FALSE(data.lineitem.empty());

    Klass *liK = nodeA_.klasses().load("tpch.Lineitem");
    std::size_t n = std::min<std::size_t>(data.lineitem.size(), 64);
    LocalRoots roots(nodeA_.heap());
    std::size_t slot =
        roots.push(nodeA_.builder().makeRefArray("tpch.Lineitem", n));
    for (std::size_t i = 0; i < n; ++i) {
        const TpchData::Lineitem &li = data.lineitem[i];
        Address row = nodeA_.heap().allocateInstance(liK);
        array::setRef(nodeA_.heap(), roots.get(slot), i, row);
        row = array::getRef(nodeA_.heap(), roots.get(slot), i);
        field::set<std::int64_t>(nodeA_.heap(), row,
                                 liK->requireField("orderKey"),
                                 li.orderKey);
        field::set<std::int32_t>(nodeA_.heap(), row,
                                 liK->requireField("partKey"),
                                 li.partKey);
        field::set<double>(nodeA_.heap(), row,
                           liK->requireField("quantity"), li.quantity);
        field::set<double>(nodeA_.heap(), row,
                           liK->requireField("extendedPrice"),
                           li.extendedPrice);
        Address mode = nodeA_.builder().makeString(li.shipMode);
        row = array::getRef(nodeA_.heap(), roots.get(slot), i);
        field::setRef(nodeA_.heap(), row,
                      liK->requireField("shipMode"), mode);
    }
    roundTrip(roots.get(slot), n);
}

TEST_F(SanitizeTest, JsbsWorkloadRoundTrips)
{
    // The jsbs_family path: extract one MediaContent to plain values,
    // materialize it back into the heap, then ship the materialized
    // graph — the shape every Figure 7 codec round-trips.
    LocalRoots roots(nodeA_.heap());
    Rng rng(23);
    std::size_t slot = makeMediaContent(nodeA_, roots, rng);
    SdEnv env{nodeA_.heap(), nodeA_.klasses()};
    MediaSchema schema(nodeA_.klasses());
    MediaValues values = extractMedia(env, schema, roots.get(slot));
    std::size_t mslot =
        roots.push(materializeMedia(env, schema, values));
    EXPECT_EQ(extractMedia(env, schema, roots.get(mslot)), values);
    roundTrip(roots.get(mslot), 5);
}

// ---------------------------------------------------------------------
// The graph checker itself
// ---------------------------------------------------------------------

TEST_F(SanitizeTest, GraphCheckerAcceptsPreservedHashes)
{
    LocalRoots roots(nodeA_.heap());
    Rng rng(3);
    std::size_t slot = makeMediaContent(nodeA_, roots, rng);
    std::int32_t h = nodeA_.heap().identityHash(roots.get(slot));
    Address q = receive(capture({roots.get(slot)}));
    EXPECT_EQ(nodeB_.heap().identityHash(q), h);
    GraphCheckResult r = graphsEqual(nodeA_.heap(), roots.get(slot),
                                     nodeB_.heap(), q, true);
    EXPECT_TRUE(r.equal) << r.divergence;
}

TEST_F(SanitizeTest, GraphCheckerReportsPrimitiveDivergence)
{
    LocalRoots roots(nodeA_.heap());
    Rng rng(4);
    std::size_t slot = makeMediaContent(nodeA_, roots, rng);
    Address q = receive(capture({roots.get(slot)}));

    // Corrupt one primitive field on the receiver copy.
    Klass *k = nodeB_.klasses().load("jsbs.Media");
    MediaSchema schema(nodeB_.klasses());
    Address media = field::getRef(nodeB_.heap(), q, *schema.cMedia);
    field::set<std::int32_t>(nodeB_.heap(), media,
                             k->requireField("width"), -1);

    GraphCheckResult r = graphsEqual(nodeA_.heap(), roots.get(slot),
                                     nodeB_.heap(), q, true);
    EXPECT_FALSE(r.equal);
    EXPECT_FALSE(r.divergence.empty());
}

TEST_F(SanitizeTest, GraphCheckerReportsShapeDivergence)
{
    LocalRoots roots(nodeA_.heap());
    Rng rng(5);
    std::size_t slot = makeMediaContent(nodeA_, roots, rng);
    Address q = receive(capture({roots.get(slot)}));

    // Null out a reference on the receiver copy: same classes, same
    // primitives, different shape.
    MediaSchema schema(nodeB_.klasses());
    field::setRef(nodeB_.heap(), q, *schema.cImages, nullAddr);

    GraphCheckResult r = graphsEqual(nodeA_.heap(), roots.get(slot),
                                     nodeB_.heap(), q, true);
    EXPECT_FALSE(r.equal);
    EXPECT_NE(r.divergence.find("null"), std::string::npos)
        << r.divergence;
}

TEST_F(SanitizeTest, GraphCheckerEnforcesSharingBijection)
{
    // Sender: pair whose two slots alias ONE point. Receiver: a pair
    // whose slots hold two structurally equal but distinct points.
    // Value-equal, shape-different — only a bijection check sees it.
    Klass *psA = nodeA_.klasses().load("tpch.PartSupp");
    Klass *arrK = nodeA_.klasses().arrayOfRefs("tpch.PartSupp");

    LocalRoots rootsA(nodeA_.heap());
    std::size_t sa =
        rootsA.push(nodeA_.heap().allocateArray(arrK, 2));
    Address shared = nodeA_.heap().allocateInstance(psA);
    array::setRef(nodeA_.heap(), rootsA.get(sa), 0, shared);
    array::setRef(nodeA_.heap(), rootsA.get(sa), 1, shared);

    Klass *psB = nodeB_.klasses().load("tpch.PartSupp");
    Klass *arrKB = nodeB_.klasses().arrayOfRefs("tpch.PartSupp");
    LocalRoots rootsB(nodeB_.heap());
    std::size_t sb =
        rootsB.push(nodeB_.heap().allocateArray(arrKB, 2));
    for (std::size_t i = 0; i < 2; ++i) {
        Address p = nodeB_.heap().allocateInstance(psB);
        array::setRef(nodeB_.heap(), rootsB.get(sb), i, p);
    }

    GraphCheckResult r =
        graphsEqual(nodeA_.heap(), rootsA.get(sa), nodeB_.heap(),
                    rootsB.get(sb), false);
    EXPECT_FALSE(r.equal);
    EXPECT_FALSE(r.divergence.empty());
}

// ---------------------------------------------------------------------
// Debug flags: the validator wired into real transfer paths
// ---------------------------------------------------------------------

TEST_F(SanitizeTest, DebugFlagsDefaultOff)
{
    // Construct with a clean environment: the suite itself may run
    // under SKYWAY_WIRE_CHECK / SKYWAY_GRAPH_CHECK (the validated
    // full-matrix leg), which would legitimately flip the fixture's
    // flags on.
    ::unsetenv("SKYWAY_WIRE_CHECK");
    ::unsetenv("SKYWAY_GRAPH_CHECK");
    ClusterNetwork net2(2);
    Jvm drv(catalog_, net2, 0, 0);
    EXPECT_FALSE(drv.skyway().debug().validateWire);
    EXPECT_FALSE(drv.skyway().debug().checkReceivedGraph);
}

TEST_F(SanitizeTest, EnvironmentEnablesDebugFlags)
{
    ::setenv("SKYWAY_WIRE_CHECK", "1", 1);
    ::setenv("SKYWAY_GRAPH_CHECK", "1", 1);
    ClusterNetwork net2(2);
    Jvm drv(catalog_, net2, 0, 0);
    ::unsetenv("SKYWAY_WIRE_CHECK");
    ::unsetenv("SKYWAY_GRAPH_CHECK");
    EXPECT_TRUE(drv.skyway().debug().validateWire);
    EXPECT_TRUE(drv.skyway().debug().checkReceivedGraph);
}

TEST_F(SanitizeTest, InstrumentedTransferStillRoundTrips)
{
    nodeA_.skyway().debug().validateWire = true;
    nodeB_.skyway().debug().validateWire = true;
    nodeB_.skyway().debug().checkReceivedGraph = true;

    LocalRoots roots(nodeA_.heap());
    Rng rng(8);
    std::size_t slot = makeMediaContent(nodeA_, roots, rng);
    // Tiny buffers: the sender validates at every flush, the receiver
    // at every feed, and the post-finalize graph audit runs too.
    nodeA_.skyway().shuffleStart();
    SkywayObjectInputStream in(nodeB_.skyway(), 1 << 10);
    SkywayObjectOutputStream out(
        nodeA_.skyway(),
        [&in](const std::uint8_t *d, std::size_t n) { in.feed(d, n); },
        1 << 10);
    out.writeObject(roots.get(slot));
    out.flush();
    in.finish();
    Address q = in.buffer().roots().at(0);
    GraphCheckResult r = graphsEqual(nodeA_.heap(), roots.get(slot),
                                     nodeB_.heap(), q, true);
    EXPECT_TRUE(r.equal) << r.divergence;
    keep_.push_back(in.releaseBuffer());
}

TEST_F(SanitizeTest, InstrumentedSerializerAdapterRoundTrips)
{
    nodeA_.skyway().debug().validateWire = true;
    nodeB_.skyway().debug().validateWire = true;

    SkywaySerializer ser(nodeA_.skyway());
    SkywaySerializer des(nodeB_.skyway());
    LocalRoots roots(nodeA_.heap());
    Rng rng(9);
    std::size_t slot = makeMediaContent(nodeA_, roots, rng);
    VectorSink sink;
    ser.writeObject(roots.get(slot), sink);
    ser.endStream(sink);
    ByteSource src(sink.bytes());
    Address q = des.readObject(src);
    GraphCheckResult r = graphsEqual(nodeA_.heap(), roots.get(slot),
                                     nodeB_.heap(), q, true);
    EXPECT_TRUE(r.equal) << r.divergence;
}

TEST_F(SanitizeTest, ReceiverRejectsCorruptStreamWhenEnabled)
{
    LocalRoots roots(nodeA_.heap());
    Rng graph_rng(12);
    std::size_t slot = makeMediaContent(nodeA_, roots, graph_rng);
    std::vector<std::uint8_t> clean = capture({roots.get(slot)});
    WireIndex index = indexStream(nodeB_.resolver(), cfg(), clean);
    Rng rng(13);
    std::vector<std::uint8_t> bad = injectCorruption(
        index, cfg(), clean, CorruptionKind::ForgedTypeId, rng);

    nodeB_.skyway().debug().validateWire = true;
    EXPECT_DEATH(
        {
            SkywayObjectInputStream in(nodeB_.skyway());
            in.feed(bad.data(), bad.size());
            in.finish();
        },
        "SkywaySan");
}

TEST_F(SanitizeTest, SenderPanicsOnCorruptedBufferWhenEnabled)
{
    // White-box: validate a corrupted stream through a sender-style
    // validator to prove flush-side rejection uses the same machinery.
    LocalRoots roots(nodeA_.heap());
    Rng graph_rng(14);
    std::size_t slot = makeMediaContent(nodeA_, roots, graph_rng);
    std::vector<std::uint8_t> clean = capture({roots.get(slot)});
    WireIndex index = indexStream(nodeB_.resolver(), cfg(), clean);
    Rng rng(15);
    std::vector<std::uint8_t> bad = injectCorruption(
        index, cfg(), clean, CorruptionKind::StaleBaddr, rng);
    WireValidator v(nodeA_.resolver(), cfg());
    v.feed(bad.data(), bad.size());
    v.finish();
    ASSERT_FALSE(v.ok());
    EXPECT_EQ(v.diagnostics().front().fault, WireFault::BadBaddrWord);
}

} // namespace
} // namespace skyway
