/**
 * @file
 * Tests for the adaptive compact wire encoding (docs/WIRE_FORMAT.md):
 * round-trip graph isomorphism for every encoding mode (raw records,
 * padding-stripped instances, varint-narrowed references, RLE'd and
 * plain primitive arrays, reference arrays, mixed per-class segments),
 * the Auto decision policy (fast links pass through, slow links
 * compact, measured feedback demotes bad bets), accounting on both
 * ends, ParallelSender fan-out and TCP transport parity under forced
 * compaction, the SkywaySan corruption kinds for compact segments, and
 * the receiver veto (validated corrupt input dies with a diagnostic
 * instead of crashing the expander), and the exact wire bytes of
 * representative streams under every mode.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "sanitize/corrupt.hh"
#include "skyway/parallel.hh"
#include "skyway/streams.hh"
#include "skyway/wirecompact.hh"
#include "testclasses.hh"

namespace skyway
{
namespace
{

using sanitize::compactCorruptionKinds;
using sanitize::CorruptionKind;
using sanitize::corruptionKindName;
using sanitize::expectedFaults;
using sanitize::indexStream;
using sanitize::injectCorruption;
using sanitize::WireCheckConfig;
using sanitize::WireFault;
using sanitize::WireIndex;
using sanitize::WireValidator;
using testing_support::makeCycle;
using testing_support::makeList;
using testing_support::makeMixed;
using testing_support::makePoint;
using testing_support::makeSharedPair;
using testing_support::makeTestCatalog;

class WireCompactTest : public ::testing::Test
{
  protected:
    WireCompactTest()
        : catalog_(makeTestCatalog()),
          net_(3),
          driver_(catalog_, net_, 0, 0),
          nodeA_(catalog_, net_, 1, 0),
          nodeB_(catalog_, net_, 2, 0)
    {
        // Every test pins the mode it exercises, so the suite is
        // invariant under the SKYWAY_WIRE_COMPACT environment knob.
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

    /** Serialize the graphs at @p roots under @p mode. */
    std::vector<std::uint8_t>
    capture(const std::vector<Address> &roots, WireCompactMode mode,
            std::size_t buffer_bytes = 64 << 10)
    {
        nodeA_.skyway().setWireCompactMode(mode);
        return stream(roots, buffer_bytes);
    }

    /** Serialize the graphs at @p roots in a new phase, keeping the
     *  mode and the per-class decisions earlier streams made. */
    std::vector<std::uint8_t>
    stream(const std::vector<Address> &roots,
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

    /** Feed wire bytes into node B and return the first root. */
    Address
    receive(const std::vector<std::uint8_t> &bytes)
    {
        SkywayObjectInputStream in(nodeB_.skyway());
        in.feed(bytes.data(), bytes.size());
        in.finish();
        keep_.push_back(in.releaseBuffer());
        return keep_.back()->roots().at(0);
    }

    /** Ingest one segment through the zero-copy reserve/commit API. */
    std::unique_ptr<InputBuffer>
    receiveZeroCopy(const std::vector<std::vector<std::uint8_t>> &segs,
                    std::size_t chunk_bytes = defaultInputChunkBytes)
    {
        auto buf = std::make_unique<InputBuffer>(nodeB_.skyway(),
                                                 chunk_bytes);
        for (const auto &seg : segs) {
            std::uint8_t *dst = buf->reserveChunk(seg.size());
            std::memcpy(dst, seg.data(), seg.size());
            buf->commitChunk(seg.size());
        }
        buf->finalize();
        return buf;
    }

    /** Capture under Force and Off, assert the compact stream is a
     *  genuine compact segment, smaller, and re-expands to a graph
     *  isomorphic to the original through BOTH receive paths. */
    void
    roundTripCompact(Address root, double max_ratio = 1.0)
    {
        std::vector<std::uint8_t> raw =
            capture({root}, WireCompactMode::Off);
        std::vector<std::uint8_t> compact =
            capture({root}, WireCompactMode::Force);
        ASSERT_GE(compact.size(), wordSize);
        EXPECT_TRUE(wire::isCompactSegment(compact.data(),
                                           compact.size()));
        EXPECT_LT(static_cast<double>(compact.size()),
                  max_ratio * static_cast<double>(raw.size()))
            << "compact " << compact.size() << "B vs raw "
            << raw.size() << "B";

        Address viaFeed = receive(compact);
        EXPECT_TRUE(graphsEqual(nodeA_.heap(), root, nodeB_.heap(),
                                viaFeed));

        keep_.push_back(receiveZeroCopy({compact}));
        Address viaZeroCopy = keep_.back()->roots().at(0);
        EXPECT_TRUE(graphsEqual(nodeA_.heap(), root, nodeB_.heap(),
                                viaZeroCopy));
    }

    ClassCatalog catalog_;
    ClusterNetwork net_;
    Jvm driver_;
    Jvm nodeA_;
    Jvm nodeB_;
    std::vector<std::unique_ptr<InputBuffer>> keep_;
};

TEST_F(WireCompactTest, OffModeShipsRawSegments)
{
    Address p = makePoint(nodeA_, 3, 4);
    std::vector<std::uint8_t> bytes =
        capture({p}, WireCompactMode::Off);
    EXPECT_FALSE(wire::isCompactSegment(bytes.data(), bytes.size()));
    // Raw streams start with a raw segment's kind word.
    Word first;
    std::memcpy(&first, bytes.data(), wordSize);
    EXPECT_EQ(first, marker::rawSeg);
}

TEST_F(WireCompactTest, PaddingStrippedInstancesRoundTrip)
{
    // test.Point (two ints) pays 8B padding plus 32B header per 8B of
    // data in raw format — the headline compaction case.
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "compact mixed graph");
    roundTripCompact(m);
}

TEST_F(WireCompactTest, VarintReferencesRoundTripLinkedList)
{
    // A long list is reference-dominated: every 8-byte slot word
    // narrows to a short varint. Expect a substantial cut.
    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 300);
    roundTripCompact(head, 0.75);
}

TEST_F(WireCompactTest, SharingAndCyclesSurviveCompaction)
{
    LocalRoots roots(nodeA_.heap());
    Address pair = makeSharedPair(nodeA_, roots);
    roundTripCompact(pair);

    Address cyc = makeCycle(nodeA_, roots);
    std::vector<std::uint8_t> compact =
        capture({cyc}, WireCompactMode::Force);
    Address q = receive(compact);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), cyc, nodeB_.heap(), q));
}

TEST_F(WireCompactTest, ZeroHeavyArrayCompressesWithRle)
{
    // 4096 longs, 1 in 64 nonzero: the RLE coder should collapse the
    // zero runs and beat raw by an order of magnitude.
    std::vector<std::int64_t> data(4096, 0);
    for (std::size_t i = 0; i < data.size(); i += 64)
        data[i] = static_cast<std::int64_t>(i) * 7 + 1;
    Address arr = nodeA_.builder().makeLongArray(data);
    roundTripCompact(arr, 0.2);
}

TEST_F(WireCompactTest, RandomArrayShipsPlainPayload)
{
    // Incompressible payload: Force still compacts (header + varints
    // only), and the payload must survive byte-exactly.
    Rng rng(99);
    std::vector<std::int64_t> data(512);
    for (auto &v : data)
        v = static_cast<std::int64_t>(rng.nextU64());
    Address arr = nodeA_.builder().makeLongArray(data);
    std::vector<std::uint8_t> compact =
        capture({arr}, WireCompactMode::Force);
    // Plain payload: at least the 4096 data bytes are on the wire.
    EXPECT_GE(compact.size(), data.size() * sizeof(std::int64_t));
    Address q = receive(compact);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), arr, nodeB_.heap(), q));
}

TEST_F(WireCompactTest, ReferenceArrayRoundTripsWithNullHoles)
{
    LocalRoots roots(nodeA_.heap());
    Address arr = nodeA_.builder().makeRefArray("test.Point", 10);
    std::size_t ra = roots.push(arr);
    for (std::size_t i = 0; i < 10; i += 2)
        array::setRef(nodeA_.heap(), roots.get(ra), i,
                      makePoint(nodeA_, static_cast<int>(i), -9));
    roundTripCompact(roots.get(ra));
}

TEST_F(WireCompactTest, IdentityHashSurvivesCompaction)
{
    Address p = makePoint(nodeA_, 21, 42);
    std::int32_t h = nodeA_.heap().identityHash(p);
    std::vector<std::uint8_t> compact =
        capture({p}, WireCompactMode::Force);
    Address q = receive(compact);
    EXPECT_TRUE(mark::hasHash(nodeB_.heap().markOf(q)));
    EXPECT_EQ(nodeB_.heap().identityHash(q), h);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), p, nodeB_.heap(), q, true));
}

TEST_F(WireCompactTest, MixedPerClassSegmentCarriesRawRecords)
{
    // Pin the long-array class to raw in the shared cache: its record
    // must travel as a verbatim raw item INSIDE the compact segment
    // while the instance graph beside it compacts.
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "compact half");
    Rng rng(7);
    std::vector<std::int64_t> data(256);
    for (auto &v : data)
        v = static_cast<std::int64_t>(rng.nextU64());
    Address longs = nodeA_.builder().makeLongArray(data);
    std::size_t rl = roots.push(longs);

    // Decide "[J" raw up-front (its tid is assigned on first send, so
    // seed it through an Off-mode capture first).
    capture({roots.get(rl)}, WireCompactMode::Off);
    Klass *longArrK = nodeA_.klasses().load("[J");
    ASSERT_NE(longArrK->tid(), Klass::unregisteredTid);
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Force);
    nodeA_.skyway().wireEncodings().setDecision(longArrK->tid(), 0);

    nodeA_.skyway().shuffleStart();
    std::vector<std::uint8_t> bytes;
    SkywayObjectOutputStream out(
        nodeA_.skyway(),
        [&bytes](const std::uint8_t *d, std::size_t n) {
            bytes.insert(bytes.end(), d, d + n);
        },
        64 << 10);
    out.writeObject(m);
    out.writeObject(roots.get(rl));
    out.flush();

    ASSERT_TRUE(wire::isCompactSegment(bytes.data(), bytes.size()));
    WireIndex index = indexStream(nodeB_.resolver(), cfg(), bytes);
    EXPECT_FALSE(index.compactItemOffsets.empty());

    SkywayObjectInputStream in(nodeB_.skyway());
    in.feed(bytes.data(), bytes.size());
    in.finish();
    keep_.push_back(in.releaseBuffer());
    const auto &received = keep_.back()->roots();
    ASSERT_EQ(received.size(), 2u);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), m, nodeB_.heap(),
                            received.at(0)));
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(rl),
                            nodeB_.heap(), received.at(1)));
}

TEST_F(WireCompactTest, AutoPassesThroughOnFastLinks)
{
    // Threshold above 100%: the stage must return the sink unchanged
    // and the stream must be byte-identical to Off mode.
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "fast link");
    std::vector<std::uint8_t> raw =
        capture({m}, WireCompactMode::Off);
    nodeA_.skyway().setWireNsPerByte(0.1); // 80 Gb/s-class fabric
    std::vector<std::uint8_t> fast =
        capture({m}, WireCompactMode::Auto);
    EXPECT_EQ(fast, raw);
    nodeA_.skyway().setWireNsPerByte(8.0);
}

TEST_F(WireCompactTest, AutoCompactsOnSlowLinks)
{
    // Default Jvm link cost is gigabit Ethernet (8 ns/byte): the
    // threshold is 6.25% and padded instances clear it easily.
    ASSERT_DOUBLE_EQ(nodeA_.skyway().wireNsPerByte(), 8.0);
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "slow link");
    std::vector<std::uint8_t> bytes =
        capture({m}, WireCompactMode::Auto);
    ASSERT_TRUE(wire::isCompactSegment(bytes.data(), bytes.size()));
    Address q = receive(bytes);
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), m, nodeB_.heap(), q));
}

TEST_F(WireCompactTest, MeasuredFeedbackDemotesOverestimatedClass)
{
    // Large random long arrays: the static estimate (16-element
    // guess) says ~16% saving, but at 4096 elements the header share
    // vanishes and the realized saving is ~0%. After enough measured
    // records the shared cache must demote the class to raw.
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Auto);
    Rng rng(4242);
    LocalRoots roots(nodeA_.heap());
    std::vector<std::size_t> slots;
    for (int i = 0; i < 40; ++i) {
        std::vector<std::int64_t> data(4096);
        for (auto &v : data)
            v = static_cast<std::int64_t>(rng.nextU64());
        slots.push_back(roots.push(nodeA_.builder().makeLongArray(data)));
    }

    nodeA_.skyway().shuffleStart();
    std::vector<std::uint8_t> sink;
    SkywayObjectOutputStream out(
        nodeA_.skyway(),
        [&sink](const std::uint8_t *d, std::size_t n) {
            sink.insert(sink.end(), d, d + n);
        },
        64 << 10); // ~1.9 arrays per segment: many sync points
    for (std::size_t s : slots)
        out.writeObject(roots.get(s));
    out.flush();

    Klass *longArrK = nodeA_.klasses().load("[J");
    ASSERT_NE(longArrK->tid(), Klass::unregisteredTid);
    EXPECT_EQ(nodeA_.skyway().wireEncodings().decision(longArrK->tid()),
              0)
        << "measured feedback failed to demote large random arrays";

    // A fresh stream now ships such arrays raw — byte-identical to
    // Off mode. (Streams consult the shared cache, so no setMode call
    // here: that would reset the decisions we just measured.)
    std::vector<std::int64_t> data(4096);
    for (auto &v : data)
        v = static_cast<std::int64_t>(rng.nextU64());
    Address arr = nodeA_.builder().makeLongArray(data);
    std::size_t ra = roots.push(arr);
    nodeA_.skyway().shuffleStart();
    std::vector<std::uint8_t> after;
    SkywayObjectOutputStream demoted(
        nodeA_.skyway(),
        [&after](const std::uint8_t *d, std::size_t n) {
            after.insert(after.end(), d, d + n);
        },
        64 << 10);
    demoted.writeObject(roots.get(ra));
    demoted.flush();
    std::vector<std::uint8_t> raw =
        capture({roots.get(ra)}, WireCompactMode::Off);
    EXPECT_EQ(after, raw);
}

TEST_F(WireCompactTest, ExpandAccountingExcludesZeroCopy)
{
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "accounting");
    std::vector<std::uint8_t> compact =
        capture({m}, WireCompactMode::Force);

    keep_.push_back(receiveZeroCopy({compact}));
    const SkywayReceiveStats &st = keep_.back()->stats();
    // Compact segments are rebuilt, not aliased: nothing may count as
    // zero-copy, and every received byte is an expanded byte.
    EXPECT_EQ(st.zeroCopyBytes, 0u);
    EXPECT_GT(st.expandedBytes, compact.size());
    EXPECT_EQ(st.expandedBytes, st.bytesReceived);
    EXPECT_GT(st.expandNs, 0u);
    EXPECT_GT(st.objectsReceived, 0u);
}

TEST_F(WireCompactTest, ParallelFanOutUnderForcedCompaction)
{
    constexpr unsigned N = 4;
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Force);

    LocalRoots roots(nodeA_.heap());
    Address shared = makeMixed(nodeA_, roots, "contended subtree");
    std::size_t rs = roots.push(shared);
    Klass *pairK = nodeA_.klasses().load("test.Pair");
    std::vector<std::size_t> tops;
    for (unsigned t = 0; t < N; ++t) {
        Address p = nodeA_.heap().allocateInstance(pairK);
        std::size_t rp = roots.push(p);
        field::setRef(nodeA_.heap(), roots.get(rp),
                      pairK->requireField("left"), roots.get(rs));
        field::setRef(nodeA_.heap(), roots.get(rp),
                      pairK->requireField("right"),
                      makePoint(nodeA_, static_cast<int>(t), -1));
        tops.push_back(rp);
    }

    nodeA_.skyway().shuffleStart();
    std::vector<std::vector<std::vector<std::uint8_t>>> segs(N);
    ParallelSendConfig pcfg;
    pcfg.threads = N;
    ParallelSender psend(
        nodeA_.skyway(),
        [&segs](unsigned w) {
            auto *mine = &segs[w];
            return [mine](const std::uint8_t *d, std::size_t n) {
                mine->emplace_back(d, d + n);
            };
        },
        pcfg);
    std::vector<Address> rootAddrs;
    for (std::size_t s : tops)
        rootAddrs.push_back(roots.get(s));
    psend.send(rootAddrs);

    for (unsigned w = 0; w < N; ++w) {
        ASSERT_FALSE(segs[w].empty()) << "worker " << w;
        for (const auto &seg : segs[w])
            EXPECT_TRUE(
                wire::isCompactSegment(seg.data(), seg.size()));
        keep_.push_back(receiveZeroCopy(segs[w]));
        const auto &buf = *keep_.back();
        EXPECT_EQ(buf.stats().zeroCopyBytes, 0u);
        EXPECT_GT(buf.stats().expandedBytes, 0u);
        ASSERT_EQ(buf.roots().size(), 1u) << "worker " << w;
        bool matched = false;
        for (Address r : rootAddrs)
            matched = matched ||
                      graphsEqual(nodeA_.heap(), r, nodeB_.heap(),
                                  buf.roots().at(0));
        EXPECT_TRUE(matched)
            << "worker " << w
            << ": received graph matches no sent root";
    }
}

TEST_F(WireCompactTest, CompactCorruptionKindsRejectedWithExpectedFault)
{
    // Mirror of the raw-stream harness loop over the compact kinds:
    // a graph with instances, references, and both array families so
    // every kind has sites.
    LocalRoots roots(nodeA_.heap());
    Address arr = nodeA_.builder().makeRefArray("test.Mixed", 3);
    std::size_t ra = roots.push(arr);
    for (std::size_t i = 0; i < 3; ++i)
        array::setRef(nodeA_.heap(), roots.get(ra), i,
                      makeMixed(nodeA_, roots,
                                "corruptible " + std::to_string(i)));
    std::vector<std::uint8_t> clean =
        capture({roots.get(ra)}, WireCompactMode::Force);
    ASSERT_TRUE(wire::isCompactSegment(clean.data(), clean.size()));
    WireIndex index = indexStream(nodeB_.resolver(), cfg(), clean);
    ASSERT_FALSE(index.compactItemOffsets.empty());

    for (CorruptionKind kind : compactCorruptionKinds()) {
        for (std::uint64_t seed = 0; seed < 6; ++seed) {
            Rng rng(0xD1E7 + seed * 977);
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
                << ": corrupted compact stream validated clean";

            const std::vector<WireFault> &expect =
                expectedFaults(kind);
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

TEST_F(WireCompactTest, ValidatedReceiverVetoesCorruptCompactInput)
{
    // With SKYWAY_WIRE_CHECK semantics on, a corrupt compact segment
    // must die in the validator with a SkywaySan diagnostic BEFORE
    // the expander touches it — a veto, not a crash.
    LocalRoots roots(nodeA_.heap());
    Address m = makeMixed(nodeA_, roots, "veto me");
    std::vector<std::uint8_t> clean =
        capture({m}, WireCompactMode::Force);
    WireIndex index = indexStream(nodeB_.resolver(), cfg(), clean);
    Rng rng(31337);
    std::vector<std::uint8_t> bad = injectCorruption(
        index, cfg(), clean, CorruptionKind::CompactBadTag, rng);

    nodeB_.skyway().debug().validateWire = true;
    EXPECT_DEATH(
        {
            InputBuffer buf(nodeB_.skyway(), defaultInputChunkBytes);
            std::uint8_t *dst = buf.reserveChunk(bad.size());
            std::memcpy(dst, bad.data(), bad.size());
            buf.commitChunk(bad.size());
            buf.finalize();
        },
        "SkywaySan");
    nodeB_.skyway().debug().validateWire = false;
}

TEST_F(WireCompactTest, ReceiverNamesTheValidatorsFault)
{
    // The receiver and SkywaySan read the wire through one decoder:
    // with validation off, the receiver still dies naming the fault
    // the validator reports, for raw and compact corruption alike.
    LocalRoots roots(nodeA_.heap());
    std::size_t ra =
        roots.push(nodeA_.builder().makeRefArray("test.Mixed", 3));
    for (std::size_t i = 0; i < 3; ++i)
        array::setRef(nodeA_.heap(), roots.get(ra), i,
                      makeMixed(nodeA_, roots,
                                "parity " + std::to_string(i)));
    nodeB_.skyway().debug() = DebugFlags{};
    const std::pair<WireCompactMode, std::vector<CorruptionKind>> cases[] = {
        {WireCompactMode::Off,
         {CorruptionKind::ForgedTypeId, CorruptionKind::Truncation,
          CorruptionKind::BogusMarker}},
        {WireCompactMode::Force, compactCorruptionKinds()},
    };
    for (const auto &[mode, kinds] : cases) {
        std::vector<std::uint8_t> clean = capture({roots.get(ra)}, mode);
        WireIndex index = indexStream(nodeB_.resolver(), cfg(), clean);
        for (CorruptionKind kind : kinds) {
            for (std::uint64_t seed = 0; seed < 2; ++seed) {
                Rng rng(0xFA17 + seed * 977);
                std::vector<std::uint8_t> bad =
                    injectCorruption(index, cfg(), clean, kind, rng);
                WireValidator v(nodeB_.resolver(), cfg());
                v.feed(bad.data(), bad.size());
                v.finish();
                ASSERT_FALSE(v.ok()) << corruptionKindName(kind);
                WireFault f = v.diagnostics().front().fault;
                const std::vector<WireFault> &expect = expectedFaults(kind);
                ASSERT_NE(std::find(expect.begin(), expect.end(), f),
                          expect.end())
                    << corruptionKindName(kind) << " seed " << seed << ": "
                    << v.firstFault();
                EXPECT_DEATH(receive(bad), sanitize::wireFaultName(f))
                    << corruptionKindName(kind) << " seed " << seed;
            }
        }
    }
}

/** 64-bit FNV-1a of @p bytes. */
std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t b : bytes) {
        h ^= b;
        h *= 0x100000001b3ull;
    }
    return h;
}

TEST_F(WireCompactTest, WireBytesArePinned)
{
    // The exact bytes of ten streams under each mode, as a length and
    // an FNV-1a digest, so an encoder rewrite that moves one byte
    // fails here. Identity hashes come from the heap's counter and the
    // arrays from fixed seeds, so the bytes do not depend on the
    // build. Each mode runs the streams in order without resetting
    // its decisions: Auto demotes long[] during stream 7 and ships
    // stream 8 raw, and its stream 10 is a compact segment carrying
    // long[] records as raw items.
    LocalRoots roots(nodeA_.heap());
    constexpr std::size_t kNull = ~std::size_t{0};
    std::size_t p1 = roots.push(makePoint(nodeA_, 1, 2));
    nodeA_.heap().identityHash(roots.get(p1));
    std::size_t p2 = roots.push(makePoint(nodeA_, 3, 4));
    std::size_t list = roots.push(makeList(nodeA_, roots, 40));
    std::size_t mixed = roots.push(makeMixed(nodeA_, roots, "pinned"));
    Klass *pairK = nodeA_.klasses().load("test.Pair");
    std::size_t pair = roots.push(nodeA_.heap().allocateInstance(pairK));
    field::setRef(nodeA_.heap(), roots.get(pair),
                  pairK->requireField("left"), roots.get(mixed));
    field::setRef(nodeA_.heap(), roots.get(pair),
                  pairK->requireField("right"), roots.get(list));
    std::size_t refs =
        roots.push(nodeA_.builder().makeRefArray("test.Point", 9));
    for (std::size_t i = 0; i < 9; i += 2) {
        Address pt = makePoint(nodeA_, static_cast<int>(i), 7);
        array::setRef(nodeA_.heap(), roots.get(refs), i, pt);
    }
    std::vector<std::int64_t> sparse(4096, 0);
    for (std::size_t i = 0; i < sparse.size(); i += 64)
        sparse[i] = static_cast<std::int64_t>(i) * 3 + 1;
    std::size_t rle = roots.push(nodeA_.builder().makeLongArray(sparse));
    std::vector<std::int32_t> ints(301, 0);
    ints[5] = 9;
    ints[300] = -1;
    std::size_t rleInts = roots.push(nodeA_.builder().makeIntArray(ints));
    Rng rng(0x5EED);
    std::vector<std::int64_t> noise(512);
    for (auto &v : noise)
        v = static_cast<std::int64_t>(rng.nextU64());
    std::size_t plain = roots.push(nodeA_.builder().makeLongArray(noise));
    std::size_t chars =
        roots.push(nodeA_.builder().makeCharArray("plain chars"));
    std::size_t doubles =
        roots.push(nodeA_.builder().makeDoubleArray({0.5, -1.25, 3.0}));
    std::vector<std::size_t> big;
    for (int i = 0; i < 40; ++i) {
        std::vector<std::int64_t> data(4096);
        for (auto &v : data)
            v = static_cast<std::int64_t>(rng.nextU64());
        big.push_back(roots.push(nodeA_.builder().makeLongArray(data)));
    }

    struct Stream
    {
        std::vector<std::size_t> roots;
        std::size_t bufferBytes;
    };
    const Stream streams[] = {
        {{p1, kNull, list, p1, p2}, 64 << 10}, // first-write, null, back
        {{p2, list, p2, list, kNull}, 64 << 10}, // trailing back refs
        {{list, mixed, pair, list}, 256},        // spilled roots
        {{rle, rleInts}, 64 << 10},              // RLE arrays
        {{plain, chars, doubles}, 64 << 10},     // plain arrays
        {{mixed, refs, pair}, 64 << 10},         // mixed graph
        {big, 64 << 10},                         // long[4096] x 40
        {big, 64 << 10},                         // again, once demoted
        {{pair, refs, p1}, 0},                   // SkywaySerializer
        {{big[0], mixed, big[1]}, 64 << 10},     // raw items in compact
    };
    struct Pin
    {
        std::size_t len;
        std::uint64_t digest;
    };
    const std::pair<WireCompactMode, std::vector<Pin>> pinned[] = {
        {WireCompactMode::Off,
         {{1728, 0xcd0a7d9c83d7dfb7ull},
          {1696, 0x5c64e23acc2b585ull},
          {2128, 0x36ab436843e86112ull},
          {34080, 0x3a044789efb23fc7ull},
          {4288, 0x2964aef12829028ull},
          {2168, 0x7663b41bc8f43573ull},
          {1313280, 0x1b326ee90e6ab732ull},
          {1313280, 0x1b326ee90e6ab732ull},
          {2208, 0x39b69210e0411e35ull},
          {65888, 0x8502109ca1efb1b0ull}}},
        {WireCompactMode::Force,
         {{561, 0x10f1fc4231a98c0full},
          {546, 0xc3f1ac1fc6c4610ull},
          {703, 0xdfe52df0fd112ba5ull},
          {352, 0x82570a12d57cdce2ull},
          {4168, 0x3590e2106d7e246bull},
          {691, 0xcc8e91f8baa12a9full},
          {1311517, 0xfd9470e0bd2c4911ull},
          {1311517, 0xfd9470e0bd2c4911ull},
          {716, 0x7765993252ef121full},
          {65659, 0x48c926da397b5e9full}}},
        {WireCompactMode::Auto,
         {{561, 0x10f1fc4231a98c0full},
          {546, 0xc3f1ac1fc6c4610ull},
          {703, 0xdfe52df0fd112ba5ull},
          {352, 0x82570a12d57cdce2ull},
          {4168, 0x3590e2106d7e246bull},
          {691, 0xcc8e91f8baa12a9full},
          {1311953, 0x79c64695996af09full},
          {1313280, 0x1b326ee90e6ab732ull},
          {716, 0x7765993252ef121full},
          {65730, 0x199849665b1516dfull}}},
    };

    for (const auto &[mode, pins] : pinned) {
        ASSERT_EQ(pins.size(), std::size(streams));
        nodeA_.skyway().setWireCompactMode(mode);
        for (std::size_t s = 0; s < std::size(streams); ++s) {
            std::vector<Address> addrs;
            for (std::size_t r : streams[s].roots)
                addrs.push_back(r == kNull ? nullAddr : roots.get(r));
            std::vector<std::uint8_t> bytes;
            if (streams[s].bufferBytes != 0) {
                bytes = stream(addrs, streams[s].bufferBytes);
            } else {
                nodeA_.skyway().shuffleStart();
                SkywaySerializer ser(nodeA_.skyway());
                VectorSink sink;
                for (Address a : addrs)
                    ser.writeObject(a, sink);
                ser.endStream(sink);
                bytes = sink.takeBytes();
            }
            EXPECT_EQ(bytes.size(), pins[s].len)
                << "mode " << static_cast<int>(mode) << " stream " << s;
            EXPECT_EQ(fnv1a(bytes), pins[s].digest)
                << "mode " << static_cast<int>(mode) << " stream " << s;
        }
    }
}

TEST_F(WireCompactTest, EnvironmentKnobParses)
{
    const char *old = std::getenv("SKYWAY_WIRE_COMPACT");
    std::string saved = old ? old : "";

    ::setenv("SKYWAY_WIRE_COMPACT", "off", 1);
    EXPECT_EQ(wireCompactModeFromEnv(), WireCompactMode::Off);
    ::setenv("SKYWAY_WIRE_COMPACT", "auto", 1);
    EXPECT_EQ(wireCompactModeFromEnv(), WireCompactMode::Auto);
    ::setenv("SKYWAY_WIRE_COMPACT", "force", 1);
    EXPECT_EQ(wireCompactModeFromEnv(), WireCompactMode::Force);
    ::setenv("SKYWAY_WIRE_COMPACT", "bogus", 1);
    EXPECT_EQ(wireCompactModeFromEnv(), WireCompactMode::Off);
    ::unsetenv("SKYWAY_WIRE_COMPACT");
    EXPECT_EQ(wireCompactModeFromEnv(), WireCompactMode::Off);

    if (old)
        ::setenv("SKYWAY_WIRE_COMPACT", saved.c_str(), 1);
}

/** TCP-transport parity: the compact stream over real sockets. */
class TcpWireCompactTest : public ::testing::Test
{
  protected:
    TcpWireCompactTest()
        : catalog_(makeTestCatalog()),
          net_(3, gigabitEthernet(), TransportKind::Tcp),
          driver_(catalog_, net_, 0, 0),
          nodeA_(catalog_, net_, 1, 0),
          nodeB_(catalog_, net_, 2, 0)
    {
        net_.resetAccounting();
    }

    ClassCatalog catalog_;
    ClusterNetwork net_;
    Jvm driver_;
    Jvm nodeA_;
    Jvm nodeB_;
    std::vector<std::unique_ptr<InputBuffer>> keep_;
};

TEST_F(TcpWireCompactTest, SocketStreamsMatchModelTransportUnderForce)
{
    constexpr std::size_t kBuf = 4 << 10;
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Force);
    nodeB_.skyway().setWireCompactMode(WireCompactMode::Force);

    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 300);

    // Model-transport reference: same graph, same buffer size,
    // in-memory sink.
    nodeA_.skyway().shuffleStart();
    std::vector<std::uint8_t> reference;
    {
        SkywayObjectOutputStream ref(
            nodeA_.skyway(),
            [&reference](const std::uint8_t *d, std::size_t n) {
                reference.insert(reference.end(), d, d + n);
            },
            kBuf);
        ref.writeObject(head);
        ref.flush();
    }

    nodeA_.skyway().shuffleStart();
    SkywaySocketOutputStream out(nodeA_.skyway(), net_, nodeA_.id(),
                                 nodeB_.id(), 77, kBuf);
    SkywaySocketInputStream in(nodeB_.skyway(), net_, nodeB_.id(), 77);
    out.writeObject(head);
    out.close();
    while (!in.pump()) {
    }
    Address q = in.readObject();
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), head, nodeB_.heap(), q));

    // Parity: the socket fabric carried exactly the bytes the model
    // path produced — the compact rewrite is transport-independent.
    // (totalBytes() counts the semantic raw stream ahead of the
    // compaction stage, so it exceeds the fabric count.)
    ASSERT_TRUE(
        wire::isCompactSegment(reference.data(), reference.size()));
    EXPECT_EQ(net_.bytesSent(nodeA_.id(), nodeB_.id()),
              reference.size());
    EXPECT_GT(out.totalBytes(), reference.size());

    keep_.push_back(in.releaseBuffer());
    const SkywayReceiveStats &st = keep_.back()->stats();
    EXPECT_EQ(st.zeroCopyBytes, 0u);
    EXPECT_GT(st.expandedBytes,
              net_.bytesSent(nodeA_.id(), nodeB_.id()))
        << "expansion must rebuild more bytes than the wire carried";
}

} // namespace
} // namespace skyway
