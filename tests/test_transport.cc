/**
 * @file
 * Tests for the pluggable transport layer: wire framing units, the
 * TCP transport's delivery semantics (real loopback sockets behind
 * the same ClusterNetwork API), accounting parity between the model
 * and tcp transports, the zero-copy receive path over real sockets,
 * request timeout/retry, and the full Skyway round-trip suite
 * (socket streams, parallel fan-out, type-registry LOOKUP) on TCP.
 * The multiplexed-fabric cases — interleaved tags on one pooled
 * connection, credit exhaustion and resume, peer disconnect at and
 * inside a frame edge, a 64-node smoke, parity at 16 nodes — live
 * here too, as do the posted-receive rules: a frame lands in posted
 * storage only when it fits and nothing of its tag waits staged, and
 * `net.recv_into_bytes` + `net.staged_bytes` split every delivered
 * remote payload byte exactly. Labeled `transport` and `concurrency`
 * so the TSan matrix runs the whole binary against the per-node event
 * loops.
 */

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "net/cluster.hh"
#include "net/frame.hh"
#include "net/tcp_transport.hh"
#include "obs/metrics.hh"
#include "skyway/parallel.hh"
#include "skyway/streams.hh"
#include "typereg/registry.hh"
#include "testclasses.hh"

namespace skyway
{
namespace
{

using testing_support::makeList;
using testing_support::makeMixed;
using testing_support::makePoint;
using testing_support::makeTestCatalog;

std::vector<std::uint8_t>
bytesOf(const std::string &s)
{
    return std::vector<std::uint8_t>(s.begin(), s.end());
}

std::string
str(const std::vector<std::uint8_t> &v)
{
    return std::string(v.begin(), v.end());
}

/** Spin until a tagged message arrives (TCP bytes are in flight). */
NetMessage
awaitTag(ClusterNetwork &net, NodeId dst, int tag)
{
    NetMessage m;
    while (!net.pollTag(dst, tag, m)) {
    }
    return m;
}

/** Spin until pollTagInto delivers a frame of @p tag into @p to (or
 *  the end of stream); returns its length. */
std::ptrdiff_t
awaitInto(ClusterNetwork &net, NodeId dst, int tag, std::uint8_t *to)
{
    std::ptrdiff_t n;
    while ((n = net.pollTagInto(dst, tag,
                                [to](std::size_t) { return to; })) < 0) {
    }
    return n;
}

TEST(Frame, HandshakeRoundTrip)
{
    frame::Handshake h{frame::channelData, 7};
    std::uint8_t buf[frame::handshakeBytes];
    frame::encodeHandshake(buf, h);
    frame::Handshake out{};
    ASSERT_TRUE(frame::decodeHandshake(buf, out));
    EXPECT_EQ(out.channel, frame::channelData);
    EXPECT_EQ(out.src, 7);
}

TEST(Frame, HandshakeRejectsBadMagic)
{
    frame::Handshake h{frame::channelData, 1};
    std::uint8_t buf[frame::handshakeBytes];
    frame::encodeHandshake(buf, h);
    buf[0] ^= 0xFF;
    frame::Handshake out{};
    EXPECT_FALSE(frame::decodeHandshake(buf, out));
}

TEST(Frame, MuxHeaderRoundTrip)
{
    frame::MuxHeader h{frame::kindStream, 3, -9, 123456};
    std::uint8_t buf[frame::muxHeaderBytes];
    frame::encodeMuxHeader(buf, h);
    frame::MuxHeader out = frame::decodeMuxHeader(buf);
    EXPECT_EQ(out.kind, frame::kindStream);
    EXPECT_EQ(out.origin, 3);
    EXPECT_EQ(out.tag, -9);
    EXPECT_EQ(out.arg, 123456u);

    frame::MuxHeader c{frame::kindCredit, 1, 5, 4096};
    frame::encodeMuxHeader(buf, c);
    out = frame::decodeMuxHeader(buf);
    EXPECT_EQ(out.kind, frame::kindCredit);
    EXPECT_EQ(out.arg, 4096u);
}

TEST(Frame, RequestFrameRoundTrip)
{
    std::vector<std::uint8_t> body = bytesOf("lookup me");
    std::vector<std::uint8_t> payload = frame::requestPayload(77, body);
    ASSERT_EQ(payload.size(), frame::reqIdBytes + body.size());
    frame::MuxHeader h{frame::kindReply, 2, 101,
                       static_cast<std::uint32_t>(payload.size())};
    std::uint8_t buf[frame::muxHeaderBytes];
    frame::encodeMuxHeader(buf, h);
    frame::MuxHeader out = frame::decodeMuxHeader(buf);
    EXPECT_EQ(out.kind, frame::kindReply);
    EXPECT_EQ(out.origin, 2);
    EXPECT_EQ(out.tag, 101);
    EXPECT_EQ(out.arg, payload.size());
    EXPECT_EQ(frame::getU32(payload.data()), 77u);
    EXPECT_EQ(std::string(payload.begin() + frame::reqIdBytes,
                          payload.end()),
              "lookup me");
    EXPECT_EQ(frame::requestPayload(3, {}).size(), frame::reqIdBytes);
}

TEST(TransportKindTest, NamesParse)
{
    EXPECT_STREQ(transportKindName(TransportKind::Model), "model");
    EXPECT_STREQ(transportKindName(TransportKind::Tcp), "tcp");
    EXPECT_EQ(parseTransportKind("model"), TransportKind::Model);
    EXPECT_EQ(parseTransportKind("tcp"), TransportKind::Tcp);
    EXPECT_FALSE(parseTransportKind("udp").has_value());
}

TEST(TcpCluster, SendPollInOrder)
{
    ClusterNetwork net(3, gigabitEthernet(), TransportKind::Tcp);
    EXPECT_STREQ(net.transportName(), "tcp");
    net.send(0, 1, 7, bytesOf("first"));
    net.send(0, 1, 7, bytesOf("second"));
    NetMessage m = awaitTag(net, 1, 7);
    EXPECT_EQ(m.src, 0);
    EXPECT_EQ(m.tag, 7);
    EXPECT_EQ(str(m.payload), "first");
    m = awaitTag(net, 1, 7);
    EXPECT_EQ(str(m.payload), "second");
    EXPECT_FALSE(net.poll(1, m));
}

TEST(TcpCluster, PollTagSkipsOthersAndRetainsOrder)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    net.send(0, 1, 1, bytesOf("a1"));
    net.send(0, 1, 2, bytesOf("b"));
    net.send(0, 1, 1, bytesOf("a2"));
    // Draining tag 2 first must not disturb tag 1's order.
    EXPECT_EQ(str(awaitTag(net, 1, 2).payload), "b");
    EXPECT_EQ(str(awaitTag(net, 1, 1).payload), "a1");
    EXPECT_EQ(str(awaitTag(net, 1, 1).payload), "a2");
}

TEST(TcpCluster, SelfSendIsFreeAndDelivered)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    net.send(0, 0, 5, bytesOf("home"));
    EXPECT_EQ(net.totalBytesSent(0), 0u);
    EXPECT_EQ(net.wireNs(0), 0u);
    NetMessage m;
    ASSERT_TRUE(net.pollTag(0, 5, m)); // local: no flight time
    EXPECT_EQ(str(m.payload), "home");
}

TEST(TcpCluster, PollTagIntoDeliversIntoPostedStorage)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    std::vector<std::uint8_t> payload(4096);
    for (std::size_t i = 0; i < payload.size(); ++i)
        payload[i] = static_cast<std::uint8_t>(i * 13);
    std::vector<std::uint8_t> storage(payload.size() + 1, 0xEE);
    // Posted before the frame can arrive: the event loop lands it
    // there, and the consumer takes it where it lies.
    net.post(1, 3, storage.data(), payload.size());
    net.send(0, 1, 3, payload);

    std::ptrdiff_t n;
    while ((n = net.pollTagInto(1, 3, [&](std::size_t len) {
                EXPECT_EQ(len, payload.size());
                return storage.data();
            })) < 0) {
    }
    ASSERT_EQ(n, static_cast<std::ptrdiff_t>(payload.size()));
    EXPECT_EQ(0,
              std::memcmp(storage.data(), payload.data(),
                          payload.size()));
    EXPECT_EQ(storage[payload.size()], 0xEE) << "overran the post";
    EXPECT_EQ(net.recvIntoBytes(), payload.size());
    EXPECT_EQ(net.stagedBytes(), 0u);
}

TEST(TcpCluster, FramesWithoutAFittingPostArriveStaged)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    std::vector<std::uint8_t> small(100, 0x11), big(300, 0x22),
        unposted(50, 0x33);
    std::vector<std::uint8_t> post(200, 0);
    std::vector<std::uint8_t> out(300, 0);
    // The first frame is larger than its post: staged. While it waits
    // staged, the post (which fits the next frame) stays unused, so
    // delivery order and the consumer's memory are never confused.
    net.post(1, 4, post.data(), post.size());
    net.send(0, 1, 4, big);
    net.send(0, 1, 4, small);
    // A frame of a tag nobody posted for: staged.
    net.send(0, 1, 5, unposted);

    ASSERT_EQ(awaitInto(net, 1, 4, out.data()), 300);
    EXPECT_EQ(out[299], 0x22);
    ASSERT_EQ(awaitInto(net, 1, 4, out.data()), 100);
    EXPECT_EQ(out[99], 0x11);
    EXPECT_EQ(post[0], 0) << "a frame landed behind a staged one";
    ASSERT_EQ(awaitInto(net, 1, 5, out.data()), 50);
    EXPECT_EQ(out[49], 0x33);
    EXPECT_EQ(net.recvIntoBytes(), 0u);
    EXPECT_EQ(net.stagedBytes(), 450u);

    // A post that fits, with nothing staged ahead: taken in place.
    net.post(1, 4, post.data(), post.size());
    net.send(0, 1, 4, small);
    ASSERT_EQ(awaitInto(net, 1, 4, post.data()), 100);
    EXPECT_EQ(post[99], 0x11);
    EXPECT_EQ(net.recvIntoBytes(), 100u);
    EXPECT_EQ(net.stagedBytes(), 450u);
}

TEST(TcpCluster, PostsDoNotOutliveTheirStream)
{
    // Run under ASan, a landing in freed storage is a
    // heap-use-after-free; the explicit checks cover other builds.
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    std::vector<std::uint8_t> out(64, 0);

    // Stream 1 ends while one of its posts is still unused: delivering
    // its end of stream drops the post.
    auto first = std::make_unique<std::vector<std::uint8_t>>(64, 0);
    net.post(1, 6, first->data(), 32);
    net.post(1, 6, first->data() + 32, 32);
    net.send(0, 1, 6, std::vector<std::uint8_t>(32, 0xA1));
    net.send(0, 1, 6, {});
    ASSERT_EQ(awaitInto(net, 1, 6, first->data()), 32);
    ASSERT_EQ(awaitInto(net, 1, 6, out.data()), 0);
    first.reset();
    // Stream 2 on the same tag: staged, never in stream 1's storage.
    net.send(0, 1, 6, std::vector<std::uint8_t>(32, 0xA2));
    ASSERT_EQ(awaitInto(net, 1, 6, out.data()), 32);
    EXPECT_EQ(out[31], 0xA2);

    // A consumer that withdraws its post: unpost drops it, and stream
    // 3 lands nowhere near the withdrawn storage.
    auto second = std::make_unique<std::vector<std::uint8_t>>(64, 0);
    net.post(1, 6, second->data(), second->size());
    net.unpost(1, 6);
    second.reset();
    net.send(0, 1, 6, std::vector<std::uint8_t>(32, 0xA3));
    ASSERT_EQ(awaitInto(net, 1, 6, out.data()), 32);
    EXPECT_EQ(out[31], 0xA3);

    // Unpost after a frame landed but before it was taken: the frame
    // moves to staging, so the storage is free once unpost returns.
    std::vector<std::uint8_t> third(32, 0);
    net.post(1, 6, third.data(), third.size());
    net.send(0, 1, 6, std::vector<std::uint8_t>(32, 0xA4));
    // Same connection, behind it: once this arrived, so did the frame.
    net.send(0, 1, 7, bytesOf("after"));
    awaitTag(net, 1, 7);
    EXPECT_EQ(third[31], 0xA4);
    net.unpost(1, 6);
    std::fill(third.begin(), third.end(), 0);
    ASSERT_EQ(awaitInto(net, 1, 6, out.data()), 32);
    EXPECT_EQ(out[31], 0xA4);
    EXPECT_EQ(net.recvIntoBytes(), 32u);
    EXPECT_EQ(net.stagedBytes(), 3 * 32u + 5);
}

TEST(TcpCluster, PollTagIntoEdgeCases)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    bool reserve_called = false;
    auto reserve = [&](std::size_t) -> std::uint8_t * {
        reserve_called = true;
        return nullptr;
    };
    // Nothing pending: -1, reserve untouched.
    EXPECT_EQ(net.pollTagInto(1, 9, reserve), -1);
    EXPECT_FALSE(reserve_called);

    // Empty payload (end-of-stream marker): 0, reserve untouched.
    net.send(0, 1, 9, {});
    std::ptrdiff_t n;
    while ((n = net.pollTagInto(1, 9, reserve)) < 0) {
    }
    EXPECT_EQ(n, 0);
    EXPECT_FALSE(reserve_called);
    EXPECT_EQ(net.recvIntoBytes(), 0u);
}

TEST(TcpCluster, RequestReply)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    net.registerHandler(1, [](NodeId src, int tag,
                              const std::vector<std::uint8_t> &p) {
        EXPECT_EQ(src, 0);
        EXPECT_EQ(tag, 9);
        return std::vector<std::uint8_t>(p.rbegin(), p.rend());
    });
    auto reply = net.request(0, 1, 9, bytesOf("abc"));
    EXPECT_EQ(str(reply), "cba");
    EXPECT_GT(net.wireNs(0), 0u);
    EXPECT_GT(net.realWireNs(), 0u);
    EXPECT_GT(net.framesSent(), 0u);
}

TEST(TcpCluster, RequestCompletesBehindUnpolledFrames)
{
    // Requests and replies share the pair connection with stream
    // data. Frames nobody has polled, larger than the socket buffers
    // and written first, sit ahead of the request (0 -> 1) and of the
    // reply (1 -> 0) on the connection: the always-draining loops
    // stage them, and the round trip completes without a resend.
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    net.registerHandler(1, [](NodeId, int,
                              const std::vector<std::uint8_t> &p) {
        return std::vector<std::uint8_t>(p.rbegin(), p.rend());
    });
    std::vector<std::uint8_t> big(4 << 20);
    for (std::size_t i = 0; i < big.size(); ++i)
        big[i] = static_cast<std::uint8_t>(i * 7);
    net.send(1, 0, 8, big);
    net.send(0, 1, 8, big);
    // Both frames are on their connections before the request exists.
    while (net.framesSent() < 2)
        std::this_thread::yield();
    RequestOptions once{10'000, 0};
    EXPECT_EQ(str(net.request(0, 1, 9, bytesOf("abc"), once)), "cba");
    EXPECT_EQ(net.connectRetries(), 0u);
    EXPECT_EQ(awaitTag(net, 0, 8).payload, big);
    EXPECT_EQ(awaitTag(net, 1, 8).payload, big);
}

TEST(TcpCluster, RequestWithoutHandlerPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // The fabric is built inside the death statement so the child
    // process gets its own live pump threads.
    EXPECT_DEATH(
        {
            ClusterNetwork net(2, gigabitEthernet(),
                               TransportKind::Tcp);
            net.request(0, 1, 1, {}, RequestOptions{200, 0});
        },
        "no registered handler|timed out");
}

TEST(TcpCluster, RequestTimeoutRetriesThenSucceeds)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    std::atomic<int> calls{0};
    net.registerHandler(
        1, [&calls](NodeId, int, const std::vector<std::uint8_t> &p) {
            // First serve stalls past the requester's timeout; the
            // resent request (same payload — the protocol is
            // idempotent) is answered promptly.
            if (calls.fetch_add(1) == 0) {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1000));
            }
            return p;
        });
    RequestOptions opts;
    opts.timeoutMs = 300;
    opts.maxRetries = 5;
    auto reply = net.request(0, 1, 4, bytesOf("ping"), opts);
    EXPECT_EQ(str(reply), "ping");
    EXPECT_GE(net.connectRetries(), 1u);
    EXPECT_GE(calls.load(), 2);
}

TEST(TcpCluster, ResetAccountingClearsWireCounters)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    std::vector<std::uint8_t> storage(16);
    net.post(1, 1, storage.data(), storage.size());
    net.send(0, 1, 1, bytesOf("payload")); // lands in the post
    net.send(0, 1, 1, bytesOf("staged"));  // no post left
    awaitInto(net, 1, 1, storage.data());
    awaitInto(net, 1, 1, storage.data());
    EXPECT_GT(net.framesSent(), 0u);
    EXPECT_GT(net.recvIntoBytes(), 0u);
    EXPECT_GT(net.stagedBytes(), 0u);
    EXPECT_GT(net.realWireNs(), 0u);
    EXPECT_GT(net.totalBytesSent(0), 0u);

    EXPECT_GT(net.pooledConnections(), 0u);
    EXPECT_GT(net.epollWakeups(), 0u);

    // The two deliveries owe credit grants, which the event loops
    // write and read in the background: reset once the fabric has
    // been idle for a while, so nothing in flight counts afterwards.
    auto activity = [&net] {
        return net.framesSent() + net.epollWakeups() + net.realWireNs();
    };
    std::uint64_t seen = 0;
    while (net.framesSent() < 4 || seen != activity()) {
        seen = activity();
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    net.resetAccounting();
    EXPECT_EQ(net.framesSent(), 0u);
    EXPECT_EQ(net.connectRetries(), 0u);
    EXPECT_EQ(net.recvIntoBytes(), 0u);
    EXPECT_EQ(net.stagedBytes(), 0u);
    EXPECT_EQ(net.realWireNs(), 0u);
    EXPECT_EQ(net.creditStallsNs(), 0u);
    EXPECT_EQ(net.epollWakeups(), 0u);
    EXPECT_EQ(net.pooledConnections(), 0u);
    EXPECT_EQ(net.totalBytesSent(0), 0u);
    EXPECT_EQ(net.wireNs(0), 0u);
    EXPECT_EQ(net.messagesSent(0), 0u);
}

/** Destroying a fabric with still-active streams and pooled
 *  connections must return the process-wide gauges to their prior
 *  level. The unwind walks sendMutex-/poolMutex_-guarded state; it
 *  used to read it unlocked, which the SkywayGuard thread-safety
 *  annotations flagged (docs/STATIC_ANALYSIS.md). */
TEST(TcpCluster, GaugesUnwindOnDestruction)
{
    auto &reg = obs::MetricsRegistry::global();
    obs::Gauge &streams = reg.gauge("net.streams_active");
    obs::Gauge &pooled = reg.gauge("net.pooled_connections");
    std::int64_t streams0 = streams.value();
    std::int64_t pooled0 = pooled.value();
    {
        ClusterNetwork net(3, gigabitEthernet(), TransportKind::Tcp);
        // Streams deliberately left open (no end-of-stream marker)
        // so destruction finds them active.
        net.send(0, 1, 9, bytesOf("left-open"));
        net.send(1, 2, 9, bytesOf("left-open"));
        awaitTag(net, 1, 9);
        awaitTag(net, 2, 9);
        EXPECT_GE(streams.value(), streams0 + 2);
        EXPECT_GE(pooled.value(), pooled0 + 2);
    }
    EXPECT_EQ(streams.value(), streams0);
    EXPECT_EQ(pooled.value(), pooled0);
}

/** The same traffic pattern on both transports must account
 *  identically — bytes, messages, and modeled wire time. */
TEST(TransportParity, AccountingMatchesByteForByte)
{
    auto drive = [](ClusterNetwork &net) {
        net.registerHandler(
            2, [](NodeId, int, const std::vector<std::uint8_t> &p) {
                return std::vector<std::uint8_t>(p.size() * 2, 0xAB);
            });
        net.send(0, 1, 1, std::vector<std::uint8_t>(100));
        net.send(0, 2, 1, std::vector<std::uint8_t>(50));
        net.send(1, 0, 2, std::vector<std::uint8_t>(25));
        net.send(1, 1, 3, std::vector<std::uint8_t>(999)); // loopback
        net.request(0, 2, 4, std::vector<std::uint8_t>(10));
        // Drain so TCP teardown is quiet.
        (void)awaitTag(net, 1, 1);
        (void)awaitTag(net, 2, 1);
        (void)awaitTag(net, 0, 2);
        NetMessage m;
        (void)net.pollTag(1, 3, m);
    };
    ClusterNetwork model(3, gigabitEthernet(), TransportKind::Model);
    ClusterNetwork tcp(3, gigabitEthernet(), TransportKind::Tcp);
    drive(model);
    drive(tcp);
    for (NodeId s = 0; s < 3; ++s) {
        EXPECT_EQ(model.messagesSent(s), tcp.messagesSent(s)) << s;
        EXPECT_EQ(model.wireNs(s), tcp.wireNs(s)) << s;
        for (NodeId d = 0; d < 3; ++d)
            EXPECT_EQ(model.bytesSent(s, d), tcp.bytesSent(s, d))
                << s << "->" << d;
    }
    EXPECT_EQ(model.framesSent(), 0u) << "model has no real wire";
    EXPECT_GT(tcp.framesSent(), 0u);
}

TEST(TcpCluster, ConcurrentSendersManyTags)
{
    // Hammer one receiving node from two sender threads across many
    // tags; every payload must arrive intact and in per-tag order.
    ClusterNetwork net(3, gigabitEthernet(), TransportKind::Tcp);
    constexpr int perTag = 20;
    constexpr int tags = 4;
    auto sender = [&net](NodeId src) {
        for (int i = 0; i < perTag; ++i) {
            for (int t = 0; t < tags; ++t) {
                std::vector<std::uint8_t> p(64 + t,
                                            static_cast<std::uint8_t>(
                                                i));
                net.send(src, 2, src * tags + t, std::move(p));
            }
        }
    };
    std::thread t1(sender, 0), t2(sender, 1);
    for (int src = 0; src < 2; ++src) {
        for (int t = 0; t < tags; ++t) {
            for (int i = 0; i < perTag; ++i) {
                NetMessage m = awaitTag(net, 2, src * tags + t);
                EXPECT_EQ(m.src, src);
                ASSERT_EQ(m.payload.size(),
                          static_cast<std::size_t>(64 + t));
                EXPECT_EQ(m.payload[0], static_cast<std::uint8_t>(i));
            }
        }
    }
    t1.join();
    t2.join();
}

TEST(TcpCluster, InterleavedTagsShareOneConnection)
{
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    net.send(0, 1, 1, bytesOf("a1"));
    net.send(0, 1, 2, bytesOf("b1"));
    net.send(0, 1, 1, bytesOf("a2"));
    net.send(0, 1, 2, bytesOf("b2"));
    // Draining tag 2 ahead of tag 1 leaves tag 1's frames waiting in
    // staging while the shared connection keeps moving; both streams
    // must keep their own order.
    EXPECT_EQ(str(awaitTag(net, 1, 2).payload), "b1");
    EXPECT_EQ(str(awaitTag(net, 1, 2).payload), "b2");
    EXPECT_EQ(str(awaitTag(net, 1, 1).payload), "a1");
    EXPECT_EQ(str(awaitTag(net, 1, 1).payload), "a2");
    // Two interleaved streams, one pooled pair connection.
    EXPECT_EQ(net.pooledConnections(), 1u);
    NetMessage m;
    EXPECT_FALSE(net.poll(1, m));
}

TEST(TcpCluster, CreditExhaustionStallsThenResumes)
{
    TransportOptions topts;
    topts.creditWindowBytes = 2048; // two 1 KiB frames in flight
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp,
                       topts);
    constexpr int frames = 10;
    std::vector<std::uint8_t> payload(1024);
    for (int i = 0; i < frames; ++i) {
        payload[0] = static_cast<std::uint8_t>(i);
        net.send(0, 1, 3, payload);
    }
    // Let the sender's loop run the 2 KiB window dry before anyone
    // grants credit back.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    for (int i = 0; i < frames; ++i) {
        NetMessage m = awaitTag(net, 1, 3);
        ASSERT_EQ(m.payload.size(), payload.size());
        EXPECT_EQ(m.payload[0], static_cast<std::uint8_t>(i));
    }
    // The stream stalled at least once and resumed on a grant.
    EXPECT_GT(net.creditStallsNs(), 0u);
    EXPECT_GT(net.epollWakeups(), 0u);
}

TEST(TcpCluster, CreditGrantBehindUnpolledFrameArrives)
{
    // Pair connections are full-duplex, so the grant that would
    // unstall node 0's stream travels *behind* frames node 1 sent on
    // the same socket that nobody has polled yet. Both nodes send
    // more than one window's worth and only node 1's tag is drained
    // first. A loop that left an unpolled payload unread in the
    // socket would never see the grant; the always-draining loop
    // stages those frames and reads it at once — no timer involved.
    TransportOptions topts;
    topts.creditWindowBytes = 2048; // exactly one frame in flight
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp,
                       topts);
    constexpr int frames = 4;
    std::vector<std::uint8_t> payload(2048);
    for (int i = 0; i < frames; ++i) {
        payload[0] = static_cast<std::uint8_t>(i);
        net.send(0, 1, 5, payload);
        payload[0] = static_cast<std::uint8_t>(100 + i);
        net.send(1, 0, 6, payload);
    }
    auto awaitTagBounded = [&](NodeId dst, int tag, NetMessage &m) {
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
        while (!net.pollTag(dst, tag, m)) {
            if (std::chrono::steady_clock::now() > deadline)
                return false;
        }
        return true;
    };
    for (int i = 0; i < frames; ++i) {
        NetMessage m;
        ASSERT_TRUE(awaitTagBounded(1, 5, m))
            << "deadlocked: grant trapped behind an unpolled frame";
        ASSERT_EQ(m.payload.size(), payload.size());
        EXPECT_EQ(m.payload[0], static_cast<std::uint8_t>(i));
    }
    for (int i = 0; i < frames; ++i) {
        NetMessage m;
        ASSERT_TRUE(awaitTagBounded(0, 6, m));
        EXPECT_EQ(m.payload[0], static_cast<std::uint8_t>(100 + i));
    }
    EXPECT_GT(net.creditStallsNs(), 0u);
}

TEST(TcpCluster, BidirectionalFloodDoesNotWedgeEventLoops)
{
    // Regression for the write-write deadlock: both nodes flood the
    // one full-duplex pair socket with several streams' worth of
    // frames before anyone polls, so each direction's unwritten
    // bytes exceed what the kernel will buffer. With blocking writes
    // in the event loops, node 0's loop and node 1's loop both sat
    // in send(2) against a full peer socket buffer — neither reached
    // epoll_wait again, no inbound frame was ever parked, and the
    // fabric deadlocked. Writes now queue per connection and drain
    // non-blockingly (EPOLLOUT), so the loops keep turning.
    ClusterNetwork net(2, gigabitEthernet(), TransportKind::Tcp);
    constexpr int tags = 4;
    constexpr int frames = 2;
    std::vector<std::uint8_t> payload(512 * 1024);
    for (int t = 0; t < tags; ++t) {
        for (int i = 0; i < frames; ++i) {
            payload[0] = static_cast<std::uint8_t>(i);
            payload[1] = static_cast<std::uint8_t>(t);
            net.send(0, 1, 20 + t, payload);
            payload[0] = static_cast<std::uint8_t>(100 + i);
            net.send(1, 0, 20 + t, payload);
        }
    }
    // Give both loops time to wedge against the full socket buffers
    // before any consumer relieves them (the old code deadlocked
    // right here, with every later poll spinning forever).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    auto awaitTagBounded = [&](NodeId dst, int tag, NetMessage &m) {
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
        while (!net.pollTag(dst, tag, m)) {
            if (std::chrono::steady_clock::now() > deadline)
                return false;
        }
        return true;
    };
    for (int t = 0; t < tags; ++t) {
        for (int i = 0; i < frames; ++i) {
            NetMessage m;
            ASSERT_TRUE(awaitTagBounded(1, 20 + t, m))
                << "deadlocked: event loops blocked writing";
            ASSERT_EQ(m.payload.size(), payload.size());
            EXPECT_EQ(m.payload[0], static_cast<std::uint8_t>(i));
            EXPECT_EQ(m.payload[1], static_cast<std::uint8_t>(t));
            ASSERT_TRUE(awaitTagBounded(0, 20 + t, m))
                << "deadlocked: event loops blocked writing";
            EXPECT_EQ(m.payload[0],
                      static_cast<std::uint8_t>(100 + i));
        }
    }
    NetMessage m;
    EXPECT_FALSE(net.poll(0, m));
    EXPECT_FALSE(net.poll(1, m));
}

namespace
{

/** A raw loopback client socket (a fake peer for disconnect tests). */
int
rawConnect(std::uint16_t port)
{
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)), 0);
    return fd;
}

void
rawSend(int fd, const void *buf, std::size_t len)
{
    ASSERT_EQ(::send(fd, buf, len, MSG_NOSIGNAL),
              static_cast<ssize_t>(len));
}

bool
recvAll(int fd, std::uint8_t *buf, std::size_t len)
{
    std::size_t got = 0;
    while (got < len) {
        ssize_t n = ::recv(fd, buf + got, len - got, 0);
        if (n <= 0)
            return false;
        got += static_cast<std::size_t>(n);
    }
    return true;
}

} // namespace

TEST(TcpCluster, PeerDisconnectAtFrameEdgeRecovers)
{
    WireCounters wire;
    TcpTransport t(2, wire);
    // A foreign peer handshakes as node 0's data end...
    int fd = rawConnect(t.listenPort(1));
    std::uint8_t shake[frame::handshakeBytes];
    frame::encodeHandshake(shake,
                           frame::Handshake{frame::channelData, 0});
    rawSend(fd, shake, sizeof(shake));
    // ...delivers one complete frame...
    std::uint8_t hdr[frame::muxHeaderBytes];
    frame::encodeMuxHeader(hdr,
                           frame::MuxHeader{frame::kindStream, 0, 5,
                                            5});
    rawSend(fd, hdr, sizeof(hdr));
    rawSend(fd, "hello", 5);
    NetMessage m;
    while (!t.pollTag(1, 5, m)) {
    }
    EXPECT_EQ(str(m.payload), "hello");
    EXPECT_EQ(wire.connectionsPooled.load(), 1u);
    // ...absorbs the credit grant the delivery owes it, then hangs up
    // at a frame edge: an orderly EOF that must drop the pooled pair,
    // not panic.
    std::uint8_t grant[frame::muxHeaderBytes];
    ASSERT_TRUE(recvAll(fd, grant, sizeof(grant)));
    EXPECT_EQ(frame::decodeMuxHeader(grant).kind, frame::kindCredit);
    // A real send from node 0, queued while the foreign connection
    // still holds the pair, waits for it; the drop wakes node 0's
    // loop, which re-establishes a fresh pair connection.
    t.send(0, 1, 5, bytesOf("again"));
    ::close(fd);
    auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!t.pollTag(1, 5, m))
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "the send never left after the pair dropped";
    EXPECT_EQ(str(m.payload), "again");
    EXPECT_EQ(wire.connectionsPooled.load(), 2u);
}

TEST(TcpCluster, PeerClosingMidFramePanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(
        {
            WireCounters wire;
            TcpTransport t(2, wire);
            int fd = rawConnect(t.listenPort(1));
            std::uint8_t shake[frame::handshakeBytes];
            frame::encodeHandshake(
                shake, frame::Handshake{frame::channelData, 0});
            rawSend(fd, shake, sizeof(shake));
            // Half a mux header, then hang up: a torn frame.
            std::uint8_t partial[5];
            std::memset(partial, 0, sizeof(partial));
            partial[0] = frame::kindStream;
            rawSend(fd, partial, sizeof(partial));
            ::close(fd);
            std::this_thread::sleep_for(std::chrono::seconds(5));
        },
        "peer closed mid-frame");
}

TEST(TcpCluster, SixtyFourNodeRingAndChordSmoke)
{
    constexpr int N = 64;
    ClusterNetwork net(N, gigabitEthernet(), TransportKind::Tcp);
    for (int i = 0; i < N; ++i) {
        net.send(i, (i + 1) % N, 7,
                 bytesOf("ring " + std::to_string(i)));
        net.send(i, (i + N / 2) % N, 8,
                 bytesOf("chord " + std::to_string(i)));
    }
    for (int i = 0; i < N; ++i) {
        NetMessage r = awaitTag(net, (i + 1) % N, 7);
        EXPECT_EQ(r.src, i);
        EXPECT_EQ(str(r.payload), "ring " + std::to_string(i));
        NetMessage c = awaitTag(net, (i + N / 2) % N, 8);
        EXPECT_EQ(c.src, i);
        EXPECT_EQ(str(c.payload), "chord " + std::to_string(i));
    }
    // 64 ring pairs plus 32 distinct chord pairs; each chord pair
    // carries streams both ways yet is pooled exactly once, even when
    // both endpoints race to establish it.
    EXPECT_EQ(net.pooledConnections(),
              static_cast<std::uint64_t>(N + N / 2));
}

TEST(TransportParity, ParityAtSixteenNodes)
{
    constexpr int N = 16;
    auto drive = [](ClusterNetwork &net) {
        for (int s = 0; s < N; ++s) {
            for (int d = 0; d < N; ++d) {
                if (s == d)
                    continue;
                net.send(s, d, 100 + s,
                         std::vector<std::uint8_t>(
                             static_cast<std::size_t>(
                                 16 + 3 * s + 7 * d)));
            }
        }
        for (int d = 0; d < N; ++d) {
            for (int s = 0; s < N; ++s) {
                if (s == d)
                    continue;
                NetMessage m = awaitTag(net, d, 100 + s);
                EXPECT_EQ(m.src, s);
                EXPECT_EQ(m.payload.size(),
                          static_cast<std::size_t>(16 + 3 * s +
                                                   7 * d));
            }
        }
    };
    ClusterNetwork model(N, gigabitEthernet(), TransportKind::Model);
    ClusterNetwork tcp(N, gigabitEthernet(), TransportKind::Tcp);
    drive(model);
    drive(tcp);
    for (NodeId s = 0; s < N; ++s) {
        EXPECT_EQ(model.messagesSent(s), tcp.messagesSent(s)) << s;
        EXPECT_EQ(model.wireNs(s), tcp.wireNs(s)) << s;
        EXPECT_EQ(model.totalBytesSent(s), tcp.totalBytesSent(s)) << s;
    }
    // A full 16-node all-to-all needs exactly N·(N−1)/2 connections.
    EXPECT_EQ(tcp.pooledConnections(),
              static_cast<std::uint64_t>(N * (N - 1) / 2));
    EXPECT_EQ(model.pooledConnections(), 0u);
}

/** Skyway over real sockets: the SkywayTest topology on TCP. */
class TcpSkywayTest : public ::testing::Test
{
  protected:
    TcpSkywayTest()
        : catalog_(makeTestCatalog()),
          net_(3, gigabitEthernet(), TransportKind::Tcp),
          driver_(catalog_, net_, 0, 0),
          nodeA_(catalog_, net_, 1, 0),
          nodeB_(catalog_, net_, 2, 0)
    {
        // Registry attach traffic (REQUEST_VIEW over real sockets)
        // has flowed by now; start the counters clean.
        net_.resetAccounting();
    }

    ClassCatalog catalog_;
    ClusterNetwork net_;
    Jvm driver_;
    Jvm nodeA_;
    Jvm nodeB_;
    std::vector<std::unique_ptr<InputBuffer>> keep_;
};

TEST_F(TcpSkywayTest, SocketStreamsRoundTripZeroCopy)
{
    nodeB_.skyway().debug().checkReceivedGraph = true;
    // The fabric-byte equalities below are raw-format invariants
    // (compact segments ship fewer bytes than the rebuilt buffer
    // holds): pin compaction off.
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Off);
    nodeB_.skyway().setWireCompactMode(WireCompactMode::Off);

    LocalRoots roots(nodeA_.heap());
    Address head = makeList(nodeA_, roots, 300);
    nodeA_.skyway().shuffleStart();
    SkywaySocketOutputStream out(nodeA_.skyway(), net_, nodeA_.id(),
                                 nodeB_.id(), 42, 4 << 10);
    SkywaySocketInputStream in(nodeB_.skyway(), net_, nodeB_.id(), 42);
    out.writeObject(head);
    out.close();
    while (!in.pump()) {
    }
    Address q = in.readObject();
    EXPECT_TRUE(graphsEqual(nodeA_.heap(), head, nodeB_.heap(), q));

    // The reader drains only after the writer closed, so segments that
    // arrived before it posted a chunk tail were staged; the fabric
    // split is exact either way, and every segment was parsed in
    // place in chunk storage.
    EXPECT_GT(out.totalBytes(), 0u);
    EXPECT_EQ(net_.recvIntoBytes() + net_.stagedBytes(),
              out.totalBytes());
    EXPECT_EQ(in.buffer().stats().zeroCopyBytes, out.totalBytes());
    EXPECT_EQ(net_.bytesSent(nodeA_.id(), nodeB_.id()),
              out.totalBytes());
    keep_.push_back(in.releaseBuffer());
}

TEST_F(TcpSkywayTest, SocketStreamLandsSegmentsInPostedChunkTails)
{
    nodeA_.skyway().setWireCompactMode(WireCompactMode::Off);
    nodeB_.skyway().setWireCompactMode(WireCompactMode::Off);

    LocalRoots roots(nodeA_.heap());
    nodeA_.skyway().shuffleStart();
    SkywaySocketOutputStream out(nodeA_.skyway(), net_, nodeA_.id(),
                                 nodeB_.id(), 43, 4 << 10);
    SkywaySocketInputStream in(nodeB_.skyway(), net_, nodeB_.id(), 43);
    constexpr int segments = 5;
    std::vector<std::size_t> sent;
    std::uint64_t firstSegment = 0;
    for (int i = 0; i < segments; ++i) {
        sent.push_back(roots.push(makeList(nodeA_, roots, 20)));
        out.writeObject(roots.get(sent.back()));
        out.flush();
        // The reader takes each segment before the next is flushed,
        // and posts its chunk tail after every commit: every segment
        // after the first lands there.
        while (net_.recvIntoBytes() + net_.stagedBytes() <
               out.totalBytes())
            in.pump();
        if (i == 0)
            firstSegment = out.totalBytes();
    }
    out.close();
    while (!in.pump()) {
    }
    for (std::size_t slot : sent)
        EXPECT_TRUE(graphsEqual(nodeA_.heap(), roots.get(slot),
                                nodeB_.heap(), in.readObject()));
    EXPECT_GT(firstSegment, 0u);
    EXPECT_EQ(net_.stagedBytes(), firstSegment);
    EXPECT_EQ(net_.recvIntoBytes(), out.totalBytes() - firstSegment);
    EXPECT_EQ(in.buffer().stats().zeroCopyBytes, out.totalBytes());
    keep_.push_back(in.releaseBuffer());
}

TEST_F(TcpSkywayTest, ParallelFanOutOverSockets)
{
    constexpr unsigned N = 3;
    LocalRoots roots(nodeA_.heap());
    Address shared = makeMixed(nodeA_, roots, "contended subtree");
    std::size_t rs = roots.push(shared);
    Klass *pairK = nodeA_.klasses().load("test.Pair");
    std::vector<Address> tops;
    LocalRoots keepRoots(nodeA_.heap());
    for (unsigned t = 0; t < 2 * N; ++t) {
        Address p = nodeA_.heap().allocateInstance(pairK);
        std::size_t rp = keepRoots.push(p);
        field::setRef(nodeA_.heap(), keepRoots.get(rp),
                      pairK->requireField("left"), roots.get(rs));
        field::setRef(nodeA_.heap(), keepRoots.get(rp),
                      pairK->requireField("right"),
                      makePoint(nodeA_, static_cast<int>(t), -1));
        tops.push_back(keepRoots.get(rp));
    }

    nodeA_.skyway().shuffleStart();
    constexpr int baseTag = 500;
    ParallelSendConfig cfg;
    cfg.threads = N;
    // Each fan-out thread streams straight onto the fabric on its own
    // tag — concurrent senders exercising the real socket path.
    ParallelSender psend(
        nodeA_.skyway(),
        [this](unsigned w) {
            return [this, w](const std::uint8_t *d, std::size_t n) {
                net_.send(nodeA_.id(), nodeB_.id(),
                          baseTag + static_cast<int>(w),
                          std::vector<std::uint8_t>(d, d + n));
            };
        },
        cfg);
    ParallelSendReport rep = psend.send(tops);
    EXPECT_GT(rep.totalBytes, 0u);
    for (unsigned w = 0; w < N; ++w)
        net_.send(nodeA_.id(), nodeB_.id(),
                  baseTag + static_cast<int>(w), {});

    // Thread w streamed roots w, w+N, ... in order on its own tag.
    std::size_t received = 0;
    for (unsigned w = 0; w < N; ++w) {
        SkywaySocketInputStream in(nodeB_.skyway(), net_, nodeB_.id(),
                                   baseTag + static_cast<int>(w));
        while (!in.pump()) {
        }
        std::size_t slot = 0;
        while (in.hasNext()) {
            Address q = in.readObject();
            std::size_t idx = w + slot * N;
            ASSERT_LT(idx, tops.size());
            EXPECT_TRUE(graphsEqual(nodeA_.heap(), tops[idx],
                                    nodeB_.heap(), q));
            ++slot;
            ++received;
        }
        keep_.push_back(in.releaseBuffer());
    }
    EXPECT_EQ(received, tops.size());
}

TEST_F(TcpSkywayTest, TypeRegistryLookupOverSockets)
{
    // Loading a class the worker's view predates forces a LOOKUP
    // round trip over the real control socket.
    auto *worker =
        dynamic_cast<TypeRegistryWorker *>(&nodeA_.resolver());
    ASSERT_NE(worker, nullptr);
    RegistryStats before = worker->stats();

    Klass *k = nodeA_.klasses().load("test.Point3D");
    ASSERT_NE(k, nullptr);
    EXPECT_GE(k->tid(), 0);
    RegistryStats after = worker->stats();
    EXPECT_GT(after.remoteLookupsIssued, before.remoteLookupsIssued);

    // The driver handed out the id it recorded.
    EXPECT_EQ(driver_.resolver().idForClass("test.Point3D"), k->tid());

    // At most once per class per machine: a reload is a cache hit.
    nodeA_.klasses().load("test.Point3D");
    EXPECT_EQ(worker->stats().remoteLookupsIssued,
              after.remoteLookupsIssued);
}

} // namespace
} // namespace skyway
