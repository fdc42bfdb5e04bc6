/**
 * @file
 * The real-socket transport, multiplexed for hundred-node fabrics:
 * every node owns a loopback TCP listener and one epoll(7) event
 * loop; bytes genuinely cross the kernel's TCP stack, so the modeled
 * `net.wire_ns` clocks have a `net.real_wire_ns` to be validated
 * against. The wire format lives in net/frame.hh; the full protocol
 * story (diagrams, credit rules, failure semantics) in
 * docs/TRANSPORT.md.
 *
 * Topology:
 *
 *  - One connection per unordered node pair, established lazily by
 *    whichever side sends first (a transport-wide pool arbitrates so
 *    a cross in the race still yields one connection —
 *    `net.pooled_connections` gauges the pool). Every (src, dst, tag)
 *    stream between the two nodes, their credit grants, and request/
 *    reply exchanges are multiplexed onto it as tagged, length-
 *    prefixed mux frames, so an N-node all-to-all costs N·(N−1)/2
 *    sockets.
 *
 *  - Always-draining receive: the owning node's event loop reads
 *    whole frames off its pair sockets whether or not a consumer is
 *    waiting. A stream frame lands in storage its consumer posted
 *    ahead for that (dst, tag) — the RX-ring shape: the Skyway
 *    receive path posts old-gen chunk space — and otherwise in a
 *    staging buffer. pollTagInto() takes a landed frame in place
 *    (`net.recv_into_bytes`) and copies a staged one
 *    (`net.staged_bytes`). Because the socket never holds an unread
 *    payload, grants, requests and other streams' frames are never
 *    stuck behind one.
 *
 *  - Backpressure: per-stream byte credit. A sender's event loop
 *    writes a stream's frames only while the stream has window left;
 *    receivers grant credit back as payloads are delivered to
 *    consumers. A slow receiver therefore stalls the one stream
 *    (`net.credit_stalls_ns`), and what it stages per stream is
 *    bounded by the window.
 *
 *  - Loop liveness: the event loop NEVER blocks on a pair socket.
 *    Writes go through a per-connection outbound byte queue drained
 *    with MSG_DONTWAIT (EPOLLOUT is armed while bytes remain), and
 *    reads take what the socket has, resuming a partial header or
 *    payload on the next readiness event — so two nodes flooding each
 *    other can never wedge the loops against full socket buffers.
 *
 *  - Requests: request() queues a request frame (exempt from credit)
 *    for its node's loop and waits for the reply frame with the same
 *    request id, resending on timeout; the destination's loop runs
 *    the handler and queues the reply. Handlers must be idempotent.
 *
 * poll/pollTag/pollTagInto are non-blocking probes exactly like the
 * model transport's: "false / -1" means nothing has *arrived yet*,
 * and every consumer in the repository already retries in a loop, so
 * in-flight bytes are indistinguishable from a late sender.
 */

#ifndef SKYWAY_NET_TCP_TRANSPORT_HH
#define SKYWAY_NET_TCP_TRANSPORT_HH

#include <deque>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "net/frame.hh"
#include "net/transport.hh"
#include "support/stopwatch.hh"
#include "support/thread_annotations.hh"

namespace skyway
{

class TcpTransport final : public Transport
{
  public:
    TcpTransport(int node_count, WireCounters &wire,
                 const TransportOptions &options = {});
    ~TcpTransport() override;

    TcpTransport(const TcpTransport &) = delete;
    TcpTransport &operator=(const TcpTransport &) = delete;

    const char *name() const override { return "tcp"; }

    void send(NodeId src, NodeId dst, int tag,
              std::vector<std::uint8_t> payload) override;
    bool poll(NodeId dst, NetMessage &out) override;
    bool pollTag(NodeId dst, int tag, NetMessage &out) override;
    std::ptrdiff_t pollTagInto(NodeId dst, int tag,
                               const ReserveFn &reserve) override;
    void post(NodeId dst, int tag, std::uint8_t *at,
              std::size_t len) override;
    void unpost(NodeId dst, int tag) override;
    void registerHandler(NodeId node, RequestHandler handler) override;
    std::vector<std::uint8_t>
    request(NodeId src, NodeId dst, int tag,
            const std::vector<std::uint8_t> &payload,
            const RequestOptions &opts) override;

    /** The loopback port node @p node listens on (tests). */
    std::uint16_t listenPort(NodeId node) const;

  private:
    /** Storage a consumer posted for one frame of a tag. */
    struct Post
    {
        std::uint8_t *at;
        std::size_t len;
    };

    /**
     * One stream frame addressed to this node, queued in header-
     * arrival order (self-sends included). Its payload lands in
     * posted storage (@p landing) or in @p staged; it can be
     * delivered once all @p len bytes arrived.
     */
    struct Inbound
    {
        NodeId src;
        int tag;
        std::uint32_t len;
        std::uint32_t got;
        std::uint8_t *landing;
        std::vector<std::uint8_t> staged;

        bool complete() const { return got == len; }
        std::uint8_t *bytes() { return landing ? landing : staged.data(); }
    };
    using InboundList = std::list<Inbound>;

    /**
     * Send-side state of one (this node -> dst, tag) stream: queued
     * payloads (an empty vector is the end-of-stream marker) and the
     * credit window. Only the head of the queue is ever eligible to
     * write — a stalled head holds later frames (including EOS) back,
     * preserving stream FIFO.
     */
    struct TxStream
    {
        std::deque<std::vector<std::uint8_t>> queue;
        /** May go negative transiently: a frame is written whole once
         *  any window remains. */
        std::int64_t credit = 0;
        bool stalled = false;
        /** Running since the stream stalled. */
        Stopwatch stall;
        /** True between first frame queued and EOS written. */
        bool active = false;
    };

    /** One frame ready to write toward @p peer. */
    struct TxFrame
    {
        NodeId peer;
        std::uint8_t header[frame::muxHeaderBytes];
        std::vector<std::uint8_t> payload;
    };

    /**
     * Unwritten outbound bytes of one pair connection. The socket is
     * written only with MSG_DONTWAIT; whatever it refuses queues here
     * (off = consumed prefix), so the event loop never blocks in
     * send(2). Bounded by the credit windows of the streams sharing
     * the connection plus the (small) credit-exempt frames.
     */
    struct OutBuf
    {
        NodeId peer = 0;
        std::vector<std::uint8_t> bytes;
        std::size_t off = 0;
        /** EPOLLOUT currently registered for this fd. */
        bool armed = false;
    };

    /**
     * Receive state of one pair connection: the mux header being
     * reassembled (a readiness event may expose only part of it),
     * then the frame whose payload is arriving — a stream frame's
     * Inbound entry, or a request/reply @p body.
     */
    struct RxConn
    {
        std::uint8_t hdr[frame::muxHeaderBytes];
        std::size_t hdrGot = 0;
        frame::MuxHeader h{};
        InboundList::iterator frame;
        std::vector<std::uint8_t> body;
        std::size_t bodyGot = 0;
    };

    /** Everything one node owns. */
    struct Node
    {
        int listenFd = -1;
        std::uint16_t port = 0;
        int epollFd = -1;

        /** Wakes the loop out of epoll_wait (an eventfd). */
        int wakeFd = -1;

        /**
         * Receive side, shared between the loop (lands and stages
         * frames, holding the lock while it writes into posted
         * storage) and consumer threads (take frames, post storage).
         * No other lock is ever taken while one of the transport's
         * locks is held.
         */
        Mutex recvMutex;
        InboundList inbound GUARDED_BY(recvMutex);
        std::map<int, std::deque<Post>> posts GUARDED_BY(recvMutex);

        /** Send side: per-stream queues drained by this node's loop,
         *  plus credit-exempt frames (grants, requests, replies). */
        Mutex sendMutex;
        std::map<std::pair<NodeId, int>, TxStream> streams GUARDED_BY(
            sendMutex);
        std::deque<TxFrame> uncredited GUARDED_BY(sendMutex);

        /** Requests this node awaits a reply to, by request id. */
        Mutex replyMutex;
        CondVar replyCv;
        std::map<std::uint32_t, std::optional<std::vector<std::uint8_t>>>
            replies GUARDED_BY(replyMutex);
        std::uint32_t nextReqId GUARDED_BY(replyMutex) = 1;

        /** This node's end of each established pair connection,
         *  keyed by peer; guarded by the transport-wide poolMutex_
         *  (not annotatable from a nested struct — the invariant is
         *  enforced by review; see docs/STATIC_ANALYSIS.md). */
        std::map<NodeId, int> pairFd;

        /** Loop-owned per pair fd; no lock — only this node's event
         *  loop thread ever touches them. */
        std::map<int, OutBuf> outbound;
        std::map<int, RxConn> rx;

        std::thread loop;
    };

    void eventLoop(NodeId node);
    void wakeLoop(NodeId node);
    void acceptPending(NodeId node);
    void handlePairReadable(NodeId node, NodeId peer, int fd);
    /** Act on the mux header just reassembled in @p rx; false when the
     *  frame is complete already (no payload to read). */
    bool startFrame(NodeId node, NodeId peer, RxConn &rx);
    /** A request or reply frame's payload arrived whole. */
    void finishRequestFrame(NodeId node, NodeId peer, RxConn &rx);
    /** Drop @p peer's pair connection after an orderly EOF. */
    void dropPair(NodeId node, NodeId peer, int fd);
    /** Loop step: write the credit-exempt frames, then every stream
     *  frame the credit windows allow. */
    void drainSends(NodeId node);

    /** Add @p fd to @p node's epoll set, tagged for classification. */
    void epollAdd(NodeId node, std::uint64_t token, int fd);

    /**
     * This node's end of the pair connection toward @p dst,
     * establishing it if nobody has; -1 while another connection
     * holds the pair — the peer's, mid-connect, which our accept
     * completes, or one about to drop, whose drop wakes our loop.
     * Callers skip and retry when woken; they never wait.
     */
    int pairFdOrClaim(NodeId node, NodeId dst);

    /** Connect to @p dst's listener and send @p shake; retries (and
     *  counts) transient failures. */
    int connectTo(NodeId dst, const std::uint8_t *shake,
                  std::size_t shake_len);

    /** Queue a credit-exempt frame for @p node's loop and wake it. */
    void queueUncredited(NodeId node, TxFrame f);

    /** Deliver payload bytes back to @p src's credit window. */
    void queueGrant(NodeId node, NodeId src, int tag,
                    std::uint32_t bytes);

    /**
     * Unlink the first frame addressed to @p node — of @p tag, or of
     * any tag — if it is complete (per-tag FIFO: a partial first
     * frame holds the rest back). A frame that did not land in posted
     * storage drops the tag's posts: its delivery hands the consumer
     * their memory.
     */
    std::optional<Inbound> takeReady(NodeId node, std::optional<int> tag);

    /** Count a frame a consumer took (@p in_place: where it landed)
     *  and grant its credit back. */
    void delivered(NodeId node, const Inbound &f, bool in_place);

    /** poll/pollTag: the next ready frame as a message. */
    bool takeMessage(NodeId dst, std::optional<int> tag, NetMessage &out);

    /** Non-blocking write burst (MSG_DONTWAIT), timed into
     *  realWireNs; returns how many of @p len bytes the socket
     *  accepted. */
    std::size_t nonblockSend(int fd, const std::uint8_t *p,
                             std::size_t len);

    /** Write @p len bytes to @p fd if its outbound buffer is empty,
     *  queueing whatever the socket refuses (FIFO per connection is
     *  preserved — a non-empty buffer means the bytes only queue). */
    void sendOrQueue(Node &n, NodeId peer, int fd,
                     const std::uint8_t *p, std::size_t len);

    /** Loop step: drain every outbound buffer, arming EPOLLOUT on
     *  the connections that still hold bytes and disarming (and
     *  dropping) the ones that emptied. */
    void flushPairWrites(NodeId node);

    int nodeCount_;
    WireCounters &wire_;
    TransportOptions options_;
    std::vector<std::unique_ptr<Node>> nodes_;

    /** Pair-pool arbitration: the unordered pairs that have (or are
     *  getting) their one connection. */
    Mutex poolMutex_;
    std::set<std::pair<NodeId, NodeId>> pool_ GUARDED_BY(poolMutex_);

    Mutex handlerMutex_;
    std::vector<RequestHandler> handlers_ GUARDED_BY(handlerMutex_);
    std::atomic<bool> running_{true};
};

} // namespace skyway

#endif // SKYWAY_NET_TCP_TRANSPORT_HH
