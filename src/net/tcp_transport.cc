#include "net/tcp_transport.hh"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <ctime>
#include <iterator>

#include "net/frame.hh"
#include "obs/metrics.hh"
#include "support/logging.hh"
#include "support/stopwatch.hh"

namespace skyway
{

namespace
{

/** Registry-backed real-wire counters, resolved once per process. */
struct TcpMetrics
{
    obs::Counter &realWireNs;
    obs::Counter &framesSent;
    obs::Counter &connectRetries;
    obs::Counter &recvIntoBytes;
    obs::Counter &stagedBytes;
    obs::Counter &creditStallsNs;
    obs::Counter &epollWakeups;
    obs::Gauge &streamsActive;
    obs::Gauge &pooledConnections;

    static TcpMetrics &
    get()
    {
        auto &r = obs::MetricsRegistry::global();
        static TcpMetrics m{
            r.counter("net.real_wire_ns"),
            r.counter("net.frames_sent"),
            r.counter("net.connect_retries"),
            r.counter("net.recv_into_bytes"),
            r.counter("net.staged_bytes"),
            r.counter("net.credit_stalls_ns"),
            r.counter("net.epoll_wakeups"),
            r.gauge("net.streams_active"),
            r.gauge("net.pooled_connections"),
        };
        return m;
    }
};

/** Add @p n to one of a fabric's WireCounters and to the registry
 *  counter that mirrors it. */
void
bump(std::atomic<std::uint64_t> &wire, obs::Counter &mirror,
     std::uint64_t n = 1)
{
    wire.fetch_add(n, std::memory_order_relaxed);
    mirror.add(n);
}

/** Transient-connect retry budget (listen backlog overflow). */
constexpr int connectAttempts = 100;

/** epoll token classification (packed into epoll_event.data.u64). */
enum class FdKind : std::uint64_t
{
    Wake = 0,
    Listen = 1,
    Pair = 2,
};

std::uint64_t
packToken(FdKind kind, NodeId peer, int fd)
{
    return (static_cast<std::uint64_t>(kind) << 56) |
           ((static_cast<std::uint64_t>(
                 static_cast<std::uint32_t>(peer)) & 0xFFFFFF) << 32) |
           static_cast<std::uint32_t>(fd);
}

[[noreturn]] void
sysErr(const char *what)
{
    panic(std::string("TcpTransport: ") + what + ": " +
          std::strerror(errno));
}

/** One non-blocking read: the bytes read, 0 at EOF, or -1 when the
 *  socket has nothing more for now. */
ssize_t
recvSome(int fd, std::uint8_t *buf, std::size_t len)
{
    while (true) {
        ssize_t n = ::recv(fd, buf, len, MSG_DONTWAIT);
        if (n >= 0)
            return n;
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            return -1;
        sysErr("recv");
    }
}

void
setNoDelay(int fd)
{
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/** The unordered-pair pool key. */
std::pair<NodeId, NodeId>
pairKey(NodeId a, NodeId b)
{
    return {std::min(a, b), std::max(a, b)};
}

} // namespace

TcpTransport::TcpTransport(int node_count, WireCounters &wire,
                           const TransportOptions &options)
    : nodeCount_(node_count),
      wire_(wire),
      options_(options),
      handlers_(node_count)
{
    TcpMetrics::get(); // registration outside any hot path
    panicIf(options_.creditWindowBytes == 0,
            "TcpTransport: creditWindowBytes must be > 0");

    nodes_.reserve(node_count);
    for (int i = 0; i < node_count; ++i) {
        auto n = std::make_unique<Node>();

        n->listenFd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (n->listenFd < 0)
            sysErr("socket");
        int one = 1;
        ::setsockopt(n->listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = 0; // kernel-assigned
        if (::bind(n->listenFd, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) < 0)
            sysErr("bind");
        socklen_t alen = sizeof(addr);
        if (::getsockname(n->listenFd,
                          reinterpret_cast<sockaddr *>(&addr),
                          &alen) < 0)
            sysErr("getsockname");
        n->port = ntohs(addr.sin_port);
        if (::listen(n->listenFd, 128) < 0)
            sysErr("listen");
        // Non-blocking listener: the loop accepts until EAGAIN.
        ::fcntl(n->listenFd, F_SETFL, O_NONBLOCK);

        // Non-blocking: the loop resets it after a wakeup without
        // risking a block on an already-reset counter.
        n->wakeFd = ::eventfd(0, EFD_NONBLOCK);
        if (n->wakeFd < 0)
            sysErr("eventfd");

        n->epollFd = ::epoll_create1(0);
        if (n->epollFd < 0)
            sysErr("epoll_create1");

        nodes_.push_back(std::move(n));

        epollAdd(i, packToken(FdKind::Wake, 0, nodes_[i]->wakeFd),
                 nodes_[i]->wakeFd);
        epollAdd(i, packToken(FdKind::Listen, 0, nodes_[i]->listenFd),
                 nodes_[i]->listenFd);
    }

    // Loops start only after every listener exists: a node's first
    // frame may connect to any peer.
    for (int i = 0; i < node_count; ++i)
        nodes_[i]->loop = std::thread(&TcpTransport::eventLoop, this, i);
}

TcpTransport::~TcpTransport()
{
    running_.store(false, std::memory_order_relaxed);
    for (int i = 0; i < nodeCount_; ++i)
        wakeLoop(i);
    for (auto &n : nodes_) {
        if (n->loop.joinable())
            n->loop.join();
    }

    // Unwind the process-wide gauges this fabric contributed to, and
    // close every fd. The loops are joined, but consumer threads may
    // still be mid-poll (nothing stops a reader outliving the
    // fabric), so the guarded state below is read under its owning
    // locks like everywhere else (GaugesUnwindOnDestruction).
    TcpMetrics &m = TcpMetrics::get();
    for (auto &n : nodes_) {
        MutexLock lock(n->sendMutex);
        for (auto &[key, s] : n->streams) {
            if (s.active)
                m.streamsActive.add(-1);
        }
    }
    MutexLock lock(poolMutex_);
    m.pooledConnections.add(-static_cast<std::int64_t>(pool_.size()));
    for (auto &n : nodes_) {
        for (auto &[peer, fd] : n->pairFd)
            ::close(fd);
        ::close(n->listenFd);
        ::close(n->wakeFd);
        ::close(n->epollFd);
    }
}

std::uint16_t
TcpTransport::listenPort(NodeId node) const
{
    return nodes_[node]->port;
}

void
TcpTransport::wakeLoop(NodeId node)
{
    std::uint64_t one = 1;
    ssize_t rc = ::write(nodes_[node]->wakeFd, &one, sizeof(one));
    (void)rc; // a saturated counter already guarantees a wakeup
}

void
TcpTransport::epollAdd(NodeId node, std::uint64_t token, int fd)
{
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.u64 = token;
    if (::epoll_ctl(nodes_[node]->epollFd, EPOLL_CTL_ADD, fd, &ev) < 0)
        sysErr("epoll_ctl(ADD)");
}

std::size_t
TcpTransport::nonblockSend(int fd, const std::uint8_t *p,
                           std::size_t len)
{
    Stopwatch sw;
    std::size_t sent = 0;
    while (sent < len) {
        ssize_t w = ::send(fd, p + sent, len - sent,
                           MSG_NOSIGNAL | MSG_DONTWAIT);
        if (w >= 0) {
            sent += static_cast<std::size_t>(w);
            continue;
        }
        if (errno == EINTR)
            continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK)
            break; // socket full: the caller queues the rest
        sysErr("send");
    }
    if (sent) {
        std::uint64_t ns = sw.elapsedNs();
        bump(wire_.realWireNs, TcpMetrics::get().realWireNs, ns);
    }
    return sent;
}

void
TcpTransport::sendOrQueue(Node &n, NodeId peer, int fd,
                          const std::uint8_t *p, std::size_t len)
{
    OutBuf &ob = n.outbound[fd];
    ob.peer = peer;
    if (ob.off >= ob.bytes.size()) {
        // Nothing queued ahead: write straight to the socket and
        // queue only what it refuses (the common, copy-free case).
        std::size_t sent = nonblockSend(fd, p, len);
        p += sent;
        len -= sent;
    }
    if (len)
        ob.bytes.insert(ob.bytes.end(), p, p + len);
    // Empty entries are reaped by the loop's next flushPairWrites.
}

void
TcpTransport::flushPairWrites(NodeId node)
{
    Node &n = *nodes_[node];
    for (auto it = n.outbound.begin(); it != n.outbound.end();) {
        int fd = it->first;
        OutBuf &ob = it->second;
        if (ob.off < ob.bytes.size())
            ob.off += nonblockSend(fd, ob.bytes.data() + ob.off,
                                   ob.bytes.size() - ob.off);
        bool drained = ob.off >= ob.bytes.size();
        if (drained) {
            ob.bytes.clear();
            ob.off = 0;
        } else if (ob.off >= (1u << 20)) {
            // Reclaim a megabyte of consumed prefix.
            ob.bytes.erase(ob.bytes.begin(),
                           ob.bytes.begin() +
                               static_cast<std::ptrdiff_t>(ob.off));
            ob.off = 0;
        }
        // Interest mirrors pending bytes: arm when blocked and
        // unarmed, disarm when drained and armed.
        if (drained == ob.armed) {
            epoll_event ev{};
            ev.events = EPOLLIN | (drained ? 0u
                                           : static_cast<unsigned>(
                                                 EPOLLOUT));
            ev.data.u64 = packToken(FdKind::Pair, ob.peer, fd);
            if (::epoll_ctl(n.epollFd, EPOLL_CTL_MOD, fd, &ev) < 0)
                sysErr("epoll_ctl(MOD)");
            ob.armed = !drained;
        }
        if (drained)
            it = n.outbound.erase(it);
        else
            ++it;
    }
}

int
TcpTransport::connectTo(NodeId dst, const std::uint8_t *shake,
                        std::size_t shake_len)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(nodes_[dst]->port);

    for (int attempt = 0; attempt < connectAttempts; ++attempt) {
        if (attempt > 0) {
            bump(wire_.connectRetries, TcpMetrics::get().connectRetries);
            // Backlog overflow is transient: the loop accepts in
            // bounded time.
            struct timespec ts {0, 2'000'000}; // 2 ms
            ::nanosleep(&ts, nullptr);
        }
        int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0)
            sysErr("socket");
        if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                      sizeof(addr)) == 0) {
            setNoDelay(fd);
            // A handshake fits a fresh socket's empty buffer whole.
            if (::send(fd, shake, shake_len, MSG_NOSIGNAL) !=
                static_cast<ssize_t>(shake_len))
                sysErr("send(handshake)");
            return fd;
        }
        int err = errno;
        ::close(fd);
        if (err != ECONNREFUSED && err != EINTR && err != ETIMEDOUT &&
            err != EAGAIN)
            panic(std::string("TcpTransport: connect: ") +
                  std::strerror(err));
    }
    panic("TcpTransport: connect retries exhausted toward node " +
          std::to_string(dst));
}

int
TcpTransport::pairFdOrClaim(NodeId node, NodeId dst)
{
    Node &n = *nodes_[node];
    {
        MutexLock lock(poolMutex_);
        auto it = n.pairFd.find(dst);
        if (it != n.pairFd.end())
            return it->second;

        if (!pool_.insert(pairKey(node, dst)).second) {
            // The peer is mid-connect; our loop's accept completes
            // the pair. Never wait here — the accept event re-runs
            // the drain.
            return -1;
        }
        wire_.connectionsPooled.fetch_add(1, std::memory_order_relaxed);
        TcpMetrics::get().pooledConnections.add(1);
    }

    frame::Handshake h{frame::channelData, node};
    std::uint8_t shake[frame::handshakeBytes];
    frame::encodeHandshake(shake, h);
    // Connect with poolMutex_ dropped: a backlog-overflow retry can
    // sleep ~200 ms, and holding the transport-wide lock across that
    // would stall every node's grant delivery and accepts. The claim
    // above keeps the pair exclusive meanwhile (connectTo panics
    // rather than failing, so there is no unclaim path).
    int fd = connectTo(dst, shake, sizeof(shake));
    {
        MutexLock lock(poolMutex_);
        if (n.pairFd.count(dst) != 0)
            panic("TcpTransport: duplicate pair connection toward node " +
                  std::to_string(dst));
        n.pairFd.emplace(dst, fd);
    }
    epollAdd(node, packToken(FdKind::Pair, dst, fd), fd);
    return fd;
}

void
TcpTransport::send(NodeId src, NodeId dst, int tag,
                   std::vector<std::uint8_t> payload)
{
    Node &n = *nodes_[src];
    if (src == dst) {
        // Self-delivery never touches a socket (loopback-to-self is
        // not remote traffic on any transport).
        auto len = static_cast<std::uint32_t>(payload.size());
        MutexLock lock(n.recvMutex);
        n.inbound.push_back(
            Inbound{src, tag, len, len, nullptr, std::move(payload)});
        return;
    }

    {
        MutexLock lock(n.sendMutex);
        auto [it, inserted] =
            n.streams.try_emplace(std::make_pair(dst, tag));
        TxStream &s = it->second;
        if (inserted)
            s.credit = static_cast<std::int64_t>(
                options_.creditWindowBytes);
        if (!s.active) {
            s.active = true;
            TcpMetrics::get().streamsActive.add(1);
        }
        s.queue.push_back(std::move(payload));
    }
    wakeLoop(src);
}

void
TcpTransport::queueUncredited(NodeId node, TxFrame f)
{
    Node &n = *nodes_[node];
    {
        MutexLock lock(n.sendMutex);
        n.uncredited.push_back(std::move(f));
    }
    wakeLoop(node);
}

void
TcpTransport::queueGrant(NodeId node, NodeId src, int tag,
                         std::uint32_t bytes)
{
    TxFrame f{src, {}, {}};
    frame::encodeMuxHeader(f.header, frame::MuxHeader{frame::kindCredit,
                                                      node, tag, bytes});
    queueUncredited(node, std::move(f));
}

std::optional<TcpTransport::Inbound>
TcpTransport::takeReady(NodeId node, std::optional<int> tag)
{
    Node &n = *nodes_[node];
    MutexLock lock(n.recvMutex);
    auto it = std::find_if(n.inbound.begin(), n.inbound.end(),
                           [&](const Inbound &f) {
                               return !tag || f.tag == *tag;
                           });
    if (it == n.inbound.end() || !it->complete())
        return std::nullopt; // per-tag FIFO: a partial first frame waits
    Inbound f = std::move(*it);
    n.inbound.erase(it);
    if (!f.landing)
        n.posts.erase(f.tag); // the consumer may now reuse their memory
    return f;
}

void
TcpTransport::delivered(NodeId node, const Inbound &f, bool in_place)
{
    if (f.src == node || f.len == 0)
        return; // self-sends and end-of-stream: no wire bytes, no credit
    TcpMetrics &m = TcpMetrics::get();
    if (in_place)
        bump(wire_.recvIntoBytes, m.recvIntoBytes, f.len);
    else
        bump(wire_.stagedBytes, m.stagedBytes, f.len);
    queueGrant(node, f.src, f.tag, f.len);
}

bool
TcpTransport::takeMessage(NodeId dst, std::optional<int> tag,
                          NetMessage &out)
{
    std::optional<Inbound> f = takeReady(dst, tag);
    if (!f)
        return false;
    delivered(dst, *f, false);
    out.src = f->src;
    out.dst = dst;
    out.tag = f->tag;
    if (f->landing)
        out.payload.assign(f->landing, f->landing + f->len);
    else
        out.payload = std::move(f->staged);
    return true;
}

bool
TcpTransport::poll(NodeId dst, NetMessage &out)
{
    return takeMessage(dst, std::nullopt, out);
}

bool
TcpTransport::pollTag(NodeId dst, int tag, NetMessage &out)
{
    return takeMessage(dst, tag, out);
}

std::ptrdiff_t
TcpTransport::pollTagInto(NodeId dst, int tag, const ReserveFn &reserve)
{
    std::optional<Inbound> f = takeReady(dst, tag);
    if (!f)
        return -1;
    bool in_place = false;
    if (f->len) {
        std::uint8_t *to = reserve(f->len);
        panicIf(to == nullptr, "pollTagInto: reserve returned null");
        // The zero-copy receive: the frame landed where the consumer
        // now wants it. Anything else is one copy, from staging or
        // from a post the consumer did not reserve.
        in_place = to == f->landing;
        if (!in_place)
            std::memmove(to, f->bytes(), f->len);
    }
    delivered(dst, *f, in_place);
    return static_cast<std::ptrdiff_t>(f->len);
}

void
TcpTransport::post(NodeId dst, int tag, std::uint8_t *at,
                   std::size_t len)
{
    Node &n = *nodes_[dst];
    MutexLock lock(n.recvMutex);
    n.posts[tag].push_back(Post{at, len});
}

void
TcpTransport::unpost(NodeId dst, int tag)
{
    Node &n = *nodes_[dst];
    MutexLock lock(n.recvMutex);
    n.posts.erase(tag);
    // The loop writes posted storage only under recvMutex, so moving
    // what landed (or is landing) to staging frees the storage now.
    for (Inbound &f : n.inbound) {
        if (f.tag != tag || !f.landing)
            continue;
        f.staged.assign(f.landing, f.landing + f.got);
        f.staged.resize(f.len);
        f.landing = nullptr;
    }
}

void
TcpTransport::registerHandler(NodeId node, RequestHandler handler)
{
    MutexLock lock(handlerMutex_);
    handlers_[node] = std::move(handler);
}

std::vector<std::uint8_t>
TcpTransport::request(NodeId src, NodeId dst, int tag,
                      const std::vector<std::uint8_t> &payload,
                      const RequestOptions &opts)
{
    RequestHandler local;
    {
        MutexLock lock(handlerMutex_);
        if (src == dst)
            local = handlers_[dst];
    }
    if (src == dst) {
        panicIf(!local, "request: node has no registered handler");
        return local(src, tag, payload);
    }

    Node &n = *nodes_[src];
    for (int attempt = 0; attempt <= opts.maxRetries; ++attempt) {
        if (attempt > 0)
            bump(wire_.connectRetries, TcpMetrics::get().connectRetries);
        std::uint32_t req_id = 0;
        {
            MutexLock lock(n.replyMutex);
            req_id = n.nextReqId++;
            n.replies.emplace(req_id, std::nullopt);
        }
        TxFrame f{dst, {}, frame::requestPayload(req_id, payload)};
        frame::encodeMuxHeader(
            f.header,
            frame::MuxHeader{frame::kindRequest, src, tag,
                             static_cast<std::uint32_t>(f.payload.size())});
        queueUncredited(src, std::move(f));

        // Wait out the reply. A reply to an earlier, timed-out
        // attempt finds its slot gone and the loop drops it.
        auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts.timeoutMs);
        MutexLock lock(n.replyMutex);
        auto it = n.replies.find(req_id);
        while (!it->second && n.replyCv.waitUntil(lock, deadline)) {
        }
        std::optional<std::vector<std::uint8_t>> reply =
            std::move(it->second);
        n.replies.erase(it);
        if (reply)
            return std::move(*reply);
    }
    panic("TcpTransport: request to node " + std::to_string(dst) +
          " timed out after " + std::to_string(opts.maxRetries) +
          " retries (tag " + std::to_string(tag) + ")");
}

void
TcpTransport::acceptPending(NodeId node)
{
    Node &n = *nodes_[node];
    while (true) {
        int fd = ::accept(n.listenFd, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return;
            sysErr("accept");
        }
        setNoDelay(fd);
        // The connecting side sends its handshake right after
        // connect(), so this wait is bounded; a peer that hangs up
        // before a whole handshake is dropped.
        std::uint8_t buf[frame::handshakeBytes];
        if (::recv(fd, buf, sizeof(buf), MSG_WAITALL) !=
            static_cast<ssize_t>(sizeof(buf))) {
            ::close(fd);
            continue;
        }
        frame::Handshake h{};
        if (!frame::decodeHandshake(buf, h))
            panic("TcpTransport: bad handshake magic");
        panicIf(h.channel != frame::channelData,
                "TcpTransport: unknown handshake channel");
        panicIf(h.src < 0 || h.src >= nodeCount_,
                "TcpTransport: handshake from out-of-range node id");
        {
            MutexLock lock(poolMutex_);
            if (n.pairFd.count(h.src) != 0)
                panic("TcpTransport: duplicate pair connection "
                      "from node " + std::to_string(h.src));
            n.pairFd.emplace(h.src, fd);
            if (pool_.insert(pairKey(node, h.src)).second) {
                // An externally initiated connection (tests): count
                // it like a claim would have.
                wire_.connectionsPooled.fetch_add(
                    1, std::memory_order_relaxed);
                TcpMetrics::get().pooledConnections.add(1);
            }
        }
        epollAdd(node, packToken(FdKind::Pair, h.src, fd), fd);
    }
}

void
TcpTransport::dropPair(NodeId node, NodeId peer, int fd)
{
    Node &n = *nodes_[node];
    n.rx.erase(fd);
    n.outbound.erase(fd);
    ::close(fd); // also removes it from the epoll set
    {
        MutexLock lock(poolMutex_);
        auto it = n.pairFd.find(peer);
        if (it != n.pairFd.end() && it->second == fd)
            n.pairFd.erase(it);
        if (pool_.erase(pairKey(node, peer)))
            TcpMetrics::get().pooledConnections.add(-1);
    }
    // The peer may hold frames for us that found the pair claimed
    // (by the connection that just went) and wait for it to free up:
    // that is now, so wake its loop to claim a fresh connection.
    wakeLoop(peer);
}

bool
TcpTransport::startFrame(NodeId node, NodeId peer, RxConn &rx)
{
    Node &n = *nodes_[node];
    frame::MuxHeader h = frame::decodeMuxHeader(rx.hdr);
    rx.h = h;
    panicIf(h.origin != peer,
            "TcpTransport: mux frame origin does not match peer");
    switch (h.kind) {
      case frame::kindCredit: {
          MutexLock lock(n.sendMutex);
          auto it = n.streams.find(std::make_pair(peer, h.tag));
          if (it == n.streams.end())
              return false; // grant for a stream we no longer track
          TxStream &s = it->second;
          s.credit += h.arg;
          if (s.stalled && s.credit > 0) {
              s.stalled = false;
              bump(wire_.creditStallsNs, TcpMetrics::get().creditStallsNs,
                   s.stall.elapsedNs());
          }
          return false; // the loop drains sends after the event batch
      }
      case frame::kindStream: {
          MutexLock lock(n.recvMutex);
          std::uint8_t *landing = nullptr;
          // Land in the tag's next post when the frame fits and no
          // frame of the tag waits outside posted storage: that
          // frame's delivery hands the consumer the post's memory.
          auto pit = n.posts.find(h.tag);
          if (h.arg && pit != n.posts.end() &&
              pit->second.front().len >= h.arg &&
              std::none_of(n.inbound.begin(), n.inbound.end(),
                           [&](const Inbound &f) {
                               return f.tag == h.tag && !f.landing;
                           })) {
              landing = pit->second.front().at;
              pit->second.pop_front();
              if (pit->second.empty())
                  n.posts.erase(pit);
          }
          rx.frame = n.inbound.insert(
              n.inbound.end(), Inbound{peer, h.tag, h.arg, 0, landing, {}});
          if (!landing)
              rx.frame->staged.resize(h.arg);
          return h.arg != 0;
      }
      case frame::kindRequest:
      case frame::kindReply:
        panicIf(h.arg < frame::reqIdBytes,
                "TcpTransport: request frame without a request id");
        rx.body.resize(h.arg);
        rx.bodyGot = 0;
        return true;
    }
    panic("TcpTransport: unexpected mux frame kind");
}

void
TcpTransport::finishRequestFrame(NodeId node, NodeId peer, RxConn &rx)
{
    Node &n = *nodes_[node];
    std::uint32_t req_id = frame::getU32(rx.body.data());
    std::vector<std::uint8_t> body(
        rx.body.begin() + frame::reqIdBytes, rx.body.end());
    if (rx.h.kind == frame::kindReply) {
        MutexLock lock(n.replyMutex);
        auto it = n.replies.find(req_id);
        if (it == n.replies.end())
            return; // stale reply to an attempt that timed out
        it->second = std::move(body);
        n.replyCv.notify_all();
        return;
    }
    RequestHandler handler;
    {
        MutexLock lock(handlerMutex_);
        handler = handlers_[node];
    }
    panicIf(!handler, "request: node has no registered handler");
    TxFrame f{peer, {}, frame::requestPayload(req_id,
                                              handler(peer, rx.h.tag,
                                                      body))};
    frame::encodeMuxHeader(
        f.header,
        frame::MuxHeader{frame::kindReply, node, rx.h.tag,
                         static_cast<std::uint32_t>(f.payload.size())});
    MutexLock lock(n.sendMutex);
    n.uncredited.push_back(std::move(f)); // this loop drains it next
}

void
TcpTransport::handlePairReadable(NodeId node, NodeId peer, int fd)
{
    Node &n = *nodes_[node];
    RxConn &rx = n.rx[fd];
    // Read until the socket runs dry, whether or not anyone is
    // polling: TCP has no message boundaries, so a header or payload
    // may arrive in pieces; the rest resumes on the next EPOLLIN.
    while (true) {
        if (rx.hdrGot < frame::muxHeaderBytes) {
            ssize_t r = recvSome(fd, rx.hdr + rx.hdrGot,
                                 frame::muxHeaderBytes - rx.hdrGot);
            if (r == 0) {
                panicIf(rx.hdrGot != 0, "peer closed mid-frame");
                dropPair(node, peer, fd);
                return;
            }
            if (r < 0)
                return;
            rx.hdrGot += static_cast<std::size_t>(r);
            if (rx.hdrGot == frame::muxHeaderBytes &&
                !startFrame(node, peer, rx))
                rx.hdrGot = 0; // header-only frame: done
            continue;
        }
        ssize_t r = 0;
        bool done = false;
        if (rx.h.kind == frame::kindStream) {
            MutexLock lock(n.recvMutex);
            Inbound &f = *rx.frame;
            r = recvSome(fd, f.bytes() + f.got, f.len - f.got);
            if (r > 0)
                f.got += static_cast<std::uint32_t>(r);
            done = f.complete();
        } else {
            r = recvSome(fd, rx.body.data() + rx.bodyGot,
                         rx.body.size() - rx.bodyGot);
            if (r > 0)
                rx.bodyGot += static_cast<std::size_t>(r);
            done = rx.bodyGot == rx.body.size();
            if (done)
                finishRequestFrame(node, peer, rx);
        }
        panicIf(r == 0, "peer closed mid-frame");
        if (r < 0)
            return;
        if (done)
            rx.hdrGot = 0;
    }
}

void
TcpTransport::drainSends(NodeId node)
{
    Node &n = *nodes_[node];

    // Credit-exempt frames, and the destinations of every stream with
    // anything queued, sampled under the lock...
    std::deque<TxFrame> uncredited;
    std::set<NodeId> dsts;
    {
        MutexLock lock(n.sendMutex);
        uncredited.swap(n.uncredited);
        for (auto &[key, s] : n.streams) {
            if (!s.queue.empty())
                dsts.insert(key.first);
        }
    }
    for (const TxFrame &f : uncredited)
        dsts.insert(f.peer);
    if (dsts.empty())
        return;

    // ...then pair fds resolved outside it (establishment may block
    // on connect); -1 = pair held elsewhere, skip until our accept or
    // a drop's wake re-runs this.
    std::map<NodeId, int> fds;
    for (NodeId dst : dsts)
        fds[dst] = pairFdOrClaim(node, dst);

    // Credit-exempt frames first, then every stream frame the credit
    // windows allow, in per-stream FIFO order; written outside the
    // lock.
    std::vector<std::pair<int, TxFrame>> batch;
    std::deque<TxFrame> later;
    for (TxFrame &f : uncredited) {
        int fd = fds[f.peer];
        if (fd < 0)
            later.push_back(std::move(f));
        else
            batch.emplace_back(fd, std::move(f));
    }
    {
        MutexLock lock(n.sendMutex);
        n.uncredited.insert(n.uncredited.begin(),
                            std::make_move_iterator(later.begin()),
                            std::make_move_iterator(later.end()));
        for (auto &[key, s] : n.streams) {
            auto fit = fds.find(key.first);
            if (fit == fds.end() || fit->second < 0)
                continue;
            while (!s.queue.empty()) {
                std::vector<std::uint8_t> &front = s.queue.front();
                if (front.empty()) {
                    // End of stream: no payload, no credit needed.
                    s.active = false;
                    TcpMetrics::get().streamsActive.add(-1);
                } else if (s.credit <= 0) {
                    if (!s.stalled) {
                        s.stalled = true;
                        s.stall.reset();
                    }
                    break; // later frames wait behind the head (FIFO)
                }
                s.credit -= static_cast<std::int64_t>(front.size());
                TxFrame tx{key.first, {}, std::move(front)};
                frame::encodeMuxHeader(
                    tx.header,
                    frame::MuxHeader{
                        frame::kindStream, node, key.second,
                        static_cast<std::uint32_t>(tx.payload.size())});
                batch.emplace_back(fit->second, std::move(tx));
                s.queue.pop_front();
            }
        }
    }

    for (auto &[fd, tx] : batch) {
        // Non-blocking: what the socket refuses queues per
        // connection, so a full peer buffer can never wedge this
        // loop against another node's.
        sendOrQueue(n, tx.peer, fd, tx.header, sizeof(tx.header));
        if (!tx.payload.empty())
            sendOrQueue(n, tx.peer, fd, tx.payload.data(),
                        tx.payload.size());
        bump(wire_.framesSent, TcpMetrics::get().framesSent);
    }
}

void
TcpTransport::eventLoop(NodeId node)
{
    Node &n = *nodes_[node];
    while (running_.load(std::memory_order_relaxed)) {
        drainSends(node);
        flushPairWrites(node);

        // No timeout: everything the loop acts on — a queued frame,
        // a pair the peer dropped, or shutdown (the wake eventfd), an
        // arriving frame, a writable socket, a connecting peer — is
        // an event.
        epoll_event evs[64];
        int rc = ::epoll_wait(n.epollFd, evs, 64, -1);
        if (rc < 0) {
            if (errno == EINTR)
                continue;
            sysErr("epoll_wait");
        }
        bump(wire_.epollWakeups, TcpMetrics::get().epollWakeups);

        for (int i = 0; i < rc; ++i) {
            std::uint64_t token = evs[i].data.u64;
            auto kind = static_cast<FdKind>(token >> 56);
            int fd = static_cast<int>(
                static_cast<std::uint32_t>(token & 0xFFFFFFFF));
            NodeId peer = static_cast<NodeId>((token >> 32) & 0xFFFFFF);
            switch (kind) {
              case FdKind::Wake: {
                  std::uint64_t count = 0;
                  ssize_t r = ::read(n.wakeFd, &count, sizeof(count));
                  (void)r; // reset; the wakeup itself was the message
                  break;
              }
              case FdKind::Listen:
                acceptPending(node);
                break;
              case FdKind::Pair:
                if (evs[i].events & EPOLLOUT)
                    flushPairWrites(node);
                if (evs[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR))
                    handlePairReadable(node, peer, fd);
                break;
            }
        }
    }
}

} // namespace skyway
