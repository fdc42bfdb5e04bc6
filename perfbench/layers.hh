/**
 * @file
 * Outside-in layer timing for the benchmark. Every span is recorded
 * here, in the benchmark's own files, around a call into one layer of
 * the system (src/): the system itself is not instrumented. A span's
 * self time is its duration minus the spans nested inside it, so a GC
 * that runs inside a receiver commit is charged to the collector, not
 * to the receiver.
 *
 * The tracer is single-threaded: every call the benchmark times runs
 * on the main thread (the TCP event loops are the fabric's own).
 */

#ifndef PERFBENCH_LAYERS_HH
#define PERFBENCH_LAYERS_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "gc/collector.hh"
#include "heap/heap.hh"
#include "sd/serializer.hh"

namespace perfbench
{

inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** A timed call site; each is charged to exactly one Layer. */
enum class Site
{
    SenderOpen,       // output stream construction
    SenderWrite,      // writeObject
    SenderFlush,      // flush/endStream minus the sink, raw wire
    CompactFlush,     // flush/endStream minus the sink, compaction on
    ReceiverOpen,     // input stream construction
    ReceiverIngest,   // reserveChunk/commitChunk, or feed via readObject
    ReceiverFinalize, // finalize
    ReceiverFree,     // releasing received buffers
    NetSend,          // ClusterNetwork::send
    NetRecv,          // pollTagInto that delivered, minus the reserve
    NetRecvWait,      // pollTagInto that found nothing yet
    GcScavenge,
    GcFull,
    HeapBuild,   // allocating the workload's input objects
    ShuffleSink, // minispark's shuffle-file sink (bytes appended)
    Count
};

enum class Layer
{
    Minispark,
    Sender,
    WireCompact,
    Receiver,
    Net,
    Gc,
    Heap,
    Count
};

constexpr std::size_t kSites = static_cast<std::size_t>(Site::Count);
constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);

Layer layerOf(Site s);

/** Metric-name prefix of @p l ("skyway.receiver", "gc", ...). */
const char *layerName(Layer l);

/**
 * Nested spans with self-time accounting. Off by default; begin/end
 * are no-ops while off, so untimed runs pay one branch per call site.
 */
class Tracer
{
  public:
    bool on() const { return on_; }

    /** Switch spans on or off; only between spans. */
    void setOn(bool on) { on_ = on; }

    void
    begin(Site s)
    {
        if (on_)
            stack_.push_back(Frame{s, nowNs(), 0});
    }

    /** Close the innermost span. */
    void end() { endAs(Site::Count); }

    /**
     * Close the innermost span and charge it to @p s instead of its
     * opening site (a poll is a wait or a delivery only once it
     * returns). Site::Count keeps the opening site.
     */
    void endAs(Site s);

    std::uint64_t selfNs(Site s) const
    {
        return self_[static_cast<std::size_t>(s)];
    }

    /** Self time summed over the sites of @p l. */
    std::uint64_t layerSelfNs(Layer l) const;

    /** Collector time with no benchmark span open: GC triggered by
     *  allocations inside minispark's compute sections. */
    std::uint64_t gcOutsideSpansNs() const { return gcOutside_; }

  private:
    struct Frame
    {
        Site site;
        std::uint64_t start;
        std::uint64_t childNs;
    };

    bool on_ = false;
    std::vector<Frame> stack_;
    std::array<std::uint64_t, kSites> self_{};
    std::uint64_t gcOutside_ = 0;
};

/** RAII span. */
class Span
{
  public:
    Span(Tracer &t, Site s) : t_(t) { t_.begin(s); }
    ~Span() { t_.end(); }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    Tracer &t_;
};

/**
 * Forwards a heap's collection requests to the node's collector
 * inside a gc span, first noting the heap's occupancy: a collection
 * runs when the heap is fullest, so this is where its peak is seen.
 * Installs itself with ManagedHeap::setCollector; it must outlive
 * every allocation on that heap.
 */
class TimedCollector : public skyway::ManagedHeap::Collector
{
  public:
    TimedCollector(skyway::ManagedHeap &heap, skyway::GenerationalGc &gc,
                   Tracer &t)
        : heap_(heap), gc_(gc), t_(t)
    {
        heap_.setCollector(this);
    }

    TimedCollector(const TimedCollector &) = delete;
    TimedCollector &operator=(const TimedCollector &) = delete;

    void
    scavenge() override
    {
        heap_.notePeak();
        Span s(t_, Site::GcScavenge);
        gc_.scavenge();
    }

    void
    fullGc() override
    {
        heap_.notePeak();
        Span s(t_, Site::GcFull);
        gc_.fullGc();
    }

  private:
    skyway::ManagedHeap &heap_;
    skyway::GenerationalGc &gc_;
    Tracer &t_;
};

/**
 * What the serializer decorators observed for one worker: the
 * duration of each Skyway stream's send side (first writeObject to
 * endStream returning) and receive side (the readObject that ingested
 * and finalized it), in call order, plus the records read.
 */
struct ShuffleLog
{
    std::vector<std::vector<std::uint64_t>> sendNs;
    std::vector<std::vector<std::uint64_t>> recvNs;
    std::vector<std::uint64_t> recordsRead;
    std::uint64_t ingestsWithoutProgress = 0;

    void
    clear(int workers)
    {
        sendNs.assign(workers, {});
        recvNs.assign(workers, {});
        recordsRead.assign(workers, 0);
        ingestsWithoutProgress = 0;
    }
};

/**
 * A SerializerFactory decorator: every serializer it creates times
 * the calls minispark makes into Skyway (writeObject, endStream,
 * readObject, releaseReceived) and logs stream boundaries. Only
 * workers' serializers are logged; @p worker_of maps a heap to its
 * worker index (-1 for the driver).
 */
class TimedSerializerFactory : public skyway::SerializerFactory
{
  public:
    using WorkerOf = std::function<int(const skyway::ManagedHeap &)>;

    TimedSerializerFactory(skyway::SerializerFactory &inner, Tracer &t,
                           ShuffleLog &log, WorkerOf worker_of,
                           bool compacting)
        : inner_(inner),
          tracer_(t),
          log_(log),
          workerOf_(std::move(worker_of)),
          compacting_(compacting)
    {}

    std::string name() const override { return inner_.name(); }

    std::unique_ptr<skyway::Serializer>
    create(skyway::SdEnv env) override;

  private:
    skyway::SerializerFactory &inner_;
    Tracer &tracer_;
    ShuffleLog &log_;
    WorkerOf workerOf_;
    /** Flush time minus the sink is the encoder's when compacting. */
    bool compacting_;
};

} // namespace perfbench

#endif // PERFBENCH_LAYERS_HH
