/**
 * @file
 * The benchmark's workloads. Each builds its inputs from the seed at
 * construction (not part of set-up time), builds a fresh cluster in
 * setUp(), and runs one job at a time: a closed loop with one client
 * and one outstanding job or stream.
 */

#ifndef PERFBENCH_WORKLOAD_HH
#define PERFBENCH_WORKLOAD_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "layers.hh"
#include "skyway/jvm.hh"
#include "skyway/streams.hh"

namespace perfbench
{

/** What one job reports back to the timed loop. */
struct JobContext
{
    explicit JobContext(Tracer &t) : tracer(t) {}

    Tracer &tracer;
    /** Per-stream latency, first writeObject to finalize returning. */
    std::vector<std::uint64_t> streamNs;
    std::uint64_t failed = 0;
    /** Bytes that crossed the fabric (or were shuffled) and the
     *  records they carried. */
    std::uint64_t wireBytes = 0;
    std::uint64_t records = 0;
    /** minispark's own measured compute time. */
    std::uint64_t computeNs = 0;
    /** Output checks run inside the job; not part of job time. */
    std::uint64_t checkNs = 0;
    std::uint64_t polls = 0;
    std::uint64_t pollHits = 0;

    /** Count one failed check; the first few are printed. */
    void fail(const std::string &why);
};

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build a fresh cluster, replacing any previous one. */
    virtual void setUp() = 0;

    virtual void runJob(JobContext &job) = 0;

    /** Every node's heap, for HeapStats. */
    virtual std::vector<skyway::ManagedHeap *> heaps() = 0;
};

std::unique_ptr<Workload> makePageRankCompact(std::uint64_t seed,
                                              Tracer &t);
std::unique_ptr<Workload> makeRecordBatches(std::uint64_t seed,
                                            Tracer &t);
std::unique_ptr<Workload> makeTcpBulk(std::uint64_t seed, Tracer &t);

/**
 * Per-node heap sizing for pagerank-compact and record-batches: the
 * default young generation and an 8 MiB old generation. Received
 * buffers fill the old generation, so a full collection lands on about
 * one stream in thirty: a steady part of the p99 stream latency rather
 * than an event that falls either side of it from run to run.
 * tcp-bulk keeps the default heap, where full collections are rare
 * enough to stay out of its p99, which then measures the fabric.
 */
skyway::HeapConfig benchHeapConfig();

/**
 * Move the graphs rooted at @p roots from @p src to @p dst as one raw
 * Skyway stream: SkywayObjectOutputStream into a FlushFn that calls
 * ClusterNetwork::send, then pollTagInto into the input buffer's
 * reserveChunk, commitChunk, and finalize. Every call is spanned;
 * the stream's latency and wire bytes go to @p job, and a stream
 * whose payload did not land entirely in place (zero_copy_bytes !=
 * payload bytes) counts as failed. Returns the received buffer (roots
 * in write order), not yet freed.
 */
std::unique_ptr<skyway::InputBuffer>
transferStream(skyway::ClusterNetwork &net, skyway::Jvm &src,
               skyway::Jvm &dst, int tag, const skyway::LocalRoots &roots,
               JobContext &job);

/** Release a received buffer to the collector. */
void freeBuffer(std::unique_ptr<skyway::InputBuffer> buf,
                JobContext &job);

} // namespace perfbench

#endif // PERFBENCH_WORKLOAD_HH
