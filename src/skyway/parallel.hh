/**
 * @file
 * Multi-threaded sender fan-out (the paper's "Support for Threads",
 * section 4.2). A ParallelSender partitions a root set across N
 * worker threads, each owning one SkywayObjectOutputStream — its own
 * output buffer, stream id, and flush sink — to the same destination.
 * Workers race on the shared parts of the graph through the existing
 * baddr protocol: a CAS claim stamps the winning stream's id into the
 * object header, and a stream that loses the race falls back to its
 * local hash table and duplicates the object in its own buffer
 * (paper semantics: cross-stream sharing degrades to per-stream
 * copies, never to corruption).
 *
 * Because every stream carries its own id in the baddr `tid` bytes,
 * the N per-thread streams interleave freely on the wire; the
 * receiver rebuilds each stream in its own input buffer, exactly as
 * with N independent single-threaded senders.
 */

#ifndef SKYWAY_SKYWAY_PARALLEL_HH
#define SKYWAY_SKYWAY_PARALLEL_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "skyway/streams.hh"

namespace skyway
{

struct ParallelSendConfig
{
    /** Worker thread count (1 = run inline on the caller). */
    unsigned threads = 1;
    /** Per-stream output-buffer capacity. */
    std::size_t bufferBytes = defaultOutputBufferBytes;
    /** Receiver's object format (default: homogeneous cluster). */
    std::optional<ObjectFormat> targetFormat;
};

/** What one fan-out transferred, aggregated and per worker. */
struct ParallelSendReport
{
    /** Sum of the per-worker stream stats. */
    SkywaySendStats total;
    std::vector<SkywaySendStats> perWorker;
    /** Flushed bytes across all streams (markers included). */
    std::uint64_t totalBytes = 0;
    /** Wall time of the slowest worker (copy + blocking flushes). */
    std::uint64_t maxWorkerNs = 0;
};

class ParallelSender
{
  public:
    /**
     * Builds the flush sink for worker @p worker's stream — for a
     * socket fan-out, a per-stream tag toward the shared destination.
     * Called once per worker, on the constructing thread. The sink
     * itself runs on that worker's thread and may block (socket
     * backpressure); it must not touch another worker's state.
     */
    using SinkFactory =
        std::function<OutputBuffer::FlushFn(unsigned worker)>;

    /**
     * Streams (and their ids) are created here, on the calling
     * thread, so stream-id assignment is deterministic; the workers
     * then share only the baddr claims of the objects they copy and,
     * on a compact stream, the per-class encoding decisions.
     */
    ParallelSender(SkywayContext &ctx, SinkFactory sinks,
                   ParallelSendConfig cfg = ParallelSendConfig{});

    ~ParallelSender();

    ParallelSender(const ParallelSender &) = delete;
    ParallelSender &operator=(const ParallelSender &) = delete;

    /**
     * Transfer the graphs rooted at @p roots: root i goes to worker
     * i mod N, every worker runs writeObject over its share and
     * flushes its stream, and the call returns when all workers have
     * joined. Also sets the `skyway.sender.threads` gauge.
     */
    ParallelSendReport send(const std::vector<Address> &roots);

    unsigned threads() const { return threads_; }
    const SkywayObjectOutputStream &stream(unsigned worker) const
    {
        return *streams_[worker];
    }

  private:
    unsigned threads_;
    std::vector<std::unique_ptr<SkywayObjectOutputStream>> streams_;
};

} // namespace skyway

#endif // SKYWAY_SKYWAY_PARALLEL_HH
