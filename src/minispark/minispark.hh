/**
 * @file
 * minispark: a driver/worker dataflow substrate reproducing the part
 * of Spark the paper's evaluation exercises — the shuffle path.
 * Records are managed-heap objects; a shuffle serializes each
 * worker's outgoing records per destination (through any pluggable
 * Serializer, including Skyway), writes the sorted-run files to the
 * worker's local disk (modeled write I/O), moves remote partitions
 * over the cluster fabric (modeled network, folded into read I/O as
 * in the paper's Figure 3), and deserializes on the receiving worker
 * (measured). Computation between shuffles is measured around the
 * workload code.
 *
 * Workers execute sequentially in-process; per-worker simulated
 * clocks keep the accounting equivalent to the paper's
 * one-executor-per-node setup. miniflink runs on the same cluster and
 * shuffle exchange.
 */

#ifndef SKYWAY_MINISPARK_MINISPARK_HH
#define SKYWAY_MINISPARK_MINISPARK_HH

#include <memory>
#include <string>
#include <vector>

#include "iomodel/breakdown.hh"
#include "sd/serializer.hh"
#include "skyway/jvm.hh"
#include "support/stopwatch.hh"

namespace skyway
{

struct SparkConfig
{
    int numWorkers = 3;
    HeapConfig workerHeap{};
    NetworkCostModel network = gigabitEthernet();
    DiskCostModel disk{};
    /** Which transport carries fabric traffic (remote shuffle
     *  partitions, closure broadcasts, collected results). */
    TransportKind transport = TransportKind::Model;
};

/** What a job run on a cluster reports. */
struct JobResult
{
    PhaseBreakdown average; // per-worker mean (the figures' unit)
    PhaseBreakdown total;   // summed over workers
    std::uint64_t shuffledRecords = 0;
    std::uint64_t shuffledBytes = 0;
    /** App-defined checksum; identical across serializers. */
    double checksum = 0;
};

/** Fabric tags for minispark traffic (registry tags are 101-103). */
namespace sparkmsg
{
constexpr int shuffle = 201;
constexpr int closure = 202;
constexpr int collect = 203;
} // namespace sparkmsg

/**
 * A Spark-like cluster: node 0 is the driver, nodes 1..N are workers.
 */
class SparkCluster
{
  public:
    SparkCluster(const ClassCatalog &catalog,
                 SerializerFactory &serializer_factory,
                 SparkConfig config = SparkConfig{});

    int numWorkers() const { return config_.numWorkers; }
    Jvm &driver() { return *nodes_[0]; }
    Jvm &worker(int w) { return *nodes_[w + 1]; }
    ClusterNetwork &net() { return *net_; }

    /**
     * Worker @p w's serializer, created lazily on first use — so
     * factories that need the fully constructed cluster (the Skyway
     * factory resolves each worker's SkywayContext) can be bound
     * between cluster construction and the first shuffle.
     */
    Serializer &serializer(int w);

    /** The driver's data serializer (for collect() results). */
    Serializer &driverSerializer();

    /** The running cost breakdown of worker @p w. */
    PhaseBreakdown &breakdown(int w) { return breakdowns_[w]; }

    /** Average per-worker breakdown (the figures' unit). */
    PhaseBreakdown averageBreakdown() const;

    /** Sum of all workers' breakdowns. */
    PhaseBreakdown totalBreakdown() const;

    /** Charge measured compute time to worker @p w. */
    void
    chargeCompute(int w, std::uint64_t ns)
    {
        breakdowns_[w].computeNs += ns;
    }

    void resetBreakdowns();

    /** A job's result: the breakdowns since resetBreakdowns() plus
     *  the job's shuffle volume and checksum. */
    JobResult jobResult(std::uint64_t shuffled_records,
                        std::uint64_t shuffled_bytes,
                        double checksum) const;

    /** Which worker owns hash/key @p key. */
    int
    ownerOf(std::uint64_t key) const
    {
        return static_cast<int>(key % config_.numWorkers);
    }

  private:
    SparkConfig config_;
    SerializerFactory &factory_;
    std::unique_ptr<ClusterNetwork> net_;
    std::vector<std::unique_ptr<Jvm>> nodes_;
    std::vector<std::unique_ptr<Serializer>> serializers_;
    std::unique_ptr<Serializer> driverSerializer_;
    std::vector<PhaseBreakdown> breakdowns_;
};

/**
 * The Skyway serializer factory for minispark clusters: resolves each
 * worker's SkywayContext by heap identity. Call bind() right after
 * constructing the cluster (serializers are created lazily at the
 * first shuffle, which is always after bind()).
 */
class ClusterSkywayFactory : public SerializerFactory
{
  public:
    std::string name() const override { return "skyway"; }

    std::unique_ptr<Serializer> create(SdEnv env) override;

    void bind(SparkCluster &cluster);

  private:
    std::vector<std::pair<ManagedHeap *, SkywayContext *>> contexts_;
};

/**
 * One shuffle: workers add outgoing records (heap objects on the
 * source worker), writePhase() serializes and spills them, then each
 * destination fetches and deserializes its inbound partition.
 */
class ShuffleRound
{
  public:
    ShuffleRound(SparkCluster &cluster, std::string name);

    /** Queue @p record (on worker @p src's heap) for @p dst. */
    void add(int src, int dst, Address record);

    /** Serialize + spill every source worker's buckets. */
    void writePhase();

    /**
     * Fetch and deserialize worker @p dst's inbound records. The
     * returned batch keeps them alive (rooted, unless the serializer
     * delivers into pinned buffers) until the caller drops it.
     */
    std::unique_ptr<RecordBatch> read(int dst);

    std::uint64_t recordsAdded() const { return recordsAdded_; }
    std::uint64_t bytesWritten() const { return bytesWritten_; }

  protected:
    /** A shuffle whose worker w writes and reads through
     *  @p serializers[w] instead of the cluster's serializer; an
     *  empty vector means the cluster's. */
    ShuffleRound(SparkCluster &cluster, std::string name,
                 std::vector<std::unique_ptr<Serializer>> serializers);

  private:
    std::string fileName(int src, int dst) const;
    /** Worker @p w's serializer for this shuffle. */
    Serializer &serializer(int w);

    SparkCluster &cluster_;
    std::string name_;
    /** This shuffle's own per-worker serializers; empty when it uses
     *  the cluster's. */
    std::vector<std::unique_ptr<Serializer>> ownSerializers_;
    /** Outgoing records, bucketed by [src][dst], rooted per source. */
    std::vector<std::unique_ptr<LocalRoots>> srcRoots_;
    std::vector<std::vector<std::vector<std::size_t>>> buckets_;
    std::vector<std::vector<std::uint64_t>> counts_;
    bool written_ = false;
    std::uint64_t recordsAdded_ = 0;
    std::uint64_t bytesWritten_ = 0;
};

/**
 * Closure serialization (paper section 2.1): the driver ships the task
 * closure — an object graph capturing everything the lambda captures —
 * to every worker before the stage runs. As in the paper's Spark setup
 * (and ours), closures always travel through the *Java serializer*
 * regardless of the data serializer: closure traffic is orders of
 * magnitude smaller than data traffic.
 */
class ClosureBroadcast
{
  public:
    /** Serialize the closure graph at @p root (on the driver heap)
     *  and deliver a copy to every worker. */
    ClosureBroadcast(SparkCluster &cluster, Address root);

    /** The deserialized closure on worker @p w (rooted for the
     *  broadcast's lifetime). */
    Address onWorker(int w) const;

    std::uint64_t bytesPerWorker() const { return bytes_; }

  private:
    std::vector<std::unique_ptr<LocalRoots>> workerRoots_;
    std::uint64_t bytes_ = 0;
};

/**
 * The collect() action (paper section 2.1: "collect is invoked to
 * bring all Date objects to the driver"): every worker serializes its
 * result records with the configured *data* serializer and the driver
 * deserializes them into its own heap.
 */
class CollectAction
{
  public:
    explicit CollectAction(SparkCluster &cluster);

    /** Queue @p record (on worker @p src's heap) for the driver. */
    void add(int src, Address record);

    /** Run the transfers; returns the records on the driver heap. */
    std::unique_ptr<RecordBatch> collect();

    std::uint64_t bytesCollected() const { return bytes_; }

  private:
    SparkCluster &cluster_;
    std::vector<std::unique_ptr<LocalRoots>> srcRoots_;
    bool done_ = false;
    std::uint64_t bytes_ = 0;
};

} // namespace skyway

#endif // SKYWAY_MINISPARK_MINISPARK_HH
