/**
 * @file
 * miniflink: a batch tuple-dataflow substrate reproducing the part of
 * Flink the paper's section 5.3 evaluates. Rows are managed-heap
 * objects of fixed per-table classes; every shuffle channel carries
 * one row class whose serializer Flink selects *statically from the
 * schema* (per-field built-in serializers, no class tags on the
 * wire). Deserialization is *lazy*: only the fields the downstream
 * transformation declared as needed are materialized, the rest are
 * skipped — which is why Flink's deserialization time is far smaller
 * than its serialization time (8.7% vs 23.5% in the paper), the
 * asymmetry Table 4 shows Skyway removing.
 *
 * The cluster, its disk and fabric model and the shuffle exchange are
 * minispark's: miniflink adds the row serializers and the choice of
 * engine.
 */

#ifndef SKYWAY_MINIFLINK_MINIFLINK_HH
#define SKYWAY_MINIFLINK_MINIFLINK_HH

#include <memory>
#include <string>
#include <vector>

#include "minispark/minispark.hh"

namespace skyway
{

/** Which data-transfer engine the cluster uses. */
enum class FlinkSerMode
{
    Builtin,
    Skyway,
};

using FlinkConfig = SparkConfig;

namespace detail
{
/** Built before FlinkCluster's SparkCluster base, which keeps a
 *  reference to the factory. */
struct FlinkSkywayFactory
{
    ClusterSkywayFactory skywayFactory;
};
} // namespace detail

/**
 * A minispark cluster running Flink jobs. Its serializers are the
 * workers' Skyway serializers, which FlinkShuffles use under
 * FlinkSerMode::Skyway.
 */
class FlinkCluster : private detail::FlinkSkywayFactory,
                     public SparkCluster
{
  public:
    FlinkCluster(const ClassCatalog &catalog, FlinkSerMode mode,
                 FlinkConfig config = FlinkConfig{});

    FlinkSerMode mode() const { return mode_; }

  private:
    FlinkSerMode mode_;
};

/**
 * The statically chosen per-row-class serializer: fixed-width
 * primitives, length-prefixed strings, fields in layout order. The
 * lazy reader materializes only @c needed fields and skips the rest
 * in the byte stream.
 */
class FlinkRowSerializer : public Serializer
{
  public:
    /**
     * @param env       the node's heap and klass table
     * @param row_class the channel's row class
     * @param needed    names of fields the downstream transformation
     *                  reads; empty means "all fields"
     */
    FlinkRowSerializer(SdEnv env, const std::string &row_class,
                       const std::vector<std::string> &needed);

    std::string name() const override { return "flink-row"; }
    void writeObject(Address row, ByteSink &out) override;
    Address readObject(ByteSource &in) override;

  private:
    SdEnv env_;
    Klass *klass_;
    std::vector<bool> neededMask_;
    /** True when some needed field is a reference: reading it
     *  allocates (string materialization), so the row must be rooted
     *  across the read. Pure-primitive reads skip the root churn. */
    bool materializesRefs_ = false;
    /** Reusable intermediate serialization buffer (Flink's
     *  DataOutputSerializer equivalent). */
    VectorSink tmp_;
    /** Index of the last needed field: the lazy reader stops parsing
     *  there and jumps to the record end via the length frame. */
    std::size_t lastNeeded_ = 0;
};

/**
 * One all-to-all exchange of rows of a single class: a ShuffleRound
 * whose workers use the channel's row serializers (Builtin) or the
 * cluster's Skyway serializers (Skyway).
 */
class FlinkShuffle : public ShuffleRound
{
  public:
    /**
     * @param needed fields the consumer reads (lazy-deser set);
     *               ignored under Skyway, which moves whole objects
     */
    FlinkShuffle(FlinkCluster &cluster, std::string name,
                 const std::string &row_class,
                 const std::vector<std::string> &needed);
};

} // namespace skyway

#endif // SKYWAY_MINIFLINK_MINIFLINK_HH
