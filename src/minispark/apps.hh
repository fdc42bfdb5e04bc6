/**
 * @file
 * The four Spark workloads of the paper's section 5.2: WordCount
 * (one shuffle round), PageRank and ConnectedComponents (iterative,
 * one shuffle per iteration), and TriangleCounting (an edge
 * redistribution shuffle followed by a wedge-query shuffle). Each app
 * returns the per-worker cost breakdown plus an app-level checksum so
 * tests can assert that every serializer computes identical results.
 */

#ifndef SKYWAY_MINISPARK_APPS_HH
#define SKYWAY_MINISPARK_APPS_HH

#include "minispark/minispark.hh"
#include "sd/kryoserializer.hh"
#include "workloads/graphgen.hh"
#include "workloads/text.hh"

namespace skyway
{

/** Register the spark.* record classes with the catalog. */
void defineSparkAppClasses(ClassCatalog &catalog);

/**
 * The Kryo registrator for the Spark apps (the paper's
 * MyRegistrator): registers every shuffled record class, with manual
 * S/D functions for the hot ones.
 */
void registerSparkAppKryo(KryoRegistry &registry);

struct SparkAppResult : JobResult
{
    int iterations = 0;
};

/** WordCount over a generated corpus. */
SparkAppResult runWordCount(SparkCluster &cluster,
                            const std::vector<std::string> &lines);

/** PageRank (rank = 0.15 + 0.85 * sum, ranks start at 1.0). */
SparkAppResult runPageRank(SparkCluster &cluster, const EdgeList &graph,
                           int iterations);

/** ConnectedComponents by min-label propagation. */
SparkAppResult runConnectedComponents(SparkCluster &cluster,
                                      const EdgeList &graph,
                                      int max_iterations = 50);

/** TriangleCounting with degree-ordered wedge generation. */
SparkAppResult runTriangleCount(SparkCluster &cluster,
                                const EdgeList &graph);

} // namespace skyway

#endif // SKYWAY_MINISPARK_APPS_HH
