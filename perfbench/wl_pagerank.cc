/**
 * @file
 * pagerank-compact: minispark PageRank over a seeded power-law graph,
 * driver + 3 workers on the model transport, every node's Skyway
 * context in WireCompactMode::Auto at the 1 GbE link cost. Each job
 * is one run to ranks checked against a reference computed here
 * without Skyway.
 */

#include <cmath>
#include <optional>

#include "minispark/apps.hh"
#include "workload.hh"

namespace perfbench
{

using namespace skyway;

namespace
{

constexpr int kWorkers = 3;
constexpr int kIterations = 5;

/** LiveJournal-shaped, at 1/5 of the repository's default scale. */
GraphSpec
graphSpec(std::uint64_t seed)
{
    GraphSpec g = liveJournalShaped(0.2);
    g.seed = seed;
    return g;
}

/** Sum of ranks after @p iterations, as runPageRank defines them. */
double
referenceChecksum(const EdgeList &g, int iterations)
{
    std::vector<std::uint32_t> degree(g.numVertices, 0);
    for (auto [u, v] : g.edges)
        ++degree[u];
    std::vector<double> rank(g.numVertices, 1.0);
    for (int it = 0; it < iterations; ++it) {
        std::vector<double> next(g.numVertices, 0.15);
        for (auto [u, v] : g.edges)
            next[v] += 0.85 * rank[u] / degree[u];
        rank.swap(next);
    }
    double sum = 0;
    for (double r : rank)
        sum += r;
    return sum;
}

ClassCatalog
sparkCatalog()
{
    ClassCatalog c = makeStandardCatalog();
    defineSparkAppClasses(c);
    return c;
}

class PageRankCompact : public Workload
{
  public:
    PageRankCompact(std::uint64_t seed, Tracer &t)
        : tracer_(t),
          catalog_(sparkCatalog()),
          graph_(generateGraph(graphSpec(seed))),
          reference_(referenceChecksum(graph_, kIterations))
    {}

    void
    setUp() override
    {
        state_.reset();
        state_.emplace(*this);
    }

    void
    runJob(JobContext &job) override
    {
        SparkCluster &c = *state_->cluster;
        log_.clear(kWorkers);
        SparkAppResult res = runPageRank(c, graph_, kIterations);
        job.computeNs += res.total.computeNs;
        job.wireBytes += res.shuffledBytes;
        job.records += res.shuffledRecords;

        std::uint64_t start = nowNs();
        double tol = 1e-9 * std::max(1.0, std::fabs(reference_));
        if (!(std::fabs(res.checksum - reference_) <= tol))
            job.fail("pagerank-compact: rank sum " +
                     std::to_string(res.checksum) + ", reference " +
                     std::to_string(reference_));
        std::uint64_t read = 0;
        for (std::uint64_t r : log_.recordsRead)
            read += r;
        if (read != res.shuffledRecords || log_.ingestsWithoutProgress)
            job.fail("pagerank-compact: " + std::to_string(read) +
                     " records read, " +
                     std::to_string(res.shuffledRecords) + " shuffled");
        pairStreams(job);
        job.checkNs += nowNs() - start;
    }

    std::vector<ManagedHeap *>
    heaps() override
    {
        SparkCluster &c = *state_->cluster;
        std::vector<ManagedHeap *> out{&c.driver().heap()};
        for (int w = 0; w < kWorkers; ++w)
            out.push_back(&c.worker(w).heap());
        return out;
    }

  private:
    /** One cluster with its decorators, in destruction order. */
    struct State
    {
        explicit State(PageRankCompact &wl)
            : timed(skyway, wl.tracer_, wl.log_,
                    [this](const ManagedHeap &h) { return workerOf(h); },
                    true)
        {
            SparkConfig cfg;
            cfg.numWorkers = kWorkers;
            cfg.workerHeap = benchHeapConfig();
            cfg.transport = TransportKind::Model;
            cluster.emplace(wl.catalog_, timed, cfg);
            skyway.bind(*cluster);
            std::vector<Jvm *> nodes{&cluster->driver()};
            for (int w = 0; w < kWorkers; ++w)
                nodes.push_back(&cluster->worker(w));
            for (Jvm *j : nodes) {
                j->skyway().setWireCompactMode(WireCompactMode::Auto);
                collectors.push_back(std::make_unique<TimedCollector>(
                    j->heap(), j->gc(), wl.tracer_));
            }
        }

        int
        workerOf(const ManagedHeap &h)
        {
            for (int w = 0; w < kWorkers; ++w) {
                if (&cluster->worker(w).heap() == &h)
                    return w;
            }
            return -1;
        }

        std::vector<std::unique_ptr<TimedCollector>> collectors;
        ClusterSkywayFactory skyway;
        TimedSerializerFactory timed;
        std::optional<SparkCluster> cluster;
    };

    /**
     * Join each shuffle partition's send and receive sides. minispark
     * writes source-major and reads destination-major, one stream per
     * (source, destination) pair and round, so round r's stream s->d
     * is the (r*n+d)-th send of worker s and the (r*n+s)-th receive
     * of worker d. The graph is large enough that no partition is
     * empty; a log of any other shape is a broken assumption.
     */
    void
    pairStreams(JobContext &job)
    {
        const std::size_t per = std::size_t{kIterations} * kWorkers;
        for (int w = 0; w < kWorkers; ++w) {
            if (log_.sendNs[w].size() != per ||
                log_.recvNs[w].size() != per) {
                job.fail("pagerank-compact: worker " +
                         std::to_string(w) + " logged " +
                         std::to_string(log_.sendNs[w].size()) +
                         " sends, " +
                         std::to_string(log_.recvNs[w].size()) +
                         " receives; expected " + std::to_string(per));
                return;
            }
        }
        for (int r = 0; r < kIterations; ++r) {
            for (int s = 0; s < kWorkers; ++s) {
                for (int d = 0; d < kWorkers; ++d) {
                    job.streamNs.push_back(
                        log_.sendNs[s][r * kWorkers + d] +
                        log_.recvNs[d][r * kWorkers + s]);
                }
            }
        }
    }

    Tracer &tracer_;
    ClassCatalog catalog_;
    EdgeList graph_;
    double reference_;
    ShuffleLog log_;
    std::optional<State> state_;
};

} // namespace

std::unique_ptr<Workload>
makePageRankCompact(std::uint64_t seed, Tracer &t)
{
    return std::make_unique<PageRankCompact>(seed, t);
}

} // namespace perfbench
