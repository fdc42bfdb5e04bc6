/**
 * @file
 * Integration tests for minispark: every workload must produce
 * *identical* results under the Java serializer, Kryo, and Skyway,
 * and those results must match independent single-threaded reference
 * implementations. Also checks the accounting invariants the benches
 * rely on (nonzero ser/deser/IO components, byte counters).
 */

#include <gtest/gtest.h>

#include <map>
#include <numeric>
#include <unordered_set>

#include "minispark/apps.hh"
#include "sd/javaserializer.hh"

namespace skyway
{
namespace
{

ClassCatalog
sparkCatalog()
{
    ClassCatalog cat = makeStandardCatalog();
    defineSparkAppClasses(cat);
    return cat;
}

/** Run @p app under the named serializer. */
template <typename App>
SparkAppResult
runWith(const std::string &which, App &&app)
{
    ClassCatalog cat = sparkCatalog();
    SparkConfig cfg;
    cfg.numWorkers = 3;

    std::shared_ptr<KryoRegistry> reg;
    std::unique_ptr<SerializerFactory> factory;
    auto skyFactory = std::make_unique<ClusterSkywayFactory>();
    if (which == "java") {
        factory = std::make_unique<JavaSerializerFactory>();
    } else if (which == "kryo") {
        reg = std::make_shared<KryoRegistry>();
        registerSparkAppKryo(*reg);
        factory = std::make_unique<KryoSerializerFactory>(reg);
    }
    SerializerFactory &fac =
        factory ? *factory
                : static_cast<SerializerFactory &>(*skyFactory);
    SparkCluster cluster(cat, fac, cfg);
    if (!factory) {
        skyFactory->bind(cluster);
        // "skyway" in this suite means the paper's raw format: the
        // accounting assertions (byte inflation vs kryo) are format
        // properties, so keep the suite invariant under the
        // SKYWAY_WIRE_COMPACT env knob (test_wirecompact owns the
        // compact path).
        cluster.driver().skyway().setWireCompactMode(
            WireCompactMode::Off);
        for (int w = 0; w < cluster.numWorkers(); ++w)
            cluster.worker(w).skyway().setWireCompactMode(
                WireCompactMode::Off);
    }
    return app(cluster);
}

const std::vector<std::string> allSerializers = {"java", "kryo",
                                                 "skyway"};

/** Per node heap: the records of each send stream and each ingest. */
struct StreamLog
{
    std::map<const ManagedHeap *, std::vector<std::uint64_t>> sent;
    std::map<const ManagedHeap *, std::vector<std::uint64_t>> ingested;
};

/**
 * Counts records per stream around another serializer. A send stream
 * runs from its first writeObject to its endStream; an ingest starts
 * at a readObject that finds its source at position 0.
 */
class RecordingSerializer : public Serializer
{
  public:
    RecordingSerializer(std::unique_ptr<Serializer> inner,
                        StreamLog &log, const ManagedHeap &heap)
        : inner_(std::move(inner)),
          sent_(log.sent[&heap]),
          ingested_(log.ingested[&heap])
    {}

    std::string name() const override { return inner_->name(); }

    void
    writeObject(Address root, ByteSink &out) override
    {
        if (!streamOpen_)
            sent_.push_back(0);
        streamOpen_ = true;
        ++sent_.back();
        inner_->writeObject(root, out);
    }

    void
    endStream(ByteSink &out) override
    {
        inner_->endStream(out);
        streamOpen_ = false;
    }

    Address
    readObject(ByteSource &in) override
    {
        bool ingest = in.position() == 0;
        if (ingest)
            ingested_.push_back(0);
        Address obj = inner_->readObject(in);
        EXPECT_FALSE(ingest && in.position() == 0)
            << "an ingest left its source unread";
        if (ingested_.empty())
            ADD_FAILURE() << "first read not at position 0";
        else
            ++ingested_.back();
        return obj;
    }

    void reset() override { inner_->reset(); }
    void startPhase() override { inner_->startPhase(); }
    void releaseReceived() override { inner_->releaseReceived(); }

    bool
    receivedObjectsArePinned() const override
    {
        return inner_->receivedObjectsArePinned();
    }

  private:
    std::unique_ptr<Serializer> inner_;
    std::vector<std::uint64_t> &sent_;
    std::vector<std::uint64_t> &ingested_;
    bool streamOpen_ = false;
};

class RecordingFactory : public SerializerFactory
{
  public:
    RecordingFactory(SerializerFactory &inner, StreamLog &log)
        : inner_(inner), log_(log)
    {}

    std::string name() const override { return inner_.name(); }

    std::unique_ptr<Serializer>
    create(SdEnv env) override
    {
        return std::make_unique<RecordingSerializer>(inner_.create(env),
                                                     log_, env.heap);
    }

  private:
    SerializerFactory &inner_;
    StreamLog &log_;
};

TEST(SparkWordCount, SameResultUnderAllSerializers)
{
    TextSpec spec;
    spec.lines = 400;
    spec.wordsPerLine = 8;
    spec.vocabulary = 300;
    auto lines = generateText(spec);

    // Reference word count.
    std::unordered_map<std::string, std::int64_t> ref;
    for (const auto &line : lines)
        for (auto &w : tokenize(line))
            ++ref[w];
    double refChecksum = static_cast<double>(ref.size());
    for (auto &[w, c] : ref)
        refChecksum += static_cast<double>(c) * (1.0 + w.size());

    for (const auto &ser : allSerializers) {
        SparkAppResult res =
            runWith(ser, [&](SparkCluster &cluster) {
                return runWordCount(cluster, lines);
            });
        EXPECT_DOUBLE_EQ(res.checksum, refChecksum) << ser;
        // Map-side combining is per worker: the shuffle carries one
        // record per (worker, word), bounded by workers * distinct.
        EXPECT_GE(res.shuffledRecords, ref.size()) << ser;
        EXPECT_LE(res.shuffledRecords, 3 * ref.size()) << ser;
        EXPECT_GT(res.total.serNs + res.total.deserNs, 0u) << ser;
        EXPECT_GT(res.total.writeIoNs, 0u) << ser;
        EXPECT_GT(res.total.readIoNs, 0u) << ser;
        EXPECT_GT(res.total.bytesLocal + res.total.bytesRemote, 0u)
            << ser;
    }
}

TEST(SparkPageRank, MatchesReferenceAndAgrees)
{
    GraphSpec spec{"t", 300, 1500, 2.0, 21, ""};
    EdgeList g = generateGraph(spec);
    const int iters = 4;

    // Reference PageRank.
    std::vector<std::uint32_t> deg(g.numVertices, 0);
    for (auto [u, v] : g.edges)
        ++deg[u];
    std::vector<double> rank(g.numVertices, 1.0);
    for (int it = 0; it < iters; ++it) {
        std::vector<double> next(g.numVertices, 0.15);
        for (auto [u, v] : g.edges)
            next[v] += 0.85 * rank[u] / deg[u];
        rank.swap(next);
    }
    double refChecksum = std::accumulate(rank.begin(), rank.end(), 0.0);

    std::vector<double> checksums;
    for (const auto &ser : allSerializers) {
        SparkAppResult res =
            runWith(ser, [&](SparkCluster &cluster) {
                return runPageRank(cluster, g, iters);
            });
        EXPECT_NEAR(res.checksum, refChecksum, 1e-6) << ser;
        EXPECT_EQ(res.iterations, iters);
        checksums.push_back(res.checksum);
    }
    EXPECT_DOUBLE_EQ(checksums[0], checksums[1]);
    EXPECT_DOUBLE_EQ(checksums[0], checksums[2]);
}

TEST(SparkConnectedComponents, MatchesUnionFind)
{
    GraphSpec spec{"t", 400, 900, 2.0, 33, ""};
    EdgeList g = generateGraph(spec);

    // Reference: union-find component count.
    std::vector<std::uint32_t> parent(g.numVertices);
    std::iota(parent.begin(), parent.end(), 0);
    std::function<std::uint32_t(std::uint32_t)> find =
        [&](std::uint32_t x) {
            while (parent[x] != x) {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            return x;
        };
    for (auto [u, v] : g.edges)
        parent[find(u)] = find(v);
    std::unordered_set<std::uint32_t> comps;
    for (std::uint32_t v = 0; v < g.numVertices; ++v)
        comps.insert(find(v));

    std::vector<double> checksums;
    for (const auto &ser : allSerializers) {
        SparkAppResult res =
            runWith(ser, [&](SparkCluster &cluster) {
                return runConnectedComponents(cluster, g);
            });
        // Checksum's integer part is the component count.
        EXPECT_EQ(static_cast<std::uint64_t>(res.checksum),
                  comps.size())
            << ser;
        checksums.push_back(res.checksum);
    }
    EXPECT_DOUBLE_EQ(checksums[0], checksums[1]);
    EXPECT_DOUBLE_EQ(checksums[0], checksums[2]);
}

TEST(SparkTriangleCount, MatchesBruteForce)
{
    GraphSpec spec{"t", 120, 600, 1.8, 55, ""};
    EdgeList g = generateGraph(spec);

    // Reference: brute-force triangle count over the deduplicated
    // undirected adjacency.
    auto adj = buildAdjacency(g);
    std::uint64_t ref = 0;
    for (std::uint32_t u = 0; u < g.numVertices; ++u) {
        for (std::uint32_t v : adj[u]) {
            if (v <= u)
                continue;
            for (std::uint32_t w : adj[v]) {
                if (w <= v)
                    continue;
                if (std::binary_search(adj[u].begin(), adj[u].end(),
                                       w))
                    ++ref;
            }
        }
    }

    for (const auto &ser : allSerializers) {
        SparkAppResult res =
            runWith(ser, [&](SparkCluster &cluster) {
                return runTriangleCount(cluster, g);
            });
        EXPECT_EQ(static_cast<std::uint64_t>(res.checksum), ref)
            << ser;
        EXPECT_GT(res.shuffledRecords, g.edges.size()) << ser;
    }
}

TEST(SparkAccounting, SkywayShipsMoreBytesButLessSerDeTime)
{
    // The paper's core tradeoff on a real workload: Skyway moves more
    // bytes than Kryo yet spends far less combined S/D time.
#ifdef SKYWAY_SANITIZER_BUILD
    GTEST_SKIP() << "real-time assertion; sanitizer overhead distorts "
                    "the skyway/kryo S+D ratio";
#endif
    // Same reasoning for the runtime validators: SkywaySan instruments
    // only the Skyway transfer path, so its overhead inverts the ratio.
    if (std::getenv("SKYWAY_WIRE_CHECK") ||
        std::getenv("SKYWAY_GRAPH_CHECK"))
        GTEST_SKIP() << "real-time assertion; SkywaySan validator "
                        "overhead distorts the skyway/kryo S+D ratio";
    GraphSpec spec{"t", 400, 4000, 2.0, 77, ""};
    EdgeList g = generateGraph(spec);
    const int iters = 3;

    SparkAppResult kryo = runWith("kryo", [&](SparkCluster &c) {
        return runPageRank(c, g, iters);
    });
    SparkAppResult sky = runWith("skyway", [&](SparkCluster &c) {
        return runPageRank(c, g, iters);
    });
    EXPECT_GT(sky.shuffledBytes, kryo.shuffledBytes);
    EXPECT_LT(sky.total.serNs + sky.total.deserNs,
              kryo.total.serNs + kryo.total.deserNs);
}

TEST(SparkShuffle, SendStreamsPairWithIngestsInOrder)
{
    // perfbench's pagerank-compact pairs a partition's send and
    // receive timings by order: sources write their partitions in
    // destination order and destinations read them in source order,
    // one stream and one fresh source each, so round r's partition
    // s->d is worker s's (r*n+d)-th stream and worker d's (r*n+s)-th
    // ingest.
    ClassCatalog cat = sparkCatalog();
    SparkConfig cfg;
    cfg.numWorkers = 3;
    StreamLog log;
    ClusterSkywayFactory skyway;
    RecordingFactory recording(skyway, log);
    SparkCluster cluster(cat, recording, cfg);
    skyway.bind(cluster);
    const int n = cfg.numWorkers;
    const int rounds = 3;
    // Dense enough that no partition of any round is empty.
    EdgeList g = generateGraph(GraphSpec{"t", 300, 1500, 2.0, 21, ""});
    runPageRank(cluster, g, rounds);

    using Counts = std::vector<std::uint64_t>;
    auto sent = [&](int w) -> const Counts & {
        return log.sent[&cluster.worker(w).heap()];
    };
    auto ingested = [&](int w) -> const Counts & {
        return log.ingested[&cluster.worker(w).heap()];
    };
    const std::size_t per = static_cast<std::size_t>(rounds * n);
    for (int w = 0; w < n; ++w) {
        ASSERT_EQ(sent(w).size(), per) << "worker " << w;
        ASSERT_EQ(ingested(w).size(), per) << "worker " << w;
    }
    for (int r = 0; r < rounds; ++r) {
        for (int s = 0; s < n; ++s) {
            for (int d = 0; d < n; ++d) {
                EXPECT_EQ(sent(s)[r * n + d], ingested(d)[r * n + s])
                    << "round " << r << ", " << s << "->" << d;
            }
        }
    }
}

TEST(SparkAccounting, BreakdownComponentsAllPopulated)
{
    TextSpec spec;
    spec.lines = 200;
    auto lines = generateText(spec);
    SparkAppResult res = runWith("kryo", [&](SparkCluster &cluster) {
        return runWordCount(cluster, lines);
    });
    EXPECT_GT(res.average.computeNs, 0u);
    EXPECT_GT(res.average.serNs, 0u);
    EXPECT_GT(res.average.writeIoNs, 0u);
    EXPECT_GT(res.average.deserNs, 0u);
    EXPECT_GT(res.average.readIoNs, 0u);
    EXPECT_EQ(res.average.totalNs(),
              res.average.computeNs + res.average.serNs +
                  res.average.writeIoNs + res.average.deserNs +
                  res.average.readIoNs);
}

TEST(SparkShuffle, LocalVsRemoteBytesSplit)
{
    // With 3 workers, 1/3 of partitions are local fetches.
    TextSpec spec;
    spec.lines = 300;
    auto lines = generateText(spec);
    SparkAppResult res = runWith("kryo", [&](SparkCluster &cluster) {
        return runWordCount(cluster, lines);
    });
    EXPECT_GT(res.total.bytesLocal, 0u);
    EXPECT_GT(res.total.bytesRemote, res.total.bytesLocal)
        << "2 of 3 source partitions are remote";
}

} // namespace
} // namespace skyway
