#include "minispark/apps.hh"

#include <algorithm>
#include <unordered_map>

namespace skyway
{

void
defineSparkAppClasses(ClassCatalog &catalog)
{
    catalog.define(ClassDef{
        "spark.WordPair",
        "",
        {
            {"word", FieldType::Ref, "java.lang.String"},
            {"count", FieldType::Long, ""},
        },
    });
    catalog.define(ClassDef{
        "spark.Contrib",
        "",
        {
            {"dst", FieldType::Int, ""},
            {"rank", FieldType::Double, ""},
        },
    });
    catalog.define(ClassDef{
        "spark.Label",
        "",
        {
            {"dst", FieldType::Int, ""},
            {"label", FieldType::Int, ""},
        },
    });
    catalog.define(ClassDef{
        "spark.Edge",
        "",
        {
            {"src", FieldType::Int, ""},
            {"dst", FieldType::Int, ""},
        },
    });
    catalog.define(ClassDef{
        "spark.Wedge",
        "",
        {
            {"a", FieldType::Int, ""},
            {"b", FieldType::Int, ""},
        },
    });
}

namespace
{

/** Manual Kryo functions for a two-int record class. */
KryoManual
twoIntManual(const char *klass_name, const char *f1, const char *f2)
{
    KryoManual m;
    std::string kn(klass_name), a(f1), b(f2);
    m.write = [a, b](KryoSerializer &kryo, Address obj, ByteSink &out) {
        ManagedHeap &h = kryo.env().heap;
        const Klass *k = h.klassOf(obj);
        out.writeVarI32(
            field::get<std::int32_t>(h, obj, k->requireField(a)));
        out.writeVarI32(
            field::get<std::int32_t>(h, obj, k->requireField(b)));
    };
    m.read = [kn, a, b](KryoSerializer &kryo,
                        ByteSource &in) -> Address {
        Klass *k = kryo.env().klasses.load(kn);
        Address obj = kryo.env().heap.allocateInstance(k);
        std::size_t h = kryo.adoptObject(obj);
        std::int32_t va = in.readVarI32();
        std::int32_t vb = in.readVarI32();
        field::set<std::int32_t>(kryo.env().heap, kryo.objectAt(h),
                                 k->requireField(a), va);
        field::set<std::int32_t>(kryo.env().heap, kryo.objectAt(h),
                                 k->requireField(b), vb);
        return kryo.objectAt(h);
    };
    return m;
}

} // namespace

void
registerSparkAppKryo(KryoRegistry &registry)
{
    kryoRegisterBuiltins(registry);

    // spark.WordPair: manual function including the nested string.
    KryoManual wp;
    wp.write = [](KryoSerializer &kryo, Address obj, ByteSink &out) {
        ManagedHeap &h = kryo.env().heap;
        ObjectBuilder builder(h, kryo.env().klasses);
        const Klass *k = h.klassOf(obj);
        Address word =
            field::getRef(h, obj, k->requireField("word"));
        out.writeString(builder.stringValue(word));
        out.writeVarI64(field::get<std::int64_t>(
            h, obj, k->requireField("count")));
    };
    wp.read = [](KryoSerializer &kryo, ByteSource &in) -> Address {
        ObjectBuilder builder(kryo.env().heap, kryo.env().klasses);
        std::string w = in.readString();
        std::int64_t c = in.readVarI64();
        Klass *k = kryo.env().klasses.load("spark.WordPair");
        LocalRoots r(kryo.env().heap);
        std::size_t rw = r.push(builder.makeString(w));
        Address obj = kryo.env().heap.allocateInstance(k);
        std::size_t h = kryo.adoptObject(obj);
        field::setRef(kryo.env().heap, kryo.objectAt(h),
                      k->requireField("word"), r.get(rw));
        field::set<std::int64_t>(kryo.env().heap, kryo.objectAt(h),
                                 k->requireField("count"), c);
        return kryo.objectAt(h);
    };
    registry.registerClass("spark.WordPair", std::move(wp));

    // spark.Contrib: int + double.
    KryoManual contrib;
    contrib.write = [](KryoSerializer &kryo, Address obj,
                       ByteSink &out) {
        ManagedHeap &h = kryo.env().heap;
        const Klass *k = h.klassOf(obj);
        out.writeVarI32(
            field::get<std::int32_t>(h, obj, k->requireField("dst")));
        out.writeF64(
            field::get<double>(h, obj, k->requireField("rank")));
    };
    contrib.read = [](KryoSerializer &kryo,
                      ByteSource &in) -> Address {
        Klass *k = kryo.env().klasses.load("spark.Contrib");
        Address obj = kryo.env().heap.allocateInstance(k);
        std::size_t h = kryo.adoptObject(obj);
        std::int32_t d = in.readVarI32();
        double r = in.readF64();
        field::set<std::int32_t>(kryo.env().heap, kryo.objectAt(h),
                                 k->requireField("dst"), d);
        field::set<double>(kryo.env().heap, kryo.objectAt(h),
                           k->requireField("rank"), r);
        return kryo.objectAt(h);
    };
    registry.registerClass("spark.Contrib", std::move(contrib));

    registry.registerClass("spark.Label",
                           twoIntManual("spark.Label", "dst", "label"));
    registry.registerClass("spark.Edge",
                           twoIntManual("spark.Edge", "src", "dst"));
    registry.registerClass("spark.Wedge",
                           twoIntManual("spark.Wedge", "a", "b"));
}

namespace
{

/** Build a primitive-only two-field record. */
template <typename T1, typename T2>
Address
makeRecord2(Jvm &jvm, Klass *k, const FieldDesc &f1, T1 v1,
            const FieldDesc &f2, T2 v2)
{
    Address obj = jvm.heap().allocateInstance(k);
    field::set<T1>(jvm.heap(), obj, f1, v1);
    field::set<T2>(jvm.heap(), obj, f2, v2);
    return obj;
}

} // namespace

SparkAppResult
runWordCount(SparkCluster &cluster, const std::vector<std::string> &lines)
{
    cluster.resetBreakdowns();
    int n = cluster.numWorkers();

    // Input split: line i to worker i % n (HDFS-block style).
    std::vector<std::vector<const std::string *>> split(n);
    for (std::size_t i = 0; i < lines.size(); ++i)
        split[i % n].push_back(&lines[i]);

    ShuffleRound shuffle(cluster, "wc");
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        Klass *pairK = jvm.klasses().load("spark.WordPair");
        const FieldDesc &fWord = pairK->requireField("word");
        const FieldDesc &fCount = pairK->requireField("count");
        Stopwatch sw;
        // Map + local combine.
        std::unordered_map<std::string, std::int64_t> combined;
        for (const std::string *line : split[w]) {
            for (auto &word : tokenize(*line))
                ++combined[word];
        }
        // Materialize records and bucket them by word hash.
        for (auto &[word, count] : combined) {
            LocalRoots r(jvm.heap());
            std::size_t rs = r.push(jvm.builder().makeString(word));
            Address rec = jvm.heap().allocateInstance(pairK);
            field::setRef(jvm.heap(), rec, fWord, r.get(rs));
            field::set<std::int64_t>(jvm.heap(), rec, fCount, count);
            int dst = cluster.ownerOf(std::hash<std::string>{}(word));
            shuffle.add(w, dst, rec);
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    shuffle.writePhase();

    // Reduce: merge counts per word.
    double checksum = 0;
    std::uint64_t distinct = 0;
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        auto recs = shuffle.read(w);
        Stopwatch sw;
        Klass *pairK = jvm.klasses().load("spark.WordPair");
        const FieldDesc &fWord = pairK->requireField("word");
        const FieldDesc &fCount = pairK->requireField("count");
        std::unordered_map<std::string, std::int64_t> counts;
        for (std::size_t i = 0; i < recs->size(); ++i) {
            Address rec = recs->get(i);
            Address word = field::getRef(jvm.heap(), rec, fWord);
            counts[jvm.builder().stringValue(word)] +=
                field::get<std::int64_t>(jvm.heap(), rec, fCount);
        }
        distinct += counts.size();
        for (auto &[word, count] : counts)
            checksum += static_cast<double>(count) *
                        (1.0 + word.size());
        cluster.chargeCompute(w, sw.elapsedNs());
    }

    return {cluster.jobResult(shuffle.recordsAdded(),
                              shuffle.bytesWritten(),
                              checksum + static_cast<double>(distinct)),
            1};
}

SparkAppResult
runPageRank(SparkCluster &cluster, const EdgeList &graph, int iterations)
{
    cluster.resetBreakdowns();
    int n = cluster.numWorkers();

    // Vertex v lives on worker v % n; adjacency = outgoing edges.
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        outEdges(n);
    std::vector<std::uint32_t> degree(graph.numVertices, 0);
    for (auto [u, v] : graph.edges)
        ++degree[u];
    for (auto [u, v] : graph.edges)
        outEdges[u % n].emplace_back(u, v);

    // Ranks, per owner worker, indexed by vertex id.
    std::vector<double> rank(graph.numVertices, 1.0);

    std::uint64_t records = 0, bytes = 0;
    for (int iter = 0; iter < iterations; ++iter) {
        ShuffleRound shuffle(cluster,
                             "pr_it" + std::to_string(iter));
        for (int w = 0; w < n; ++w) {
            Jvm &jvm = cluster.worker(w);
            Klass *contribK = jvm.klasses().load("spark.Contrib");
            const FieldDesc &fDst = contribK->requireField("dst");
            const FieldDesc &fRank = contribK->requireField("rank");
            Stopwatch sw;
            // Map-side combine: one contribution per target vertex.
            std::unordered_map<std::uint32_t, double> contribs;
            for (auto [u, v] : outEdges[w])
                contribs[v] += rank[u] / degree[u];
            for (auto &[dst, sum] : contribs) {
                Address rec = makeRecord2<std::int32_t, double>(
                    jvm, contribK, fDst,
                    static_cast<std::int32_t>(dst), fRank, sum);
                shuffle.add(w, static_cast<int>(dst % n), rec);
            }
            cluster.chargeCompute(w, sw.elapsedNs());
        }
        shuffle.writePhase();

        std::vector<double> next(graph.numVertices, 0.15);
        for (int w = 0; w < n; ++w) {
            Jvm &jvm = cluster.worker(w);
            auto recs = shuffle.read(w);
            Stopwatch sw;
            Klass *contribK = jvm.klasses().load("spark.Contrib");
            const FieldDesc &fDst = contribK->requireField("dst");
            const FieldDesc &fRank = contribK->requireField("rank");
            for (std::size_t i = 0; i < recs->size(); ++i) {
                Address rec = recs->get(i);
                auto dst = static_cast<std::uint32_t>(
                    field::get<std::int32_t>(jvm.heap(), rec, fDst));
                next[dst] +=
                    0.85 *
                    field::get<double>(jvm.heap(), rec, fRank);
            }
            cluster.chargeCompute(w, sw.elapsedNs());
        }
        rank.swap(next);
        records += shuffle.recordsAdded();
        bytes += shuffle.bytesWritten();
    }

    double checksum = 0;
    for (double r : rank)
        checksum += r;
    return {cluster.jobResult(records, bytes, checksum), iterations};
}

SparkAppResult
runConnectedComponents(SparkCluster &cluster, const EdgeList &graph,
                       int max_iterations)
{
    cluster.resetBreakdowns();
    int n = cluster.numWorkers();

    // Undirected adjacency partitioned by source owner.
    std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>>
        adj(n);
    for (auto [u, v] : graph.edges) {
        adj[u % n].emplace_back(u, v);
        adj[v % n].emplace_back(v, u);
    }

    std::vector<std::uint32_t> label(graph.numVertices);
    for (std::uint32_t v = 0; v < graph.numVertices; ++v)
        label[v] = v;

    std::uint64_t records = 0, bytes = 0;
    int iter = 0;
    bool changed = true;
    while (changed && iter < max_iterations) {
        changed = false;
        ShuffleRound shuffle(cluster, "cc_it" + std::to_string(iter));
        for (int w = 0; w < n; ++w) {
            Jvm &jvm = cluster.worker(w);
            Klass *labelK = jvm.klasses().load("spark.Label");
            const FieldDesc &fDst = labelK->requireField("dst");
            const FieldDesc &fLabel = labelK->requireField("label");
            Stopwatch sw;
            std::unordered_map<std::uint32_t, std::uint32_t> best;
            for (auto [u, v] : adj[w]) {
                auto it = best.find(v);
                if (it == best.end() || label[u] < it->second)
                    best[v] = label[u];
            }
            for (auto &[dst, lbl] : best) {
                if (lbl >= label[dst])
                    continue; // no improvement: do not shuffle
                Address rec =
                    makeRecord2<std::int32_t, std::int32_t>(
                        jvm, labelK, fDst,
                        static_cast<std::int32_t>(dst), fLabel,
                        static_cast<std::int32_t>(lbl));
                shuffle.add(w, static_cast<int>(dst % n), rec);
            }
            cluster.chargeCompute(w, sw.elapsedNs());
        }
        shuffle.writePhase();

        for (int w = 0; w < n; ++w) {
            Jvm &jvm = cluster.worker(w);
            auto recs = shuffle.read(w);
            Stopwatch sw;
            Klass *labelK = jvm.klasses().load("spark.Label");
            const FieldDesc &fDst = labelK->requireField("dst");
            const FieldDesc &fLabel = labelK->requireField("label");
            for (std::size_t i = 0; i < recs->size(); ++i) {
                Address rec = recs->get(i);
                auto dst = static_cast<std::uint32_t>(
                    field::get<std::int32_t>(jvm.heap(), rec, fDst));
                auto lbl = static_cast<std::uint32_t>(
                    field::get<std::int32_t>(jvm.heap(), rec,
                                             fLabel));
                if (lbl < label[dst]) {
                    label[dst] = lbl;
                    changed = true;
                }
            }
            cluster.chargeCompute(w, sw.elapsedNs());
        }
        records += shuffle.recordsAdded();
        bytes += shuffle.bytesWritten();
        ++iter;
    }

    // Checksum: component count plus label sum.
    std::vector<std::uint32_t> reps(label);
    std::sort(reps.begin(), reps.end());
    reps.erase(std::unique(reps.begin(), reps.end()), reps.end());
    double checksum = static_cast<double>(reps.size());
    for (std::uint32_t l : label)
        checksum += static_cast<double>(l) * 1e-6;
    return {cluster.jobResult(records, bytes, checksum), iter};
}

SparkAppResult
runTriangleCount(SparkCluster &cluster, const EdgeList &graph)
{
    cluster.resetBreakdowns();
    int n = cluster.numWorkers();

    // Degree ordering: orient each edge from the endpoint with the
    // smaller (degree, id) to the larger; bounds wedge counts on
    // power-law graphs.
    std::vector<std::uint32_t> degree(graph.numVertices, 0);
    for (auto [u, v] : graph.edges) {
        ++degree[u];
        ++degree[v];
    }
    auto less = [&](std::uint32_t a, std::uint32_t b) {
        return degree[a] != degree[b] ? degree[a] < degree[b] : a < b;
    };

    // Round 1: redistribute edges to the owner of the ordered source
    // (edges start round-robin, as if read from block storage).
    ShuffleRound round1(cluster, "tc_edges");
    {
        std::vector<Klass *> edgeK(n);
        std::vector<const FieldDesc *> fSrc(n), fDst(n);
        for (int w = 0; w < n; ++w) {
            edgeK[w] = cluster.worker(w).klasses().load("spark.Edge");
            fSrc[w] = &edgeK[w]->requireField("src");
            fDst[w] = &edgeK[w]->requireField("dst");
        }
        Stopwatch sw;
        for (std::size_t i = 0; i < graph.edges.size(); ++i) {
            int w = static_cast<int>(i % n);
            auto [a, b] = graph.edges[i];
            std::uint32_t u = less(a, b) ? a : b;
            std::uint32_t v = less(a, b) ? b : a;
            Address rec = makeRecord2<std::int32_t, std::int32_t>(
                cluster.worker(w), edgeK[w], *fSrc[w],
                static_cast<std::int32_t>(u), *fDst[w],
                static_cast<std::int32_t>(v));
            round1.add(w, static_cast<int>(u % n), rec);
        }
        // The edge scan interleaves all workers' map tasks: split the
        // measured time evenly.
        std::uint64_t per_worker = sw.elapsedNs() / n;
        for (int w = 0; w < n; ++w)
            cluster.chargeCompute(w, per_worker);
    }
    round1.writePhase();

    // Build per-owner ordered adjacency from received edges.
    std::vector<std::vector<std::uint32_t>> outAdj(graph.numVertices);
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        auto recs = round1.read(w);
        Stopwatch sw;
        Klass *edgeK = jvm.klasses().load("spark.Edge");
        const FieldDesc &fSrc = edgeK->requireField("src");
        const FieldDesc &fDst = edgeK->requireField("dst");
        for (std::size_t i = 0; i < recs->size(); ++i) {
            Address rec = recs->get(i);
            auto u = static_cast<std::uint32_t>(
                field::get<std::int32_t>(jvm.heap(), rec, fSrc));
            auto v = static_cast<std::uint32_t>(
                field::get<std::int32_t>(jvm.heap(), rec, fDst));
            outAdj[u].push_back(v);
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    for (auto &list : outAdj) {
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
    }

    // Round 2: wedge queries (v, w) sent to v's owner.
    ShuffleRound round2(cluster, "tc_wedges");
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        Klass *wedgeK = jvm.klasses().load("spark.Wedge");
        const FieldDesc &fA = wedgeK->requireField("a");
        const FieldDesc &fB = wedgeK->requireField("b");
        Stopwatch sw;
        for (std::uint32_t u = w; u < graph.numVertices;
             u += static_cast<std::uint32_t>(n)) {
            const auto &nb = outAdj[u];
            for (std::size_t i = 0; i < nb.size(); ++i) {
                for (std::size_t j = i + 1; j < nb.size(); ++j) {
                    // The closing edge, if it exists, is oriented by
                    // the same degree order as every other edge: the
                    // query (x, y) must follow it.
                    std::uint32_t x = less(nb[i], nb[j]) ? nb[i]
                                                         : nb[j];
                    std::uint32_t y = less(nb[i], nb[j]) ? nb[j]
                                                         : nb[i];
                    Address rec =
                        makeRecord2<std::int32_t, std::int32_t>(
                            jvm, wedgeK, fA,
                            static_cast<std::int32_t>(x), fB,
                            static_cast<std::int32_t>(y));
                    round2.add(w, static_cast<int>(x % n), rec);
                }
            }
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    round2.writePhase();

    std::uint64_t triangles = 0;
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        auto recs = round2.read(w);
        Stopwatch sw;
        Klass *wedgeK = jvm.klasses().load("spark.Wedge");
        const FieldDesc &fA = wedgeK->requireField("a");
        const FieldDesc &fB = wedgeK->requireField("b");
        for (std::size_t i = 0; i < recs->size(); ++i) {
            Address rec = recs->get(i);
            auto a = static_cast<std::uint32_t>(
                field::get<std::int32_t>(jvm.heap(), rec, fA));
            auto b = static_cast<std::uint32_t>(
                field::get<std::int32_t>(jvm.heap(), rec, fB));
            const auto &nb = outAdj[a];
            if (std::binary_search(nb.begin(), nb.end(), b))
                ++triangles;
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }

    return {cluster.jobResult(
                round1.recordsAdded() + round2.recordsAdded(),
                round1.bytesWritten() + round2.bytesWritten(),
                static_cast<double>(triangles)),
            2};
}

} // namespace skyway
