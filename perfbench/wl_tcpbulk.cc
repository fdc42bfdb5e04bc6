/**
 * @file
 * tcp-bulk: two nodes over TcpTransport. Streams alternate direction
 * on the one pooled connection; each carries a few seeded double[]
 * feature vectors of tens of KiB, kept inside the 1 MiB credit window
 * so one thread can write a whole stream and then drain it. Raw wire
 * format, every element checked. Threads: main plus the two nodes'
 * event loops.
 */

#include <cstring>
#include <optional>

#include "support/rng.hh"
#include "workload.hh"

namespace perfbench
{

using namespace skyway;

namespace
{

constexpr int kTag = 302;
constexpr std::size_t kSpecs = 32;
constexpr std::size_t kStreamsPerJob = 32;

/** One stream's generated arrays. */
struct StreamSpec
{
    std::vector<std::vector<double>> arrays;
};

/**
 * 4-8 vectors per stream of 4-12 Ki doubles (32-96 KiB), at most
 * 768 KiB. Counts and lengths come from a fixed grid with seeded
 * jitter, dealt to streams in seeded order, so the bytes per job stay
 * alike across seeds while each stream differs.
 */
std::vector<StreamSpec>
makeSpecs(Rng &rng)
{
    std::vector<std::size_t> counts;
    for (std::size_t i = 0; i < kSpecs; ++i)
        counts.push_back(4 + i % 5);
    std::vector<std::size_t> lengths;
    std::size_t total = 0;
    for (std::size_t c : counts)
        total += c;
    for (std::size_t i = 0; i < total; ++i)
        lengths.push_back(4096 + (i * 8192) / total +
                          rng.nextBounded(8192 / total + 1));
    auto shuffle = [&rng](auto &v) {
        for (std::size_t i = v.size(); i > 1; --i)
            std::swap(v[i - 1], v[rng.nextBounded(i)]);
    };
    shuffle(counts);
    shuffle(lengths);

    std::vector<StreamSpec> specs(kSpecs);
    std::size_t next = 0;
    for (std::size_t s = 0; s < kSpecs; ++s) {
        for (std::size_t i = 0; i < counts[s]; ++i) {
            std::vector<double> v(lengths[next++]);
            for (double &x : v)
                x = rng.nextDouble() * 2.0 - 1.0;
            specs[s].arrays.push_back(std::move(v));
        }
    }
    return specs;
}

class TcpBulk : public Workload
{
  public:
    TcpBulk(std::uint64_t seed, Tracer &t)
        : tracer_(t), catalog_(makeStandardCatalog())
    {
        Rng rng(seed);
        specs_ = makeSpecs(rng);
    }

    void
    setUp() override
    {
        nodes_.reset();
        nodes_.emplace(catalog_, tracer_);
        for (Jvm *j : {&nodes_->a, &nodes_->b}) {
            j->skyway().setWireCompactMode(WireCompactMode::Off);
            j->skyway().shuffleStart();
        }
    }

    void
    runJob(JobContext &job) override
    {
        Nodes &n = *nodes_;
        for (std::size_t i = 0; i < kStreamsPerJob; ++i) {
            const StreamSpec &spec = specs_[next_ % kSpecs];
            bool forward = (next_++ % 2) == 0;
            Jvm &src = forward ? n.a : n.b;
            Jvm &dst = forward ? n.b : n.a;
            LocalRoots roots(src.heap());
            {
                Span s(job.tracer, Site::HeapBuild);
                build(spec, src, roots);
            }
            auto buf = transferStream(n.net, src, dst, kTag, roots, job);
            std::uint64_t start = nowNs();
            check(spec, dst, *buf, job);
            job.checkNs += nowNs() - start;
            freeBuffer(std::move(buf), job);
        }
    }

    std::vector<ManagedHeap *>
    heaps() override
    {
        return {&nodes_->a.heap(), &nodes_->b.heap()};
    }

  private:
    struct Nodes
    {
        Nodes(const ClassCatalog &cat, Tracer &t)
            : net(2, gigabitEthernet(), TransportKind::Tcp),
              a(cat, net, 0, 0),
              b(cat, net, 1, 0),
              gcA(a.heap(), a.gc(), t),
              gcB(b.heap(), b.gc(), t)
        {
        }

        ClusterNetwork net;
        Jvm a, b;
        TimedCollector gcA, gcB;
    };

    static void
    build(const StreamSpec &spec, Jvm &src, LocalRoots &roots)
    {
        ManagedHeap &h = src.heap();
        Klass *k = src.klasses().load("[D");
        for (const auto &v : spec.arrays) {
            Address arr = h.allocateArray(k, v.size());
            std::memcpy(reinterpret_cast<void *>(
                            arr + h.arrayElemOffset(k, 0)),
                        v.data(), v.size() * sizeof(double));
            roots.push(arr);
        }
    }

    static void
    check(const StreamSpec &spec, Jvm &dst, InputBuffer &buf,
          JobContext &job)
    {
        ManagedHeap &h = dst.heap();
        Klass *k = dst.klasses().load("[D");
        const std::vector<Address> &got = buf.roots();
        bool ok = got.size() == spec.arrays.size();
        for (std::size_t i = 0; ok && i < got.size(); ++i) {
            std::size_t len = spec.arrays[i].size();
            ok = h.klassOf(got[i]) == k &&
                 h.arrayLength(got[i]) ==
                     static_cast<std::int64_t>(len) &&
                 std::memcmp(reinterpret_cast<const void *>(
                                 got[i] + h.arrayElemOffset(k, 0)),
                             spec.arrays[i].data(),
                             len * sizeof(double)) == 0;
        }
        if (!ok)
            job.fail("tcp-bulk: received arrays differ from the sent "
                     "ones");
    }

    Tracer &tracer_;
    ClassCatalog catalog_;
    std::vector<StreamSpec> specs_;
    std::size_t next_ = 0;
    std::optional<Nodes> nodes_;
};

} // namespace

std::unique_ptr<Workload>
makeTcpBulk(std::uint64_t seed, Tracer &t)
{
    return std::make_unique<TcpBulk>(seed, t);
}

} // namespace perfbench
