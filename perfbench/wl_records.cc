/**
 * @file
 * record-batches: two nodes on the model transport. Each stream sends
 * about a thousand fresh roots `bench.Rec{long id, double weight,
 * String tag}`; a seeded share of them re-reference a tag String
 * already sent earlier in the same stream. Raw wire format, received
 * in place (pollTagInto -> reserveChunk/commitChunk -> finalize).
 */

#include <optional>

#include "support/rng.hh"
#include "workload.hh"

namespace perfbench
{

using namespace skyway;

namespace
{

constexpr int kTag = 301;
constexpr std::size_t kSpecs = 32;
constexpr std::size_t kStreamsPerJob = 32;
constexpr std::size_t kRootsPerStream = 1000;

/** One stream's generated input. */
struct StreamSpec
{
    std::vector<std::int64_t> ids;
    std::vector<double> weights;
    /** Index of the record whose tag object record i shares; i when
     *  record i carries a new tag. */
    std::vector<std::size_t> tagOf;
    /** The text of each new tag (empty where tagOf[i] != i). */
    std::vector<std::string> tags;
};

/** One stream of kRootsPerStream records; @p share of them
 *  re-reference an earlier tag. */
StreamSpec
makeSpec(Rng &rng, double share)
{
    StreamSpec s;
    for (std::size_t i = 0; i < kRootsPerStream; ++i) {
        s.ids.push_back(static_cast<std::int64_t>(rng.nextU64()));
        s.weights.push_back(rng.nextDouble() * 1e6);
        if (i > 0 && rng.nextDouble() < share) {
            std::size_t j = rng.nextBounded(i);
            s.tagOf.push_back(s.tagOf[j]);
            s.tags.emplace_back();
            continue;
        }
        std::size_t len = 8 + rng.nextBounded(17);
        std::string tag(len, ' ');
        for (char &c : tag)
            c = static_cast<char>('a' + rng.nextBounded(26));
        s.tagOf.push_back(i);
        s.tags.push_back(std::move(tag));
    }
    return s;
}

ClassCatalog
recordCatalog()
{
    ClassCatalog c = makeStandardCatalog();
    c.define(ClassDef{
        "bench.Rec",
        "",
        {
            {"id", FieldType::Long, ""},
            {"weight", FieldType::Double, ""},
            {"tag", FieldType::Ref, "java.lang.String"},
        },
    });
    return c;
}

class RecordBatches : public Workload
{
  public:
    RecordBatches(std::uint64_t seed, Tracer &t)
        : tracer_(t), catalog_(recordCatalog())
    {
        // 10-40% of a stream's records re-reference an earlier tag:
        // one share per stream from an evenly spaced grid with seeded
        // jitter, so the work per job stays alike across seeds.
        Rng rng(seed);
        for (std::size_t i = 0; i < kSpecs; ++i) {
            double u = (static_cast<double>(i) + rng.nextDouble()) / kSpecs;
            specs_.push_back(makeSpec(rng, 0.1 + 0.3 * u));
        }
    }

    void
    setUp() override
    {
        nodes_.reset();
        nodes_.emplace(catalog_, tracer_);
        // The wire format is part of the workload: pin it rather than
        // inheriting SKYWAY_WIRE_COMPACT.
        nodes_->a.skyway().setWireCompactMode(WireCompactMode::Off);
        nodes_->b.skyway().setWireCompactMode(WireCompactMode::Off);
    }

    void
    runJob(JobContext &job) override
    {
        Nodes &n = *nodes_;
        n.a.skyway().shuffleStart();
        for (std::size_t i = 0; i < kStreamsPerJob; ++i) {
            const StreamSpec &spec = specs_[(next_++) % kSpecs];
            LocalRoots roots(n.a.heap());
            {
                Span s(job.tracer, Site::HeapBuild);
                build(spec, roots);
            }
            auto buf = transferStream(n.net, n.a, n.b, kTag, roots, job);
            std::uint64_t start = nowNs();
            check(spec, *buf, job);
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
    /** The two nodes, their fabric, and their timed collectors. */
    struct Nodes
    {
        Nodes(const ClassCatalog &cat, Tracer &t)
            : net(2),
              a(cat, net, 0, 0, benchHeapConfig()),
              b(cat, net, 1, 0, benchHeapConfig()),
              gcA(a.heap(), a.gc(), t),
              gcB(b.heap(), b.gc(), t)
        {
        }

        ClusterNetwork net;
        Jvm a, b;
        TimedCollector gcA, gcB;
    };

    /** Allocate @p spec's records on the sender; note identity hashes. */
    void
    build(const StreamSpec &spec, LocalRoots &roots)
    {
        Jvm &a = nodes_->a;
        ManagedHeap &h = a.heap();
        Klass *k = a.klasses().load("bench.Rec");
        const FieldDesc &fId = k->requireField("id");
        const FieldDesc &fWeight = k->requireField("weight");
        const FieldDesc &fTag = k->requireField("tag");
        hashes_.clear();
        for (std::size_t i = 0; i < spec.ids.size(); ++i) {
            LocalRoots tag(h);
            if (spec.tagOf[i] == i)
                tag.push(a.builder().makeString(spec.tags[i]));
            else
                tag.push(field::getRef(h, roots.get(spec.tagOf[i]),
                                       fTag));
            Address rec = h.allocateInstance(k);
            field::set<std::int64_t>(h, rec, fId, spec.ids[i]);
            field::set<double>(h, rec, fWeight, spec.weights[i]);
            field::setRef(h, rec, fTag, tag.get(0));
            hashes_.push_back(h.identityHash(rec));
            roots.push(rec);
        }
    }

    /** Every field, the shared tags, and the identity hashes. */
    void
    check(const StreamSpec &spec, InputBuffer &buf, JobContext &job)
    {
        Jvm &b = nodes_->b;
        ManagedHeap &h = b.heap();
        Klass *k = b.klasses().load("bench.Rec");
        const FieldDesc &fId = k->requireField("id");
        const FieldDesc &fWeight = k->requireField("weight");
        const FieldDesc &fTag = k->requireField("tag");
        const std::vector<Address> &got = buf.roots();
        if (got.size() != spec.ids.size()) {
            job.fail("record-batches: " + std::to_string(got.size()) +
                     " roots received, " +
                     std::to_string(spec.ids.size()) + " sent");
            return;
        }
        for (std::size_t i = 0; i < got.size(); ++i) {
            Address r = got[i];
            bool ok = h.klassOf(r) == k &&
                      field::get<std::int64_t>(h, r, fId) ==
                          spec.ids[i] &&
                      field::get<double>(h, r, fWeight) ==
                          spec.weights[i] &&
                      h.identityHash(r) == hashes_[i];
            Address tag = field::getRef(h, r, fTag);
            if (ok && spec.tagOf[i] != i)
                ok = tag == field::getRef(h, got[spec.tagOf[i]], fTag);
            else if (ok)
                ok = b.builder().stringValue(tag) == spec.tags[i];
            if (!ok) {
                job.fail("record-batches: record " + std::to_string(i) +
                         " differs from what was sent");
                return;
            }
        }
    }

    Tracer &tracer_;
    ClassCatalog catalog_;
    std::vector<StreamSpec> specs_;
    std::vector<std::int32_t> hashes_;
    std::size_t next_ = 0;
    std::optional<Nodes> nodes_;
};

} // namespace

std::unique_ptr<Workload>
makeRecordBatches(std::uint64_t seed, Tracer &t)
{
    return std::make_unique<RecordBatches>(seed, t);
}

} // namespace perfbench
