/**
 * @file
 * google-benchmark micro suite: per-record costs of the transports
 * and the runtime primitives they are built from. These are the
 * microscopic quantities whose ratios drive every macro figure —
 * reflective field access vs cached-offset access vs whole-object
 * memcpy, varint codecs, heap allocation, and the Skyway claim/copy
 * and receive paths at several graph sizes.
 */

#include <cstring>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "obs/json.hh"
#include "obs/metrics.hh"
#include "obs/span.hh"
#include "sd/javaserializer.hh"
#include "sd/kryoserializer.hh"
#include "skyway/jvm.hh"
#include "skyway/streams.hh"
#include "support/logging.hh"
#include "support/rng.hh"

using namespace skyway;

namespace
{

/** Two-node environment: a sends, b (heap sized by @p b_heap) receives. */
struct Env
{
    explicit Env(HeapConfig b_heap = HeapConfig{})
        : net(2), a(catalog(), net, 0, 0), b(catalog(), net, 1, 0, b_heap)
    {
        reg = std::make_shared<KryoRegistry>();
        kryoRegisterBuiltins(*reg);
        reg->registerClass("bench.Rec");
    }

    static ClassCatalog &
    catalog()
    {
        static ClassCatalog cat = [] {
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
        }();
        return cat;
    }

    /** One rooted bench.Rec. */
    std::size_t
    makeRec(LocalRoots &roots, int i)
    {
        Klass *k = a.klasses().load("bench.Rec");
        LocalRoots tmp(a.heap());
        std::size_t rs =
            tmp.push(a.builder().makeString("tag" + std::to_string(i)));
        Address rec = a.heap().allocateInstance(k);
        field::set<std::int64_t>(a.heap(), rec, k->requireField("id"),
                                 i);
        field::set<double>(a.heap(), rec, k->requireField("weight"),
                           i * 0.5);
        field::setRef(a.heap(), rec, k->requireField("tag"),
                      tmp.get(rs));
        return roots.push(rec);
    }

    /** Stream the rooted @p recs from a to b; returns b's buffer. */
    std::unique_ptr<InputBuffer>
    transfer(LocalRoots &roots, const std::vector<std::size_t> &recs)
    {
        a.skyway().shuffleStart();
        SkywayObjectInputStream in(b.skyway(), 64 << 10);
        SkywayObjectOutputStream out(
            a.skyway(), [&in](const std::uint8_t *d, std::size_t len) {
                in.feed(d, len);
            });
        for (std::size_t r : recs)
            out.writeObject(roots.get(r));
        out.flush();
        in.finish();
        return in.releaseBuffer();
    }

    ClusterNetwork net;
    Jvm a, b;
    std::shared_ptr<KryoRegistry> reg;
};

Env &
env()
{
    static Env e;
    return e;
}

void
BM_VarintEncode(benchmark::State &state)
{
    VectorSink sink;
    std::uint64_t v = 0;
    for (auto _ : state) {
        sink.clear();
        sink.writeVarU64(v);
        v = v * 2862933555777941757ull + 3037000493ull;
        benchmark::DoNotOptimize(sink.bytesWritten());
    }
}
BENCHMARK(BM_VarintEncode);

void
BM_HeapAllocateInstance(benchmark::State &state)
{
    Env &e = env();
    Klass *k = e.a.klasses().load("bench.Rec");
    for (auto _ : state)
        benchmark::DoNotOptimize(e.a.heap().allocateInstance(k));
}
BENCHMARK(BM_HeapAllocateInstance);

void
BM_ReflectiveFieldGet(benchmark::State &state)
{
    Env &e = env();
    LocalRoots roots(e.a.heap());
    std::size_t r = e.makeRec(roots, 1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(reflect::getField<std::int64_t>(
            e.a.heap(), roots.get(r), "id"));
    }
}
BENCHMARK(BM_ReflectiveFieldGet);

void
BM_CachedOffsetFieldGet(benchmark::State &state)
{
    Env &e = env();
    LocalRoots roots(e.a.heap());
    std::size_t r = e.makeRec(roots, 1);
    const FieldDesc &f =
        e.a.klasses().load("bench.Rec")->requireField("id");
    for (auto _ : state) {
        benchmark::DoNotOptimize(field::get<std::int64_t>(
            e.a.heap(), roots.get(r), f));
    }
}
BENCHMARK(BM_CachedOffsetFieldGet);

void
BM_IdentityHashCached(benchmark::State &state)
{
    Env &e = env();
    LocalRoots roots(e.a.heap());
    std::size_t r = e.makeRec(roots, 1);
    e.a.heap().identityHash(roots.get(r));
    for (auto _ : state)
        benchmark::DoNotOptimize(e.a.heap().identityHash(roots.get(r)));
}
BENCHMARK(BM_IdentityHashCached);

template <typename MakeSer, typename MakeDes>
void
runSdRoundTrip(benchmark::State &state, MakeSer make_ser,
               MakeDes make_des)
{
    Env &e = env();
    LocalRoots roots(e.a.heap());
    std::size_t r = e.makeRec(roots, 7);
    auto ser = make_ser();
    auto des = make_des();
    for (auto _ : state) {
        VectorSink sink;
        ser->writeObject(roots.get(r), sink);
        ser->endStream(sink);
        ser->reset();
        ByteSource src(sink.bytes());
        benchmark::DoNotOptimize(des->readObject(src));
        des->releaseReceived();
        state.counters["bytes"] =
            static_cast<double>(sink.bytesWritten());
    }
}

void
BM_RoundTripJava(benchmark::State &state)
{
    Env &e = env();
    runSdRoundTrip(
        state,
        [&] {
            return std::make_unique<JavaSerializer>(
                SdEnv{e.a.heap(), e.a.klasses()});
        },
        [&] {
            return std::make_unique<JavaSerializer>(
                SdEnv{e.b.heap(), e.b.klasses()});
        });
}
BENCHMARK(BM_RoundTripJava);

void
BM_RoundTripKryo(benchmark::State &state)
{
    Env &e = env();
    runSdRoundTrip(
        state,
        [&] {
            return std::make_unique<KryoSerializer>(
                SdEnv{e.a.heap(), e.a.klasses()}, *e.reg);
        },
        [&] {
            return std::make_unique<KryoSerializer>(
                SdEnv{e.b.heap(), e.b.klasses()}, *e.reg);
        });
}
BENCHMARK(BM_RoundTripKryo);

void
BM_RoundTripSkyway(benchmark::State &state)
{
    Env &e = env();
    runSdRoundTrip(
        state,
        [&] {
            return std::make_unique<SkywaySerializer>(e.a.skyway());
        },
        [&] {
            return std::make_unique<SkywaySerializer>(e.b.skyway(),
                                                      64 << 10,
                                                      4 << 10);
        });
}
BENCHMARK(BM_RoundTripSkyway);

void
BM_SkywayTransferBatch(benchmark::State &state)
{
    Env &e = env();
    const int n = static_cast<int>(state.range(0));
    LocalRoots roots(e.a.heap());
    std::vector<std::size_t> recs;
    for (int i = 0; i < n; ++i)
        recs.push_back(e.makeRec(roots, i));

    for (auto _ : state) {
        auto buf = e.transfer(roots, recs);
        benchmark::DoNotOptimize(buf->roots().size());
        buf->free();
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_SkywayTransferBatch)->Arg(10)->Arg(100)->Arg(1000);

/**
 * One full collection of an 8 MiB old generation filled with received
 * 1000-record bench.Rec buffers, of which arg percent (0 or 50) stay
 * pinned and the rest are freed. Each iteration refills the old
 * generation from empty with the clock paused.
 */
void
BM_FullGc(benchmark::State &state)
{
    static Env e([] {
        HeapConfig cfg;
        cfg.oldBytes = 8 << 20;
        return cfg;
    }());
    ManagedHeap &heap = e.b.heap();
    LocalRoots roots(e.a.heap());
    std::vector<std::size_t> recs;
    for (int i = 0; i < 1000; ++i)
        recs.push_back(e.makeRec(roots, i));

    const bool keepHalf = state.range(0) == 50;
    std::vector<std::unique_ptr<InputBuffer>> kept;
    std::uint64_t sweptBytes = 0;
    for (auto _ : state) {
        state.PauseTiming();
        kept.clear();
        e.b.gc().fullGc();
        // Stop while one more buffer surely fits, so the fill itself
        // never triggers a collection. A buffer not kept is freed as
        // it goes out of scope.
        const std::size_t cap = heap.config().oldBytes;
        std::size_t last = 0;
        for (int n = 0; heap.usedOldBytes() + 2 * last <= cap; ++n) {
            std::size_t before = heap.usedOldBytes();
            auto buf = e.transfer(roots, recs);
            last = heap.usedOldBytes() - before;
            if (keepHalf && n % 2 == 0)
                kept.push_back(std::move(buf));
        }
        state.ResumeTiming();
        e.b.gc().fullGc();
        sweptBytes += e.b.gc().lastCycle().oldSweptBytes;
    }
    kept.clear();
    state.counters["swept_mb"] = benchmark::Counter(
        static_cast<double>(sweptBytes) / (1 << 20),
        benchmark::Counter::kAvgIterations);
}
// Each iteration refills 8 MiB untimed (~15 ms); a fixed count keeps
// that refill from dominating the run as the collection gets faster.
BENCHMARK(BM_FullGc)->Arg(0)->Arg(50)->Iterations(20);

/**
 * Auto-mode sends on both sides of the per-segment raw/compact
 * choice, into a sink that only counts: arg 0 streams 1000 bench.Rec
 * graphs, which the policy compacts; arg 1 streams 8 random
 * long[4096] arrays once measured feedback has demoted the class, so
 * every segment ships raw.
 */
void
BM_SkywayCompactSend(benchmark::State &state)
{
    Env &e = env();
    SkywayContext &ctx = e.a.skyway();
    WireCompactMode saved = ctx.wireCompactMode();
    ctx.setWireCompactMode(WireCompactMode::Auto);
    const bool arrays = state.range(0) == 1;
    LocalRoots roots(e.a.heap());
    std::vector<std::size_t> objs;
    Rng rng(17);
    for (int i = 0; i < (arrays ? 8 : 1000); ++i) {
        if (!arrays) {
            objs.push_back(e.makeRec(roots, i));
            continue;
        }
        std::vector<std::int64_t> data(4096);
        for (auto &v : data)
            v = static_cast<std::int64_t>(rng.nextU64());
        objs.push_back(roots.push(e.a.builder().makeLongArray(data)));
    }

    std::uint64_t wire = 0;
    auto send = [&] {
        ctx.shuffleStart();
        SkywayObjectOutputStream out(
            ctx, [&wire](const std::uint8_t *, std::size_t len) {
                wire += len;
            });
        for (std::size_t o : objs)
            out.writeObject(roots.get(o));
        out.flush();
    };
    // Demotion acts once 32 compact records of the class are measured.
    for (int i = 0; i < 5; ++i)
        send();
    Klass *longs = e.a.klasses().load("[J");
    if (arrays && ctx.wireEncodings().decision(longs->tid()) != 0)
        state.SkipWithError("long[4096] was not demoted");

    wire = 0;
    for (auto _ : state) {
        send();
        benchmark::DoNotOptimize(wire);
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(objs.size()));
    state.counters["wire_bytes"] = benchmark::Counter(
        static_cast<double>(wire), benchmark::Counter::kAvgIterations);
    ctx.setWireCompactMode(saved);
}
BENCHMARK(BM_SkywayCompactSend)->Arg(0)->Arg(1);

/**
 * ConsoleReporter that additionally captures one JSON row per
 * completed run, in the same schema the table benches emit through
 * bench::JsonReport (docs/OBSERVABILITY.md). Registered-metric deltas
 * are taken per benchmark family — the finest granularity the
 * reporter callback offers.
 */
class JsonRowReporter : public benchmark::ConsoleReporter
{
  public:
    bool
    ReportContext(const Context &context) override
    {
        last_ = obs::MetricsRegistry::global().snapshot();
        return ConsoleReporter::ReportContext(context);
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        ConsoleReporter::ReportRuns(runs);
        obs::MetricsSnapshot now =
            obs::MetricsRegistry::global().snapshot();
        obs::MetricsSnapshot delta = now.deltaSince(last_);
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Iteration ||
                run.error_occurred)
                continue;
            obs::JsonWriter w;
            w.beginObject();
            w.key("bench").value("bench_micro");
            w.key("scale").value(1.0);
            w.key("label").value(run.benchmark_name());
            w.key("wall_ms").value(run.real_accumulated_time * 1e3);
            w.key("values");
            w.beginObject();
            w.key("ns_per_iter").value(run.GetAdjustedRealTime());
            w.key("iterations").value(
                static_cast<std::int64_t>(run.iterations));
            for (const auto &[name, counter] : run.counters)
                w.key(name).value(counter.value);
            w.endObject();
            w.key("metrics");
            w.beginObject();
            for (const auto &[k, v] : delta.scalars)
                w.key(k).value(v);
            w.endObject();
            w.endObject();
            rows.push_back(std::move(w).str());
        }
        last_ = std::move(now);
    }

    std::vector<std::string> rows;

  private:
    obs::MetricsSnapshot last_;
};

void
writeJsonDoc(const std::string &path,
             const std::vector<std::string> &rows)
{
    obs::JsonWriter w;
    w.beginObject();
    w.key("schema_version").value(std::uint64_t{1});
    w.key("bench").value("bench_micro");
    w.key("scale").value(1.0);
    w.key("rows");
    w.beginArray();
    for (const std::string &r : rows)
        w.raw(r);
    w.endArray();
    w.key("registry").raw(obs::MetricsRegistry::global().toJson());
    w.key("tracer").raw(obs::SpanTracer::global().toJson());
    w.endObject();
    std::string doc = std::move(w).str();

    std::string err;
    if (!obs::jsonValidate(doc, err))
        fatal("bench_micro: emitted invalid JSON: " + err);

    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        fatal("bench_micro: cannot open " + path);
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    std::printf("\n[json] wrote %zu rows to %s\n", rows.size(),
                path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    // Strip the flags the table benches share (--json=, --scale=)
    // before google-benchmark sees argv; it rejects unknown flags.
    std::string json_path;
    std::vector<char *> args;
    args.push_back(argv[0]);
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--json=", 7) == 0)
            json_path = argv[i] + 7;
        else if (std::strncmp(argv[i], "--scale=", 8) == 0)
            ; // accepted for CLI uniformity; micro benches don't scale
        else
            args.push_back(argv[i]);
    }
    if (json_path.empty())
        if (const char *env = std::getenv("SKYWAY_BENCH_JSON"))
            json_path = env;
    if (!json_path.empty())
        obs::SpanTracer::setTracingEnabled(true);

    int bargc = static_cast<int>(args.size());
    benchmark::Initialize(&bargc, args.data());
    if (json_path.empty()) {
        // No custom reporter: --benchmark_format etc. keep working.
        benchmark::RunSpecifiedBenchmarks();
    } else {
        JsonRowReporter reporter;
        benchmark::RunSpecifiedBenchmarks(&reporter);
        writeJsonDoc(json_path, reporter.rows);
    }
    benchmark::Shutdown();
    return 0;
}
