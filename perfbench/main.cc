/**
 * @file
 * The benchmark program (see README.md):
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *
 * builds the workload's inputs from the seed, sets the cluster up
 * several times (set-up time is a median), then runs jobs in a
 * closed loop for S seconds. With --trace 0 every job is untraced
 * and the end-to-end metrics are reported, timings from the quietest
 * blocks of the run (kBlockStreams); with --trace 1 every
 * other job runs with the benchmark's layer spans on and the
 * per-layer metrics are reported. The last line of standard output
 * is one JSON object with the result.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "workload.hh"

using namespace perfbench;

namespace
{

constexpr int kSetupGroups = 6;
constexpr int kSetups = 10;
constexpr std::uint64_t kMinJobs = 8;

/**
 * The timed loop's untraced jobs are cut into blocks of consecutive
 * jobs holding at least kBlockStreams streams each, and the end-to-end
 * timings pool the kQuietBlocks blocks with the lowest median job
 * time. Other tenants of a shared host slow every thread by 1.3-2x in
 * phases of seconds to minutes, so a whole-run median measures how
 * much of the run such a phase covered. A block of consecutive jobs
 * keeps the run's share of collections and other rare events, and
 * three blocks hold enough streams for a p99 with 30 beyond it.
 */
constexpr std::size_t kBlockStreams = 1000;
constexpr std::size_t kQuietBlocks = 3;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "pagerank-compact|record-batches|tcp-bulk --seed N "
                 "--seconds S --trace 0|1\n",
                 why);
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string key = argv[i];
        std::string val;
        if (auto eq = key.find('='); eq != std::string::npos) {
            val = key.substr(eq + 1);
            key.resize(eq);
        } else if (i + 1 < argc) {
            val = argv[++i];
        } else {
            usage(("missing value for " + key).c_str());
        }
        char *end = nullptr;
        if (key == "--workload") {
            o.workload = val;
        } else if (key == "--seed") {
            o.seed = std::strtoull(val.c_str(), &end, 10);
        } else if (key == "--seconds") {
            o.seconds = std::strtod(val.c_str(), &end);
        } else if (key == "--trace") {
            o.trace = val == "1";
            if (val != "0" && val != "1")
                usage("--trace takes 0 or 1");
        } else {
            usage(("unknown argument " + key).c_str());
        }
        if (end && *end)
            usage(("bad number for " + key).c_str());
    }
    if (o.seconds <= 0)
        usage("--seconds must be positive");
    return o;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

/**
 * The highest of p99/p90/p50 with at least ten samples beyond it
 * (nearest rank); the largest sample when there are fewer than 20.
 */
double
tail(std::vector<double> v, double *pct)
{
    std::sort(v.begin(), v.end());
    std::size_t n = v.size();
    for (double p : {0.99, 0.90, 0.50}) {
        if (static_cast<double>(n) * (1 - p) >= 10) {
            *pct = p * 100;
            auto rank = static_cast<std::size_t>(
                std::ceil(p * static_cast<double>(n)));
            return v[rank - 1];
        }
    }
    *pct = 100;
    return n ? v.back() : 0;
}

struct HeapTotals
{
    std::uint64_t scavenges = 0, fullGcs = 0, promoted = 0,
                  allocated = 0;
};

HeapTotals
heapTotals(const std::vector<skyway::ManagedHeap *> &heaps)
{
    HeapTotals t;
    for (auto *h : heaps) {
        t.scavenges += h->stats().scavenges;
        t.fullGcs += h->stats().fullGcs;
        t.promoted += h->stats().bytesPromoted;
        t.allocated += h->stats().bytesAllocated;
    }
    return t;
}

/** Counter deltas over the timed jobs, by metric name. */
class CounterDelta
{
  public:
    void
    start()
    {
        base_ = skyway::obs::MetricsRegistry::global().snapshot();
    }

    void
    stop()
    {
        auto d = skyway::obs::MetricsRegistry::global()
                     .snapshot()
                     .deltaSince(base_);
        for (const auto &[k, v] : d.scalars)
            delta_[k] = static_cast<double>(v);
    }

    double
    operator[](const std::string &name) const
    {
        auto it = delta_.find(name);
        return it == delta_.end() ? 0 : it->second;
    }

  private:
    skyway::obs::MetricsSnapshot base_;
    std::map<std::string, double> delta_;
};

/** Untraced-job timings in blocks of consecutive jobs (kBlockStreams). */
class Blocks
{
  public:
    struct Block
    {
        std::vector<double> jobS, streamMs;

        bool full() const { return streamMs.size() >= kBlockStreams; }
    };

    void
    add(double job_s, const std::vector<std::uint64_t> &stream_ns)
    {
        if (blocks_.empty() || blocks_.back().full())
            blocks_.emplace_back();
        Block &b = blocks_.back();
        b.jobS.push_back(job_s);
        for (std::uint64_t ns : stream_ns)
            b.streamMs.push_back(static_cast<double>(ns) / 1e6);
    }

    std::size_t size() const { return blocks_.size(); }

    /**
     * The kQuietBlocks full blocks with the lowest median job time,
     * pooled; a run too short to fill one block is one block.
     */
    Block
    quietest() const
    {
        std::vector<std::pair<double, const Block *>> ranked;
        for (const Block &b : blocks_) {
            if (b.full())
                ranked.emplace_back(median(b.jobS), &b);
        }
        if (ranked.empty() && !blocks_.empty())
            ranked.emplace_back(0, &blocks_.back());
        std::sort(ranked.begin(), ranked.end());
        ranked.resize(std::min(ranked.size(), kQuietBlocks));
        Block pooled;
        for (const auto &[s, b] : ranked) {
            pooled.jobS.insert(pooled.jobS.end(), b->jobS.begin(),
                               b->jobS.end());
            pooled.streamMs.insert(pooled.streamMs.end(),
                                   b->streamMs.begin(), b->streamMs.end());
        }
        return pooled;
    }

  private:
    std::vector<Block> blocks_;
};

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0;
}

/** Metrics in report order, printed as lines and as the JSON result. */
class Report
{
  public:
    void
    add(const std::string &name, double value, const char *unit)
    {
        rows_.push_back({name, value, unit});
    }

    void
    print(std::uint64_t attempted, std::uint64_t failed) const
    {
        for (const Row &r : rows_)
            std::printf("# %-36s %.6g %s\n", r.name.c_str(), r.value,
                        r.unit);
        std::string json = "{\"correct\": ";
        json += failed == 0 ? "true" : "false";
        json += ", \"attempted\": " + std::to_string(attempted);
        json += ", \"failed\": " + std::to_string(failed);
        json += ", \"metrics\": {";
        char buf[64];
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            std::snprintf(buf, sizeof buf, "%.17g", rows_[i].value);
            json += (i ? ", \"" : "\"") + rows_[i].name +
                    "\": {\"value\": " + buf + ", \"unit\": \"" +
                    rows_[i].unit + "\"}";
        }
        json += "}}";
        std::printf("%s\n", json.c_str());
    }

  private:
    struct Row
    {
        std::string name;
        double value;
        const char *unit;
    };
    std::vector<Row> rows_;
};

} // namespace

int
main(int argc, char **argv)
{
    Options opt = parse(argc, argv);
    // The system's own span tracer stays off (SKYWAY_TRACE would turn
    // it on): timed runs are untraced, and the traced run times layers
    // from outside only.
    skyway::obs::SpanTracer::setTracingEnabled(false);
    Tracer tracer;
    std::unique_ptr<Workload> wl;
    if (opt.workload == "pagerank-compact")
        wl = makePageRankCompact(opt.seed, tracer);
    else if (opt.workload == "record-batches")
        wl = makeRecordBatches(opt.seed, tracer);
    else if (opt.workload == "tcp-bulk")
        wl = makeTcpBulk(opt.seed, tracer);
    else
        usage(("unknown workload '" + opt.workload + "'").c_str());

    skyway::obs::Counter &lookups =
        skyway::obs::MetricsRegistry::global().counter("net.requests");
    std::uint64_t attempted = 0, failed = 0;

    // Set-up: cluster, heaps, registry, connections, and one untimed
    // warm-up job that fills the type-id and encoding caches. Set-ups
    // run in groups of consecutive ones, and setup_s is the lowest
    // group median, for the reason the timings use the quietest blocks.
    double setupS = 0, setupLookups = 0;
    for (int g = 0; g < kSetupGroups; ++g) {
        std::vector<double> group;
        for (int k = 0; k < kSetups; ++k) {
            std::uint64_t l0 = lookups.value();
            std::uint64_t t0 = nowNs();
            wl->setUp();
            JobContext warm(tracer);
            wl->runJob(warm);
            group.push_back(
                static_cast<double>(nowNs() - t0 - warm.checkNs) / 1e9);
            setupLookups += static_cast<double>(lookups.value() - l0);
            attempted += 1 + warm.streamNs.size();
            failed += warm.failed;
        }
        setupS = g ? std::min(setupS, median(group)) : median(group);
    }
    setupLookups /= kSetupGroups * kSetups;

    // Timed jobs: a closed loop, one job outstanding.
    std::vector<skyway::ManagedHeap *> heaps = wl->heaps();
    HeapTotals h0 = heapTotals(heaps);
    CounterDelta counters;
    counters.start();
    std::vector<double> jobS, tracedJobS;
    Blocks blocks;
    std::uint64_t jobs = 0, traced = 0, wireBytes = 0, records = 0;
    std::uint64_t polls = 0, pollHits = 0, tracedComputeNs = 0;
    std::uint64_t tracedWallNs = 0, heapPeak = 0;
    std::uint64_t deadline =
        nowNs() + static_cast<std::uint64_t>(opt.seconds * 1e9);
    while (jobs < kMinJobs || nowNs() < deadline) {
        bool spans = opt.trace && jobs % 2 == 1;
        tracer.setOn(spans);
        JobContext job(tracer);
        std::uint64_t l0 = lookups.value();
        std::uint64_t t0 = nowNs();
        wl->runJob(job);
        std::uint64_t wall = nowNs() - t0 - job.checkNs;
        tracer.setOn(false);
        if (lookups.value() != l0)
            job.fail("type-registry lookup during a timed job");

        ++jobs;
        attempted += 1 + job.streamNs.size();
        failed += job.failed;
        wireBytes += job.wireBytes;
        records += job.records;
        polls += job.polls;
        pollHits += job.pollHits;
        if (spans) {
            ++traced;
            tracedJobS.push_back(static_cast<double>(wall) / 1e9);
            tracedWallNs += wall;
            tracedComputeNs += job.computeNs;
        } else {
            jobS.push_back(static_cast<double>(wall) / 1e9);
            blocks.add(jobS.back(), job.streamNs);
        }
        for (auto *h : heaps) {
            h->notePeak();
            heapPeak = std::max(heapPeak, h->stats().peakUsedBytes);
        }
    }
    counters.stop();
    HeapTotals h1 = heapTotals(heaps);

    Report rep;
    double perJob = 1.0 / static_cast<double>(jobs);
    if (!opt.trace) {
        const Blocks::Block quiet = blocks.quietest();
        double pct = 0;
        double tailMs = tail(quiet.streamMs, &pct);
        rep.add("job_s", median(quiet.jobS), "s");
        rep.add("stream_p50_ms", median(quiet.streamMs), "ms");
        rep.add("stream_tail_ms", tailMs, "ms");
        rep.add("wire_bytes_per_record",
                ratio(static_cast<double>(wireBytes),
                      static_cast<double>(records)),
                "B");
        rep.add("heap_peak_mb", static_cast<double>(heapPeak) / (1 << 20),
                "MiB");
        rep.add("setup_s", setupS, "s");
        std::printf("# workload %s seed %llu: %zu jobs in %zu blocks of "
                    ">= %zu streams; quietest %zu blocks: %zu jobs, %zu "
                    "streams, tail = p%g\n",
                    opt.workload.c_str(),
                    static_cast<unsigned long long>(opt.seed), jobS.size(),
                    blocks.size(), kBlockStreams, kQuietBlocks,
                    quiet.jobS.size(), quiet.streamMs.size(), pct);
    } else {
        double perTraced = 1.0 / static_cast<double>(traced);
        auto self = [&](Site s) {
            return static_cast<double>(tracer.selfNs(s)) * perTraced /
                   1e9;
        };
        double objectsSent = counters["skyway.sender.objects_copied"];
        double objectsRecv = counters["skyway.receiver.objects_received"];
        double computeS =
            static_cast<double>(tracedComputeNs) * perTraced / 1e9;
        double gcInCompute =
            static_cast<double>(tracer.gcOutsideSpansNs()) * perTraced /
            1e9;

        rep.add("minispark.compute_s", computeS, "s");
        rep.add("skyway.sender.write_s", self(Site::SenderWrite), "s");
        rep.add("skyway.sender.ns_per_object",
                ratio(self(Site::SenderWrite) * 1e9,
                      objectsSent * perJob),
                "ns");
        rep.add("skyway.sender.objects", objectsSent * perJob, "count");
        rep.add("skyway.sender.flush_s",
                self(Site::SenderFlush) + self(Site::CompactFlush), "s");
        rep.add("skyway.sender.raw_bytes_per_record",
                ratio(counters["skyway.sender.bytes_copied"],
                      static_cast<double>(records)),
                "B");
        rep.add("skyway.wirecompact.records",
                counters["skyway.sender.compact_records"] * perJob,
                "count");
        rep.add("skyway.wirecompact.bytes_saved",
                counters["skyway.sender.compact_bytes_saved"] * perJob,
                "B");
        rep.add("skyway.wirecompact.record_ratio",
                ratio(counters["skyway.sender.compact_records"],
                      objectsSent),
                "ratio");
        rep.add("skyway.receiver.ingest_s", self(Site::ReceiverIngest),
                "s");
        rep.add("skyway.receiver.finalize_s",
                self(Site::ReceiverFinalize), "s");
        rep.add("skyway.receiver.expand_s",
                counters["skyway.receiver.expand_ns"] * perJob / 1e9, "s");
        rep.add("skyway.receiver.ns_per_object",
                ratio((self(Site::ReceiverIngest) +
                       self(Site::ReceiverFinalize)) *
                          1e9,
                      objectsRecv * perJob),
                "ns");
        rep.add("skyway.receiver.refs_absolutized",
                counters["skyway.receiver.refs_absolutized"] * perJob,
                "count");
        rep.add("skyway.receiver.chunks",
                counters["skyway.receiver.chunks_allocated"] * perJob,
                "count");
        rep.add("skyway.receiver.zero_copy_frac",
                ratio(counters["skyway.receiver.zero_copy_bytes"],
                      static_cast<double>(wireBytes)),
                "ratio");
        rep.add("net.send_s", self(Site::NetSend), "s");
        rep.add("net.recv_s", self(Site::NetRecv), "s");
        rep.add("net.recv_wait_s", self(Site::NetRecvWait), "s");
        rep.add("net.poll_hit_ratio",
                ratio(static_cast<double>(pollHits),
                      static_cast<double>(polls)),
                "ratio");
        rep.add("net.real_wire_ns", counters["net.real_wire_ns"] * perJob,
                "ns");
        rep.add("net.credit_stalls_ns",
                counters["net.credit_stalls_ns"] * perJob, "ns");
        rep.add("net.epoll_wakeups", counters["net.epoll_wakeups"] * perJob,
                "count");
        rep.add("net.frames_sent", counters["net.frames_sent"] * perJob,
                "count");
        rep.add("gc.scavenge_s", self(Site::GcScavenge), "s");
        rep.add("gc.full_s", self(Site::GcFull), "s");
        rep.add("gc.scavenges",
                static_cast<double>(h1.scavenges - h0.scavenges) * perJob,
                "count");
        rep.add("gc.full_gcs",
                static_cast<double>(h1.fullGcs - h0.fullGcs) * perJob,
                "count");
        rep.add("gc.promoted_bytes",
                static_cast<double>(h1.promoted - h0.promoted) * perJob,
                "B");
        rep.add("heap.allocated_bytes",
                static_cast<double>(h1.allocated - h0.allocated) * perJob,
                "B");
        rep.add("heap.peak_bytes", static_cast<double>(heapPeak), "B");
        rep.add("typereg.lookups", setupLookups, "count");

        // Self time per layer; minispark's is its measured compute
        // minus the collections that compute triggered, plus its
        // shuffle-file sink.
        double attributed = 0;
        for (std::size_t i = 0; i < kLayers; ++i) {
            auto l = static_cast<Layer>(i);
            double s = static_cast<double>(tracer.layerSelfNs(l)) *
                       perTraced / 1e9;
            if (l == Layer::Minispark)
                s += computeS - gcInCompute;
            attributed += s;
            rep.add(std::string(layerName(l)) + ".self_s", s, "s");
        }
        double wall = static_cast<double>(tracedWallNs) * perTraced / 1e9;
        rep.add("unattributed_s", wall - attributed, "s");
        rep.add("trace_overhead", median(tracedJobS) / median(jobS) - 1,
                "ratio");
    }
    std::printf("# error_rate %.6g (%llu failed of %llu attempted jobs "
                "and streams)\n",
                ratio(static_cast<double>(failed),
                      static_cast<double>(attempted)),
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    rep.print(attempted, failed);
    std::fflush(stdout);
    return 0;
}
