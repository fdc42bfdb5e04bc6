#include "skyway/parallel.hh"

#include <thread>

#include "obs/metrics.hh"
#include "obs/span.hh"
#include "support/stopwatch.hh"

namespace skyway
{

ParallelSender::ParallelSender(SkywayContext &ctx, SinkFactory sinks,
                               ParallelSendConfig cfg)
    : threads_(cfg.threads)
{
    panicIf(threads_ == 0, "ParallelSender: need at least one worker");
    streams_.reserve(threads_);
    for (unsigned w = 0; w < threads_; ++w)
        streams_.push_back(std::make_unique<SkywayObjectOutputStream>(
            ctx, sinks(w), cfg.bufferBytes, cfg.targetFormat));
}

ParallelSender::~ParallelSender() = default;

ParallelSendReport
ParallelSender::send(const std::vector<Address> &roots)
{
    SKYWAY_SPAN("sender.parallel_fanout");
    obs::MetricsRegistry::global()
        .gauge("skyway.sender.threads")
        .set(static_cast<std::int64_t>(threads_));

    std::vector<std::uint64_t> workerNs(threads_, 0);
    auto work = [&](unsigned w) {
        Stopwatch sw;
        SkywayObjectOutputStream &out = *streams_[w];
        for (std::size_t i = w; i < roots.size(); i += threads_)
            out.writeObject(roots[i]);
        // Per-thread flush: each stream's tail segment leaves on its
        // own sink, so streams interleave on the wire as the baddr
        // sID/tid bytes allow.
        out.flush();
        workerNs[w] = sw.elapsedNs();
    };

    if (threads_ == 1) {
        work(0);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads_);
        for (unsigned w = 0; w < threads_; ++w)
            pool.emplace_back(work, w);
        for (std::thread &t : pool)
            t.join();
    }

    ParallelSendReport report;
    report.perWorker.reserve(threads_);
    for (unsigned w = 0; w < threads_; ++w) {
        const SkywaySendStats &s = streams_[w]->stats();
        report.perWorker.push_back(s);
        report.total += s;
        report.totalBytes += streams_[w]->totalBytes();
        report.maxWorkerNs = std::max(report.maxWorkerNs, workerNs[w]);
    }
    return report;
}

} // namespace skyway
