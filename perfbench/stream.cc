#include <cstdio>
#include <optional>
#include <thread>

#include "workload.hh"

namespace perfbench
{

using namespace skyway;

void
JobContext::fail(const std::string &why)
{
    static int printed = 0;
    if (printed < 10) {
        std::fprintf(stderr, "perfbench: check failed: %s\n",
                     why.c_str());
        ++printed;
    }
    ++failed;
}

HeapConfig
benchHeapConfig()
{
    HeapConfig c;
    c.oldBytes = 8ull << 20;
    return c;
}

std::unique_ptr<InputBuffer>
transferStream(ClusterNetwork &net, Jvm &src, Jvm &dst, int tag,
               const LocalRoots &roots, JobContext &job)
{
    Tracer &t = job.tracer;
    std::optional<SkywayObjectInputStream> in;
    {
        Span s(t, Site::ReceiverOpen);
        in.emplace(dst.skyway());
    }
    std::uint64_t wire = 0;
    auto sink = [&](const std::uint8_t *data, std::size_t len) {
        Span s(t, Site::NetSend);
        wire += len;
        net.send(src.id(), dst.id(), tag,
                 std::vector<std::uint8_t>(data, data + len));
    };
    std::optional<SkywayObjectOutputStream> out;
    {
        Span s(t, Site::SenderOpen);
        out.emplace(src.skyway(), sink);
    }

    std::uint64_t start = nowNs();
    {
        Span s(t, Site::SenderWrite);
        for (std::size_t i = 0; i < roots.size(); ++i)
            out->writeObject(roots.get(i));
    }
    {
        Span s(t, Site::SenderFlush);
        out->flush();
    }
    {
        // Zero-length message = end of stream.
        Span s(t, Site::NetSend);
        net.send(src.id(), dst.id(), tag, {});
    }

    auto reserve = [&](std::size_t len) {
        Span s(t, Site::ReceiverIngest);
        return in->buffer().reserveChunk(len);
    };
    while (true) {
        t.begin(Site::NetRecv);
        ++job.polls;
        std::ptrdiff_t n = net.pollTagInto(dst.id(), tag, reserve);
        if (n < 0) {
            // Bytes still in flight: let the fabric's threads run.
            std::this_thread::yield();
            t.endAs(Site::NetRecvWait);
            continue;
        }
        t.end();
        ++job.pollHits;
        if (n == 0) {
            Span s(t, Site::ReceiverFinalize);
            in->finish();
            break;
        }
        Span s(t, Site::ReceiverIngest);
        in->buffer().commitChunk(static_cast<std::size_t>(n));
    }
    job.streamNs.push_back(nowNs() - start);
    job.wireBytes += wire;
    job.records += roots.size();
    // The raw wire lands in place: every payload byte was received
    // straight into chunk storage.
    const SkywayReceiveStats &st = in->buffer().stats();
    if (wire == 0 || st.zeroCopyBytes != wire)
        job.fail("zero_copy_bytes " + std::to_string(st.zeroCopyBytes) +
                 " != payload bytes " + std::to_string(wire));

    {
        Span s(t, Site::SenderOpen);
        out.reset();
    }
    return in->releaseBuffer();
}

void
freeBuffer(std::unique_ptr<InputBuffer> buf, JobContext &job)
{
    Span s(job.tracer, Site::ReceiverFree);
    buf->free();
    buf.reset();
}

} // namespace perfbench
