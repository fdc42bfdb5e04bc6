#include "layers.hh"

#include "support/logging.hh"

namespace perfbench
{

Layer
layerOf(Site s)
{
    switch (s) {
    case Site::SenderOpen:
    case Site::SenderWrite:
    case Site::SenderFlush:
        return Layer::Sender;
    case Site::CompactFlush:
        return Layer::WireCompact;
    case Site::ReceiverOpen:
    case Site::ReceiverIngest:
    case Site::ReceiverFinalize:
    case Site::ReceiverFree:
        return Layer::Receiver;
    case Site::NetSend:
    case Site::NetRecv:
    case Site::NetRecvWait:
        return Layer::Net;
    case Site::GcScavenge:
    case Site::GcFull:
        return Layer::Gc;
    case Site::HeapBuild:
        return Layer::Heap;
    case Site::ShuffleSink:
    case Site::Count:
        break;
    }
    return Layer::Minispark;
}

const char *
layerName(Layer l)
{
    static const char *const names[kLayers] = {
        "minispark", "skyway.sender", "skyway.wirecompact",
        "skyway.receiver", "net", "gc", "heap",
    };
    return names[static_cast<std::size_t>(l)];
}

void
Tracer::endAs(Site s)
{
    if (!on_)
        return;
    skyway::panicIf(stack_.empty(), "perfbench: span end without begin");
    Frame f = stack_.back();
    stack_.pop_back();
    std::uint64_t dur = nowNs() - f.start;
    Site site = s == Site::Count ? f.site : s;
    self_[static_cast<std::size_t>(site)] +=
        dur > f.childNs ? dur - f.childNs : 0;
    if (!stack_.empty())
        stack_.back().childNs += dur;
    else if (layerOf(site) == Layer::Gc)
        gcOutside_ += dur;
}

std::uint64_t
Tracer::layerSelfNs(Layer l) const
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < kSites; ++i) {
        if (layerOf(static_cast<Site>(i)) == l)
            sum += self_[i];
    }
    return sum;
}

namespace
{

/** Forwards to minispark's shuffle-file sink inside a span. */
class TimedSink : public skyway::ByteSink
{
  public:
    explicit TimedSink(Tracer &t) : t_(t) {}

    void
    write(const void *data, std::size_t len) override
    {
        Span s(t_, Site::ShuffleSink);
        target->write(data, len);
    }

    std::size_t bytesWritten() const override
    {
        return target->bytesWritten();
    }

    skyway::ByteSink *target = nullptr;

  private:
    Tracer &t_;
};

/**
 * Times one worker's Skyway serializer from outside. A stream's send
 * side runs from its first writeObject to endStream returning; its
 * receive side is the readObject that finds a fresh source (position
 * 0) and so ingests and finalizes the whole stream.
 */
class TimedSerializer : public skyway::Serializer
{
  public:
    TimedSerializer(std::unique_ptr<skyway::Serializer> inner,
                    Tracer &t, ShuffleLog &log, int worker,
                    bool compacting)
        : inner_(std::move(inner)),
          t_(t),
          log_(log),
          worker_(worker),
          flushSite_(compacting ? Site::CompactFlush
                                : Site::SenderFlush),
          sink_(t)
    {}

    std::string name() const override { return inner_->name(); }

    void
    writeObject(skyway::Address root, skyway::ByteSink &out) override
    {
        if (!sink_.target) {
            sink_.target = &out;
            streamStart_ = nowNs();
        }
        skyway::panicIf(sink_.target != &out,
                        "perfbench: interleaved shuffle streams");
        Span s(t_, Site::SenderWrite);
        inner_->writeObject(root, sink_);
    }

    void
    endStream(skyway::ByteSink &out) override
    {
        skyway::panicIf(sink_.target != &out,
                        "perfbench: endStream without its stream");
        {
            Span s(t_, flushSite_);
            inner_->endStream(sink_);
        }
        if (worker_ >= 0)
            log_.sendNs[worker_].push_back(nowNs() - streamStart_);
        sink_.target = nullptr;
    }

    skyway::Address
    readObject(skyway::ByteSource &in) override
    {
        if (in.position() != 0 || worker_ < 0) {
            if (worker_ >= 0)
                ++log_.recordsRead[worker_];
            return inner_->readObject(in);
        }
        std::uint64_t start = nowNs();
        skyway::Address a;
        {
            Span s(t_, Site::ReceiverIngest);
            a = inner_->readObject(in);
        }
        log_.recvNs[worker_].push_back(nowNs() - start);
        if (in.position() == 0)
            ++log_.ingestsWithoutProgress;
        ++log_.recordsRead[worker_];
        return a;
    }

    void reset() override { inner_->reset(); }

    void startPhase() override { inner_->startPhase(); }

    void
    releaseReceived() override
    {
        Span s(t_, Site::ReceiverFree);
        inner_->releaseReceived();
    }

    bool
    receivedObjectsArePinned() const override
    {
        return inner_->receivedObjectsArePinned();
    }

  private:
    std::unique_ptr<skyway::Serializer> inner_;
    Tracer &t_;
    ShuffleLog &log_;
    int worker_;
    Site flushSite_;
    TimedSink sink_;
    std::uint64_t streamStart_ = 0;
};

} // namespace

std::unique_ptr<skyway::Serializer>
TimedSerializerFactory::create(skyway::SdEnv env)
{
    int worker = workerOf_(env.heap);
    return std::make_unique<TimedSerializer>(inner_.create(env), tracer_,
                                             log_, worker, compacting_);
}

} // namespace perfbench
