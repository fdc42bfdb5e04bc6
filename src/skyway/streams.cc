#include "skyway/streams.hh"

#include "skyway/wirecompact.hh"

namespace skyway
{

SkywayObjectOutputStream::SkywayObjectOutputStream(
    SkywayContext &ctx, OutputBuffer::FlushFn sink,
    std::size_t buffer_bytes, std::optional<ObjectFormat> target_format)
    : wireFmt_(target_format.value_or(ctx.heap().format())),
      validator_(ctx.debug().validateWire
                     ? std::make_unique<sanitize::WireValidator>(
                           ctx.resolver(),
                           sanitize::WireCheckConfig{wireFmt_})
                     : nullptr),
      encoder_(CompactEncoder::forStream(ctx, wireFmt_)),
      // The validator audits the raw segment (the semantic stream)
      // before the encoder picks what hits the sink; the receiver's
      // validator sees the compact wire bytes, so both get checked.
      buffer_(buffer_bytes,
              [this, sink = std::move(sink)](const std::uint8_t *data,
                                             std::size_t len) {
                  if (validator_)
                      validator_->feed(data, len);
                  if (encoder_)
                      encoder_->flush(data, len, sink);
                  else
                      sink(data, len);
              }),
      sender_(ctx, buffer_, wireFmt_, encoder_.get())
{
}

void
SkywayObjectOutputStream::checkWire()
{
    validator_->finish();
    if (!validator_->ok())
        panic("SkywaySan: sender wire validation failed: " +
              validator_->firstFault());
}

SkywayFileOutputStream::SkywayFileOutputStream(SkywayContext &ctx,
                                               SimDisk &disk,
                                               std::string file_name,
                                               std::size_t buffer_bytes)
    : SkywayFileOutputStream(ctx, disk, std::move(file_name),
                             buffer_bytes,
                             std::make_shared<std::uint64_t>(0))
{
}

SkywayFileOutputStream::SkywayFileOutputStream(
    SkywayContext &ctx, SimDisk &disk, std::string file_name,
    std::size_t buffer_bytes, std::shared_ptr<std::uint64_t> write_ns)
    : SkywayObjectOutputStream(
          ctx,
          [&disk, file_name, write_ns](const std::uint8_t *data,
                                       std::size_t len) {
              *write_ns += disk.appendFile(file_name, data, len);
          },
          buffer_bytes),
      writeNs_(write_ns)
{
}

SkywayFileInputStream::SkywayFileInputStream(SkywayContext &ctx,
                                             SimDisk &disk,
                                             const std::string &file_name,
                                             std::size_t chunk_bytes)
    : SkywayObjectInputStream(ctx, chunk_bytes)
{
    const auto &bytes = disk.file(file_name);
    readNs_ = disk.chargeRead(bytes.size());
    if (!bytes.empty())
        feed(bytes.data(), bytes.size());
    finish();
}

SkywaySocketOutputStream::SkywaySocketOutputStream(
    SkywayContext &ctx, ClusterNetwork &net, NodeId src, NodeId dst,
    int tag, std::size_t buffer_bytes)
    : SkywayObjectOutputStream(
          ctx,
          [&net, src, dst, tag](const std::uint8_t *data,
                                std::size_t len) {
              net.send(src, dst, tag,
                       std::vector<std::uint8_t>(data, data + len));
          },
          buffer_bytes),
      net_(net),
      src_(src),
      dst_(dst),
      tag_(tag)
{
}

void
SkywaySocketOutputStream::close()
{
    if (closed_)
        return;
    flush();
    // Zero-length message = end of stream.
    net_.send(src_, dst_, tag_, {});
    closed_ = true;
}

SkywaySocketInputStream::SkywaySocketInputStream(SkywayContext &ctx,
                                                 ClusterNetwork &net,
                                                 NodeId self, int tag,
                                                 std::size_t chunk_bytes)
    : SkywayObjectInputStream(ctx, chunk_bytes),
      net_(net),
      self_(self),
      tag_(tag)
{
}

SkywaySocketInputStream::~SkywaySocketInputStream()
{
    // Delivering the end-of-stream already dropped the post.
    if (!done_)
        net_.unpost(self_, tag_);
}

bool
SkywaySocketInputStream::pump()
{
    if (done_)
        return true;
    while (true) {
        // Each flushed segment goes into old-gen chunk storage from
        // reserveChunk(); commitChunk() then parses the records in
        // place. A segment that landed in the posted tail is already
        // there, and the fabric copies nothing.
        std::ptrdiff_t n = net_.pollTagInto(
            self_, tag_, [this](std::size_t len) {
                return buffer().reserveChunk(len);
            });
        if (n < 0)
            return false;
        if (n == 0) {
            // Zero-length message = end of stream.
            finish();
            done_ = true;
            return true;
        }
        buffer().commitChunk(static_cast<std::size_t>(n));
        std::span<std::uint8_t> tail = buffer().freeTail();
        if (!tail.empty())
            net_.post(self_, tag_, tail.data(), tail.size());
    }
}

SkywaySerializer::SkywaySerializer(SkywayContext &ctx,
                                   std::size_t buffer_bytes,
                                   std::size_t chunk_bytes)
    : ctx_(ctx), bufferBytes_(buffer_bytes), chunkBytes_(chunk_bytes)
{
    // The adapter drives phases itself when the host system does not:
    // a phase must be open before the first writeObject.
    if (ctx_.currentSid() == 0)
        ctx_.shuffleStart();
}

void
SkywaySerializer::bindSink(ByteSink &out)
{
    if (curSink_ == &out)
        return;
    if (curSink_)
        endStream(*curSink_);
    out_ = std::make_unique<SkywayObjectOutputStream>(
        ctx_,
        [&out](const std::uint8_t *data, std::size_t len) {
            out.writeU32(static_cast<std::uint32_t>(len));
            out.write(data, len);
        },
        bufferBytes_);
    curSink_ = &out;
}

void
SkywaySerializer::writeObject(Address root, ByteSink &out)
{
    bindSink(out);
    out_->writeObject(root);
}

void
SkywaySerializer::endStream(ByteSink &out)
{
    if (!curSink_)
        return;
    panicIf(curSink_ != &out,
            "SkywaySerializer: endStream on a different sink");
    out_->flush();
    out.writeU32(0);
    doneStats_ += out_->stats();
    out_.reset();
    curSink_ = nullptr;
}

void
SkywaySerializer::startPhase()
{
    if (curSink_)
        endStream(*curSink_);
    ctx_.shuffleStart();
}

void
SkywaySerializer::ingest(ByteSource &in)
{
    if (inStream_)
        retired_.push_back(inStream_->releaseBuffer());
    inStream_ = std::make_unique<SkywayObjectInputStream>(ctx_,
                                                          chunkBytes_);
    while (true) {
        std::uint32_t len = in.readU32();
        if (len == 0)
            break;
        const std::uint8_t *seg = in.view(len);
        inStream_->feed(seg, len);
    }
    inStream_->finish();
}

Address
SkywaySerializer::readObject(ByteSource &in)
{
    if (!inStream_ || !inStream_->hasNext())
        ingest(in);
    return inStream_->readObject();
}

void
SkywaySerializer::freeInputBuffers()
{
    if (inStream_)
        retired_.push_back(inStream_->releaseBuffer());
    inStream_.reset();
    for (auto &buf : retired_)
        buf->free();
    retired_.clear();
}

SkywaySendStats
SkywaySerializer::sendStats() const
{
    SkywaySendStats total = doneStats_;
    if (out_)
        total += out_->stats();
    return total;
}

} // namespace skyway
