/**
 * @file
 * The Skyway library API (paper section 3.3): object output/input
 * streams that are drop-in compatible with the standard
 * ObjectOutputStream/ObjectInputStream programming model, plus file
 * and socket variants, plus the SkywaySerializer adapter that lets the
 * dataflow substrates (minispark, miniflink, the JSBS bench) swap
 * Skyway in wherever any byte-stream serializer goes — the paper's
 * "entire SkywaySerializer class is less than 100 lines" integration.
 */

#ifndef SKYWAY_SKYWAY_STREAMS_HH
#define SKYWAY_SKYWAY_STREAMS_HH

#include <memory>
#include <optional>

#include "iomodel/disk.hh"
#include "net/cluster.hh"
#include "sanitize/wirecheck.hh"
#include "sd/serializer.hh"
#include "skyway/inputbuffer.hh"
#include "skyway/sender.hh"

namespace skyway
{

/**
 * The writer stream: owns one per-destination output buffer in native
 * memory, a sender bound to it, and the stream's compact encoder and
 * wire validator when the context asks for them. The one place the
 * writer pipeline is assembled: each flushed raw segment goes to the
 * validator, then to the encoder, which hands the sink the compact or
 * the raw form.
 */
class SkywayObjectOutputStream
{
  public:
    /**
     * @param ctx           the sending JVM's Skyway state
     * @param sink          receives flushed segments (whole records)
     * @param buffer_bytes  output-buffer capacity
     * @param target_format receiver's object format (defaults to the
     *                      local format: homogeneous cluster)
     */
    SkywayObjectOutputStream(SkywayContext &ctx,
                             OutputBuffer::FlushFn sink,
                             std::size_t buffer_bytes =
                                 defaultOutputBufferBytes,
                             std::optional<ObjectFormat> target_format =
                                 std::nullopt);

    /** The buffer's flush callback holds this stream's address. */
    SkywayObjectOutputStream(const SkywayObjectOutputStream &) = delete;
    SkywayObjectOutputStream &
    operator=(const SkywayObjectOutputStream &) = delete;

    /** Transfer the graph rooted at @p root, as writeObject(o). */
    void writeObject(Address root) { sender_.writeObject(root); }

    /** Push buffered bytes to the sink (and publish sender metrics). */
    void
    flush()
    {
        buffer_.flushNow();
        sender_.publishMetrics();
        if (validator_)
            checkWire();
    }

    std::uint64_t totalBytes() const { return buffer_.totalBytes(); }
    const SkywaySendStats &stats() const { return sender_.stats(); }
    std::uint16_t streamId() const { return sender_.streamId(); }

  private:
    /** Settle the validator's deferred checks; panic on a fault. */
    void checkWire();

    ObjectFormat wireFmt_;
    /** Debug-mode wire validator (ctx.debug().validateWire). */
    std::unique_ptr<sanitize::WireValidator> validator_;
    /** Null on a raw stream (CompactEncoder::forStream). */
    std::unique_ptr<CompactEncoder> encoder_;
    OutputBuffer buffer_;
    SkywaySender sender_;
};

/**
 * The reader stream: feeds streamed segments into an input buffer and
 * hands out top-level objects in write order.
 */
class SkywayObjectInputStream
{
  public:
    explicit SkywayObjectInputStream(SkywayContext &ctx,
                                     std::size_t chunk_bytes =
                                         defaultInputChunkBytes)
        : buffer_(std::make_unique<InputBuffer>(ctx, chunk_bytes))
    {}

    void
    feed(const std::uint8_t *data, std::size_t len)
    {
        buffer_->feed(data, len);
    }

    /** End of stream: run the absolutization pass. */
    void
    finish()
    {
        buffer_->finalize();
    }

    bool
    hasNext() const
    {
        return buffer_->finalized() &&
               cursor_ < buffer_->roots().size();
    }

    /** The next top-level object, as readObject(). */
    Address
    readObject()
    {
        panicIf(!buffer_->finalized(),
                "SkywayObjectInputStream: readObject before finish()");
        panicIf(cursor_ >= buffer_->roots().size(),
                "SkywayObjectInputStream: no more objects");
        return buffer_->roots()[cursor_++];
    }

    InputBuffer &buffer() { return *buffer_; }

    /** Detach the underlying buffer (keeps received objects alive). */
    std::unique_ptr<InputBuffer> releaseBuffer()
    {
        return std::move(buffer_);
    }

  private:
    std::unique_ptr<InputBuffer> buffer_;
    std::size_t cursor_ = 0;
};

/** Writer variant streaming to a SimDisk file (unframed records). */
class SkywayFileOutputStream : public SkywayObjectOutputStream
{
  public:
    SkywayFileOutputStream(SkywayContext &ctx, SimDisk &disk,
                           std::string file_name,
                           std::size_t buffer_bytes =
                               defaultOutputBufferBytes);

    /** Charged write-I/O nanoseconds accumulated by flushes. */
    std::uint64_t writeIoNs() const { return *writeNs_; }

  private:
    SkywayFileOutputStream(SkywayContext &ctx, SimDisk &disk,
                           std::string file_name,
                           std::size_t buffer_bytes,
                           std::shared_ptr<std::uint64_t> write_ns);

    std::shared_ptr<std::uint64_t> writeNs_;
};

/** Reader variant consuming a whole SimDisk file. */
class SkywayFileInputStream : public SkywayObjectInputStream
{
  public:
    SkywayFileInputStream(SkywayContext &ctx, SimDisk &disk,
                          const std::string &file_name,
                          std::size_t chunk_bytes =
                              defaultInputChunkBytes);

    /** Charged read-I/O nanoseconds for the file. */
    std::uint64_t readIoNs() const { return readNs_; }

  private:
    std::uint64_t readNs_ = 0;
};

/** Writer variant streaming over the cluster fabric. */
class SkywaySocketOutputStream : public SkywayObjectOutputStream
{
  public:
    SkywaySocketOutputStream(SkywayContext &ctx, ClusterNetwork &net,
                             NodeId src, NodeId dst, int tag,
                             std::size_t buffer_bytes =
                                 defaultOutputBufferBytes);

    /** Flush and send the end-of-stream message. */
    void close();

  private:
    ClusterNetwork &net_;
    NodeId src_, dst_;
    int tag_;
    bool closed_ = false;
};

/**
 * Reader variant draining the cluster fabric. After each commit it
 * posts the free tail of its current chunk for the stream's tag, so
 * a segment that arrives while the reader is between pumps lands in
 * old-gen chunk storage and is parsed there, uncopied.
 */
class SkywaySocketInputStream : public SkywayObjectInputStream
{
  public:
    SkywaySocketInputStream(SkywayContext &ctx, ClusterNetwork &net,
                            NodeId self, int tag,
                            std::size_t chunk_bytes =
                                defaultInputChunkBytes);

    /** Withdraws the outstanding post before the chunks can go. */
    ~SkywaySocketInputStream();

    /**
     * Drain pending messages; returns true once the end-of-stream
     * message arrived (finish() is called automatically).
     */
    bool pump();

  private:
    ClusterNetwork &net_;
    NodeId self_;
    int tag_;
    bool done_ = false;
};

/**
 * The drop-in Serializer adapter. Wire format on the byte stream:
 * framed segments [u32 length][record bytes], terminated by a zero
 * length — framing exists only so a Skyway stream can live inside an
 * ordinary byte sink next to other data.
 */
class SkywaySerializer : public Serializer
{
  public:
    explicit SkywaySerializer(SkywayContext &ctx,
                              std::size_t buffer_bytes =
                                  defaultOutputBufferBytes,
                              std::size_t chunk_bytes =
                                  defaultInputChunkBytes);

    std::string name() const override { return "skyway"; }

    void writeObject(Address root, ByteSink &out) override;
    Address readObject(ByteSource &in) override;

    /** Flush + end-marker for the stream bound to @p out. */
    void endStream(ByteSink &out) override;

    void startPhase() override;

    void releaseReceived() override { freeInputBuffers(); }

    bool receivedObjectsArePinned() const override { return true; }

    /** Release all retained input buffers (developer free API). */
    void freeInputBuffers();

    /** Aggregated sender stats across streams in this phase. */
    SkywaySendStats sendStats() const;

  private:
    void bindSink(ByteSink &out);
    void ingest(ByteSource &in);

    SkywayContext &ctx_;
    std::size_t bufferBytes_;
    std::size_t chunkBytes_;

    ByteSink *curSink_ = nullptr;
    /** The stream bound to curSink_, one u32 frame per segment. */
    std::unique_ptr<SkywayObjectOutputStream> out_;
    SkywaySendStats doneStats_;

    std::unique_ptr<SkywayObjectInputStream> inStream_;
    std::vector<std::unique_ptr<InputBuffer>> retired_;
};

} // namespace skyway

#endif // SKYWAY_SKYWAY_STREAMS_HH
