/**
 * @file
 * Skyway input buffers (paper section 4.3). One buffer per (sender,
 * stream); allocated in the *managed heap's old generation* so that
 * transferred objects are heap objects the moment they arrive. The
 * buffer is a linked list of fixed-size chunks — the total transfer
 * size is unknown while streaming, and large contiguous allocations
 * would fragment the old generation. An object never spans chunks;
 * oversized chunks are created for objects larger than the regular
 * chunk size.
 *
 * Ingest is zero-copy: the transport calls reserveChunk(len) to get a
 * pointer directly into old-gen chunk storage, writes the streamed
 * segment there (a socket receive, a modeled NIC DMA, a disk read),
 * and calls commitChunk(len). The commit is the receiver's single
 * linear pass (paper section 4.3), the wire decoder
 * (skyway/wiredecode.hh) with this buffer as its sink. A raw segment
 * is parsed *in place*: its header and root table (skyway/baddr.hh,
 * rawseg) are read and overwritten with heap fillers, and the record
 * region — contiguous in both logical (relative-address) and physical
 * space — becomes one entry of the span table. A compact segment's
 * items are expanded into placed records. Either way each record is
 * linked once: its klass pointer installed and every reference
 * absolutized whose target has arrived (span base + (relative - span
 * start)); references to later records wait on a pending list. The
 * legacy feed() entry point remains as the compatibility path for
 * byte-owning callers (framed serializer streams, files, in-memory
 * tests): it copies each self-delimiting segment whole into the
 * reservation, or places record by record a raw segment larger than a
 * chunk.
 *
 * While streaming, chunks are pinned *opaque* (records may still hold
 * relative references), so the GC neither walks nor frees them.
 * finalize() resolves the pending references and the roots, applies
 * registered field updates (the only reason it walks chunks again, and
 * the only stores that may point out of the buffer, so the only cards
 * it dirties), covers chunk tails with fillers, and pins the chunks
 * *walkable* — live until the developer frees the buffer.
 */

#ifndef SKYWAY_SKYWAY_INPUTBUFFER_HH
#define SKYWAY_SKYWAY_INPUTBUFFER_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "skyway/baddr.hh"
#include "skyway/context.hh"
#include "skyway/wiredecode.hh"

namespace skyway
{

namespace sanitize
{
class WireValidator;
}

/** Default input-buffer chunk size (user-tunable per the paper). */
constexpr std::size_t defaultInputChunkBytes = 256 << 10;

/**
 * Receiver-side statistics. Legacy per-buffer accessor: the same
 * quantities are published process-wide as `skyway.receiver.*`
 * metrics (docs/OBSERVABILITY.md).
 */
struct SkywayReceiveStats
{
    std::uint64_t objectsReceived = 0;
    std::uint64_t bytesReceived = 0;
    std::uint64_t chunksAllocated = 0;
    std::uint64_t oversizedChunks = 0;
    std::uint64_t refsAbsolutized = 0;
    std::uint64_t fieldUpdatesApplied = 0;
    /**
     * Segment bytes the transport wrote directly into chunk storage
     * *and* parsed in place. Compact segments (docs/WIRE_FORMAT.md)
     * are excluded even on the reserveChunk path: their wire bytes
     * are staged out and re-expanded, so the zero-copy invariant
     * (wire bytes == chunk bytes) does not hold for them — see
     * expandedBytes for what they produced.
     */
    std::uint64_t zeroCopyBytes = 0;
    /** Full-format bytes produced by re-expanding compact segments. */
    std::uint64_t expandedBytes = 0;
    /** Wall time spent decoding compact segments. */
    std::uint64_t expandNs = 0;

    bool operator==(const SkywayReceiveStats &) const = default;
};

class InputBuffer
{
  public:
    /**
     * @param ctx         the receiving JVM's Skyway state
     * @param chunk_bytes regular chunk size
     */
    explicit InputBuffer(SkywayContext &ctx,
                         std::size_t chunk_bytes =
                             defaultInputChunkBytes);

    /** Unpinning on destruction is equivalent to free(). */
    ~InputBuffer();

    InputBuffer(const InputBuffer &) = delete;
    InputBuffer &operator=(const InputBuffer &) = delete;

    /**
     * Zero-copy ingest, step 1: reserve @p len contiguous bytes of
     * old-gen chunk storage for an incoming segment (opening a new
     * chunk — oversized if needed — when the current one cannot hold
     * it). The transport writes the segment bytes directly into the
     * returned pointer and then calls commitChunk(). At most one
     * reservation may be outstanding.
     */
    std::uint8_t *reserveChunk(std::size_t len);

    /**
     * Zero-copy ingest, step 2: the transport wrote @p len bytes
     * (<= the reserved length), one whole segment, into the
     * reservation; validate and parse them in place. Counted in
     * `skyway.receiver.zero_copy_bytes`.
     */
    void commitChunk(std::size_t len);

    /**
     * The free tail of the current chunk: where reserveChunk() places
     * the next segment that fits in it. Never allocates; empty before
     * the first chunk, while a reservation is open, and once
     * finalized. A socket receiver posts it (ClusterNetwork::post) so
     * the transport lands the next segment in place.
     */
    std::span<std::uint8_t> freeTail() const;

    /**
     * Compatibility ingest for byte-owning callers: copies each raw
     * segment of @p data (one, or several concatenated, as in a file)
     * once into a chunk reservation; one larger than a chunk has its
     * records placed one by one, as a compact segment's are. Segments
     * contain whole records (the sender never splits a record across
     * flushes).
     */
    void feed(const std::uint8_t *data, std::size_t len);

    /**
     * End of stream: resolve what the commits left pending and make
     * the chunks walkable. Computation on the buffer must block until
     * this completes.
     */
    void finalize();

    bool finalized() const { return finalized_; }

    /**
     * The top-level objects, in the order the sender wrote them
     * (recovered from the segments' root tables — no receiver graph
     * traversal).
     */
    const std::vector<Address> &roots() const;

    /** Developer API: release the buffer to the collector. */
    void free();

    std::size_t chunkCount() const { return chunks_.size(); }
    std::uint64_t totalBytes() const { return logical_; }
    const SkywayReceiveStats &stats() const { return stats_; }

  private:
    template <class> friend class wire::Decoder;

    struct Chunk
    {
        Address base;
        std::size_t cap;
        std::size_t fill;
        std::size_t pin;
    };

    /**
     * One received segment's record region — or a run of placed
     * records — contiguous in both logical and physical space. Spans
     * tile [0, logical_) in order and form the relative→absolute
     * translation table.
     */
    struct Span
    {
        std::uint64_t firstLogical;
        Address base;
        std::size_t bytes;
    };

    /** A reference slot whose target had not arrived when linked. */
    struct PendingRef
    {
        Address slot;
        std::uint64_t rel;
    };

    /** Translate a relative address to its absolute heap address. */
    Address resolveRel(std::uint64_t rel) const;

    void newChunk(std::size_t at_least);

    /**
     * Shared commit: validate (unless the caller already did), then
     * decode the @p len committed bytes of the open reservation — one
     * whole segment: raw records in place, compact items expanded.
     */
    void commitReserved(std::size_t len, bool zero_copy,
                        bool already_validated);

    /** Panic with the validator's first fault, if it has one. */
    void checkWire() const;

    /**
     * Decode the segment at @p seg (@p len bytes at hand) and return
     * its length; panics on a wire fault.
     */
    std::size_t decode(const std::uint8_t *seg, std::size_t len);

    /** decode() of a compact segment, timed and counted as expansion. */
    std::size_t expand(const std::uint8_t *seg, std::size_t len);

    /** Append @p bytes of records at @p base to the span table. */
    void addSpan(std::uint8_t *base, std::size_t bytes);

    // wire::Decoder sink (skyway/wiredecode.hh): every record is linked
    // once, as it is parsed in place or placed — its klass pointer
    // installed and each reference absolutized now when its target has
    // arrived, else at finalize().
    Klass *klassFor(std::int32_t tid) { return types_.klassFor(tid); }
    /** Records stay in place only in the open reservation. */
    std::uint8_t *inPlace(const std::uint8_t *records, std::size_t bytes);
    std::uint8_t *place(std::size_t bytes);
    void onRecord(std::uint8_t *rec, Klass *k, std::size_t size, Word,
                  std::uint64_t);
    void onSlot(std::uint8_t *rec, std::size_t off, Word slot,
                std::uint64_t);
    /** onSlot() of a reference outside the last span: absolutize it
     *  through the span table, or queue it for finalize(). */
    void linkFar(std::uint8_t *p, std::uint64_t rel);
    void onRoot(Word root, std::uint64_t)
    {
        pendingRoots_.push_back(rawseg::slotOf(root));
    }
    /** A top mark names the record placed next. */
    void onTopMark(std::uint64_t) { pendingRoots_.push_back(logical_ + 1); }
    void onBackRef(Word slot, std::uint64_t) { pendingRoots_.push_back(slot); }
    void onItem(std::uint64_t) {}

    /** finalize()'s chunk walk, run only when field updates exist. */
    void applyFieldUpdates();

    /**
     * SkywaySan post-finalize structural audit
     * (ctx.debug().checkReceivedGraph): walk the rebuilt chunks and
     * panic unless every object parses, every reference lands on a
     * rebuilt object start (or a live local heap object installed by
     * a field update), every root resolves, and no machine-local mark
     * bits leaked through the transfer.
     */
    void auditRebuilt() const;

    /**
     * Push the delta of stats_ since the last publication into the
     * `skyway.receiver.*` counters. Runs at buffer boundaries —
     * finalize() and destruction — never per feed() or per record,
     * keeping the receive hot path free of atomics.
     */
    void publishMetrics();

    SkywayContext &ctx_;
    ManagedHeap &heap_;
    TypeResolver &types_;
    std::size_t chunkBytes_;
    ObjectFormat fmt_;

    std::vector<Chunk> chunks_;
    /** Spans in ascending firstLogical order. */
    std::vector<Span> spans_;
    std::vector<PendingRef> pendingRefs_;
    std::uint64_t logical_ = 0;
    bool finalized_ = false;
    bool freed_ = false;

    /** The open reservation (between reserveChunk and commit). */
    std::uint8_t *reserved_ = nullptr;
    std::size_t reservedLen_ = 0;

    /**
     * Root slot words (0 = null, else relative address + 1) in write
     * order, resolved to addresses at finalize().
     */
    std::vector<Word> pendingRoots_;

    std::vector<Address> roots_;
    /** Staging for compact wire bytes whose expansion overwrites the
     *  chunk region they arrived in (reused across segments). */
    std::vector<std::uint8_t> scratch_;
    SkywayReceiveStats stats_;
    /** Values of stats_ as of the last publishMetrics(). */
    SkywayReceiveStats published_;

    /** Debug-mode wire validator (ctx.debug().validateWire). */
    std::unique_ptr<sanitize::WireValidator> validator_;
};

} // namespace skyway

#endif // SKYWAY_SKYWAY_INPUTBUFFER_HH
