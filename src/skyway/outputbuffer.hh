/**
 * @file
 * Skyway output buffers (paper section 3.2): per-destination buffers
 * in *native* (off-heap) memory — they must not interact with the GC,
 * which could otherwise reclaim objects before they are sent — with
 * streaming: the buffer flushes to its sink whenever the next record
 * does not fit, and `flushedBytes` tracks how much logical address
 * space has already left the buffer (Algorithm 2, line 10).
 *
 * Each flush emits one raw segment (skyway/baddr.hh, rawseg): a
 * 24-byte header, the records, and the root table of the writeObject
 * calls made while the segment was open. Roots are collected aside
 * and appended at flush, so records are contiguous in both logical
 * and physical space. Records never span a flush boundary, so every
 * segment holds a whole number of object records; the receiver relies
 * on this when placing records into heap chunks.
 */

#ifndef SKYWAY_SKYWAY_OUTPUTBUFFER_HH
#define SKYWAY_SKYWAY_OUTPUTBUFFER_HH

#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "skyway/baddr.hh"
#include "support/logging.hh"
#include "support/types.hh"

namespace skyway
{

/** Default output-buffer capacity (tunable per stream). */
constexpr std::size_t defaultOutputBufferBytes = 256 << 10;

class OutputBuffer
{
  public:
    /** Sink for flushed segments (disk file, socket, test vector). */
    using FlushFn =
        std::function<void(const std::uint8_t *data, std::size_t len)>;

    OutputBuffer(std::size_t capacity, FlushFn flush)
        : buf_(std::make_unique_for_overwrite<std::uint8_t[]>(
              capacity)),
          cap_(capacity),
          flush_(std::move(flush))
    {
        panicIf(capacity < 64, "OutputBuffer: capacity too small");
    }

    /** Logical end of the buffer: where the next record will go. */
    std::uint64_t allocableAddr() const { return allocable_; }

    /** Claim @p bytes of logical space for a discovered object. */
    std::uint64_t
    claim(std::size_t bytes)
    {
        std::uint64_t addr = allocable_;
        allocable_ += bytes;
        return addr;
    }

    /** Logical bytes already streamed out. */
    std::uint64_t flushedBytes() const { return flushed_; }

    /**
     * Return a pointer to physical space for the record at logical
     * address @p addr of @p bytes: addr - flushedBytes past the
     * segment header. Writes must be sequential (clone order equals
     * claim order under the BFS); flushes first when the record does
     * not fit.
     */
    std::uint8_t *
    writeAt(std::uint64_t addr, std::size_t bytes)
    {
        panicIf(addr != written_,
                "OutputBuffer: non-sequential record write");
        makeRoom(bytes, 0);
        std::uint8_t *p = buf_.get() + rawseg::headerBytes +
                          (addr - flushed_);
        written_ += bytes;
        return p;
    }

    /**
     * Add one writeObject's slot word (rawseg) to the open segment's
     * root table. Roots take no logical space.
     */
    void
    addRoot(Word root)
    {
        makeRoom(0, 1);
        roots_.push_back(root);
    }

    /** Force out whatever the buffer holds as one raw segment. */
    void
    flushNow()
    {
        std::size_t records = written_ - flushed_;
        if (records == 0 && roots_.empty())
            return;
        Word header[3] = {marker::rawSeg, records, roots_.size()};
        std::memcpy(buf_.get(), header, rawseg::headerBytes);
        if (!roots_.empty())
            std::memcpy(buf_.get() + rawseg::headerBytes + records,
                        roots_.data(), roots_.size() * wordSize);
        std::size_t len = segmentBytes();
        flush_(buf_.get(), len);
        wire_ += len;
        flushed_ = written_;
        roots_.clear();
    }

    /** Wire bytes produced so far (flushed + the open segment). */
    std::uint64_t
    totalBytes() const
    {
        bool open = written_ != flushed_ || !roots_.empty();
        return wire_ + (open ? segmentBytes() : 0);
    }

  private:
    /** Length of the open segment if it were flushed now. */
    std::size_t
    segmentBytes() const
    {
        return rawseg::headerBytes + (written_ - flushed_) +
               roots_.size() * wordSize;
    }

    /**
     * Make the open segment able to take @p bytes more record bytes
     * and @p roots more root slots: flush it when it holds records
     * and is full, and grow the (native) buffer for an oversized
     * record. The buffer moves only while the open segment holds no
     * records: the compact encoder keeps pointers to them until the
     * segment flushes.
     */
    void
    makeRoom(std::size_t bytes, std::size_t roots)
    {
        std::size_t extra = bytes + roots * wordSize;
        if (segmentBytes() + extra <= cap_)
            return;
        if (written_ != flushed_)
            flushNow();
        std::size_t need = segmentBytes() + extra;
        if (need > cap_) {
            buf_ = std::make_unique_for_overwrite<std::uint8_t[]>(need);
            cap_ = need;
        }
    }

    std::unique_ptr<std::uint8_t[]> buf_;
    std::size_t cap_;
    FlushFn flush_;
    std::uint64_t allocable_ = 0;
    /** Logical bytes flushed / written (flushed + the open segment). */
    std::uint64_t flushed_ = 0;
    std::uint64_t written_ = 0;
    /** Wire bytes of the flushed segments. */
    std::uint64_t wire_ = 0;
    /** Root table of the open segment. */
    std::vector<Word> roots_;
};

} // namespace skyway

#endif // SKYWAY_SKYWAY_OUTPUTBUFFER_HH
