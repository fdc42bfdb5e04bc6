#include "skyway/wirecompact.hh"

#include <cstdlib>
#include <string>

#include "obs/metrics.hh"
#include "skyway/context.hh"

namespace skyway
{

using wire::putWord;
using wire::wordAt;

namespace
{

/** Registry-backed compaction counters, resolved once per process. */
struct CompactMetrics
{
    obs::Counter &bytesSaved;
    obs::Counter &records;
    obs::Counter &segments;
    obs::Gauge &classes;

    static CompactMetrics &
    get()
    {
        auto &r = obs::MetricsRegistry::global();
        static CompactMetrics m{
            r.counter("skyway.sender.compact_bytes_saved"),
            r.counter("skyway.sender.compact_records"),
            r.counter("skyway.sender.compact_segments"),
            r.gauge("skyway.sender.compact_classes"),
        };
        return m;
    }
};

/**
 * Zero-run RLE over an array payload: alternating
 * [varint litBytes][literals][varint zeroBytes] pairs whose lengths
 * sum to the payload size. Runs shorter than rleMinZeroRun stay
 * literal so sparse zeros cannot blow up the pair count.
 */
void
rleEncode(const std::uint8_t *p, std::size_t n,
          std::vector<std::uint8_t> &out)
{
    std::size_t i = 0;
    while (i < n) {
        std::size_t zstart = n, zlen = 0;
        std::size_t j = i;
        while (j < n) {
            if (p[j] != 0) {
                ++j;
                continue;
            }
            std::size_t z = j;
            while (z < n && p[z] == 0)
                ++z;
            if (z - j >= wire::rleMinZeroRun) {
                zstart = j;
                zlen = z - j;
                break;
            }
            j = z;
        }
        std::size_t lit = (zstart == n ? n : zstart) - i;
        wire::putVarU64(out, lit);
        out.insert(out.end(), p + i, p + i + lit);
        wire::putVarU64(out, zlen);
        i += lit + zlen;
    }
}

} // namespace

WireCompactMode
wireCompactModeFromEnv()
{
    const char *v = std::getenv("SKYWAY_WIRE_COMPACT");
    if (!v)
        return WireCompactMode::Off;
    std::string s(v);
    if (s == "auto")
        return WireCompactMode::Auto;
    if (s == "force")
        return WireCompactMode::Force;
    return WireCompactMode::Off;
}

namespace wire
{

int
staticSavingPercent(const Klass *k, const ObjectFormat &wire_fmt)
{
    // Item tag + ~2-byte tid varint + 1-byte mark (a transfer mark is
    // usually 0: only a computed hash survives resetForTransfer).
    std::size_t overhead = 1 + 2 + 1;
    std::size_t raw;
    std::size_t compact;
    if (!k->isArray()) {
        raw = wireOffset(k->instanceBytes(), k, wire_fmt);
        compact = overhead;
        for (const FieldDesc &f : k->fields())
            compact += f.type == FieldType::Ref ? 2 : fieldSize(f.type);
    } else {
        // Arrays size with their length; estimate at 16 elements and
        // let the send path's measured feedback correct for real
        // workloads (large primitive arrays converge to ~0% unless
        // zero-run RLE bites, and demotion then flips them to raw).
        constexpr std::size_t n = 16;
        raw = wordAlign(wire_fmt.arrayHeaderBytes() + n * k->elemSize());
        compact = overhead + varLen(n) +
                  n * (k->elemType() == FieldType::Ref ? 3
                                                       : k->elemSize());
    }
    if (compact >= raw)
        return 0;
    return static_cast<int>(100 * (raw - compact) / raw);
}

} // namespace wire

int
WireEncodingCache::decision(std::int32_t tid) const
{
    MutexLock lock(mutex_);
    auto it = entries_.find(tid);
    return it == entries_.end() ? -1 : it->second.decision;
}

void
WireEncodingCache::setDecision(std::int32_t tid, int d)
{
    MutexLock lock(mutex_);
    Entry &e = entries_[tid];
    // First writer wins; in particular a measured demotion to raw is
    // never overwritten by another stream's stale static estimate.
    if (e.decision == -1)
        e.decision = d;
}

int
WireEncodingCache::recordMeasured(std::int32_t tid,
                                  std::uint64_t raw_bytes,
                                  std::uint64_t compact_bytes,
                                  std::uint64_t records,
                                  double min_saving_pct)
{
    MutexLock lock(mutex_);
    Entry &e = entries_[tid];
    if (e.decision != 1)
        return e.decision; // only compact classes produce measurements
    e.rawBytes += raw_bytes;
    e.compactBytes += compact_bytes;
    e.records += records;
    if (e.records >= kMinMeasuredRecords && e.rawBytes > 0) {
        double pct = 100.0 *
                     (static_cast<double>(e.rawBytes) -
                      static_cast<double>(e.compactBytes)) /
                     static_cast<double>(e.rawBytes);
        if (pct < min_saving_pct)
            e.decision = 0;
    }
    return e.decision;
}

std::size_t
WireEncodingCache::compactClassCount() const
{
    MutexLock lock(mutex_);
    std::size_t n = 0;
    for (const auto &[tid, e] : entries_)
        n += e.decision == 1;
    return n;
}

void
WireEncodingCache::reset()
{
    MutexLock lock(mutex_);
    entries_.clear();
}

CompactEncoder::CompactEncoder(SkywayContext &ctx,
                               ObjectFormat wire_format)
    : ctx_(ctx),
      wireFmt_(wire_format),
      mode_(ctx.wireCompactMode()),
      minSavingPct_(
          wire::WirePolicy::minSavingPercent(ctx.wireNsPerByte())),
      enc_(kHeadroom),
      compact_(mode_ == WireCompactMode::Force)
{
}

std::unique_ptr<CompactEncoder>
CompactEncoder::forStream(SkywayContext &ctx, ObjectFormat wire_format)
{
    WireCompactMode mode = ctx.wireCompactMode();
    if (mode == WireCompactMode::Off ||
        (mode == WireCompactMode::Auto &&
         wire::WirePolicy::minSavingPercent(ctx.wireNsPerByte()) > 100.0))
        return nullptr; // wire cheaper than the encoder: stay raw
    return std::make_unique<CompactEncoder>(ctx, wire_format);
}

int
CompactEncoder::decisionFor(std::int32_t tid, const Klass *k)
{
    auto it = memo_.find(tid);
    if (it != memo_.end())
        return it->second;
    int d = ctx_.wireEncodings().decision(tid);
    if (d < 0) {
        if (mode_ == WireCompactMode::Force) {
            d = 1;
        } else {
            int pct = wire::staticSavingPercent(k, wireFmt_);
            d = pct >= minSavingPct_ ? 1 : 0;
        }
        ctx_.wireEncodings().setDecision(tid, d);
    }
    memo_[tid] = d;
    return d;
}

void
CompactEncoder::root(Word root)
{
    // A first-write root's record is the next one written; record()
    // puts its ctTopMark right before it, unless a flush comes first.
    if (rawseg::isFirstWrite(root)) {
        top_ = root;
    } else {
        enc_.push_back(wire::ctBackRef);
        wire::putVarU64(enc_, root);
    }
}

void
CompactEncoder::record(const std::uint8_t *rec, std::size_t size,
                       std::int32_t tid, const Klass *k)
{
    if (top_ != 0) {
        enc_.push_back(wire::ctTopMark);
        top_ = 0;
    }
    if (decisionFor(tid, k) == 1) {
        if (!compact_) {
            releaseHeld();
            compact_ = true;
        }
        appendCompact(rec, size, tid, k);
    } else if (compact_) {
        appendRaw(rec, size);
    } else {
        // Held where the sender cloned it, so a segment that ships raw
        // is never copied again. OutputBuffer reallocates only while
        // its open segment holds no records (after a flush), so the
        // pointer stays good until this segment flushes.
        held_.push_back(Held{rec, size, enc_.size() - kHeadroom});
    }
}

void
CompactEncoder::appendRaw(const std::uint8_t *rec, std::size_t size)
{
    enc_.push_back(wire::ctRawRecord);
    wire::putVarU64(enc_, size);
    enc_.insert(enc_.end(), rec, rec + size);
}

void
CompactEncoder::releaseHeld()
{
    if (held_.empty())
        return;
    // Only root items are in enc_ yet; the raw items go between them.
    std::vector<std::uint8_t> roots(enc_.begin() + kHeadroom, enc_.end());
    enc_.resize(kHeadroom);
    std::size_t from = 0;
    for (const Held &h : held_) {
        enc_.insert(enc_.end(), roots.begin() + from, roots.begin() + h.at);
        appendRaw(h.rec, h.size);
        from = h.at;
    }
    enc_.insert(enc_.end(), roots.begin() + from, roots.end());
    held_.clear();
}

void
CompactEncoder::appendCompact(const std::uint8_t *rec, std::size_t size,
                              std::int32_t tid, const Klass *k)
{
    std::size_t before = enc_.size();
    Word m = wordAt(rec + offsetMark);
    auto utid = static_cast<std::uint64_t>(tid);

    if (!k->isArray()) {
        enc_.push_back(wire::ctInstance);
        wire::putVarU64(enc_, utid);
        wire::putVarU64(enc_, m);
        for (const FieldDesc &f : k->fields()) {
            std::size_t woff = wire::wireOffset(f.offset, k, wireFmt_);
            if (f.type == FieldType::Ref) {
                wire::putVarU64(enc_, wordAt(rec + woff));
            } else {
                std::size_t fs = fieldSize(f.type);
                enc_.insert(enc_.end(), rec + woff, rec + woff + fs);
            }
        }
    } else {
        Word n = wordAt(rec + wireFmt_.arrayLengthOffset());
        const std::uint8_t *payload = rec + wireFmt_.arrayHeaderBytes();
        if (k->elemType() == FieldType::Ref) {
            enc_.push_back(wire::ctRefArray);
            wire::putVarU64(enc_, utid);
            wire::putVarU64(enc_, m);
            wire::putVarU64(enc_, n);
            for (Word i = 0; i < n; ++i)
                wire::putVarU64(enc_, wordAt(payload + i * wordSize));
        } else {
            std::size_t bytes =
                static_cast<std::size_t>(n) * k->elemSize();
            rle_.clear();
            if (bytes >= 2 * wire::rleMinZeroRun)
                rleEncode(payload, bytes, rle_);
            bool use_rle = !rle_.empty() && rle_.size() < bytes;
            enc_.push_back(use_rle ? wire::ctPrimArrayRle
                                   : wire::ctPrimArray);
            wire::putVarU64(enc_, utid);
            wire::putVarU64(enc_, m);
            wire::putVarU64(enc_, n);
            if (use_rle)
                enc_.insert(enc_.end(), rle_.begin(), rle_.end());
            else
                enc_.insert(enc_.end(), payload, payload + bytes);
        }
    }

    ++compactRecords_;
    Measured &acc = measured_[tid];
    acc.rawBytes += size;
    acc.compactBytes += enc_.size() - before;
    ++acc.records;
}

void
CompactEncoder::syncMeasured()
{
    if (mode_ == WireCompactMode::Auto) {
        for (auto &[tid, acc] : measured_) {
            if (acc.records == 0)
                continue;
            memo_[tid] = ctx_.wireEncodings().recordMeasured(
                tid, acc.rawBytes, acc.compactBytes, acc.records,
                minSavingPct_);
            acc = Measured{};
        }
    }
    if (savedBytes_ + compactRecords_ + compactSegments_ == 0)
        return;
    CompactMetrics &m = CompactMetrics::get();
    m.bytesSaved.add(savedBytes_);
    m.records.add(compactRecords_);
    m.segments.add(compactSegments_);
    m.classes.set(static_cast<std::int64_t>(
        ctx_.wireEncodings().compactClassCount()));
    savedBytes_ = compactRecords_ = compactSegments_ = 0;
}

void
CompactEncoder::flush(const std::uint8_t *raw, std::size_t len,
                      const OutputBuffer::FlushFn &sink)
{
    // A first-write root whose record spilled into the next segment
    // names it forward.
    if (top_ != 0) {
        enc_.push_back(wire::ctBackRef);
        wire::putVarU64(enc_, rawseg::slotOf(top_));
        top_ = 0;
    }
    std::size_t items = enc_.size() - kHeadroom;
    std::size_t total = wordSize + wire::varLen(items) + items;
    if (compact_ && (mode_ == WireCompactMode::Force || total < len)) {
        std::uint8_t *seg = enc_.data() + kHeadroom - (total - items);
        putWord(seg, marker::compactSeg);
        wire::putVarU64(seg + wordSize, items);
        if (total < len)
            savedBytes_ += len - total;
        ++compactSegments_;
        sink(seg, total);
    } else {
        // Nothing compacted, or the estimate lied for this mix: ship
        // raw and let the measured accounting demote the offenders.
        sink(raw, len);
    }
    enc_.resize(kHeadroom);
    held_.clear();
    compact_ = mode_ == WireCompactMode::Force;
    syncMeasured();
}

} // namespace skyway
