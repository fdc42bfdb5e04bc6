#include "skyway/wirecompact.hh"

#include <cstdlib>
#include <cstring>
#include <string>

#include "obs/metrics.hh"
#include "skyway/context.hh"
#include "support/logging.hh"

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
      klasses_(ctx.resolver())
{
}

CompactEncoder::~CompactEncoder()
{
    syncMeasured();
}

Klass *
CompactEncoder::klassFor(std::int32_t tid)
{
    Klass *k = klasses_(tid);
    if (!k)
        panic("CompactEncoder: unresolvable type id " + std::to_string(tid));
    return k;
}

std::size_t
CompactEncoder::recordSize(const std::uint8_t *rec, std::size_t avail,
                           const Klass *k) const
{
    std::size_t size = wire::recordSize(rec, avail, k, wireFmt_);
    panicIf(size == 0, "CompactEncoder: record spans a flushed segment");
    return size;
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

CompactEncoder::RawParts
CompactEncoder::rawParts(const std::uint8_t *data, std::size_t len)
{
    rawseg::Header h;
    panicIf(rawseg::parseHeader(data, len, h) != rawseg::Parse::Ok ||
                h.bytes() != len,
            "CompactEncoder: not one raw segment");
    const std::uint8_t *rec = data + rawseg::headerBytes;
    return RawParts{rec, h.recordBytes, rec + h.recordBytes, h.roots};
}

bool
CompactEncoder::anyCompactClass(const std::uint8_t *records,
                                std::size_t len)
{
    std::size_t off = 0;
    while (off < len) {
        auto tid = static_cast<std::int32_t>(
            wordAt(records + off + offsetKlass));
        Klass *k = klassFor(tid);
        if (decisionFor(tid, k) == 1)
            return true;
        off += recordSize(records + off, len - off, k);
    }
    return false;
}

void
CompactEncoder::appendRecord(const std::uint8_t *rec, std::size_t size,
                             std::int32_t tid, const Klass *k,
                             bool compact)
{
    if (!compact) {
        enc_.push_back(wire::ctRawRecord);
        wire::putVarU64(enc_, size);
        enc_.insert(enc_.end(), rec, rec + size);
        return;
    }

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
CompactEncoder::appendRoot(Word root, bool record_follows)
{
    if (record_follows && rawseg::isFirstWrite(root)) {
        enc_.push_back(wire::ctTopMark);
    } else {
        enc_.push_back(wire::ctBackRef);
        wire::putVarU64(enc_, rawseg::slotOf(root));
    }
}

void
CompactEncoder::buildCompact(const RawParts &seg)
{
    // A first-write root becomes a ctTopMark right before its record.
    // A backward reference or null root goes right before the next
    // first-write root's record: its writeObject ran once every
    // earlier record was written. Roots left when the records run out
    // — among them a first-write root whose record spilled into the
    // next segment — close the segment as ctBackRef items.
    emitAt_.resize(seg.roots);
    std::uint64_t next = ~std::uint64_t{0};
    for (std::size_t i = seg.roots; i-- > 0;) {
        Word root = wordAt(seg.table + i * wordSize);
        if (rawseg::isFirstWrite(root))
            next = rawseg::slotOf(root) - 1;
        emitAt_[i] = next;
    }

    enc_.clear();
    std::size_t r = 0;
    std::uint64_t at = logical_;
    std::size_t off = 0;
    while (off < seg.recordBytes) {
        for (; r < seg.roots && emitAt_[r] <= at; ++r) {
            Word root = wordAt(seg.table + r * wordSize);
            appendRoot(root, rawseg::slotOf(root) - 1 == at);
        }
        const std::uint8_t *rec = seg.records + off;
        auto tid = static_cast<std::int32_t>(wordAt(rec + offsetKlass));
        Klass *k = klassFor(tid);
        std::size_t size = recordSize(rec, seg.recordBytes - off, k);
        appendRecord(rec, size, tid, k, decisionFor(tid, k) == 1);
        off += size;
        at += size;
    }
    for (; r < seg.roots; ++r)
        appendRoot(wordAt(seg.table + r * wordSize), false);
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
CompactEncoder::encodeSegment(const std::uint8_t *data, std::size_t len,
                              const OutputBuffer::FlushFn &sink)
{
    if (len == 0)
        return;
    RawParts seg = rawParts(data, len);
    // Pass 1 (Auto): a segment with no compact-decided class travels
    // verbatim — no rewrite, no extra copy.
    if (mode_ != WireCompactMode::Force &&
        !anyCompactClass(seg.records, seg.recordBytes)) {
        sink(data, len);
        logical_ += seg.recordBytes;
        syncMeasured();
        return;
    }
    // Pass 2: build the compact stream.
    buildCompact(seg);
    logical_ += seg.recordBytes;
    std::size_t total =
        wordSize + wire::varLen(enc_.size()) + enc_.size();
    if (mode_ != WireCompactMode::Force && total >= len) {
        // The estimate lied for this mix; ship raw and let the
        // measured accounting demote the offenders.
        sink(data, len);
        syncMeasured();
        return;
    }
    out_.clear();
    out_.reserve(total);
    out_.resize(wordSize);
    putWord(out_.data(), marker::compactSeg);
    wire::putVarU64(out_, enc_.size());
    out_.insert(out_.end(), enc_.begin(), enc_.end());
    if (out_.size() < len)
        savedBytes_ += len - out_.size();
    ++compactSegments_;
    sink(out_.data(), out_.size());
    syncMeasured();
}

OutputBuffer::FlushFn
compactStage(SkywayContext &ctx, ObjectFormat wire_format,
             OutputBuffer::FlushFn sink)
{
    WireCompactMode mode = ctx.wireCompactMode();
    if (mode == WireCompactMode::Off)
        return sink;
    if (mode == WireCompactMode::Auto &&
        wire::WirePolicy::minSavingPercent(ctx.wireNsPerByte()) > 100.0)
        return sink; // wire cheaper than the encoder: pass through
    auto enc = std::make_shared<CompactEncoder>(ctx, wire_format);
    return [enc, sink = std::move(sink)](const std::uint8_t *data,
                                         std::size_t len) {
        enc->encodeSegment(data, len, sink);
    };
}

} // namespace skyway
