/**
 * @file
 * The wire decoder (docs/WIRE_FORMAT.md): the one parser of raw and
 * compact segments. The receiver (InputBuffer), the SkywaySan
 * validator (WireValidator) and the compact encoder's record sizing
 * all read the wire through it, so a bounds check or a format change
 * lands in one place.
 *
 * Decoder<Sink> makes one linear pass over one segment. It sizes every
 * record once against its klass, expands compact items into storage
 * the sink places, and reports each record, reference slot and root
 * to the sink with its stream offset. Bytes are never trusted and a
 * fault never panics here: the pass stops at the first one and
 * returns it as a WireDiagnostic. The sink is a template parameter so
 * the receiver's per-record calls inline. A sink provides:
 *
 *   Klass *klassFor(std::int32_t tid)     nullptr: no such type id
 *   std::uint8_t *inPlace(const std::uint8_t *records, std::size_t n)
 *       where the raw records at @p records stay (records itself), or
 *       nullptr to have each one placed and copied
 *   std::uint8_t *place(std::size_t bytes)
 *       storage for one full-format record, or nullptr to check the
 *       record without expanding it
 *   void onRecord(std::uint8_t *rec, Klass *k, std::size_t size,
 *                 Word mark, std::uint64_t at)     rec may be nullptr
 *   void onSlot(std::uint8_t *rec, std::size_t off, Word slot,
 *               std::uint64_t at)      reference slot @p off of rec
 *   void onRoot(Word root, std::uint64_t at)     a raw root-table word
 *   void onTopMark(std::uint64_t at)    compact: the next record is a
 *                                       first-write root
 *   void onBackRef(Word slot, std::uint64_t at)  compact: a root slot
 *   void onItem(std::uint64_t at)       compact: an item's tag byte
 *
 * Slot words are 0 for null, else the target's relative address + 1.
 */

#ifndef SKYWAY_SKYWAY_WIREDECODE_HH
#define SKYWAY_SKYWAY_WIREDECODE_HH

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>

#include "klass/klass.hh"
#include "skyway/baddr.hh"

namespace skyway
{
namespace wire
{

/** Fault categories; each SkywaySan corruption kind maps to one. */
enum class WireFault
{
    /** A segment starts with a word that is no segment kind word. */
    UnknownMarker,
    /** Klass word does not resolve in the type registry. */
    UnresolvableTypeId,
    /** A record, or a segment's header lengths, extend past the bytes
     *  at hand. */
    TruncatedRecord,
    /** A compact array length no heap could hold. */
    MisalignedRecord,
    /** A reference slot does not name a decoded object start. */
    DanglingReference,
    /** Mark word carries bits that must not survive transfer. */
    BadMarkWord,
    /** Nonzero baddr word: sender claim state leaked onto the wire. */
    BadBaddrWord,
    /** A root slot or compact root item names no record start, or
     *  names a record already first written. */
    BadRootRecord,
    /**
     * A compact segment is malformed: unknown item tag, an item
     * overrunning the declared payload, a tag that disagrees with the
     * klass, or a truncated varint.
     */
    BadCompactItem,
};

inline const char *
wireFaultName(WireFault f)
{
    switch (f) {
    case WireFault::UnknownMarker:
        return "unknown-marker";
    case WireFault::UnresolvableTypeId:
        return "unresolvable-type-id";
    case WireFault::TruncatedRecord:
        return "truncated-record";
    case WireFault::MisalignedRecord:
        return "misaligned-record";
    case WireFault::DanglingReference:
        return "dangling-reference";
    case WireFault::BadMarkWord:
        return "bad-mark-word";
    case WireFault::BadBaddrWord:
        return "bad-baddr-word";
    case WireFault::BadRootRecord:
        return "bad-root-record";
    case WireFault::BadCompactItem:
        return "bad-compact-item";
    }
    return "?";
}

/** One fault, located by its stream offset. */
struct WireDiagnostic
{
    WireFault fault;
    std::uint64_t offset;
    std::string detail;

    /** "fault-name @+offset: detail" */
    std::string
    str() const
    {
        return std::string(wireFaultName(fault)) + " @+" +
               std::to_string(offset) + ": " + detail;
    }
};

/** Compact item tags (one byte each; layouts in skyway/wirecompact.hh). */
constexpr std::uint8_t ctTopMark = 0x01;
constexpr std::uint8_t ctBackRef = 0x02;
constexpr std::uint8_t ctRawRecord = 0x03;
constexpr std::uint8_t ctInstance = 0x04;
constexpr std::uint8_t ctPrimArray = 0x05;
constexpr std::uint8_t ctRefArray = 0x06;
constexpr std::uint8_t ctPrimArrayRle = 0x07;

/** An array length past this is corruption, not data (2^40 elements
 *  would overflow the 40-bit relative address space by itself). */
constexpr std::uint64_t maxPlausibleArrayLength = 1ull << 40;

inline Word
wordAt(const std::uint8_t *p)
{
    Word w;
    std::memcpy(&w, p, wordSize);
    return w;
}

inline void
putWord(std::uint8_t *p, Word w)
{
    std::memcpy(p, &w, wordSize);
}

/** True when @p data begins with a compact segment's kind word. */
inline bool
isCompactSegment(const std::uint8_t *data, std::size_t len)
{
    return len >= wordSize && wordAt(data) == marker::compactSeg;
}

/**
 * Offset @p off of klass @p k's layout on a wire laid out in @p wf: a
 * heterogeneous-format sender has already rewritten the record into
 * the wire format, so instance offsets shift by the header delta.
 */
inline std::size_t
wireOffset(std::size_t off, const Klass *k, const ObjectFormat &wf)
{
    return off + wf.headerBytes() - k->format().headerBytes();
}

/**
 * Wire size of the record of klass @p k at @p rec, which has at least
 * a header's worth of the @p avail bytes left in its region; 0 when
 * the record spans past them.
 */
inline std::size_t
recordSize(const std::uint8_t *rec, std::size_t avail, const Klass *k,
           const ObjectFormat &wf)
{
    std::size_t size = wireOffset(k->instanceBytes(), k, wf);
    if (k->isArray()) {
        if (avail < wf.arrayHeaderBytes())
            return 0;
        // Bound the length by the bytes at hand (an element takes at
        // least one) before the size arithmetic can wrap.
        Word n = wordAt(rec + wf.arrayLengthOffset());
        if (n > avail)
            return 0;
        size = wordAlign(wf.arrayHeaderBytes() +
                         static_cast<std::size_t>(n) * k->elemSize());
    }
    return size <= avail ? size : 0;
}

template <class Sink>
class Decoder
{
  public:
    /** @param wf the format records are laid out in on the wire */
    Decoder(Sink &sink, const ObjectFormat &wf) : sink_(sink), wf_(wf) {}

    /**
     * Decode the segment at @p seg, with @p len bytes at hand and
     * stream offset @p at. Returns the segment's length, or 0 at the
     * first fault (see fault()).
     */
    std::size_t segment(const std::uint8_t *seg, std::size_t len,
                        std::uint64_t at);

    const WireDiagnostic &fault() const { return fault_; }

  private:
    std::uint64_t
    off(const std::uint8_t *p) const
    {
        return at_ + static_cast<std::uint64_t>(p - seg_);
    }
    std::size_t left() const { return static_cast<std::size_t>(end_ - p_); }

    /**
     * Record the fault, its detail the concatenation of @p parts
     * (numbers in decimal); false, so callers return it as a failure.
     * The detail is built in here, off the hot paths.
     */
    template <class... Parts>
    [[gnu::cold]] bool fail(WireFault f, const std::uint8_t *p,
                            const Parts &...parts);
    template <class... Parts>
    bool
    bad(const std::uint8_t *item, const Parts &...parts)
    {
        return fail(WireFault::BadCompactItem, item, parts...);
    }

    std::size_t raw(const std::uint8_t *seg, std::size_t len);
    /** The klass of wire type id @p tid (read at @p at), or a fault. */
    Klass *resolve(std::uint64_t tid, const std::uint8_t *at);
    /**
     * The raw records of [@p src, + @p bytes): each sized, and kept in
     * place or placed and copied as the sink chooses. For the compact
     * raw @p item they must be exactly one record.
     */
    bool decodeRecords(const std::uint8_t *src, std::size_t bytes,
                       const std::uint8_t *item = nullptr);

    std::size_t compact(const std::uint8_t *seg, std::size_t len);
    /** One packed instance or array item, its tag already read. */
    bool compactRecord(std::uint8_t tag, const std::uint8_t *item);
    /** Read a LEB128 varint of the compact payload. */
    bool var(std::uint64_t &v);
    /** Take @p n payload bytes into @p dst + @p o (when placed). */
    bool copy(std::uint8_t *dst, std::size_t o, std::uint64_t n);
    /** Take a slot varint into @p dst + @p o (when placed), report it. */
    bool slot(std::uint8_t *dst, std::size_t o);

    Sink &sink_;
    ObjectFormat wf_;
    WireDiagnostic fault_{};
    /** The segment being decoded and its stream offset. */
    const std::uint8_t *seg_ = nullptr;
    std::uint64_t at_ = 0;
    /** Compact payload cursor. */
    const std::uint8_t *p_ = nullptr;
    const std::uint8_t *end_ = nullptr;
};

// Members are defined at column 0, the layout tools/lint_invariants.py
// parses: rule 3 walks the decode path from Decoder::segment.

template <class Sink>
std::size_t
Decoder<Sink>::segment(const std::uint8_t *seg, std::size_t len,
                       std::uint64_t at)
{
    seg_ = seg;
    at_ = at;
    if (len < wordSize)
        return fail(WireFault::TruncatedRecord, seg, "a segment tail of ",
                    len, " bytes spans less than a word");
    Word kind = wordAt(seg);
    if (kind == marker::rawSeg)
        return raw(seg, len);
    if (kind == marker::compactSeg)
        return compact(seg, len);
    return fail(WireFault::UnknownMarker, seg, "segment starts with word ",
                kind, ", an unknown marker");
}

template <class Sink>
template <class... Parts>
bool
Decoder<Sink>::fail(WireFault f, const std::uint8_t *p,
                    const Parts &...parts)
{
    std::string detail;
    auto add = [&detail](const auto &part) {
        if constexpr (std::is_arithmetic_v<std::decay_t<decltype(part)>>)
            detail += std::to_string(part);
        else
            detail += part;
    };
    (add(parts), ...);
    fault_ = WireDiagnostic{f, off(p), std::move(detail)};
    return false;
}

template <class Sink>
std::size_t
Decoder<Sink>::raw(const std::uint8_t *seg, std::size_t len)
{
    rawseg::Header h;
    if (rawseg::parseHeader(seg, len, h) != rawseg::Parse::Ok)
        return fail(WireFault::TruncatedRecord, seg,
                    "raw segment header, or the records and roots it "
                    "names, spans past the ",
                    len, " bytes at hand");
    const std::uint8_t *records = seg + rawseg::headerBytes;
    if (!decodeRecords(records, h.recordBytes))
        return 0;
    const std::uint8_t *table = records + h.recordBytes;
    for (std::size_t i = 0; i < h.roots; ++i)
        sink_.onRoot(wordAt(table + i * wordSize),
                     off(table + i * wordSize));
    return h.bytes();
}

template <class Sink>
inline Klass *
Decoder<Sink>::resolve(std::uint64_t tid, const std::uint8_t *at)
{
    Klass *k = tid <= 0x7fffffffull
                   ? sink_.klassFor(static_cast<std::int32_t>(tid))
                   : nullptr;
    if (!k)
        fail(WireFault::UnresolvableTypeId, at, "type id ", tid,
             " is not in the registry");
    return k;
}

template <class Sink>
bool
Decoder<Sink>::decodeRecords(const std::uint8_t *src, std::size_t bytes,
                             const std::uint8_t *item)
{
    std::uint8_t *in = sink_.inPlace(src, bytes);
    const std::uint8_t *end = src + bytes;
    for (const std::uint8_t *p = src; p < end;) {
        auto avail = static_cast<std::size_t>(end - p);
        if (avail < wf_.headerBytes())
            return fail(WireFault::TruncatedRecord, p,
                        "a record header spans past its segment");
        Klass *k = resolve(wordAt(p + offsetKlass), p + offsetKlass);
        if (!k)
            return false;
        std::size_t size = recordSize(p, avail, k, wf_);
        if (size == 0)
            return fail(WireFault::TruncatedRecord, p, k->name(),
                        " record spans past its segment (", avail,
                        " bytes left)");
        if (item && size != bytes)
            return bad(item, "raw item length ", bytes,
                       " is not its record's size ", size);
        std::uint8_t *rec = in ? in + (p - src) : sink_.place(size);
        if (!in && rec)
            std::memcpy(rec, p, size);
        sink_.onRecord(rec, k, size, wordAt(p + offsetMark), off(p));
        auto report = [&](std::size_t o) {
            sink_.onSlot(rec, o, wordAt(p + o), off(p + o));
        };
        if (!k->isArray()) {
            std::size_t shift = wireOffset(0, k, wf_);
            for (std::uint32_t o : k->refOffsets())
                report(o + shift);
        } else if (k->elemType() == FieldType::Ref) {
            Word n = wordAt(p + wf_.arrayLengthOffset());
            for (Word i = 0; i < n; ++i)
                report(wf_.arrayHeaderBytes() + i * wordSize);
        }
        p += size;
    }
    return true;
}

template <class Sink>
bool
Decoder<Sink>::var(std::uint64_t &v)
{
    v = 0;
    for (unsigned shift = 0; p_ < end_ && shift < 64; shift += 7) {
        std::uint8_t b = *p_++;
        v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return true;
    }
    return false;
}

template <class Sink>
bool
Decoder<Sink>::copy(std::uint8_t *dst, std::size_t o, std::uint64_t n)
{
    if (n > left())
        return false;
    if (dst)
        std::memcpy(dst + o, p_, static_cast<std::size_t>(n));
    p_ += n;
    return true;
}

template <class Sink>
bool
Decoder<Sink>::slot(std::uint8_t *dst, std::size_t o)
{
    const std::uint8_t *at = p_;
    std::uint64_t v;
    if (!var(v))
        return false;
    if (dst)
        putWord(dst + o, v);
    sink_.onSlot(dst, o, v, off(at));
    return true;
}

template <class Sink>
std::size_t
Decoder<Sink>::compact(const std::uint8_t *seg, std::size_t len)
{
    p_ = seg + wordSize;
    end_ = seg + len;
    std::uint64_t n;
    if (!var(n))
        return bad(seg, "compact segment preamble truncated");
    if (n > left())
        return fail(WireFault::TruncatedRecord, seg,
                    "compact segment payload (", n,
                    " bytes) spans past the segment");
    end_ = p_ + n;
    while (p_ < end_) {
        const std::uint8_t *item = p_;
        sink_.onItem(off(item));
        std::uint8_t tag = *p_++;
        std::uint64_t v;
        if (tag == ctTopMark) {
            sink_.onTopMark(off(item));
        } else if (tag == ctBackRef) {
            if (!var(v))
                return bad(item, "backward reference missing its slot "
                                 "varint");
            sink_.onBackRef(v, off(item));
        } else if (tag == ctRawRecord) {
            if (!var(v) || v == 0 || v > left())
                return bad(item, "raw item is empty or overruns the "
                                 "compact payload");
            p_ += v;
            if (!decodeRecords(p_ - v, static_cast<std::size_t>(v), item))
                return 0;
        } else if (tag < ctInstance || tag > ctPrimArrayRle) {
            return bad(item, "unknown compact item tag ", tag);
        } else if (!compactRecord(tag, item)) {
            return 0;
        }
    }
    return static_cast<std::size_t>(end_ - seg);
}

template <class Sink>
bool
Decoder<Sink>::compactRecord(std::uint8_t tag, const std::uint8_t *item)
{
    std::uint64_t tid, m, n = 0;
    if (!var(tid) || !var(m))
        return bad(item, "compact record header truncated");
    Klass *k = resolve(tid, item);
    if (!k)
        return false;
    bool array = tag != ctInstance;
    if (k->isArray() != array)
        return bad(item, array ? "array tag with instance class "
                               : "instance tag with array class ",
                   k->name());
    std::size_t hdr = wf_.arrayHeaderBytes();
    std::size_t size = wireOffset(k->instanceBytes(), k, wf_);
    if (array) {
        if (!var(n))
            return bad(item, "compact array missing its length varint");
        if (n > maxPlausibleArrayLength)
            return fail(WireFault::MisalignedRecord, item,
                        "implausible array length ", n, " for ", k->name());
        if ((tag == ctRefArray) != (k->elemType() == FieldType::Ref))
            return bad(item, "array tag does not match ", k->name(),
                       "'s element type");
        // Plain payloads need their bytes at hand before placing.
        if (tag == ctRefArray ? n > left()
                              : tag == ctPrimArray &&
                                    n * k->elemSize() > left())
            return bad(item, k->name(), " array item overruns the payload");
        size = wordAlign(hdr + static_cast<std::size_t>(n) * k->elemSize());
    }
    std::uint8_t *dst = sink_.place(size);
    if (dst) {
        std::memset(dst, 0, size);
        putWord(dst + offsetMark, m);
        putWord(dst + offsetKlass, tid);
        if (array)
            putWord(dst + wf_.arrayLengthOffset(), n);
    }
    sink_.onRecord(dst, k, size, m, off(item));

    if (!array) {
        for (const FieldDesc &f : k->fields()) {
            std::size_t o = wireOffset(f.offset, k, wf_);
            if (!(f.type == FieldType::Ref ? slot(dst, o)
                                           : copy(dst, o, fieldSize(f.type))))
                return bad(item, k->name(), " instance item truncated");
        }
        return true;
    }
    std::size_t total = static_cast<std::size_t>(n) * k->elemSize();
    if (tag == ctRefArray) {
        for (std::uint64_t i = 0; i < n; ++i)
            if (!slot(dst, hdr + i * wordSize))
                return bad(item, "reference array item truncated");
    } else if (tag == ctPrimArray) {
        copy(dst, hdr, total); // bounded above
    } else {
        // Zero-run RLE: [varint literal bytes][literals][varint zero
        // bytes] pairs; the zeros are already in place.
        for (std::size_t got = 0; got < total;) {
            std::uint64_t lit, zeros;
            if (!var(lit) || lit > total - got || !copy(dst, hdr + got, lit))
                return bad(item, "RLE literal run overruns the array");
            got += static_cast<std::size_t>(lit);
            if (!var(zeros) || zeros > total - got)
                return bad(item, "RLE zero run overruns the array");
            got += static_cast<std::size_t>(zeros);
        }
    }
    return true;
}

} // namespace wire
} // namespace skyway

#endif // SKYWAY_SKYWAY_WIREDECODE_HH
