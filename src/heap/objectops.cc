#include "heap/objectops.hh"

#include <cstring>
#include <deque>
#include <unordered_map>
#include <vector>

namespace skyway
{

namespace reflect
{

Address
getRefField(const ManagedHeap &h, Address obj, const std::string &name)
{
    const FieldDesc &f = h.klassOf(obj)->requireField(name);
    return h.loadRef(obj, f.offset);
}

void
setRefField(ManagedHeap &h, Address obj, const std::string &name, Address v)
{
    const FieldDesc &f = h.klassOf(obj)->requireField(name);
    h.storeRef(obj, f.offset, v);
}

} // namespace reflect

namespace array
{

Address
getRef(const ManagedHeap &h, Address arr, std::size_t i)
{
    const Klass *k = h.klassOf(arr);
    return h.loadRef(arr, h.arrayElemOffset(k, i));
}

void
setRef(ManagedHeap &h, Address arr, std::size_t i, Address v)
{
    const Klass *k = h.klassOf(arr);
    h.storeRef(arr, h.arrayElemOffset(k, i), v);
}

} // namespace array

Address
ObjectBuilder::makeString(std::string_view s)
{
    // Allocate the char[] first and root it across the String
    // allocation? Both allocations are young and the second cannot
    // move the first unless it triggers GC — so root defensively.
    Address chars = makeCharArray(s);
    std::size_t slot = heap_.addRoot(chars);
    Klass *strK = klasses_.load("java.lang.String");
    Address str = heap_.allocateInstance(strK);
    chars = heap_.root(slot);
    heap_.removeRoot(slot);
    field::setRef(heap_, str, strK->requireField("value"), chars);
    field::set<std::int32_t>(heap_, str, strK->requireField("hash"), 0);
    return str;
}

std::string
ObjectBuilder::stringValue(Address str) const
{
    Address chars = heap_.loadRef(
        str, heap_.klassOf(str)->requireField("value").offset);
    std::size_t n = static_cast<std::size_t>(heap_.arrayLength(chars));
    std::string out;
    out.reserve(n);
    const Klass *ck = heap_.klassOf(chars);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(static_cast<char>(
            heap_.load<std::uint16_t>(chars,
                                      heap_.arrayElemOffset(ck, i))));
    return out;
}

std::int32_t
ObjectBuilder::stringHash(Address str)
{
    const Klass *k = heap_.klassOf(str);
    const FieldDesc &hf = k->requireField("hash");
    std::int32_t h = field::get<std::int32_t>(heap_, str, hf);
    if (h != 0)
        return h;
    Address chars = field::getRef(heap_, str, k->requireField("value"));
    std::size_t n = static_cast<std::size_t>(heap_.arrayLength(chars));
    const Klass *ck = heap_.klassOf(chars);
    // Java's h*31+c relies on wrapping int arithmetic; accumulate in
    // unsigned (wrapping is defined) and cast back to the same bits.
    std::uint32_t uh = static_cast<std::uint32_t>(h);
    for (std::size_t i = 0; i < n; ++i) {
        uh = 31u * uh + heap_.load<std::uint16_t>(
                            chars, heap_.arrayElemOffset(ck, i));
    }
    h = static_cast<std::int32_t>(uh);
    field::set<std::int32_t>(heap_, str, hf, h);
    return h;
}

Address
ObjectBuilder::makeInteger(std::int32_t v)
{
    Klass *k = klasses_.load("java.lang.Integer");
    Address a = heap_.allocateInstance(k);
    field::set<std::int32_t>(heap_, a, k->requireField("value"), v);
    return a;
}

Address
ObjectBuilder::makeLong(std::int64_t v)
{
    Klass *k = klasses_.load("java.lang.Long");
    Address a = heap_.allocateInstance(k);
    field::set<std::int64_t>(heap_, a, k->requireField("value"), v);
    return a;
}

Address
ObjectBuilder::makeDouble(double v)
{
    Klass *k = klasses_.load("java.lang.Double");
    Address a = heap_.allocateInstance(k);
    field::set<double>(heap_, a, k->requireField("value"), v);
    return a;
}

std::int32_t
ObjectBuilder::integerValue(Address box) const
{
    return heap_.load<std::int32_t>(
        box, heap_.klassOf(box)->requireField("value").offset);
}

std::int64_t
ObjectBuilder::longValue(Address box) const
{
    return heap_.load<std::int64_t>(
        box, heap_.klassOf(box)->requireField("value").offset);
}

double
ObjectBuilder::doubleValue(Address box) const
{
    return heap_.load<double>(
        box, heap_.klassOf(box)->requireField("value").offset);
}

Address
ObjectBuilder::makeIntArray(const std::vector<std::int32_t> &data)
{
    Klass *k = klasses_.arrayOfPrimitive(FieldType::Int);
    Address a = heap_.allocateArray(k, data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        array::set<std::int32_t>(heap_, a, i, data[i]);
    return a;
}

Address
ObjectBuilder::makeLongArray(const std::vector<std::int64_t> &data)
{
    Klass *k = klasses_.arrayOfPrimitive(FieldType::Long);
    Address a = heap_.allocateArray(k, data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        array::set<std::int64_t>(heap_, a, i, data[i]);
    return a;
}

Address
ObjectBuilder::makeDoubleArray(const std::vector<double> &data)
{
    Klass *k = klasses_.arrayOfPrimitive(FieldType::Double);
    Address a = heap_.allocateArray(k, data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        array::set<double>(heap_, a, i, data[i]);
    return a;
}

Address
ObjectBuilder::makeCharArray(std::string_view data)
{
    Klass *k = klasses_.arrayOfPrimitive(FieldType::Char);
    Address a = heap_.allocateArray(k, data.size());
    for (std::size_t i = 0; i < data.size(); ++i)
        array::set<std::uint16_t>(heap_, a, i,
                                  static_cast<std::uint8_t>(data[i]));
    return a;
}

Address
ObjectBuilder::makeRefArray(const std::string &elemClass, std::size_t n)
{
    Klass *k = klasses_.arrayOfRefs(elemClass);
    return heap_.allocateArray(k, n);
}

namespace
{

const void *
raw(Address a, std::size_t off)
{
    return reinterpret_cast<const void *>(a + off);
}

std::string
hashText(Word m)
{
    return mark::hasHash(m) ? std::to_string(mark::hashOf(m)) : "none";
}

} // namespace

GraphCheckResult
graphsEqual(const ManagedHeap &ha, Address a, const ManagedHeap &hb,
            Address b, bool requireHash)
{
    GraphCheckResult r;
    auto fail = [&r](std::string why) {
        r.equal = false;
        r.divergence = std::move(why);
        return r;
    };
    // Breadth-first over object pairs, each mapped both ways: aliasing
    // on either side must be mirrored exactly on the other.
    std::unordered_map<Address, Address> aToB, bToA;
    std::deque<std::pair<Address, Address>> work;
    // Pairs the referents of one slot; names the mismatch, if any.
    auto link = [&](Address x, Address y) -> const char * {
        if (x == nullAddr || y == nullAddr)
            return x == y ? nullptr : "null vs non-null reference";
        auto [ix, newX] = aToB.emplace(x, y);
        auto [iy, newY] = bToA.emplace(y, x);
        if (newX && newY)
            work.emplace_back(x, y);
        else if (ix->second != y || iy->second != x)
            return "aliasing differs (the correspondence is not a "
                   "bijection)";
        return nullptr;
    };

    if (const char *why = link(a, b))
        return fail(std::string(why) + " at <root>");
    while (!work.empty()) {
        auto [x, y] = work.front();
        work.pop_front();
        ++r.objectsCompared;

        const Klass *ka = ha.klassOf(x);
        const Klass *kb = hb.klassOf(y);
        if (ka->name() != kb->name())
            return fail("class mismatch: " + ka->name() + " vs " +
                        kb->name());
        if (requireHash) {
            Word ma = ha.markOf(x);
            Word mb = hb.markOf(y);
            if (mark::hasHash(ma) != mark::hasHash(mb) ||
                (mark::hasHash(ma) && mark::hashOf(ma) != mark::hashOf(mb)))
                return fail(ka->name() + ".<hash>: " + hashText(ma) +
                            " vs " + hashText(mb));
        }

        if (ka->isArray()) {
            auto n = static_cast<std::size_t>(ha.arrayLength(x));
            auto nb = static_cast<std::size_t>(hb.arrayLength(y));
            if (n != nb)
                return fail(ka->name() + ".<length>: " +
                            std::to_string(n) + " vs " +
                            std::to_string(nb));
            if (ka->elemType() != FieldType::Ref) {
                if (std::memcmp(raw(x, ha.format().arrayHeaderBytes()),
                                raw(y, hb.format().arrayHeaderBytes()),
                                n * ka->elemSize()) != 0)
                    return fail(ka->name() +
                                ".<elements>: primitive payload differs");
                continue;
            }
            for (std::size_t i = 0; i < n; ++i)
                if (const char *why = link(array::getRef(ha, x, i),
                                           array::getRef(hb, y, i)))
                    return fail(why + (" at " + ka->name()) + "[" +
                                std::to_string(i) + "]");
            continue;
        }

        // Fields are in the same layout order on both sides (same
        // catalog), at offsets that differ when the formats do.
        const auto &fa = ka->fields();
        const auto &fb = kb->fields();
        if (fa.size() != fb.size())
            return fail(ka->name() + ".<fields>: field count differs");
        for (std::size_t i = 0; i < fa.size(); ++i) {
            if (fa[i].name != fb[i].name || fa[i].type != fb[i].type)
                return fail(ka->name() + "." + fa[i].name +
                            ": field layout differs");
            if (fa[i].type == FieldType::Ref) {
                if (const char *why = link(ha.loadRef(x, fa[i].offset),
                                           hb.loadRef(y, fb[i].offset)))
                    return fail(why + (" at " + ka->name()) + "." +
                                fa[i].name);
            } else if (std::memcmp(raw(x, fa[i].offset),
                                   raw(y, fb[i].offset),
                                   fieldSize(fa[i].type)) != 0) {
                return fail(ka->name() + "." + fa[i].name +
                            ": primitive value differs");
            }
        }
    }
    return r;
}

GraphMeasure
measureGraph(const ManagedHeap &h, Address root)
{
    GraphMeasure m;
    if (root == nullAddr)
        return m;
    std::unordered_map<Address, bool> seen;
    std::vector<Address> work{root};
    while (!work.empty()) {
        Address a = work.back();
        work.pop_back();
        if (a == nullAddr || seen.count(a))
            continue;
        seen[a] = true;
        ++m.objects;
        m.bytes += h.objectSize(a);
        forEachRefSlot(h, a, [&](std::size_t off) {
            work.push_back(h.loadRef(a, off));
        });
    }
    return m;
}

} // namespace skyway
