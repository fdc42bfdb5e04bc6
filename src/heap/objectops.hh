/**
 * @file
 * Typed object access on top of the raw heap: field loads/stores via
 * FieldDesc, reflective access via field-name strings (deliberately
 * paying the string-lookup cost that makes Java reflection expensive),
 * reference-slot iteration (the traversal primitive shared by the GC
 * and the Skyway sender), and convenience builders for strings, boxes,
 * and arrays.
 */

#ifndef SKYWAY_HEAP_OBJECTOPS_HH
#define SKYWAY_HEAP_OBJECTOPS_HH

#include <string>
#include <string_view>
#include <vector>

#include "heap/heap.hh"
#include "klass/klass.hh"

namespace skyway
{

/** Typed field access through a resolved FieldDesc (fast path). */
namespace field
{

template <typename T>
T
get(const ManagedHeap &h, Address obj, const FieldDesc &f)
{
    return h.load<T>(obj, f.offset);
}

template <typename T>
void
set(ManagedHeap &h, Address obj, const FieldDesc &f, T v)
{
    h.store<T>(obj, f.offset, v);
}

inline Address
getRef(const ManagedHeap &h, Address obj, const FieldDesc &f)
{
    return h.loadRef(obj, f.offset);
}

inline void
setRef(ManagedHeap &h, Address obj, const FieldDesc &f, Address v)
{
    h.storeRef(obj, f.offset, v);
}

} // namespace field

/**
 * Reflective access: every call resolves the field by *name*, paying a
 * string hash + map probe, as java.lang.reflect does. The reflective
 * serializer uses exactly these entry points so its measured cost has
 * the right shape.
 */
namespace reflect
{

template <typename T>
T
getField(const ManagedHeap &h, Address obj, const std::string &name)
{
    const FieldDesc &f = h.klassOf(obj)->requireField(name);
    return h.load<T>(obj, f.offset);
}

template <typename T>
void
setField(ManagedHeap &h, Address obj, const std::string &name, T v)
{
    const FieldDesc &f = h.klassOf(obj)->requireField(name);
    h.store<T>(obj, f.offset, v);
}

Address getRefField(const ManagedHeap &h, Address obj,
                    const std::string &name);
void setRefField(ManagedHeap &h, Address obj, const std::string &name,
                 Address v);

} // namespace reflect

/**
 * Invoke @p visit(slotOffset) for every reference slot of the object at
 * @p obj — reference-typed instance fields, or every element of a
 * reference array. This is the traversal primitive used by the GC and
 * by Skyway's sender (paper Algorithm 2, lines 15-27).
 */
template <typename Visitor>
void
forEachRefSlot(const ManagedHeap &h, Address obj, Visitor &&visit)
{
    const Klass *k = h.klassOf(obj);
    if (k->isArray()) {
        if (k->elemType() != FieldType::Ref)
            return;
        std::size_t n = static_cast<std::size_t>(h.arrayLength(obj));
        std::size_t base = h.format().arrayHeaderBytes();
        for (std::size_t i = 0; i < n; ++i)
            visit(base + i * wordSize);
    } else {
        for (std::uint32_t off : k->refOffsets())
            visit(off);
    }
}

/** Array element accessors. */
namespace array
{

template <typename T>
T
get(const ManagedHeap &h, Address arr, std::size_t i)
{
    const Klass *k = h.klassOf(arr);
    return h.load<T>(arr, h.arrayElemOffset(k, i));
}

template <typename T>
void
set(ManagedHeap &h, Address arr, std::size_t i, T v)
{
    const Klass *k = h.klassOf(arr);
    h.store<T>(arr, h.arrayElemOffset(k, i), v);
}

Address getRef(const ManagedHeap &h, Address arr, std::size_t i);
void setRef(ManagedHeap &h, Address arr, std::size_t i, Address v);

} // namespace array

/**
 * Builders and views for the bootstrap classes. These are the
 * "standard library" the workloads are written against.
 */
class ObjectBuilder
{
  public:
    ObjectBuilder(ManagedHeap &heap, KlassTable &klasses)
        : heap_(heap), klasses_(klasses)
    {}

    ManagedHeap &heap() { return heap_; }
    KlassTable &klasses() { return klasses_; }

    /** Allocate a java.lang.String holding @p s (with a char[] value). */
    Address makeString(std::string_view s);

    /** Read back a java.lang.String's contents. */
    std::string stringValue(Address str) const;

    /**
     * The JDK's String.hashCode (cached in the `hash` field): computed
     * on first use, shipped with the object by every serializer that
     * serializes fields — and preserved structurally by Skyway.
     */
    std::int32_t stringHash(Address str);

    Address makeInteger(std::int32_t v);
    Address makeLong(std::int64_t v);
    Address makeDouble(double v);

    std::int32_t integerValue(Address box) const;
    std::int64_t longValue(Address box) const;
    double doubleValue(Address box) const;

    /** Allocate a primitive array and optionally fill from @p data. */
    Address makeIntArray(const std::vector<std::int32_t> &data);
    Address makeLongArray(const std::vector<std::int64_t> &data);
    Address makeDoubleArray(const std::vector<double> &data);
    Address makeCharArray(std::string_view data);

    /** Allocate a reference array of @p n null slots. */
    Address makeRefArray(const std::string &elemClass, std::size_t n);

  private:
    ManagedHeap &heap_;
    KlassTable &klasses_;
};

/**
 * A GC-safe vector of references: every element occupies a root slot,
 * so the collector keeps the referents alive and updates the entries
 * when objects move. Deserializers use this for their handle tables —
 * deserialization allocates heavily and may trigger collections
 * mid-graph.
 */
class LocalRoots
{
  public:
    explicit LocalRoots(ManagedHeap &heap) : heap_(heap) {}

    ~LocalRoots()
    {
        for (std::size_t slot : slots_)
            heap_.removeRoot(slot);
    }

    LocalRoots(const LocalRoots &) = delete;
    LocalRoots &operator=(const LocalRoots &) = delete;

    std::size_t
    push(Address a)
    {
        slots_.push_back(heap_.addRoot(a));
        return slots_.size() - 1;
    }

    Address get(std::size_t i) const { return heap_.root(slots_[i]); }
    void set(std::size_t i, Address a) { heap_.setRoot(slots_[i], a); }
    std::size_t size() const { return slots_.size(); }

    void
    clear()
    {
        for (std::size_t slot : slots_)
            heap_.removeRoot(slot);
        slots_.clear();
    }

  private:
    ManagedHeap &heap_;
    std::vector<std::size_t> slots_;
};

/**
 * A batch of received records. Records deserialized into the young
 * generation move under GC and must occupy root slots (LocalRoots);
 * records received into pinned Skyway input buffers are immovable and
 * kept alive by the buffer pin, so the batch can hold raw addresses
 * with no per-record root churn.
 */
class RecordBatch
{
  public:
    /** A batch of GC-movable records (rooted). */
    explicit RecordBatch(ManagedHeap &heap)
        : roots_(std::make_unique<LocalRoots>(heap))
    {}

    /** A batch of pinned, immovable records. */
    RecordBatch() = default;

    void
    push(Address a)
    {
        if (roots_)
            roots_->push(a);
        else
            pinned_.push_back(a);
    }

    Address
    get(std::size_t i) const
    {
        return roots_ ? roots_->get(i) : pinned_[i];
    }

    std::size_t
    size() const
    {
        return roots_ ? roots_->size() : pinned_.size();
    }

  private:
    std::unique_ptr<LocalRoots> roots_;
    std::vector<Address> pinned_;
};

/** The outcome of graphsEqual; converts to true when the graphs match. */
struct GraphCheckResult
{
    bool equal = true;
    /** First divergence, human-readable; empty when equal. */
    std::string divergence;
    /** Distinct object pairs compared. */
    std::size_t objectsCompared = 0;

    explicit operator bool() const { return equal; }
};

/**
 * Prove the graphs rooted at @p a (in @p ha) and @p b (in @p hb)
 * isomorphic, the central correctness oracle of the serializer tests.
 * The correspondence between their objects must be a bijection, so
 * sharing and cycles match exactly and swapping the arguments never
 * changes the verdict. Paired objects have the same class, array
 * length and primitive values, and, when @p requireHash, the same
 * cached identity hashcode (paper section 3.1). The heaps may use
 * different object formats: fields are matched through each side's
 * own klass, never by raw offset.
 */
GraphCheckResult graphsEqual(const ManagedHeap &ha, Address a,
                             const ManagedHeap &hb, Address b,
                             bool requireHash = false);

/** Count objects and bytes reachable from @p root. */
struct GraphMeasure
{
    std::size_t objects = 0;
    std::size_t bytes = 0;
};

GraphMeasure measureGraph(const ManagedHeap &h, Address root);

} // namespace skyway

#endif // SKYWAY_HEAP_OBJECTOPS_HH
