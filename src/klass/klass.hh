/**
 * @file
 * Class metadata ("klass" in HotSpot terminology). A Klass records a
 * class's name, super class, field layout, reference map, and — the
 * Skyway extension — the globally assigned type ID (tID).
 */

#ifndef SKYWAY_KLASS_KLASS_HH
#define SKYWAY_KLASS_KLASS_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "klass/field.hh"
#include "klass/objectformat.hh"
#include "support/types.hh"

namespace skyway
{

class KlassTable;

/**
 * Runtime metadata for one loaded class. Instances are owned by one
 * node's KlassTable; like real JVM klass meta objects, the *same class*
 * is represented by *different* Klass instances (at different addresses)
 * on different nodes — which is exactly why types cannot be shipped as
 * raw klass pointers and Skyway introduces global type IDs.
 */
class Klass
{
  public:
    /** Sentinel tID for classes not yet registered with the driver. */
    static constexpr std::int32_t unregisteredTid = -1;

    const std::string &name() const { return name_; }
    const Klass *super() const { return super_; }
    bool isArray() const { return isArray_; }

    /** Element type; only meaningful for array klasses. */
    FieldType elemType() const { return elemType_; }

    /** Element class name; only meaningful for Ref-element arrays. */
    const std::string &elemClassName() const { return elemClassName_; }

    /** Storage size of one array element in bytes. */
    std::size_t elemSize() const { return fieldSize(elemType_); }

    /**
     * Total object size in bytes (header + payload, word-aligned) for a
     * non-array instance.
     */
    std::size_t instanceBytes() const { return instanceBytes_; }

    /** Total size in bytes of an array of @p length elements. */
    std::size_t
    arrayBytes(std::size_t length) const
    {
        return wordAlign(format_.arrayHeaderBytes() + length * elemSize());
    }

    /** The object format this klass was laid out against. */
    const ObjectFormat &format() const { return format_; }

    /**
     * All instance fields, super-class fields first, in layout order.
     * Empty for array klasses.
     */
    const std::vector<FieldDesc> &fields() const { return allFields_; }

    /** Fields declared by this class only (no super fields). */
    const std::vector<FieldDesc> &ownFields() const { return ownFields_; }

    /**
     * Byte offsets of all reference-typed fields (the "oop map"), used
     * by the GC and by Skyway's graph traversal. For Ref-element arrays
     * the per-element offsets are computed from the length instead.
     */
    const std::vector<std::uint32_t> &refOffsets() const
    {
        return refOffsets_;
    }

    /** Total bytes of primitive (non-reference) instance fields. */
    std::size_t primitiveDataBytes() const { return primDataBytes_; }

    /**
     * Reflective field lookup by name: a hash-map probe on a string key,
     * the operation whose per-object repetition makes the Java
     * serializer slow. Returns nullptr when no such field exists.
     */
    const FieldDesc *findField(const std::string &name) const;

    /** Like findField() but panics when the field is missing. */
    const FieldDesc &requireField(const std::string &name) const;

    /** Globally assigned Skyway type ID, or unregisteredTid. */
    std::int32_t
    tid() const
    {
        return tid_.load(std::memory_order_relaxed);
    }

    /**
     * Install the driver-assigned type ID (paper Algorithm 1 line 35).
     * The type resolver does, on the thread that loads the class
     * (TypeResolver's load hook); sender threads read the word
     * without a lock, so it is atomic, and relaxed order suffices.
     */
    void
    setTid(std::int32_t tid)
    {
        tid_.store(tid, std::memory_order_relaxed);
    }

    /** Number of super classes up to the root (for descriptor tests). */
    int superChainLength() const;

  private:
    friend class KlassTable;

    Klass() = default;

    std::string name_;
    const Klass *super_ = nullptr;
    bool isArray_ = false;
    FieldType elemType_ = FieldType::Byte;
    std::string elemClassName_;
    ObjectFormat format_;
    std::size_t instanceBytes_ = 0;
    std::vector<FieldDesc> ownFields_;
    std::vector<FieldDesc> allFields_;
    std::vector<std::uint32_t> refOffsets_;
    std::size_t primDataBytes_ = 0;
    std::unordered_map<std::string, std::uint32_t> fieldIndex_;
    std::atomic<std::int32_t> tid_{unregisteredTid};
};

/**
 * A class definition as it would exist in the application's jar: name,
 * super-class name, declared fields. ClassDefs live in a catalog shared
 * by all nodes (the same jar is deployed cluster-wide); each node's
 * KlassTable *loads* from the catalog into its own Klass instances.
 */
struct ClassDef
{
    std::string name;
    std::string superName; // empty for root classes
    std::vector<FieldDef> fields;
};

/**
 * The shared "jar": a catalog of class definitions that every node's
 * class loader resolves against.
 */
class ClassCatalog
{
  public:
    /** Register a definition; later definitions may not redefine. */
    void define(ClassDef def);

    /** Find a definition; nullptr when unknown. */
    const ClassDef *find(const std::string &name) const;

    std::size_t size() const { return defs_.size(); }

  private:
    std::unordered_map<std::string, ClassDef> defs_;
};

/**
 * Install the bootstrap class definitions every runtime needs
 * (java.lang.String and the primitive box classes).
 */
void defineBootstrapClasses(ClassCatalog &catalog);

/**
 * Per-node class loader and klass registry. Loading a class lays out its
 * fields against the node's ObjectFormat and assigns it a fresh local
 * Klass meta object.
 */
class KlassTable
{
  public:
    /**
     * Hook invoked after a class is loaded, used by the Skyway type
     * registry to obtain the class's global ID (Algorithm 1, worker
     * part 2). May be empty.
     */
    using LoadHook = void (*)(void *ctx, Klass &k);

    explicit KlassTable(const ClassCatalog &catalog,
                        ObjectFormat format = ObjectFormat{});

    KlassTable(const KlassTable &) = delete;
    KlassTable &operator=(const KlassTable &) = delete;

    const ObjectFormat &format() const { return format_; }

    /**
     * Return the klass for @p name, loading (and laying out) it on
     * first use. Array classes use JVM descriptor syntax: "[I" is
     * int[], "[Ljava.lang.String;" is String[].
     */
    Klass *load(const std::string &name);

    /** Return the klass only if already loaded; nullptr otherwise. */
    Klass *findLoaded(const std::string &name);

    /** Convenience: the klass for an array of primitive @p elem. */
    Klass *arrayOfPrimitive(FieldType elem);

    /** Convenience: the klass for an array of @p elemClass references. */
    Klass *arrayOfRefs(const std::string &elemClass);

    /** All currently loaded klasses, in load order. */
    const std::vector<Klass *> &loadedKlasses() const { return loadOrder_; }

    /** Install the post-load hook (see LoadHook). */
    void
    setLoadHook(LoadHook hook, void *ctx)
    {
        loadHook_ = hook;
        loadHookCtx_ = ctx;
    }

  private:
    Klass *loadInstanceKlass(const ClassDef &def);
    Klass *loadArrayKlass(const std::string &descriptor);
    void layout(Klass &k, const ClassDef &def);

    const ClassCatalog &catalog_;
    ObjectFormat format_;
    std::unordered_map<std::string, std::unique_ptr<Klass>> loaded_;
    std::vector<Klass *> loadOrder_;
    LoadHook loadHook_ = nullptr;
    void *loadHookCtx_ = nullptr;
};

/** Array-descriptor helpers. */
std::string arrayDescriptorOfPrimitive(FieldType elem);
std::string arrayDescriptorOfRefs(const std::string &elemClass);

} // namespace skyway

#endif // SKYWAY_KLASS_KLASS_HH
