/**
 * @file
 * Global class numbering (paper section 4.1, Algorithm 1).
 *
 * The driver JVM owns the authoritative type registry mapping class
 * name strings to dense integer IDs. Each worker JVM keeps a *registry
 * view* — a subset of the driver's registry. At startup a worker pulls
 * the full current registry ("REQUEST_VIEW"); when its class loader
 * loads a class missing from the view it asks the driver ("LOOKUP"),
 * which registers the class on first sight. The assigned ID is cached
 * in the klass meta object (Klass::setTid), so the sender writes IDs
 * into object headers without any string traffic; a class-name string
 * crosses the wire at most once per class per machine.
 *
 * TypeResolver owns both directions of a node's mapping. attach()
 * numbers the classes already loaded and installs the class loader's
 * load hook, which numbers each later class as it loads and records it
 * in a dense per-node index, type ID -> klass. A decoder resolves an
 * ID through klassFor(): an index hit is one bounds check and one
 * load. A miss asks the registry for the name — the driver's table,
 * the worker's view, or, when the view is stale (the ID was assigned
 * after the view was pulled), a reverse lookup ("LOOKUP_NAME") — and
 * has the class loader load it, which indexes it: each class misses
 * at most once per node.
 *
 * Threading contract: like the KlassTable's own maps, the index is
 * written only by the thread that loads a class, through the load
 * hook, and a node must not load a class while another of its threads
 * loads or decodes. Decoders read the index without a lock.
 */

#ifndef SKYWAY_TYPEREG_REGISTRY_HH
#define SKYWAY_TYPEREG_REGISTRY_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "klass/klass.hh"
#include "net/cluster.hh"
#include "support/thread_annotations.hh"

namespace skyway
{

/** Message tags for the registry protocol. */
namespace regmsg
{
constexpr int requestView = 101;
constexpr int lookup = 102;
constexpr int lookupName = 103;
} // namespace regmsg

/**
 * One node's registry endpoint. Both ends of the protocol derive from
 * it, so the Skyway sender/receiver code is agnostic to whether it
 * runs on the driver.
 */
class TypeResolver
{
  public:
    TypeResolver(const TypeResolver &) = delete;
    TypeResolver &operator=(const TypeResolver &) = delete;
    virtual ~TypeResolver() = default;

    /** The global ID for class @p name (registering on the driver). */
    virtual std::int32_t idForClass(const std::string &name) = 0;

    /**
     * This node's klass for type ID @p tid, loading the class on first
     * encounter; nullptr for an ID no registry assigned. A forged ID
     * from a corrupt stream is thus a decoder fault, never a panic —
     * on this node or, relayed, on the driver.
     */
    Klass *
    klassFor(std::int32_t tid)
    {
        auto i = static_cast<std::size_t>(tid);
        if (i < index_.size() && index_[i])
            return index_[i];
        return loadFor(tid);
    }

  protected:
    explicit TypeResolver(KlassTable &klasses) : klasses_(klasses) {}

    /**
     * Number every class already loaded (Algorithm 1 lines 4-8) and
     * every later one as it loads (line 35). Called once by the
     * subclass constructor, when idForClass() can answer.
     */
    void attach();

    /** The class name behind @p tid; "" when no registry assigned it. */
    virtual std::string nameFor(std::int32_t tid) = 0;

  private:
    /** Set @p k's ID and record it in the index (the load hook). */
    void number(Klass &k);

    /** klassFor()'s miss: load the class the registry names. */
    [[gnu::cold]] Klass *loadFor(std::int32_t tid);

    KlassTable &klasses_;
    /** Type ID -> klass of every class this node numbered. */
    std::vector<Klass *> index_;
};

/** Registry traffic statistics (tests assert the at-most-once claim). */
struct RegistryStats
{
    std::uint64_t viewRequestsServed = 0;
    std::uint64_t lookupsServed = 0;
    std::uint64_t reverseLookupsServed = 0;
    std::uint64_t remoteLookupsIssued = 0;
    std::uint64_t classStringsSent = 0;
};

/**
 * The driver-side registry (Algorithm 1, driver program). Registers a
 * request handler on the cluster network; also acts as the driver
 * JVM's own resolver.
 */
class TypeRegistryDriver : public TypeResolver
{
  public:
    /**
     * @param net      cluster fabric to serve requests on
     * @param node     the driver's node id
     * @param klasses  the driver JVM's klass table (attach())
     */
    TypeRegistryDriver(ClusterNetwork &net, NodeId node,
                       KlassTable &klasses);

    std::int32_t idForClass(const std::string &name) override
        EXCLUDES(mutex_);

    /** Number of classes registered cluster-wide. */
    std::size_t
    size() const
    {
        MutexLock lock(mutex_);
        return names_.size();
    }

    RegistryStats
    stats() const
    {
        MutexLock lock(mutex_);
        return stats_;
    }

    /** Serialize the full registry (the REQUEST_VIEW reply). */
    std::vector<std::uint8_t> encodeView() const EXCLUDES(mutex_);

  protected:
    std::string nameFor(std::int32_t tid) override EXCLUDES(mutex_);

  private:
    std::vector<std::uint8_t> handle(NodeId src, int tag,
                                     const std::vector<std::uint8_t> &
                                         payload);

    ClusterNetwork &net_;
    NodeId node_;
    /**
     * Guards registry_/names_/stats_. On the tcp transport handle()
     * runs on the destination node's pump thread, concurrent with the
     * driver JVM's own idForClass() calls. Held only across map
     * accesses — never across a class load, whose load hook re-enters
     * idForClass().
     */
    mutable Mutex mutex_;
    std::unordered_map<std::string, std::int32_t> registry_ GUARDED_BY(
        mutex_);
    std::vector<std::string> names_ GUARDED_BY(mutex_); // id -> name
    RegistryStats stats_ GUARDED_BY(mutex_);
};

/**
 * The worker-side registry view (Algorithm 1, worker program).
 */
class TypeRegistryWorker : public TypeResolver
{
  public:
    /**
     * Pulls the initial view from the driver, then attaches to
     * @p klasses (attach()).
     */
    TypeRegistryWorker(ClusterNetwork &net, NodeId node, NodeId driver,
                       KlassTable &klasses);

    /** Blocking on a view miss (one remote LOOKUP round trip) — must
     *  never run under mutex_, ours or a caller's (lint rule 2). */
    std::int32_t idForClass(const std::string &name) override
        EXCLUDES(mutex_);

    std::size_t
    viewSize() const
    {
        MutexLock lock(mutex_);
        return view_.size();
    }

    RegistryStats
    stats() const
    {
        MutexLock lock(mutex_);
        return stats_;
    }

    /**
     * Bounds every remote LOOKUP this worker issues (timeout and
     * retry budget on the tcp transport; ignored on the model
     * transport, which completes synchronously).
     */
    void
    setLookupOptions(const RequestOptions &opts)
    {
        MutexLock lock(mutex_);
        lookupOpts_ = opts;
    }

  protected:
    /** The view's name, else one LOOKUP_NAME round trip (stale view). */
    std::string nameFor(std::int32_t tid) override EXCLUDES(mutex_);

  private:
    void insertView(const std::string &name, std::int32_t id)
        EXCLUDES(mutex_);
    RequestOptions lookupOptions() const EXCLUDES(mutex_);

    ClusterNetwork &net_;
    NodeId node_;
    NodeId driver_;
    /**
     * Guards view_/idToName_/stats_. Held only across map accesses —
     * never across net_.request() (a blocking round trip) or a class
     * load (whose load hook re-enters idForClass()).
     */
    mutable Mutex mutex_;
    std::unordered_map<std::string, std::int32_t> view_ GUARDED_BY(
        mutex_);
    std::unordered_map<std::int32_t, std::string> idToName_ GUARDED_BY(
        mutex_);
    RegistryStats stats_ GUARDED_BY(mutex_);
    RequestOptions lookupOpts_ GUARDED_BY(mutex_);
};

} // namespace skyway

#endif // SKYWAY_TYPEREG_REGISTRY_HH
