/**
 * @file
 * The composed "JVM": one node's managed runtime — heap, class table,
 * collector, type-registry endpoint, Skyway context, and a local
 * simulated disk. The dataflow substrates, tests, benches, and
 * examples all build clusters of these.
 */

#ifndef SKYWAY_SKYWAY_JVM_HH
#define SKYWAY_SKYWAY_JVM_HH

#include <memory>

#include "gc/collector.hh"
#include "heap/objectops.hh"
#include "iomodel/disk.hh"
#include "skyway/context.hh"

namespace skyway
{

/**
 * A catalog with the bootstrap classes (String, boxes) already
 * defined. Applications add their own classes on top.
 */
ClassCatalog makeStandardCatalog();

/**
 * One simulated JVM process attached to a cluster. The node whose id
 * equals @p driver_id hosts the type-registry driver; all others run
 * registry workers that attach to it (so construct the driver's Jvm
 * first).
 */
class Jvm
{
  public:
    Jvm(const ClassCatalog &catalog, ClusterNetwork &net, NodeId id,
        NodeId driver_id, HeapConfig heap_config = HeapConfig{});

    Jvm(const Jvm &) = delete;
    Jvm &operator=(const Jvm &) = delete;

    NodeId id() const { return id_; }

    ManagedHeap &heap() { return heap_; }
    KlassTable &klasses() { return klasses_; }
    GenerationalGc &gc() { return gc_; }
    ObjectBuilder &builder() { return builder_; }
    SimDisk &disk() { return disk_; }
    ClusterNetwork &net() { return net_; }

    TypeResolver &resolver();
    SkywayContext &skyway() { return *skyway_; }

    /** The registry driver; only valid on the driver node. */
    TypeRegistryDriver &registryDriver();

  private:
    NodeId id_;
    ClusterNetwork &net_;
    KlassTable klasses_;
    ManagedHeap heap_;
    GenerationalGc gc_;
    ObjectBuilder builder_;
    SimDisk disk_;
    std::unique_ptr<TypeRegistryDriver> driver_;
    std::unique_ptr<TypeRegistryWorker> worker_;
    std::unique_ptr<SkywayContext> skyway_;
};

} // namespace skyway

#endif // SKYWAY_SKYWAY_JVM_HH
