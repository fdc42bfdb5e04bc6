#include "typereg/registry.hh"

#include "support/bytebuffer.hh"

namespace skyway
{

void
TypeResolver::attach()
{
    for (Klass *k : klasses_.loadedKlasses())
        number(*k);
    klasses_.setLoadHook(
        [](void *self, Klass &k) {
            static_cast<TypeResolver *>(self)->number(k);
        },
        this);
}

void
TypeResolver::number(Klass &k)
{
    std::int32_t tid = idForClass(k.name());
    k.setTid(tid);
    auto i = static_cast<std::size_t>(tid);
    if (i >= index_.size())
        index_.resize(i + 1, nullptr);
    index_[i] = &k;
}

Klass *
TypeResolver::loadFor(std::int32_t tid)
{
    // Loading runs the hook, which indexes the class for next time.
    std::string name = nameFor(tid);
    return name.empty() ? nullptr : klasses_.load(name);
}

TypeRegistryDriver::TypeRegistryDriver(ClusterNetwork &net, NodeId node,
                                       KlassTable &klasses)
    : TypeResolver(klasses), net_(net), node_(node)
{
    // Algorithm 1, driver part 1: number every class loaded in the
    // driver JVM, now and later.
    attach();

    // Algorithm 1, driver part 2: the daemon serving worker requests.
    net_.registerHandler(
        node_, [this](NodeId src, int tag,
                      const std::vector<std::uint8_t> &payload) {
            return handle(src, tag, payload);
        });
}

std::int32_t
TypeRegistryDriver::idForClass(const std::string &name)
{
    MutexLock lock(mutex_);
    auto it = registry_.find(name);
    if (it != registry_.end())
        return it->second;
    auto id = static_cast<std::int32_t>(names_.size());
    registry_.emplace(name, id);
    names_.push_back(name);
    return id;
}

std::string
TypeRegistryDriver::nameFor(std::int32_t tid)
{
    MutexLock lock(mutex_);
    if (tid < 0 || static_cast<std::size_t>(tid) >= names_.size())
        return {};
    return names_[tid];
}

std::vector<std::uint8_t>
TypeRegistryDriver::encodeView() const
{
    MutexLock lock(mutex_);
    VectorSink sink;
    sink.writeVarU64(names_.size());
    for (const std::string &name : names_)
        sink.writeString(name);
    return sink.takeBytes();
}

std::vector<std::uint8_t>
TypeRegistryDriver::handle(NodeId, int tag,
                           const std::vector<std::uint8_t> &payload)
{
    if (tag == regmsg::requestView) {
        {
            MutexLock lock(mutex_);
            ++stats_.viewRequestsServed;
            stats_.classStringsSent += names_.size();
        }
        return encodeView();
    }
    if (tag == regmsg::lookup) {
        // Algorithm 1 lines 13-19: register-on-first-sight. The
        // handler may run twice for one request (a timed-out and
        // resent LOOKUP on the tcp transport) — registering an
        // already-registered class is a lookup, so the protocol is
        // naturally idempotent.
        {
            MutexLock lock(mutex_);
            ++stats_.lookupsServed;
        }
        ByteSource src(payload);
        std::string name = src.readString();
        std::int32_t id = idForClass(name);
        VectorSink sink;
        sink.writeI32(id);
        return sink.takeBytes();
    }
    if (tag == regmsg::lookupName) {
        ByteSource src(payload);
        // An unknown id gets an empty-name reply instead of a driver
        // panic: a worker probing a forged id from a corrupt stream
        // must not crash the driver.
        std::string name = nameFor(src.readI32());
        {
            MutexLock lock(mutex_);
            ++stats_.reverseLookupsServed;
            if (!name.empty())
                ++stats_.classStringsSent;
        }
        VectorSink sink;
        sink.writeString(name);
        return sink.takeBytes();
    }
    panic("TypeRegistryDriver: unknown message tag " +
          std::to_string(tag));
}

TypeRegistryWorker::TypeRegistryWorker(ClusterNetwork &net, NodeId node,
                                       NodeId driver, KlassTable &klasses)
    : TypeResolver(klasses), net_(net), node_(node), driver_(driver)
{
    // Worker part 1: pull the full current registry in one batch —
    // most classes this worker will need are already numbered.
    std::vector<std::uint8_t> reply =
        net_.request(node_, driver_, regmsg::requestView, {});
    ByteSource src(reply);
    std::size_t n = src.readVarU64();
    for (std::size_t id = 0; id < n; ++id)
        insertView(src.readString(), static_cast<std::int32_t>(id));

    // Worker part 2: number every class this worker loads, already
    // or later.
    attach();
}

void
TypeRegistryWorker::insertView(const std::string &name, std::int32_t id)
{
    MutexLock lock(mutex_);
    view_[name] = id;
    idToName_[id] = name;
}

RequestOptions
TypeRegistryWorker::lookupOptions() const
{
    MutexLock lock(mutex_);
    return lookupOpts_;
}

std::int32_t
TypeRegistryWorker::idForClass(const std::string &name)
{
    {
        MutexLock lock(mutex_);
        auto it = view_.find(name);
        if (it != view_.end())
            return it->second;
        // Miss: one remote LOOKUP, then cached forever.
        ++stats_.remoteLookupsIssued;
        ++stats_.classStringsSent;
    }
    VectorSink sink;
    sink.writeString(name);
    std::vector<std::uint8_t> reply =
        net_.request(node_, driver_, regmsg::lookup, sink.takeBytes(),
                     lookupOptions());
    ByteSource src(reply);
    std::int32_t id = src.readI32();
    insertView(name, id);
    return id;
}

std::string
TypeRegistryWorker::nameFor(std::int32_t tid)
{
    {
        MutexLock lock(mutex_);
        auto it = idToName_.find(tid);
        if (it != idToName_.end())
            return it->second;
        // Stale view: the id was assigned after our snapshot.
        ++stats_.remoteLookupsIssued;
    }
    VectorSink sink;
    sink.writeI32(tid);
    std::vector<std::uint8_t> reply =
        net_.request(node_, driver_, regmsg::lookupName,
                     sink.takeBytes(), lookupOptions());
    ByteSource src(reply);
    std::string name = src.readString();
    // An empty name: no registry ever assigned the id.
    if (!name.empty())
        insertView(name, tid);
    return name;
}

} // namespace skyway
