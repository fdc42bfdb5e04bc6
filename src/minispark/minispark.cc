#include "minispark/minispark.hh"

#include "sd/javaserializer.hh"
#include "skyway/streams.hh"

namespace skyway
{

SparkCluster::SparkCluster(const ClassCatalog &catalog,
                           SerializerFactory &serializer_factory,
                           SparkConfig config)
    : config_(config),
      factory_(serializer_factory),
      net_(std::make_unique<ClusterNetwork>(config.numWorkers + 1,
                                            config.network,
                                            config.transport)),
      serializers_(config.numWorkers),
      breakdowns_(config.numWorkers)
{
    panicIf(config.numWorkers < 1, "SparkCluster: need workers");
    // Driver first: it hosts the type registry.
    nodes_.push_back(
        std::make_unique<Jvm>(catalog, *net_, 0, 0, HeapConfig{}));
    for (int w = 0; w < config.numWorkers; ++w) {
        nodes_.push_back(std::make_unique<Jvm>(
            catalog, *net_, w + 1, 0, config.workerHeap));
        nodes_.back()->disk() = SimDisk(config.disk);
    }
}

Serializer &
SparkCluster::serializer(int w)
{
    if (!serializers_[w]) {
        serializers_[w] = factory_.create(
            SdEnv{worker(w).heap(), worker(w).klasses()});
    }
    return *serializers_[w];
}

Serializer &
SparkCluster::driverSerializer()
{
    if (!driverSerializer_) {
        driverSerializer_ = factory_.create(
            SdEnv{driver().heap(), driver().klasses()});
    }
    return *driverSerializer_;
}

std::unique_ptr<Serializer>
ClusterSkywayFactory::create(SdEnv env)
{
    for (auto &[heap, ctx] : contexts_) {
        if (heap == &env.heap)
            return std::make_unique<SkywaySerializer>(*ctx);
    }
    panic("ClusterSkywayFactory: create() before bind(), or heap "
          "not in the bound cluster");
}

void
ClusterSkywayFactory::bind(SparkCluster &cluster)
{
    contexts_.emplace_back(&cluster.driver().heap(),
                           &cluster.driver().skyway());
    for (int w = 0; w < cluster.numWorkers(); ++w) {
        contexts_.emplace_back(&cluster.worker(w).heap(),
                               &cluster.worker(w).skyway());
    }
}

PhaseBreakdown
SparkCluster::averageBreakdown() const
{
    PhaseBreakdown total;
    for (const auto &b : breakdowns_)
        total += b;
    int n = config_.numWorkers;
    return PhaseBreakdown{total.computeNs / n, total.serNs / n,
                          total.writeIoNs / n, total.deserNs / n,
                          total.readIoNs / n, total.bytesLocal,
                          total.bytesRemote};
}

PhaseBreakdown
SparkCluster::totalBreakdown() const
{
    PhaseBreakdown total;
    for (const auto &b : breakdowns_)
        total += b;
    return total;
}

void
SparkCluster::resetBreakdowns()
{
    for (auto &b : breakdowns_)
        b = PhaseBreakdown{};
}

JobResult
SparkCluster::jobResult(std::uint64_t shuffled_records,
                        std::uint64_t shuffled_bytes,
                        double checksum) const
{
    return JobResult{averageBreakdown(), totalBreakdown(),
                     shuffled_records, shuffled_bytes, checksum};
}

ShuffleRound::ShuffleRound(SparkCluster &cluster, std::string name)
    : ShuffleRound(cluster, std::move(name), {})
{}

ShuffleRound::ShuffleRound(
    SparkCluster &cluster, std::string name,
    std::vector<std::unique_ptr<Serializer>> serializers)
    : cluster_(cluster),
      name_(std::move(name)),
      ownSerializers_(std::move(serializers))
{
    int n = cluster.numWorkers();
    buckets_.resize(n);
    counts_.assign(n, std::vector<std::uint64_t>(n, 0));
    for (int w = 0; w < n; ++w) {
        srcRoots_.push_back(
            std::make_unique<LocalRoots>(cluster.worker(w).heap()));
        buckets_[w].resize(n);
    }
    // A new shuffle phase begins: let serializers clear phase state
    // (Skyway's shuffleStart), and release objects received in the
    // previous phase — by construction apps consume a round's records
    // before opening the next round.
    for (int w = 0; w < n; ++w) {
        serializer(w).startPhase();
        serializer(w).releaseReceived();
    }
}

Serializer &
ShuffleRound::serializer(int w)
{
    return ownSerializers_.empty() ? cluster_.serializer(w)
                                   : *ownSerializers_[w];
}

std::string
ShuffleRound::fileName(int src, int dst) const
{
    return name_ + ".s" + std::to_string(src) + ".d" +
           std::to_string(dst) + ".shuffle";
}

void
ShuffleRound::add(int src, int dst, Address record)
{
    panicIf(written_, "ShuffleRound: add after writePhase");
    std::size_t slot = srcRoots_[src]->push(record);
    buckets_[src][dst].push_back(slot);
    ++counts_[src][dst];
    ++recordsAdded_;
}

void
ShuffleRound::writePhase()
{
    panicIf(written_, "ShuffleRound: writePhase called twice");
    written_ = true;
    int n = cluster_.numWorkers();
    for (int src = 0; src < n; ++src) {
        Serializer &ser = serializer(src);
        SimDisk &disk = cluster_.worker(src).disk();
        PhaseBreakdown &b = cluster_.breakdown(src);
        for (int dst = 0; dst < n; ++dst) {
            if (buckets_[src][dst].empty())
                continue;
            VectorSink sink;
            {
                // Serialization: measured, record at a time, exactly
                // as Spark writes its sorted runs.
                ScopedTimer timer(b.serNs);
                for (std::size_t slot : buckets_[src][dst])
                    ser.writeObject(srcRoots_[src]->get(slot), sink);
                ser.endStream(sink);
                ser.reset();
            }
            std::size_t len = sink.bytesWritten();
            bytesWritten_ += len;
            // Spill to the source worker's local disk (modeled).
            b.writeIoNs +=
                disk.writeFile(fileName(src, dst), sink.takeBytes());
        }
        // Outgoing records may now be collected.
        srcRoots_[src]->clear();
    }
}

std::unique_ptr<RecordBatch>
ShuffleRound::read(int dst)
{
    panicIf(!written_, "ShuffleRound: read before writePhase");
    int n = cluster_.numWorkers();
    Serializer &des = serializer(dst);
    PhaseBreakdown &b = cluster_.breakdown(dst);
    auto out = des.receivedObjectsArePinned()
                   ? std::make_unique<RecordBatch>()
                   : std::make_unique<RecordBatch>(
                         cluster_.worker(dst).heap());

    for (int src = 0; src < n; ++src) {
        if (counts_[src][dst] == 0)
            continue;
        SimDisk &src_disk = cluster_.worker(src).disk();
        const auto &file = src_disk.file(fileName(src, dst));

        // Fetch: local partitions cost a disk read; remote ones add
        // the wire (network time folds into read I/O, Figure 3).
        b.readIoNs += src_disk.chargeRead(file.size());
        std::vector<std::uint8_t> fetched;
        const std::vector<std::uint8_t> *bytes = &file;
        if (src != dst) {
            b.readIoNs +=
                cluster_.net().model().transferNs(file.size());
            b.bytesRemote += file.size();
            // The partition crosses the fabric for real: the source
            // worker pushes, the destination polls it in (over an
            // actual socket on the tcp transport).
            cluster_.net().send(src + 1, dst + 1, sparkmsg::shuffle,
                                file);
            NetMessage msg;
            while (!cluster_.net().pollTag(dst + 1, sparkmsg::shuffle,
                                           msg)) {
            }
            fetched = std::move(msg.payload);
            bytes = &fetched;
        } else {
            b.bytesLocal += file.size();
        }

        // Deserialization: measured.
        ByteSource in(*bytes);
        ScopedTimer timer(b.deserNs);
        for (std::uint64_t i = 0; i < counts_[src][dst]; ++i)
            out->push(des.readObject(in));
    }
    return out;
}

ClosureBroadcast::ClosureBroadcast(SparkCluster &cluster, Address root)
{
    // Closures travel through the Java serializer regardless of the
    // configured data serializer (paper section 5.2 and our setup).
    JavaSerializer ser(
        SdEnv{cluster.driver().heap(), cluster.driver().klasses()});
    VectorSink sink;
    ser.writeObject(root, sink);
    bytes_ = sink.bytesWritten();

    for (int w = 0; w < cluster.numWorkers(); ++w) {
        Jvm &jvm = cluster.worker(w);
        PhaseBreakdown &b = cluster.breakdown(w);
        // Driver -> worker wire time lands on the worker's read side.
        b.readIoNs += cluster.net().model().transferNs(bytes_);
        b.bytesRemote += bytes_;
        // Each copy of the closure crosses the fabric for real.
        cluster.net().send(0, w + 1, sparkmsg::closure, sink.bytes());
        NetMessage msg;
        while (!cluster.net().pollTag(w + 1, sparkmsg::closure, msg)) {
        }

        JavaSerializer des(SdEnv{jvm.heap(), jvm.klasses()});
        ByteSource src(msg.payload);
        auto roots = std::make_unique<LocalRoots>(jvm.heap());
        {
            ScopedTimer timer(b.deserNs);
            roots->push(des.readObject(src));
        }
        workerRoots_.push_back(std::move(roots));
    }
}

Address
ClosureBroadcast::onWorker(int w) const
{
    return workerRoots_[w]->get(0);
}

CollectAction::CollectAction(SparkCluster &cluster) : cluster_(cluster)
{
    for (int w = 0; w < cluster.numWorkers(); ++w) {
        srcRoots_.push_back(
            std::make_unique<LocalRoots>(cluster.worker(w).heap()));
    }
    for (int w = 0; w < cluster.numWorkers(); ++w) {
        cluster.serializer(w).startPhase();
        cluster.serializer(w).releaseReceived();
    }
    cluster.driverSerializer().startPhase();
}

void
CollectAction::add(int src, Address record)
{
    panicIf(done_, "CollectAction: add after collect");
    srcRoots_[src]->push(record);
}

std::unique_ptr<RecordBatch>
CollectAction::collect()
{
    panicIf(done_, "CollectAction: collect called twice");
    done_ = true;
    Serializer &des = cluster_.driverSerializer();
    auto out = des.receivedObjectsArePinned()
                   ? std::make_unique<RecordBatch>()
                   : std::make_unique<RecordBatch>(
                         cluster_.driver().heap());

    for (int w = 0; w < cluster_.numWorkers(); ++w) {
        if (srcRoots_[w]->size() == 0)
            continue;
        Serializer &ser = cluster_.serializer(w);
        PhaseBreakdown &b = cluster_.breakdown(w);
        VectorSink sink;
        {
            // Task results are serialized with the data serializer
            // and pushed straight over the wire (no spill).
            ScopedTimer timer(b.serNs);
            for (std::size_t i = 0; i < srcRoots_[w]->size(); ++i)
                ser.writeObject(srcRoots_[w]->get(i), sink);
            ser.endStream(sink);
            ser.reset();
        }
        bytes_ += sink.bytesWritten();
        b.readIoNs +=
            cluster_.net().model().transferNs(sink.bytesWritten());
        b.bytesRemote += sink.bytesWritten();
        // Task results travel worker -> driver over the fabric.
        cluster_.net().send(w + 1, 0, sparkmsg::collect,
                            sink.takeBytes());
        NetMessage msg;
        while (!cluster_.net().pollTag(0, sparkmsg::collect, msg)) {
        }

        ByteSource in(msg.payload);
        for (std::size_t i = 0; i < srcRoots_[w]->size(); ++i)
            out->push(des.readObject(in));
        srcRoots_[w]->clear();
    }
    return out;
}

} // namespace skyway
