#include "miniflink/miniflink.hh"

#include <optional>

namespace skyway
{

FlinkCluster::FlinkCluster(const ClassCatalog &catalog,
                           FlinkSerMode mode, FlinkConfig config)
    : SparkCluster(catalog, skywayFactory, config), mode_(mode)
{
    skywayFactory.bind(*this);
}

FlinkRowSerializer::FlinkRowSerializer(
    SdEnv env, const std::string &row_class,
    const std::vector<std::string> &needed)
    : env_(env), klass_(env.klasses.load(row_class))
{
    const auto &fields = klass_->fields();
    neededMask_.assign(fields.size(), needed.empty());
    for (const std::string &name : needed) {
        bool found = false;
        for (std::size_t i = 0; i < fields.size(); ++i) {
            if (fields[i].name == name) {
                neededMask_[i] = true;
                found = true;
            }
        }
        if (!found)
            panic("FlinkRowSerializer: no field " + name + " in " + row_class);
    }
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (neededMask_[i]) {
            lastNeeded_ = i;
            if (fields[i].type == FieldType::Ref)
                materializesRefs_ = true;
        }
    }
}

void
FlinkRowSerializer::writeObject(Address row, ByteSink &out)
{
    ManagedHeap &h = env_.heap;
    panicIf(h.klassOf(row)->name() != klass_->name(),
            "FlinkRowSerializer: wrong row class on channel");
    // Flink's RecordWriter first serializes the record into an
    // intermediate DataOutputSerializer, then copies it — with a
    // length frame — into the outgoing network buffer. The reader
    // parses non-spanning records in place, with no second copy:
    // one of the reasons Flink's deserialization is cheaper than its
    // serialization even before lazy field skipping.
    tmp_.clear();
    ByteSink &body = tmp_;
    for (const FieldDesc &f : klass_->fields()) {
        switch (f.type) {
          case FieldType::Boolean:
          case FieldType::Byte:
            body.writeU8(h.load<std::uint8_t>(row, f.offset));
            break;
          case FieldType::Char:
          case FieldType::Short:
            body.writeU16(h.load<std::uint16_t>(row, f.offset));
            break;
          case FieldType::Int:
          case FieldType::Float:
            body.writeU32(h.load<std::uint32_t>(row, f.offset));
            break;
          case FieldType::Long:
          case FieldType::Double:
            body.writeU64(h.load<std::uint64_t>(row, f.offset));
            break;
          case FieldType::Ref: {
            // Schema constraint: reference fields are strings.
            Address s = h.loadRef(row, f.offset);
            if (s == nullAddr) {
                body.writeVarU64(0);
            } else {
                ObjectBuilder builder(h, env_.klasses);
                std::string v = builder.stringValue(s);
                body.writeVarU64(v.size() + 1);
                body.write(v.data(), v.size());
            }
            break;
          }
        }
    }
    out.writeU32(static_cast<std::uint32_t>(tmp_.bytes().size()));
    out.write(tmp_.bytes().data(), tmp_.bytes().size());
}

Address
FlinkRowSerializer::readObject(ByteSource &in)
{
    ManagedHeap &h = env_.heap;
    // Root the row only when a needed reference field will allocate
    // mid-read; pure-primitive reads cannot trigger a collection.
    std::optional<LocalRoots> roots;
    std::size_t rrow = 0;
    Address row_raw = h.allocateInstance(klass_);
    if (materializesRefs_) {
        roots.emplace(h);
        rrow = roots->push(row_raw);
    }
    auto row = [&] {
        return materializesRefs_ ? roots->get(rrow) : row_raw;
    };

    std::uint32_t frame = in.readU32(); // record length (no spanning)
    std::size_t body_start = in.position();
    const auto &fields = klass_->fields();
    for (std::size_t i = 0; i <= lastNeeded_; ++i) {
        const FieldDesc &f = fields[i];
        bool need = neededMask_[i];
        switch (f.type) {
          case FieldType::Boolean:
          case FieldType::Byte: {
            std::uint8_t v = in.readU8();
            if (need)
                h.store<std::uint8_t>(row(), f.offset, v);
            break;
          }
          case FieldType::Char:
          case FieldType::Short: {
            std::uint16_t v = in.readU16();
            if (need)
                h.store<std::uint16_t>(row(), f.offset, v);
            break;
          }
          case FieldType::Int:
          case FieldType::Float: {
            std::uint32_t v = in.readU32();
            if (need)
                h.store<std::uint32_t>(row(), f.offset, v);
            break;
          }
          case FieldType::Long:
          case FieldType::Double: {
            std::uint64_t v = in.readU64();
            if (need)
                h.store<std::uint64_t>(row(), f.offset, v);
            break;
          }
          case FieldType::Ref: {
            std::size_t marker = in.readVarU64();
            if (marker == 0)
                break;
            std::size_t len = marker - 1;
            if (need) {
                // Materialize the string object.
                const std::uint8_t *p = in.view(len);
                ObjectBuilder builder(h, env_.klasses);
                Address s = builder.makeString(std::string_view(
                    reinterpret_cast<const char *>(p), len));
                h.storeRef(row(), f.offset, s);
            } else {
                // Lazy: skip the bytes, never create the object.
                in.view(len);
            }
            break;
          }
        }
    }
    // Fields past the last needed one are never parsed: jump to the
    // record end through the length frame.
    in.view(frame - (in.position() - body_start));
    return row();
}

namespace
{

/** The channel's row serializer on every worker under Builtin; none
 *  under Skyway, where the shuffle uses the cluster's serializers. */
std::vector<std::unique_ptr<Serializer>>
channelSerializers(FlinkCluster &cluster, const std::string &row_class,
                   const std::vector<std::string> &needed)
{
    std::vector<std::unique_ptr<Serializer>> out;
    if (cluster.mode() == FlinkSerMode::Skyway)
        return out;
    for (int w = 0; w < cluster.numWorkers(); ++w) {
        Jvm &jvm = cluster.worker(w);
        out.push_back(std::make_unique<FlinkRowSerializer>(
            SdEnv{jvm.heap(), jvm.klasses()}, row_class, needed));
    }
    return out;
}

} // namespace

FlinkShuffle::FlinkShuffle(FlinkCluster &cluster, std::string name,
                           const std::string &row_class,
                           const std::vector<std::string> &needed)
    : ShuffleRound(cluster, std::move(name),
                   channelSerializers(cluster, row_class, needed))
{}

} // namespace skyway
