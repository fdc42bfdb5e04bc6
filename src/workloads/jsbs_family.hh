/**
 * @file
 * The JSBS baseline family: schema-compiled serializers for the media
 * data model, standing in for the fastest libraries of the paper's
 * Figure 7 (colfer, protostuff, protobuf, datakernel, avro, thrift,
 * CBOR/smile via jackson, capnproto, fst, wobly, msgpack). Each codec
 * is a genuinely distinct wire format; what they share — direct
 * field extraction via precompiled offsets — is exactly what schema
 * compilers generate, and is the part Skyway's heap-to-heap transfer
 * eliminates altogether.
 */

#ifndef SKYWAY_WORKLOADS_JSBS_FAMILY_HH
#define SKYWAY_WORKLOADS_JSBS_FAMILY_HH

#include <functional>

#include "sd/serializer.hh"
#include "workloads/media.hh"

namespace skyway
{

/** A plain mirror of one MediaContent graph. */
struct MediaValues
{
    std::string uri, title, format, copyright;
    std::int32_t width = 0, height = 0, bitrate = 0, player = 0;
    std::int64_t duration = 0, size = 0;
    bool hasBitrate = false;
    std::vector<std::string> persons;

    struct Img
    {
        std::string uri, title;
        std::int32_t width = 0, height = 0, size = 0;

        bool operator==(const Img &) const = default;
    };
    std::vector<Img> images;

    bool operator==(const MediaValues &) const = default;
};

/** Extract via precompiled field handles (schema-compiled path). */
MediaValues extractMedia(SdEnv &env, const MediaSchema &schema,
                         Address content);

/** Extract via name-based reflection (the avro-generic-style path). */
MediaValues extractMediaReflective(SdEnv &env, Address content);

/** Build the heap graph for @p values (GC-safe). */
Address materializeMedia(SdEnv &env, const MediaSchema &schema,
                         const MediaValues &values);

/** One wire format of the family. */
struct JsbsCodec
{
    std::string name;
    std::function<void(const MediaValues &, ByteSink &)> encode;
    std::function<MediaValues(ByteSource &)> decode;
    /** Use the slow reflective extract (models *-generic variants). */
    bool reflectiveExtract = false;
};

/** All codecs of the family, fastest-family-first ordering not
 *  guaranteed — the bench sorts by measured time. */
std::vector<JsbsCodec> jsbsCodecs();

/** Look up one codec by name (fatal when unknown). */
JsbsCodec jsbsCodec(const std::string &name);

/** Serializer wrapper: extract/encode on write, decode/materialize on
 *  read. Only supports jsbs.MediaContent roots. */
class JsbsSerializer : public Serializer
{
  public:
    JsbsSerializer(SdEnv env, JsbsCodec codec)
        : env_(env), schema_(env.klasses), codec_(std::move(codec))
    {}

    std::string name() const override { return codec_.name; }

    void
    writeObject(Address root, ByteSink &out) override
    {
        MediaValues v = codec_.reflectiveExtract
                            ? extractMediaReflective(env_, root)
                            : extractMedia(env_, schema_, root);
        codec_.encode(v, out);
    }

    Address
    readObject(ByteSource &in) override
    {
        MediaValues v = codec_.decode(in);
        return materializeMedia(env_, schema_, v);
    }

  private:
    SdEnv env_;
    MediaSchema schema_;
    JsbsCodec codec_;
};

} // namespace skyway

#endif // SKYWAY_WORKLOADS_JSBS_FAMILY_HH
