/**
 * @file
 * Heterogeneous-cluster transfer (paper section 3.1): the sender
 * runs the Skyway object layout (with the baddr header word), the
 * receiver a vanilla layout without it. The sender writes every clone
 * in the receiver's layout while copying — the receiver pays nothing and
 * uses the objects directly in its own format.
 */

#include <cstdio>

#include "skyway/jvm.hh"
#include "skyway/streams.hh"

using namespace skyway;

int
main()
{
    ClassCatalog catalog = makeStandardCatalog();
    catalog.define(ClassDef{
        "demo.Measurement",
        "",
        {
            {"label", FieldType::Ref, "java.lang.String"},
            {"values", FieldType::Ref, "[D"},
        },
    });

    ClusterNetwork net(2);
    Jvm sender(catalog, net, 0, 0); // Skyway layout (default)

    HeapConfig vanilla;
    vanilla.format.hasBaddr = false; // 16-byte headers
    Jvm receiver(catalog, net, 1, 0, vanilla);

    std::printf("sender header:   %zu bytes per object (Skyway "
                "layout)\n",
                sender.heap().format().headerBytes());
    std::printf("receiver header: %zu bytes per object (vanilla "
                "layout)\n\n",
                receiver.heap().format().headerBytes());

    // Build a measurement on the sender.
    Klass *mk = sender.klasses().load("demo.Measurement");
    LocalRoots roots(sender.heap());
    std::size_t label =
        roots.push(sender.builder().makeString("experiment-42"));
    std::size_t values = roots.push(sender.builder().makeDoubleArray(
        {1.5, 2.25, 3.75, 5.0, 8.125}));
    std::size_t m = roots.push(sender.heap().allocateInstance(mk));
    field::setRef(sender.heap(), roots.get(m),
                  mk->requireField("label"), roots.get(label));
    field::setRef(sender.heap(), roots.get(m),
                  mk->requireField("values"), roots.get(values));

    // Transfer with the receiver's format as the target: each clone
    // is adjusted while it is copied into the output buffer.
    sender.skyway().shuffleStart();
    SkywayObjectInputStream in(receiver.skyway());
    SkywayObjectOutputStream out(
        sender.skyway(),
        [&in](const std::uint8_t *d, std::size_t n) { in.feed(d, n); },
        defaultOutputBufferBytes, receiver.heap().format());
    out.writeObject(roots.get(m));
    out.flush();
    in.finish();

    Address got = in.readObject();
    Klass *rk = receiver.klasses().load("demo.Measurement");
    Address rlabel = field::getRef(receiver.heap(), got,
                                   rk->requireField("label"));
    Address rvalues = field::getRef(receiver.heap(), got,
                                    rk->requireField("values"));
    std::printf("received '%s' with %lld samples:",
                receiver.builder().stringValue(rlabel).c_str(),
                static_cast<long long>(
                    receiver.heap().arrayLength(rvalues)));
    for (int i = 0; i < receiver.heap().arrayLength(rvalues); ++i)
        std::printf(" %.3f",
                    array::get<double>(receiver.heap(), rvalues, i));
    std::printf("\nbytes on the wire: %llu (%llu would have been "
                "needed in the sender's own format)\n",
                static_cast<unsigned long long>(out.totalBytes()),
                static_cast<unsigned long long>(
                    out.totalBytes() +
                    8 * out.stats().objectsCopied));
    return 0;
}
