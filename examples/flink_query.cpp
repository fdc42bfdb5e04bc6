/**
 * @file
 * A batch analytics scenario: the TPC-H-derived query QE ("items
 * returned by customers, by lost revenue") on the miniflink
 * substrate, comparing Flink's built-in schema serializers (with
 * lazy deserialization) against Skyway object transfer.
 */

#include <cstdio>

#include "miniflink/queries.hh"

using namespace skyway;

int
main()
{
    ClassCatalog catalog = makeStandardCatalog();
    defineTpchClasses(catalog);

    TpchSpec spec;
    spec.scale = 0.3;
    TpchData db = generateTpch(spec);
    std::printf("dataset: %zu lineitems, %zu orders, %zu customers\n",
                db.lineitem.size(), db.orders.size(),
                db.customer.size());
    std::printf("query:   QE — %s\n\n", queryDescription('E'));

    std::printf("%-9s %9s %9s %9s %9s %9s %9s  %11s\n", "engine",
                "compute", "ser", "write", "deser", "read", "total",
                "shuffle_MB");
    FlinkQueryResult results[2];
    int i = 0;
    for (FlinkSerMode mode :
         {FlinkSerMode::Builtin, FlinkSerMode::Skyway}) {
        FlinkCluster cluster(catalog, mode);
        FlinkQueryResult res = runQueryE(cluster, db);
        const PhaseBreakdown &b = res.average;
        std::printf("%-9s %9.2f %9.2f %9.2f %9.2f %9.2f %9.2f  %11.2f\n",
                    mode == FlinkSerMode::Builtin ? "builtin"
                                                  : "skyway",
                    b.computeNs / 1e6, b.serNs / 1e6,
                    b.writeIoNs / 1e6, b.deserNs / 1e6,
                    b.readIoNs / 1e6, b.totalNs() / 1e6,
                    res.shuffledBytes / 1e6);
        results[i++] = res;
    }

    if (results[0].checksum != results[1].checksum)
        fatal("engines disagree on the query result!");
    double sd[2];
    for (int e = 0; e < 2; ++e)
        sd[e] = (results[e].average.serNs + results[e].average.deserNs) /
                1e6;
    std::printf("\nboth engines returned the same top-20 revenue "
                "list (checksum %.2f).\n"
                "ser+deser per worker: builtin %.2f ms, skyway %.2f ms; "
                "Skyway shipped %.1fx the bytes.\n"
                "lower S/D time: %s\n",
                results[0].checksum, sd[0], sd[1],
                static_cast<double>(results[1].shuffledBytes) /
                    results[0].shuffledBytes,
                sd[1] < sd[0] ? "skyway" : "builtin");
    return 0;
}
