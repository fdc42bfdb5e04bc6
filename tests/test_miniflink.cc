/**
 * @file
 * Integration tests for miniflink: the five queries must compute
 * identical checksums under the built-in row serializers and under
 * Skyway; the built-in path must exhibit the lazy-deserialization
 * asymmetry (deser well below ser); the row serializer round-trips
 * needed and skipped fields correctly.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "miniflink/queries.hh"

namespace skyway
{
namespace
{

ClassCatalog
flinkCatalog()
{
    ClassCatalog cat = makeStandardCatalog();
    defineTpchClasses(cat);
    return cat;
}

TpchData &
smallDb()
{
    static TpchSpec spec = [] {
        TpchSpec s;
        s.scale = 0.04;
        return s;
    }();
    static TpchData db = generateTpch(spec);
    return db;
}

TEST(FlinkRowSerializer, FullRoundTrip)
{
    ClassCatalog cat = flinkCatalog();
    ClusterNetwork net(2);
    Jvm a(cat, net, 0, 0), b(cat, net, 1, 0);

    Klass *k = a.klasses().load("tpch.KeyedDouble");
    Address row = a.heap().allocateInstance(k);
    field::set<std::int64_t>(a.heap(), row, k->requireField("key"),
                             12345);
    field::set<double>(a.heap(), row, k->requireField("value"), 2.5);

    FlinkRowSerializer ser({a.heap(), a.klasses()}, "tpch.KeyedDouble",
                           {});
    VectorSink sink;
    ser.writeObject(row, sink);
    FlinkRowSerializer des({b.heap(), b.klasses()}, "tpch.KeyedDouble",
                           {});
    ByteSource src(sink.bytes());
    Address out = des.readObject(src);
    EXPECT_EQ((field::get<std::int64_t>(
                  b.heap(), out,
                  b.klasses().load("tpch.KeyedDouble")
                      ->requireField("key"))),
              12345);
    EXPECT_TRUE(src.atEnd());
}

TEST(FlinkRowSerializer, LazySkipsUnneededFields)
{
    ClassCatalog cat = flinkCatalog();
    ClusterNetwork net(2);
    Jvm a(cat, net, 0, 0), b(cat, net, 1, 0);

    TpchData::Customer c{42, "Customer#42", 7, 100.5, "BUILDING"};
    Klass *k = a.klasses().load("tpch.Customer");
    LocalRoots r(a.heap());
    std::size_t rn = r.push(a.builder().makeString(c.name));
    std::size_t rm = r.push(a.builder().makeString(c.mktsegment));
    Address row = a.heap().allocateInstance(k);
    field::set<std::int32_t>(a.heap(), row, k->requireField("key"),
                             c.key);
    field::setRef(a.heap(), row, k->requireField("name"), r.get(rn));
    field::set<std::int32_t>(a.heap(), row,
                             k->requireField("nationKey"),
                             c.nationKey);
    field::set<double>(a.heap(), row, k->requireField("acctbal"),
                       c.acctbal);
    field::setRef(a.heap(), row, k->requireField("mktsegment"),
                  r.get(rm));

    FlinkRowSerializer ser({a.heap(), a.klasses()}, "tpch.Customer", {});
    VectorSink sink;
    ser.writeObject(row, sink);

    FlinkRowSerializer lazy({b.heap(), b.klasses()}, "tpch.Customer",
                            {"key"});
    ByteSource src(sink.bytes());
    Address out = lazy.readObject(src);
    EXPECT_TRUE(src.atEnd()) << "skipping must consume exact bytes";
    Klass *kb = b.klasses().load("tpch.Customer");
    EXPECT_EQ((field::get<std::int32_t>(b.heap(), out,
                                        kb->requireField("key"))),
              42);
    // Skipped fields stay default: the string was never materialized.
    EXPECT_EQ(field::getRef(b.heap(), out, kb->requireField("name")),
              nullAddr);
    EXPECT_EQ((field::get<double>(b.heap(), out,
                                  kb->requireField("acctbal"))),
              0.0);
}

TEST(FlinkRowSerializer, UnknownNeededFieldPanics)
{
    ClassCatalog cat = flinkCatalog();
    ClusterNetwork net(1);
    Jvm a(cat, net, 0, 0);
    EXPECT_DEATH(
        FlinkRowSerializer({a.heap(), a.klasses()}, "tpch.Customer",
                           {"nope"}),
        "no field");
}

class FlinkQueryTest : public ::testing::TestWithParam<char>
{
  protected:
    FlinkQueryResult
    run(FlinkSerMode mode)
    {
        ClassCatalog cat = flinkCatalog();
        FlinkConfig cfg;
        cfg.numWorkers = 3;
        FlinkCluster cluster(cat, mode, cfg);
        return runQuery(GetParam(), cluster, smallDb());
    }
};

TEST_P(FlinkQueryTest, BuiltinAndSkywayAgree)
{
    FlinkQueryResult builtin = run(FlinkSerMode::Builtin);
    FlinkQueryResult sky = run(FlinkSerMode::Skyway);
    EXPECT_DOUBLE_EQ(builtin.checksum, sky.checksum);
    EXPECT_EQ(builtin.shuffledRecords, sky.shuffledRecords);
    EXPECT_GT(builtin.shuffledRecords, 0u);
    // Skyway ships object headers: more bytes on the wire.
    EXPECT_GT(sky.shuffledBytes, builtin.shuffledBytes);
    // Both produce complete breakdowns.
    EXPECT_GT(builtin.total.serNs, 0u);
    EXPECT_GT(sky.total.readIoNs, 0u);
}

INSTANTIATE_TEST_SUITE_P(Queries, FlinkQueryTest,
                         ::testing::Values('A', 'B', 'C', 'D', 'E'),
                         [](const auto &pinfo) {
                             return std::string(1, pinfo.param);
                         });

TEST(FlinkLaziness, DeserBelowSerOnWideRows)
{
    // QC ships full lineitem/order/customer rows but consumes only a
    // few fields: the built-in path's lazy reader must spend far less
    // time than the writer.
#ifdef SKYWAY_SANITIZER_BUILD
    GTEST_SKIP() << "real-time assertion; sanitizer overhead distorts "
                    "the lazy-read/serialize ratio";
#endif
    ClassCatalog cat = flinkCatalog();
    FlinkConfig cfg;
    cfg.numWorkers = 3;
    FlinkCluster cluster(cat, FlinkSerMode::Builtin, cfg);
    FlinkQueryResult res = runQueryC(cluster, smallDb());
    EXPECT_LT(res.total.deserNs, res.total.serNs)
        << "lazy deserialization must undercut serialization";
}

TEST(FlinkChecksums, MatchReferenceForQueryD)
{
    // Independent reference for QD: late orders per quarter.
    const TpchData &db = smallDb();
    const std::int32_t ys = 730, ye = ys + 365;
    std::unordered_set<std::int64_t> late;
    for (const auto &li : db.lineitem)
        if (li.commitDate < li.receiptDate)
            late.insert(li.orderKey);
    std::uint64_t quarters[4] = {0, 0, 0, 0};
    for (const auto &o : db.orders) {
        if (o.orderDate < ys || o.orderDate >= ye)
            continue;
        if (!late.count(o.key))
            continue;
        ++quarters[std::min((o.orderDate - ys) / 92, 3)];
    }
    double ref = 0;
    for (int q = 0; q < 4; ++q)
        ref += static_cast<double>(quarters[q]) * (q + 1);

    ClassCatalog cat = flinkCatalog();
    FlinkCluster cluster(cat, FlinkSerMode::Builtin, FlinkConfig{});
    FlinkQueryResult res = runQueryD(cluster, db);
    EXPECT_DOUBLE_EQ(res.checksum, ref);
}

TEST(FlinkDescriptions, AllQueriesDescribed)
{
    for (char q : {'A', 'B', 'C', 'D', 'E'})
        EXPECT_GT(std::string(queryDescription(q)).size(), 10u);
    EXPECT_EQ(std::string(queryDescription('Z')), "unknown");
}

} // namespace
} // namespace skyway
