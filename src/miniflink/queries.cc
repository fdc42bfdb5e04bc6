#include "miniflink/queries.hh"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

namespace skyway
{

namespace
{

/// @name Row materialization helpers (source operators)
/// @{

Address
makeLineitemRow(Jvm &jvm, const TpchData::Lineitem &li)
{
    ManagedHeap &h = jvm.heap();
    Klass *k = jvm.klasses().load("tpch.Lineitem");
    LocalRoots r(h);
    std::size_t rs = r.push(jvm.builder().makeString(li.shipMode));
    Address row = h.allocateInstance(k);
    field::set<std::int64_t>(h, row, k->requireField("orderKey"),
                             li.orderKey);
    field::set<std::int32_t>(h, row, k->requireField("partKey"),
                             li.partKey);
    field::set<std::int32_t>(h, row, k->requireField("suppKey"),
                             li.suppKey);
    field::set<std::int32_t>(h, row, k->requireField("lineNumber"),
                             li.lineNumber);
    field::set<double>(h, row, k->requireField("quantity"),
                       li.quantity);
    field::set<double>(h, row, k->requireField("extendedPrice"),
                       li.extendedPrice);
    field::set<double>(h, row, k->requireField("discount"),
                       li.discount);
    field::set<double>(h, row, k->requireField("tax"), li.tax);
    field::set<std::uint16_t>(h, row, k->requireField("returnFlag"),
                              li.returnFlag);
    field::set<std::uint16_t>(h, row, k->requireField("lineStatus"),
                              li.lineStatus);
    field::set<std::int32_t>(h, row, k->requireField("shipDate"),
                             li.shipDate);
    field::set<std::int32_t>(h, row, k->requireField("commitDate"),
                             li.commitDate);
    field::set<std::int32_t>(h, row, k->requireField("receiptDate"),
                             li.receiptDate);
    field::setRef(h, row, k->requireField("shipMode"), r.get(rs));
    return row;
}

Address
makeOrderRow(Jvm &jvm, const TpchData::Order &o)
{
    ManagedHeap &h = jvm.heap();
    Klass *k = jvm.klasses().load("tpch.Order");
    LocalRoots r(h);
    std::size_t rs = r.push(jvm.builder().makeString(o.orderPriority));
    Address row = h.allocateInstance(k);
    field::set<std::int64_t>(h, row, k->requireField("key"), o.key);
    field::set<std::int32_t>(h, row, k->requireField("custKey"),
                             o.custKey);
    field::set<std::uint16_t>(h, row, k->requireField("orderStatus"),
                              o.orderStatus);
    field::set<double>(h, row, k->requireField("totalPrice"),
                       o.totalPrice);
    field::set<std::int32_t>(h, row, k->requireField("orderDate"),
                             o.orderDate);
    field::setRef(h, row, k->requireField("orderPriority"), r.get(rs));
    return row;
}

Address
makeCustomerRow(Jvm &jvm, const TpchData::Customer &c)
{
    ManagedHeap &h = jvm.heap();
    Klass *k = jvm.klasses().load("tpch.Customer");
    LocalRoots r(h);
    std::size_t rn = r.push(jvm.builder().makeString(c.name));
    std::size_t rm = r.push(jvm.builder().makeString(c.mktsegment));
    Address row = h.allocateInstance(k);
    field::set<std::int32_t>(h, row, k->requireField("key"), c.key);
    field::setRef(h, row, k->requireField("name"), r.get(rn));
    field::set<std::int32_t>(h, row, k->requireField("nationKey"),
                             c.nationKey);
    field::set<double>(h, row, k->requireField("acctbal"), c.acctbal);
    field::setRef(h, row, k->requireField("mktsegment"), r.get(rm));
    return row;
}

Address
makeSupplierRow(Jvm &jvm, const TpchData::Supplier &s)
{
    ManagedHeap &h = jvm.heap();
    Klass *k = jvm.klasses().load("tpch.Supplier");
    LocalRoots r(h);
    std::size_t rn = r.push(jvm.builder().makeString(s.name));
    Address row = h.allocateInstance(k);
    field::set<std::int32_t>(h, row, k->requireField("key"), s.key);
    field::setRef(h, row, k->requireField("name"), r.get(rn));
    field::set<std::int32_t>(h, row, k->requireField("nationKey"),
                             s.nationKey);
    field::set<double>(h, row, k->requireField("acctbal"), s.acctbal);
    return row;
}

Address
makePartSuppRow(Jvm &jvm, const TpchData::PartSupp &ps)
{
    ManagedHeap &h = jvm.heap();
    Klass *k = jvm.klasses().load("tpch.PartSupp");
    Address row = h.allocateInstance(k);
    field::set<std::int32_t>(h, row, k->requireField("partKey"),
                             ps.partKey);
    field::set<std::int32_t>(h, row, k->requireField("suppKey"),
                             ps.suppKey);
    field::set<double>(h, row, k->requireField("supplyCost"),
                       ps.supplyCost);
    return row;
}

Address
makeGroupRow(Jvm &jvm, std::int64_t k1, std::int64_t k2, double s1,
             double s2, double s3, std::int64_t count)
{
    ManagedHeap &h = jvm.heap();
    Klass *k = jvm.klasses().load("tpch.GroupRow");
    Address row = h.allocateInstance(k);
    field::set<std::int64_t>(h, row, k->requireField("k1"), k1);
    field::set<std::int64_t>(h, row, k->requireField("k2"), k2);
    field::set<double>(h, row, k->requireField("sum1"), s1);
    field::set<double>(h, row, k->requireField("sum2"), s2);
    field::set<double>(h, row, k->requireField("sum3"), s3);
    field::set<std::int64_t>(h, row, k->requireField("count"), count);
    return row;
}

Address
makeKeyedDouble(Jvm &jvm, std::int64_t key, double value)
{
    ManagedHeap &h = jvm.heap();
    Klass *k = jvm.klasses().load("tpch.KeyedDouble");
    Address row = h.allocateInstance(k);
    field::set<std::int64_t>(h, row, k->requireField("key"), key);
    field::set<double>(h, row, k->requireField("value"), value);
    return row;
}

/// @}

} // namespace

FlinkQueryResult
runQueryA(FlinkCluster &cluster, const TpchData &db)
{
    cluster.resetBreakdowns();
    int n = cluster.numWorkers();
    const std::int32_t cutoff = tpchMaxDate - 120;

    FlinkShuffle shuffle(cluster, "qa", "tpch.GroupRow",
                         {"k1", "k2", "sum1", "sum2", "sum3",
                          "count"});
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        Stopwatch sw;
        for (std::size_t i = w; i < db.lineitem.size();
             i += static_cast<std::size_t>(n)) {
            const auto &li = db.lineitem[i];
            if (li.shipDate < cutoff)
                continue;
            Address row = makeGroupRow(
                jvm, li.returnFlag, li.lineStatus, li.extendedPrice,
                li.extendedPrice * (1 - li.discount), li.quantity, 1);
            shuffle.add(
                w,
                cluster.ownerOf(static_cast<std::uint64_t>(
                    li.returnFlag * 256 + li.lineStatus)),
                row);
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    shuffle.writePhase();

    double checksum = 0;
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        auto rows = shuffle.read(w);
        Stopwatch sw;
        Klass *k = jvm.klasses().load("tpch.GroupRow");
        const FieldDesc &fk1 = k->requireField("k1");
        const FieldDesc &fk2 = k->requireField("k2");
        const FieldDesc &fs1 = k->requireField("sum1");
        const FieldDesc &fs2 = k->requireField("sum2");
        const FieldDesc &fs3 = k->requireField("sum3");
        const FieldDesc &fc = k->requireField("count");
        std::map<std::pair<std::int64_t, std::int64_t>,
                 std::array<double, 4>>
            groups;
        for (std::size_t i = 0; i < rows->size(); ++i) {
            Address r = rows->get(i);
            auto key = std::make_pair(
                field::get<std::int64_t>(jvm.heap(), r, fk1),
                field::get<std::int64_t>(jvm.heap(), r, fk2));
            auto &g = groups[key];
            g[0] += field::get<double>(jvm.heap(), r, fs1);
            g[1] += field::get<double>(jvm.heap(), r, fs2);
            g[2] += field::get<double>(jvm.heap(), r, fs3);
            g[3] += static_cast<double>(
                field::get<std::int64_t>(jvm.heap(), r, fc));
        }
        for (auto &[key, g] : groups)
            checksum += g[0] * 1e-6 + g[1] * 1e-6 + g[2] + g[3];
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    return cluster.jobResult(shuffle.recordsAdded(),
                             shuffle.bytesWritten(), checksum);
}

FlinkQueryResult
runQueryB(FlinkCluster &cluster, const TpchData &db)
{
    cluster.resetBreakdowns();
    int n = cluster.numWorkers();

    // Stage 1: co-partition supplier and partsupp on suppKey.
    FlinkShuffle s1supp(cluster, "qb_supp", "tpch.Supplier",
                        {"key", "nationKey"});
    FlinkShuffle s1ps(cluster, "qb_ps", "tpch.PartSupp",
                      {"partKey", "suppKey", "supplyCost"});
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        Stopwatch sw;
        for (std::size_t i = w; i < db.supplier.size();
             i += static_cast<std::size_t>(n)) {
            Address row = makeSupplierRow(jvm, db.supplier[i]);
            s1supp.add(w,
                       cluster.ownerOf(static_cast<std::uint64_t>(
                           db.supplier[i].key)),
                       row);
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    s1supp.writePhase();
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        Stopwatch sw;
        for (std::size_t i = w; i < db.partsupp.size();
             i += static_cast<std::size_t>(n)) {
            Address row = makePartSuppRow(jvm, db.partsupp[i]);
            s1ps.add(w,
                     cluster.ownerOf(static_cast<std::uint64_t>(
                         db.partsupp[i].suppKey)),
                     row);
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    s1ps.writePhase();

    // Stage 2: join on suppKey, emit (partKey, region, cost) keyed by
    // partKey; reduce to the min cost per (part, region).
    FlinkShuffle s2(cluster, "qb_join", "tpch.GroupRow",
                    {"k1", "k2", "sum1"});
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        auto supp = s1supp.read(w);
        auto ps = s1ps.read(w);
        Stopwatch sw;
        Klass *sk = jvm.klasses().load("tpch.Supplier");
        const FieldDesc &sKey = sk->requireField("key");
        const FieldDesc &sNation = sk->requireField("nationKey");
        std::unordered_map<std::int32_t, std::int32_t> region;
        for (std::size_t i = 0; i < supp->size(); ++i) {
            Address r = supp->get(i);
            region[field::get<std::int32_t>(jvm.heap(), r, sKey)] =
                db.nation[field::get<std::int32_t>(jvm.heap(), r,
                                                   sNation)]
                    .regionKey;
        }
        Klass *pk = jvm.klasses().load("tpch.PartSupp");
        const FieldDesc &pPart = pk->requireField("partKey");
        const FieldDesc &pSupp = pk->requireField("suppKey");
        const FieldDesc &pCost = pk->requireField("supplyCost");
        for (std::size_t i = 0; i < ps->size(); ++i) {
            Address r = ps->get(i);
            std::int32_t part =
                field::get<std::int32_t>(jvm.heap(), r, pPart);
            std::int32_t su =
                field::get<std::int32_t>(jvm.heap(), r, pSupp);
            double cost = field::get<double>(jvm.heap(), r, pCost);
            auto it = region.find(su);
            if (it == region.end())
                continue;
            Address row = makeGroupRow(jvm, part, it->second, cost,
                                       0, 0, 1);
            s2.add(w,
                   cluster.ownerOf(static_cast<std::uint64_t>(part)),
                   row);
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    s2.writePhase();

    double checksum = 0;
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        auto rows = s2.read(w);
        Stopwatch sw;
        Klass *k = jvm.klasses().load("tpch.GroupRow");
        const FieldDesc &fk1 = k->requireField("k1");
        const FieldDesc &fk2 = k->requireField("k2");
        const FieldDesc &fs1 = k->requireField("sum1");
        std::unordered_map<std::int64_t, double> best;
        for (std::size_t i = 0; i < rows->size(); ++i) {
            Address r = rows->get(i);
            std::int64_t key =
                field::get<std::int64_t>(jvm.heap(), r, fk1) * 8 +
                field::get<std::int64_t>(jvm.heap(), r, fk2);
            double cost = field::get<double>(jvm.heap(), r, fs1);
            auto it = best.find(key);
            if (it == best.end() || cost < it->second)
                best[key] = cost;
        }
        for (auto &[key, cost] : best)
            checksum += cost;
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    return cluster.jobResult(s1supp.recordsAdded() + s1ps.recordsAdded() +
                                 s2.recordsAdded(),
                             s1supp.bytesWritten() + s1ps.bytesWritten() +
                                 s2.bytesWritten(),
                             checksum);
}

FlinkQueryResult
runQueryC(FlinkCluster &cluster, const TpchData &db)
{
    cluster.resetBreakdowns();
    int n = cluster.numWorkers();
    const std::int32_t date = 1100;

    // Stage 1: co-partition BUILDING customers and pre-date orders on
    // custKey. Full rows travel; consumers need only a few fields —
    // the lazy-deserialization case.
    FlinkShuffle s1cust(cluster, "qc_cust", "tpch.Customer", {"key"});
    FlinkShuffle s1ord(cluster, "qc_ord", "tpch.Order",
                       {"key", "custKey", "orderDate"});
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        Stopwatch sw;
        for (std::size_t i = w; i < db.customer.size();
             i += static_cast<std::size_t>(n)) {
            if (db.customer[i].mktsegment != "BUILDING")
                continue;
            Address row = makeCustomerRow(jvm, db.customer[i]);
            s1cust.add(w,
                       cluster.ownerOf(static_cast<std::uint64_t>(
                           db.customer[i].key)),
                       row);
        }
        for (std::size_t i = w; i < db.orders.size();
             i += static_cast<std::size_t>(n)) {
            if (db.orders[i].orderDate >= date)
                continue;
            Address row = makeOrderRow(jvm, db.orders[i]);
            s1ord.add(w,
                      cluster.ownerOf(static_cast<std::uint64_t>(
                          db.orders[i].custKey)),
                      row);
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    s1cust.writePhase();
    s1ord.writePhase();

    // Stage 2: join, re-key the surviving orders by orderKey.
    FlinkShuffle s2(cluster, "qc_okeys", "tpch.KeyedDouble",
                    {"key", "value"});
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        auto cust = s1cust.read(w);
        auto ord = s1ord.read(w);
        Stopwatch sw;
        Klass *ck = jvm.klasses().load("tpch.Customer");
        const FieldDesc &cKey = ck->requireField("key");
        std::unordered_set<std::int32_t> buildings;
        for (std::size_t i = 0; i < cust->size(); ++i)
            buildings.insert(field::get<std::int32_t>(
                jvm.heap(), cust->get(i), cKey));
        Klass *ok = jvm.klasses().load("tpch.Order");
        const FieldDesc &oKey = ok->requireField("key");
        const FieldDesc &oCust = ok->requireField("custKey");
        for (std::size_t i = 0; i < ord->size(); ++i) {
            Address r = ord->get(i);
            if (!buildings.count(field::get<std::int32_t>(
                    jvm.heap(), r, oCust)))
                continue;
            std::int64_t okey =
                field::get<std::int64_t>(jvm.heap(), r, oKey);
            s2.add(w,
                   cluster.ownerOf(static_cast<std::uint64_t>(okey)),
                   makeKeyedDouble(jvm, okey, 0));
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    s2.writePhase();

    // Stage 3: lineitems after the date, shuffled by orderKey.
    FlinkShuffle s3(cluster, "qc_li", "tpch.Lineitem",
                    {"orderKey", "extendedPrice", "discount"});
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        Stopwatch sw;
        for (std::size_t i = w; i < db.lineitem.size();
             i += static_cast<std::size_t>(n)) {
            if (db.lineitem[i].shipDate <= date)
                continue;
            Address row = makeLineitemRow(jvm, db.lineitem[i]);
            s3.add(w,
                   cluster.ownerOf(static_cast<std::uint64_t>(
                       db.lineitem[i].orderKey)),
                   row);
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    s3.writePhase();

    std::vector<double> revenues;
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        auto keys = s2.read(w);
        auto lis = s3.read(w);
        Stopwatch sw;
        Klass *kd = jvm.klasses().load("tpch.KeyedDouble");
        const FieldDesc &kKey = kd->requireField("key");
        std::unordered_set<std::int64_t> pending;
        for (std::size_t i = 0; i < keys->size(); ++i)
            pending.insert(field::get<std::int64_t>(
                jvm.heap(), keys->get(i), kKey));
        Klass *lk = jvm.klasses().load("tpch.Lineitem");
        const FieldDesc &lOrd = lk->requireField("orderKey");
        const FieldDesc &lExt = lk->requireField("extendedPrice");
        const FieldDesc &lDisc = lk->requireField("discount");
        std::unordered_map<std::int64_t, double> rev;
        for (std::size_t i = 0; i < lis->size(); ++i) {
            Address r = lis->get(i);
            std::int64_t okey =
                field::get<std::int64_t>(jvm.heap(), r, lOrd);
            if (!pending.count(okey))
                continue;
            rev[okey] +=
                field::get<double>(jvm.heap(), r, lExt) *
                (1 - field::get<double>(jvm.heap(), r, lDisc));
        }
        for (auto &[okey, v] : rev)
            revenues.push_back(v);
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    std::sort(revenues.rbegin(), revenues.rend());
    double checksum = 0;
    for (std::size_t i = 0; i < revenues.size() && i < 10; ++i)
        checksum += revenues[i];

    return cluster.jobResult(s1cust.recordsAdded() + s1ord.recordsAdded() +
                                 s2.recordsAdded() + s3.recordsAdded(),
                             s1cust.bytesWritten() + s1ord.bytesWritten() +
                                 s2.bytesWritten() + s3.bytesWritten(),
                             checksum);
}

FlinkQueryResult
runQueryD(FlinkCluster &cluster, const TpchData &db)
{
    cluster.resetBreakdowns();
    int n = cluster.numWorkers();
    const std::int32_t yearStart = 730;
    const std::int32_t yearEnd = yearStart + 365;

    FlinkShuffle s1li(cluster, "qd_li", "tpch.Lineitem",
                      {"orderKey"});
    FlinkShuffle s1ord(cluster, "qd_ord", "tpch.Order",
                       {"key", "orderDate"});
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        Stopwatch sw;
        for (std::size_t i = w; i < db.lineitem.size();
             i += static_cast<std::size_t>(n)) {
            if (db.lineitem[i].commitDate >=
                db.lineitem[i].receiptDate)
                continue; // not late
            Address row = makeLineitemRow(jvm, db.lineitem[i]);
            s1li.add(w,
                     cluster.ownerOf(static_cast<std::uint64_t>(
                         db.lineitem[i].orderKey)),
                     row);
        }
        for (std::size_t i = w; i < db.orders.size();
             i += static_cast<std::size_t>(n)) {
            if (db.orders[i].orderDate < yearStart ||
                db.orders[i].orderDate >= yearEnd)
                continue;
            Address row = makeOrderRow(jvm, db.orders[i]);
            s1ord.add(w,
                      cluster.ownerOf(static_cast<std::uint64_t>(
                          db.orders[i].key)),
                      row);
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    s1li.writePhase();
    s1ord.writePhase();

    std::uint64_t quarters[4] = {0, 0, 0, 0};
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        auto lis = s1li.read(w);
        auto ords = s1ord.read(w);
        Stopwatch sw;
        Klass *lk = jvm.klasses().load("tpch.Lineitem");
        const FieldDesc &lOrd = lk->requireField("orderKey");
        std::unordered_set<std::int64_t> late;
        for (std::size_t i = 0; i < lis->size(); ++i)
            late.insert(field::get<std::int64_t>(
                jvm.heap(), lis->get(i), lOrd));
        Klass *ok = jvm.klasses().load("tpch.Order");
        const FieldDesc &oKey = ok->requireField("key");
        const FieldDesc &oDate = ok->requireField("orderDate");
        for (std::size_t i = 0; i < ords->size(); ++i) {
            Address r = ords->get(i);
            if (!late.count(field::get<std::int64_t>(jvm.heap(), r,
                                                     oKey)))
                continue;
            std::int32_t d =
                field::get<std::int32_t>(jvm.heap(), r, oDate) -
                yearStart;
            ++quarters[std::min(d / 92, 3)];
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    double checksum = 0;
    for (int q = 0; q < 4; ++q)
        checksum += static_cast<double>(quarters[q]) * (q + 1);

    return cluster.jobResult(s1li.recordsAdded() + s1ord.recordsAdded(),
                             s1li.bytesWritten() + s1ord.bytesWritten(),
                             checksum);
}

FlinkQueryResult
runQueryE(FlinkCluster &cluster, const TpchData &db)
{
    cluster.resetBreakdowns();
    int n = cluster.numWorkers();

    // Stage 1: returned lineitems and orders co-partitioned on
    // orderKey.
    FlinkShuffle s1li(cluster, "qe_li", "tpch.Lineitem",
                      {"orderKey", "extendedPrice", "discount"});
    FlinkShuffle s1ord(cluster, "qe_ord", "tpch.Order",
                       {"key", "custKey"});
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        Stopwatch sw;
        for (std::size_t i = w; i < db.lineitem.size();
             i += static_cast<std::size_t>(n)) {
            if (db.lineitem[i].returnFlag != 'R')
                continue;
            Address row = makeLineitemRow(jvm, db.lineitem[i]);
            s1li.add(w,
                     cluster.ownerOf(static_cast<std::uint64_t>(
                         db.lineitem[i].orderKey)),
                     row);
        }
        for (std::size_t i = w; i < db.orders.size();
             i += static_cast<std::size_t>(n)) {
            Address row = makeOrderRow(jvm, db.orders[i]);
            s1ord.add(w,
                      cluster.ownerOf(static_cast<std::uint64_t>(
                          db.orders[i].key)),
                      row);
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    s1li.writePhase();
    s1ord.writePhase();

    // Stage 2: revenue per customer.
    FlinkShuffle s2(cluster, "qe_rev", "tpch.KeyedDouble",
                    {"key", "value"});
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        auto lis = s1li.read(w);
        auto ords = s1ord.read(w);
        Stopwatch sw;
        Klass *ok = jvm.klasses().load("tpch.Order");
        const FieldDesc &oKey = ok->requireField("key");
        const FieldDesc &oCust = ok->requireField("custKey");
        std::unordered_map<std::int64_t, std::int32_t> custOf;
        for (std::size_t i = 0; i < ords->size(); ++i) {
            Address r = ords->get(i);
            custOf[field::get<std::int64_t>(jvm.heap(), r, oKey)] =
                field::get<std::int32_t>(jvm.heap(), r, oCust);
        }
        Klass *lk = jvm.klasses().load("tpch.Lineitem");
        const FieldDesc &lOrd = lk->requireField("orderKey");
        const FieldDesc &lExt = lk->requireField("extendedPrice");
        const FieldDesc &lDisc = lk->requireField("discount");
        std::unordered_map<std::int32_t, double> rev;
        for (std::size_t i = 0; i < lis->size(); ++i) {
            Address r = lis->get(i);
            auto it = custOf.find(
                field::get<std::int64_t>(jvm.heap(), r, lOrd));
            if (it == custOf.end())
                continue;
            rev[it->second] +=
                field::get<double>(jvm.heap(), r, lExt) *
                (1 - field::get<double>(jvm.heap(), r, lDisc));
        }
        for (auto &[cust, v] : rev) {
            s2.add(w,
                   cluster.ownerOf(static_cast<std::uint64_t>(cust)),
                   makeKeyedDouble(jvm, cust, v));
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    s2.writePhase();

    // Stage 3: customers joined in; sort by lost revenue.
    FlinkShuffle s3(cluster, "qe_cust", "tpch.Customer",
                    {"key", "name"});
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        Stopwatch sw;
        for (std::size_t i = w; i < db.customer.size();
             i += static_cast<std::size_t>(n)) {
            Address row = makeCustomerRow(jvm, db.customer[i]);
            s3.add(w,
                   cluster.ownerOf(static_cast<std::uint64_t>(
                       db.customer[i].key)),
                   row);
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    s3.writePhase();

    std::vector<std::pair<double, std::string>> ranked;
    for (int w = 0; w < n; ++w) {
        Jvm &jvm = cluster.worker(w);
        auto revs = s2.read(w);
        auto custs = s3.read(w);
        Stopwatch sw;
        Klass *ck = jvm.klasses().load("tpch.Customer");
        const FieldDesc &cKey = ck->requireField("key");
        const FieldDesc &cName = ck->requireField("name");
        std::unordered_map<std::int32_t, std::string> names;
        for (std::size_t i = 0; i < custs->size(); ++i) {
            Address r = custs->get(i);
            Address nm = field::getRef(jvm.heap(), r, cName);
            names[field::get<std::int32_t>(jvm.heap(), r, cKey)] =
                jvm.builder().stringValue(nm);
        }
        Klass *kd = jvm.klasses().load("tpch.KeyedDouble");
        const FieldDesc &kKey = kd->requireField("key");
        const FieldDesc &kVal = kd->requireField("value");
        std::unordered_map<std::int64_t, double> total;
        for (std::size_t i = 0; i < revs->size(); ++i) {
            Address r = revs->get(i);
            total[field::get<std::int64_t>(jvm.heap(), r, kKey)] +=
                field::get<double>(jvm.heap(), r, kVal);
        }
        for (auto &[cust, v] : total) {
            auto it = names.find(static_cast<std::int32_t>(cust));
            ranked.emplace_back(v, it == names.end() ? ""
                                                     : it->second);
        }
        cluster.chargeCompute(w, sw.elapsedNs());
    }
    std::sort(ranked.rbegin(), ranked.rend());
    double checksum = 0;
    for (std::size_t i = 0; i < ranked.size() && i < 20; ++i)
        checksum += ranked[i].first + ranked[i].second.size();

    return cluster.jobResult(s1li.recordsAdded() + s1ord.recordsAdded() +
                                 s2.recordsAdded() + s3.recordsAdded(),
                             s1li.bytesWritten() + s1ord.bytesWritten() +
                                 s2.bytesWritten() + s3.bytesWritten(),
                             checksum);
}

FlinkQueryResult
runQuery(char which, FlinkCluster &cluster, const TpchData &db)
{
    switch (which) {
      case 'A': return runQueryA(cluster, db);
      case 'B': return runQueryB(cluster, db);
      case 'C': return runQueryC(cluster, db);
      case 'D': return runQueryD(cluster, db);
      case 'E': return runQueryE(cluster, db);
      default: fatal("runQuery: unknown query");
    }
}

const char *
queryDescription(char which)
{
    switch (which) {
      case 'A':
        return "Report pricing details for all items shipped within "
               "the last 120 days.";
      case 'B':
        return "List the minimum cost supplier for each region for "
               "each item in the database.";
      case 'C':
        return "Retrieve the shipping priority and potential revenue "
               "of all pending orders.";
      case 'D':
        return "Count the number of late orders in each quarter of a "
               "given year.";
      case 'E':
        return "Report all items returned by customers sorted by the "
               "lost revenue.";
      default:
        return "unknown";
    }
}

} // namespace skyway
