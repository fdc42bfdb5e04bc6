/**
 * @file
 * Tests for global class numbering (paper Algorithm 1): driver
 * numbering, worker view pulls, lookup-on-miss, consistency of IDs
 * across nodes, reverse lookup on stale views, load hooks, and the
 * "class string crosses the wire at most once per class per machine"
 * property.
 */

#include <gtest/gtest.h>

#include "typereg/registry.hh"

namespace skyway
{
namespace
{

class TypeRegTest : public ::testing::Test
{
  protected:
    TypeRegTest() : net_(3)
    {
        defineBootstrapClasses(cat_);
        cat_.define(ClassDef{"app.Record", "", {{"id", FieldType::Int,
                                                 ""}}});
        cat_.define(ClassDef{"app.Extra", "", {}});
        cat_.define(ClassDef{"app.Late", "", {}});
        driverKt_ = std::make_unique<KlassTable>(cat_);
        workerKtA_ = std::make_unique<KlassTable>(cat_);
        workerKtB_ = std::make_unique<KlassTable>(cat_);
    }

    ClassCatalog cat_;
    ClusterNetwork net_;
    std::unique_ptr<KlassTable> driverKt_, workerKtA_, workerKtB_;
};

TEST_F(TypeRegTest, DriverNumbersPreloadedClasses)
{
    driverKt_->load("java.lang.String");
    driverKt_->load("app.Record");
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    EXPECT_EQ(driver.size(), 2u); // field types load lazily
    EXPECT_NE(driverKt_->findLoaded("java.lang.String")->tid(),
              Klass::unregisteredTid);
    EXPECT_NE(driverKt_->findLoaded("app.Record")->tid(),
              Klass::unregisteredTid);
}

TEST_F(TypeRegTest, WorkerPullsViewAtStartup)
{
    driverKt_->load("app.Record");
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    TypeRegistryWorker worker(net_, 1, 0, *workerKtA_);
    EXPECT_EQ(worker.viewSize(), driver.size());
    EXPECT_EQ(driver.stats().viewRequestsServed, 1u);
    // The view already covers app.Record: loading it issues no
    // remote lookup.
    Klass *k = workerKtA_->load("app.Record");
    EXPECT_EQ(k->tid(), driverKt_->findLoaded("app.Record")->tid());
    EXPECT_EQ(worker.stats().remoteLookupsIssued, 0u);
}

TEST_F(TypeRegTest, IdsConsistentAcrossNodes)
{
    driverKt_->load("app.Record");
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    TypeRegistryWorker wa(net_, 1, 0, *workerKtA_);
    TypeRegistryWorker wb(net_, 2, 0, *workerKtB_);

    Klass *ka = workerKtA_->load("app.Extra"); // miss on both views
    Klass *kb = workerKtB_->load("app.Extra");
    EXPECT_EQ(ka->tid(), kb->tid());
    EXPECT_NE(ka, kb) << "distinct meta objects, same global id";
    EXPECT_EQ(driver.stats().lookupsServed, 2u);
}

TEST_F(TypeRegTest, LookupCachedAfterFirstMiss)
{
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    TypeRegistryWorker worker(net_, 1, 0, *workerKtA_);
    std::int32_t id1 = worker.idForClass("app.Late");
    std::int32_t id2 = worker.idForClass("app.Late");
    EXPECT_EQ(id1, id2);
    EXPECT_EQ(worker.stats().remoteLookupsIssued, 1u);
    // At-most-once per class per machine: exactly one class string
    // crossed the wire for app.Late from this worker.
    EXPECT_EQ(worker.stats().classStringsSent, 1u);
}

TEST_F(TypeRegTest, KlassForIdResolvesAndLoads)
{
    driverKt_->load("app.Record");
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    TypeRegistryWorker worker(net_, 1, 0, *workerKtA_);
    std::int32_t id = driverKt_->findLoaded("app.Record")->tid();

    EXPECT_EQ(workerKtA_->findLoaded("app.Record"), nullptr);
    Klass *k = worker.klassFor(id);
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->name(), "app.Record");
    EXPECT_EQ(k->tid(), id);
    EXPECT_EQ(workerKtA_->findLoaded("app.Record"), k);
}

TEST_F(TypeRegTest, StaleViewReverseLookup)
{
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    TypeRegistryWorker wa(net_, 1, 0, *workerKtA_);
    // B attaches, then A registers a brand-new class: B's view is
    // stale for that id.
    TypeRegistryWorker wb(net_, 2, 0, *workerKtB_);
    std::int32_t late = wa.idForClass("app.Late");

    Klass *k = wb.klassFor(late);
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->name(), "app.Late");
    EXPECT_EQ(driver.stats().reverseLookupsServed, 1u);
}

TEST_F(TypeRegTest, ArrayClassesAreNumbered)
{
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    TypeRegistryWorker worker(net_, 1, 0, *workerKtA_);
    Klass *ia = workerKtA_->arrayOfPrimitive(FieldType::Int);
    EXPECT_NE(ia->tid(), Klass::unregisteredTid);
    EXPECT_EQ(worker.klassFor(ia->tid()), ia);
}

TEST_F(TypeRegTest, DriverResolvesItsOwnIds)
{
    driverKt_->load("app.Record");
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    std::int32_t id = driver.idForClass("app.Record");
    EXPECT_EQ(driver.klassFor(id), driverKt_->findLoaded("app.Record"));
    // A class a worker registered but the driver never loaded loads
    // on first resolution.
    std::int32_t extra = driver.idForClass("app.Extra");
    EXPECT_EQ(driverKt_->findLoaded("app.Extra"), nullptr);
    Klass *k = driver.klassFor(extra);
    ASSERT_NE(k, nullptr);
    EXPECT_EQ(k->name(), "app.Extra");
    EXPECT_EQ(k->tid(), extra);
    // An id no registry assigned resolves to nothing, without a panic.
    EXPECT_EQ(driver.klassFor(99999), nullptr);
    EXPECT_EQ(driver.klassFor(-1), nullptr);
}

TEST_F(TypeRegTest, ViewEncodingRoundTrips)
{
    driverKt_->load("app.Record");
    driverKt_->load("app.Extra");
    TypeRegistryDriver driver(net_, 0, *driverKt_);
    auto view = driver.encodeView();
    EXPECT_FALSE(view.empty());
    // A worker constructed afterwards decodes every entry.
    TypeRegistryWorker worker(net_, 1, 0, *workerKtA_);
    EXPECT_EQ(worker.viewSize(), driver.size());
    EXPECT_EQ(worker.klassFor(driver.idForClass("app.Extra"))->name(),
              "app.Extra");
}

} // namespace
} // namespace skyway
