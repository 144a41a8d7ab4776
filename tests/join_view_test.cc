#include <gtest/gtest.h>

#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

/// Orders(id, cust_ref, item) and Customers(id, name): 100 orders, each
/// referencing one of 20 customers (order o -> customer o % 20).
class BaseTablesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CentralServer::Options opts;
    opts.tree_opts.config.max_internal = 8;
    opts.tree_opts.config.max_leaf = 8;
    auto central = CentralServer::Create(opts);
    ASSERT_TRUE(central.ok());
    central_ = central.MoveValueUnsafe();

    Schema orders({{"id", TypeId::kInt64},
                   {"cust_ref", TypeId::kInt64},
                   {"item", TypeId::kString}});
    Schema customers({{"id", TypeId::kInt64}, {"name", TypeId::kString}});
    ASSERT_TRUE(central_->CreateTable("orders", orders).ok());
    ASSERT_TRUE(central_->CreateTable("customers", customers).ok());

    std::vector<Tuple> order_rows, customer_rows;
    for (int64_t c = 0; c < 20; ++c) {
      customer_rows.push_back(
          Tuple({Value::Int(c), Value::Str("cust" + std::to_string(c))}));
    }
    for (int64_t o = 0; o < 100; ++o) {
      order_rows.push_back(Tuple({Value::Int(o), Value::Int(o % 20),
                                  Value::Str("item" + std::to_string(o))}));
    }
    ASSERT_TRUE(central_->LoadTable("orders", order_rows).ok());
    ASSERT_TRUE(central_->LoadTable("customers", customer_rows).ok());
  }

  /// Joins orders.cust_ref = customers.id.
  Status CreateView(const std::string& view_name) {
    JoinSpec spec;
    spec.view_name = view_name;
    spec.left_table = "orders";
    spec.right_table = "customers";
    spec.left_col = 1;   // cust_ref
    spec.right_col = 0;  // customers.id
    return central_->CreateJoinView(spec);
  }

  /// The row count an exported snapshot ships: the varint that follows
  /// its magic, name and schema.
  uint64_t SnapshotRowCount(const std::string& name) const {
    auto snapshot = central_->ExportTableSnapshot(name);
    EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    if (!snapshot.ok()) return 0;
    ByteReader r((Slice(*snapshot)));
    EXPECT_TRUE(r.ReadU32().ok());
    EXPECT_TRUE(r.ReadString().ok());
    EXPECT_TRUE(Schema::Deserialize(&r).ok());
    auto count = r.ReadVarint();
    EXPECT_TRUE(count.ok());
    return count.ok() ? *count : 0;
  }

  std::unique_ptr<CentralServer> central_;
};

/// The base tables with the "orders_customers" view over them.
class JoinViewTest : public BaseTablesTest {
 protected:
  void SetUp() override {
    BaseTablesTest::SetUp();
    if (HasFatalFailure()) return;
    ASSERT_TRUE(CreateView("orders_customers").ok());
  }
};

TEST_F(JoinViewTest, MaterializesAllMatches) {
  auto view = central_->GetJoinView("orders_customers");
  ASSERT_TRUE(view.ok());
  // Every order matches exactly one customer.
  EXPECT_EQ((*view)->row_count(), 100u);
  EXPECT_EQ((*view)->tree()->size(), 100u);
  EXPECT_TRUE((*view)->tree()->CheckDigestConsistency().ok());
  // View schema: view_id + 3 order cols + 2 customer cols.
  EXPECT_EQ((*view)->schema().num_columns(), 6u);
}

TEST_F(JoinViewTest, ViewIsQueryableAndVerifiable) {
  // A view is read like any unsplit table: a signed map of one shard (id
  // 0, the plain view name), shipped ahead of the view's snapshot.
  auto map = central_->TablePartitionMap("orders_customers");
  ASSERT_TRUE(map.ok()) << map.status().ToString();
  ASSERT_EQ(map->shards.size(), 1u);
  EXPECT_EQ(map->shard_name(0), "orders_customers");
  auto rec = central_->key_directory()->RecovererFor(map->key_version, 10);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(map->Verify(rec->get()).ok());

  // Distribute the view to an edge server and run an authenticated query.
  EdgeServer edge("edge-1");
  SimulatedNetwork net;
  ASSERT_TRUE(testutil::Publish(central_.get(), "orders_customers", &edge, &net).ok());
  EXPECT_EQ(edge.MapEpoch("orders_customers"), map->epoch);

  Client client(central_->db_name(), central_->key_directory());
  auto info = central_->DescribeTable("orders_customers");
  ASSERT_TRUE(info.ok());
  client.RegisterTable("orders_customers", (*info)->schema);

  SelectQuery q;
  q.table = "orders_customers";
  q.range = KeyRange{10, 40};
  auto result = client.Query(&edge, q, /*now=*/10, &net);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 31u);
  EXPECT_TRUE(result->verification.ok()) << result->verification.ToString();
  EXPECT_GE(result->map_epoch, 1u);
  EXPECT_EQ(result->shards_touched, 1u);
}

TEST_F(JoinViewTest, ReplayedStaleViewMapIsRejected) {
  // edge-old keeps the view (and its epoch-1 map) from before a key
  // rotation; edge-new is republished under the re-signed epoch-2 map.
  EdgeServer old_edge("edge-old");
  EdgeServer new_edge("edge-new");
  ASSERT_TRUE(
      testutil::Publish(central_.get(), "orders_customers", &old_edge).ok());
  ASSERT_TRUE(central_->RotateKey(/*now=*/100).ok());
  ASSERT_TRUE(
      testutil::Publish(central_.get(), "orders_customers", &new_edge).ok());
  ASSERT_EQ(old_edge.MapEpoch("orders_customers"), 1u);
  ASSERT_EQ(new_edge.MapEpoch("orders_customers"), 2u);

  Client client(central_->db_name(), central_->key_directory());
  auto info = central_->DescribeTable("orders_customers");
  ASSERT_TRUE(info.ok());
  client.RegisterTable("orders_customers", (*info)->schema);
  SelectQuery q;
  q.table = "orders_customers";
  q.range = KeyRange{0, 99};
  auto fresh = client.Query(&new_edge, q, /*now=*/150, nullptr);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  ASSERT_TRUE(fresh->verification.ok()) << fresh->verification.ToString();
  EXPECT_EQ(fresh->map_epoch, 2u);

  // The old map is authentically signed, but its epoch is below the
  // floor this client already authenticated.
  auto stale = client.Query(&old_edge, q, /*now=*/150, nullptr);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_TRUE(stale->verification.IsVerificationFailure())
      << stale->verification.ToString();
  EXPECT_NE(stale->verification.ToString().find("stale partition map"),
            std::string::npos)
      << stale->verification.ToString();
}

TEST_F(JoinViewTest, ViewProjectionVerifies) {
  EdgeServer edge("edge-1");
  ASSERT_TRUE(
      testutil::Publish(central_.get(), "orders_customers", &edge, nullptr).ok());
  Client client(central_->db_name(), central_->key_directory());
  auto info = central_->DescribeTable("orders_customers");
  ASSERT_TRUE(info.ok());
  client.RegisterTable("orders_customers", (*info)->schema);

  SelectQuery q;
  q.table = "orders_customers";
  q.range = KeyRange{0, 99};
  q.projection = {0, 3, 5};  // view_id, item, customer name
  auto result = client.Query(&edge, q, 10, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->verification.ok()) << result->verification.ToString();
  EXPECT_EQ(result->rows[0].values.size(), 3u);
}

TEST_F(JoinViewTest, InsertMaintainsView) {
  // A new order for customer 7 must appear in the view.
  Tuple new_order({Value::Int(500), Value::Int(7), Value::Str("widget")});
  ASSERT_TRUE(central_->InsertTuple("orders", new_order).ok());
  auto view = central_->GetJoinView("orders_customers");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->row_count(), 101u);
  EXPECT_TRUE((*view)->tree()->CheckDigestConsistency().ok());
}

TEST_F(JoinViewTest, InsertWithNoMatchAddsNothing) {
  Tuple orphan({Value::Int(501), Value::Int(999), Value::Str("ghost")});
  ASSERT_TRUE(central_->InsertTuple("orders", orphan).ok());
  auto view = central_->GetJoinView("orders_customers");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->row_count(), 100u);
}

TEST_F(JoinViewTest, InsertIntoRightTableMaintainsView) {
  // New customer 999 then an order referencing them.
  Tuple orphan({Value::Int(502), Value::Int(999), Value::Str("early")});
  ASSERT_TRUE(central_->InsertTuple("orders", orphan).ok());
  Tuple cust({Value::Int(999), Value::Str("late-customer")});
  ASSERT_TRUE(central_->InsertTuple("customers", cust).ok());
  auto view = central_->GetJoinView("orders_customers");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->row_count(), 101u);
  EXPECT_TRUE((*view)->tree()->CheckDigestConsistency().ok());
}

TEST_F(JoinViewTest, DeleteMaintainsView) {
  // Deleting orders 0..9 removes those 10 join rows.
  auto removed = central_->DeleteRange("orders", 0, 9);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 10u);
  auto view = central_->GetJoinView("orders_customers");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->row_count(), 90u);
  EXPECT_TRUE((*view)->tree()->CheckDigestConsistency().ok());
}

TEST_F(JoinViewTest, DeleteFromRightTableCascades) {
  // Customer 3 has orders 3, 23, 43, 63, 83.
  auto removed = central_->DeleteRange("customers", 3, 3);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  auto view = central_->GetJoinView("orders_customers");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->row_count(), 95u);
}

TEST_F(JoinViewTest, ViewStaysVerifiableAfterMaintenance) {
  ASSERT_TRUE(central_
                  ->InsertTuple("orders", Tuple({Value::Int(600),
                                                 Value::Int(5),
                                                 Value::Str("fresh")}))
                  .ok());
  ASSERT_TRUE(central_->DeleteRange("orders", 10, 30).ok());

  EdgeServer edge("edge-1");
  ASSERT_TRUE(
      testutil::Publish(central_.get(), "orders_customers", &edge, nullptr).ok());
  Client client(central_->db_name(), central_->key_directory());
  auto info = central_->DescribeTable("orders_customers");
  ASSERT_TRUE(info.ok());
  client.RegisterTable("orders_customers", (*info)->schema);

  SelectQuery q;
  q.table = "orders_customers";
  q.range = KeyRange{0, 10000};
  auto result = client.Query(&edge, q, 10, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->verification.ok()) << result->verification.ToString();
}

// ---------------------------------------------------------------------------
// A deleted or rejected row must leave no trace: not in the snapshots the
// edges receive, not in a view materialized later, and not as a second
// join partner for a key that came back.
// ---------------------------------------------------------------------------

TEST_F(BaseTablesTest, DeletedRowsLeaveTheSnapshot) {
  auto removed = central_->DeleteRange("orders", 10, 99);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 90u);
  EXPECT_EQ(SnapshotRowCount("orders"), 10u);
}

TEST_F(BaseTablesTest, ViewCreatedAfterADeleteJoinsOnlyLiveRows) {
  ASSERT_TRUE(central_->DeleteRange("orders", 10, 99).ok());
  ASSERT_TRUE(CreateView("orders_customers").ok());
  auto view = central_->GetJoinView("orders_customers");
  ASSERT_TRUE(view.ok());
  EXPECT_EQ((*view)->row_count(), 10u);
  EXPECT_EQ((*view)->tree()->size(), 10u);
  EXPECT_EQ(SnapshotRowCount("orders_customers"), 10u);
}

TEST_F(JoinViewTest, ReinsertedCustomerJoinsOnlyUnderItsNewName) {
  ASSERT_TRUE(central_->DeleteRange("customers", 5, 5).ok());
  ASSERT_TRUE(central_
                  ->InsertTuple("customers",
                                Tuple({Value::Int(5), Value::Str("renamed")}))
                  .ok());
  auto view = central_->GetJoinView("orders_customers");
  ASSERT_TRUE(view.ok());
  const size_t before = (*view)->row_count();
  ASSERT_TRUE(central_
                  ->InsertTuple("orders", Tuple({Value::Int(700), Value::Int(5),
                                                 Value::Str("late")}))
                  .ok());
  EXPECT_EQ((*view)->row_count(), before + 1);

  // The one new view row joins order 700 with the customer's new name.
  EdgeServer edge("edge-1");
  ASSERT_TRUE(
      testutil::Publish(central_.get(), "orders_customers", &edge).ok());
  Client client(central_->db_name(), central_->key_directory());
  client.RegisterTable("orders_customers", (*view)->schema());
  SelectQuery q;
  q.table = "orders_customers";
  q.range = KeyRange{0, 10000};
  auto result = client.Query(&edge, q, 10, nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_TRUE(result->verification.ok()) << result->verification.ToString();
  std::vector<std::string> names;
  for (const ResultRow& row : result->rows) {
    // View columns: view_id, l_id, l_cust_ref, l_item, r_id, r_name.
    if (row.values[1] == Value::Int(700)) {
      names.push_back(row.values[5].AsString());
    }
  }
  EXPECT_EQ(names, std::vector<std::string>{"renamed"});
}

TEST_F(BaseTablesTest, RejectedDuplicateInsertStoresNothing) {
  Schema schema({{"id", TypeId::kInt64}, {"name", TypeId::kString}});
  ASSERT_TRUE(central_->CreateTable("ten", schema).ok());
  std::vector<Tuple> rows;
  for (int64_t k = 0; k < 10; ++k) {
    rows.push_back(Tuple({Value::Int(k), Value::Str("row")}));
  }
  ASSERT_TRUE(central_->LoadTable("ten", rows).ok());
  EXPECT_EQ(central_->InsertTuple("ten", Tuple({Value::Int(3),
                                                Value::Str("dup")}))
                .code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(SnapshotRowCount("ten"), 10u);
}

TEST_F(JoinViewTest, DuplicateViewNameRejected) {
  JoinSpec spec;
  spec.view_name = "orders_customers";
  spec.left_table = "orders";
  spec.right_table = "customers";
  spec.left_col = 1;
  spec.right_col = 0;
  EXPECT_EQ(central_->CreateJoinView(spec).code(),
            StatusCode::kAlreadyExists);
}

TEST_F(JoinViewTest, BadJoinColumnRejected) {
  JoinSpec spec;
  spec.view_name = "bad";
  spec.left_table = "orders";
  spec.right_table = "customers";
  spec.left_col = 99;
  spec.right_col = 0;
  EXPECT_FALSE(central_->CreateJoinView(spec).ok());
}

}  // namespace
}  // namespace vbtree
