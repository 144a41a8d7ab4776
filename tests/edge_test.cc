#include <gtest/gtest.h>

#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

/// Full Fig. 2 topology: one central server, two edge servers, a client.
class EdgeComputingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CentralServer::Options opts;
    opts.tree_opts.config.max_internal = 16;
    opts.tree_opts.config.max_leaf = 16;
    auto central = CentralServer::Create(opts);
    ASSERT_TRUE(central.ok());
    central_ = central.MoveValueUnsafe();

    schema_ = testutil::MakeWideSchema(10);
    ASSERT_TRUE(central_->CreateTable("items", schema_).ok());
    Rng rng(42);
    ASSERT_TRUE(
        central_->LoadTable("items", testutil::MakeRows(schema_, 1000, &rng))
            .ok());

    edge1_ = std::make_unique<EdgeServer>("edge-1");
    edge2_ = std::make_unique<EdgeServer>("edge-2");
    ASSERT_TRUE(testutil::Publish(central_.get(), "items", edge1_.get(), &net_).ok());
    ASSERT_TRUE(testutil::Publish(central_.get(), "items", edge2_.get(), &net_).ok());

    client_ = std::make_unique<Client>(central_->db_name(),
                                       central_->key_directory());
    client_->RegisterTable("items", schema_);
  }

  SelectQuery RangeQuery(int64_t lo, int64_t hi) {
    SelectQuery q;
    q.table = "items";
    q.range = KeyRange{lo, hi};
    return q;
  }

  Schema schema_;
  SimulatedNetwork net_;
  std::unique_ptr<CentralServer> central_;
  std::unique_ptr<EdgeServer> edge1_, edge2_;
  std::unique_ptr<Client> client_;
};

TEST_F(EdgeComputingTest, EndToEndQueryVerifies) {
  auto result = client_->Query(edge1_.get(), RangeQuery(100, 250), 10, &net_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->rows.size(), 151u);
  EXPECT_TRUE(result->verification.ok()) << result->verification.ToString();
  EXPECT_GT(result->result_bytes, 0u);
  EXPECT_GT(result->vo_bytes, 0u);
  EXPECT_GT(result->counters.attr_hashes, 0u);
  EXPECT_GT(result->counters.recovers, 0u);
}

TEST_F(EdgeComputingTest, BothEdgesServeIdenticalAnswers) {
  auto r1 = client_->Query(edge1_.get(), RangeQuery(5, 50), 10, &net_);
  auto r2 = client_->Query(edge2_.get(), RangeQuery(5, 50), 10, &net_);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(r1->verification.ok());
  EXPECT_TRUE(r2->verification.ok());
  ASSERT_EQ(r1->rows.size(), r2->rows.size());
  for (size_t i = 0; i < r1->rows.size(); ++i) {
    EXPECT_EQ(r1->rows[i].values, r2->rows[i].values);
  }
}

TEST_F(EdgeComputingTest, NetworkBytesAccounted) {
  net_.Reset();
  auto result = client_->Query(edge1_.get(), RangeQuery(0, 99), 10, &net_);
  ASSERT_TRUE(result.ok());
  auto up = net_.stats("client->edge:edge-1");
  auto down = net_.stats("edge:edge-1->client");
  EXPECT_EQ(up.messages, 1u);
  EXPECT_EQ(down.messages, 1u);
  EXPECT_EQ(up.bytes, result->request_bytes);
  // Response = rows + VO plus framing varints.
  EXPECT_GE(down.bytes, result->result_bytes + result->vo_bytes);
}

TEST_F(EdgeComputingTest, HackedReplicaDetected) {
  ASSERT_TRUE(
      edge1_->TamperValueByKey("items", 150, 3, Value::Str("EVIL")).ok());
  auto bad = client_->Query(edge1_.get(), RangeQuery(100, 250), 10, &net_);
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(bad->verification.IsVerificationFailure());
  // The untampered edge still verifies.
  auto good = client_->Query(edge2_.get(), RangeQuery(100, 250), 10, &net_);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->verification.ok());
}

TEST_F(EdgeComputingTest, ResponseTamperModesDetected) {
  for (ResponseTamper mode :
       {ResponseTamper::kModifyValue, ResponseTamper::kInjectRow,
        ResponseTamper::kDropRow}) {
    edge1_->set_response_tamper(mode);
    auto result = client_->Query(edge1_.get(), RangeQuery(10, 60), 10, &net_);
    ASSERT_TRUE(result.ok());
    EXPECT_TRUE(result->verification.IsVerificationFailure())
        << "mode " << static_cast<int>(mode);
  }
  edge1_->set_response_tamper(ResponseTamper::kNone);
  auto result = client_->Query(edge1_.get(), RangeQuery(10, 60), 10, &net_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->verification.ok());
}

TEST_F(EdgeComputingTest, ProjectionAndConditionsEndToEnd) {
  SelectQuery q = RangeQuery(0, 999);
  q.projection = {0, 2, 4};
  q.conditions.push_back(ColumnCondition{1, CompareOp::kLt, Value::Str("j")});
  auto result = client_->Query(edge1_.get(), q, 10, &net_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->verification.ok()) << result->verification.ToString();
  EXPECT_GT(result->rows.size(), 0u);
  EXPECT_LT(result->rows.size(), 1000u);
  EXPECT_EQ(result->rows[0].values.size(), 3u);
}

TEST_F(EdgeComputingTest, UnknownTableFails) {
  SelectQuery q;
  q.table = "nope";
  q.range = KeyRange{0, 10};
  EXPECT_FALSE(client_->Query(edge1_.get(), q, 10, &net_).ok());
}

TEST_F(EdgeComputingTest, UpdatePropagationKeepsEdgesVerifiable) {
  // Central applies updates, republishes; edge answers reflect them.
  Rng rng(7);
  for (int64_t k = 5000; k < 5050; ++k) {
    ASSERT_TRUE(
        central_->InsertTuple("items", testutil::MakeTuple(schema_, k, &rng))
            .ok());
  }
  ASSERT_TRUE(central_->DeleteRange("items", 0, 49).ok());
  ASSERT_TRUE(testutil::Publish(central_.get(), "items", edge1_.get(), &net_).ok());

  auto result = client_->Query(edge1_.get(), RangeQuery(0, 6000), 10, &net_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->verification.ok()) << result->verification.ToString();
  EXPECT_EQ(result->rows.size(), 1000u);  // 1000 - 50 + 50
  EXPECT_EQ(result->rows.front().key, 50);
  EXPECT_EQ(result->rows.back().key, 5049);
}

TEST_F(EdgeComputingTest, StaleKeyVersionRejected) {
  // Rotate the signing key at t=100. edge2 keeps the OLD snapshot.
  ASSERT_TRUE(central_->RotateKey(100).ok());
  ASSERT_TRUE(testutil::Publish(central_.get(), "items", edge1_.get(), &net_).ok());

  // Before expiry, the stale edge still verifies (its window is valid).
  auto pre = client_->Query(edge2_.get(), RangeQuery(0, 50), 99, &net_);
  ASSERT_TRUE(pre.ok());
  EXPECT_TRUE(pre->verification.ok());

  // After expiry, data signed with key v1 must be rejected: the stale
  // edge cannot masquerade old data as current (§3.4).
  auto stale = client_->Query(edge2_.get(), RangeQuery(0, 50), 150, &net_);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale->verification.IsVerificationFailure());

  // The refreshed edge (key v2) verifies at the same time.
  auto fresh = client_->Query(edge1_.get(), RangeQuery(0, 50), 150, &net_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->verification.ok()) << fresh->verification.ToString();
}

TEST_F(EdgeComputingTest, RsaBackedEndToEnd) {
  CentralServer::Options opts;
  opts.use_rsa = true;
  opts.tree_opts.config.max_internal = 8;
  opts.tree_opts.config.max_leaf = 8;
  auto central = CentralServer::Create(opts);
  ASSERT_TRUE(central.ok());
  Schema schema = testutil::MakeWideSchema(4);
  ASSERT_TRUE((*central)->CreateTable("small", schema).ok());
  Rng rng(1);
  ASSERT_TRUE(
      (*central)->LoadTable("small", testutil::MakeRows(schema, 60, &rng))
          .ok());

  EdgeServer edge("edge-rsa");
  ASSERT_TRUE(testutil::Publish((*central).get(), "small", &edge, nullptr).ok());
  Client client((*central)->db_name(), (*central)->key_directory());
  client.RegisterTable("small", schema);

  SelectQuery q;
  q.table = "small";
  q.range = KeyRange{10, 30};
  auto result = client.Query(&edge, q, 10, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->verification.ok()) << result->verification.ToString();

  // Tampering detected under RSA too.
  ASSERT_TRUE(edge.TamperValueByKey("small", 20, 1, Value::Str("EVIL")).ok());
  auto bad = client.Query(&edge, q, 10, nullptr);
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(bad->verification.IsVerificationFailure());
}

TEST_F(EdgeComputingTest, ReplicaWithoutMapAnswersNothing) {
  // The replica of a plain table arrives without its signed map: there is
  // no unmapped read path, so the edge cannot answer until the map does.
  EdgeServer bare("edge-bare");
  auto snap = central_->ExportTableSnapshot("items");
  ASSERT_TRUE(snap.ok());
  ASSERT_TRUE(bare.InstallSnapshot(Slice(*snap)).ok());
  ASSERT_TRUE(bare.HasTable("items"));

  QueryBatch batch;
  batch.table = "items";
  batch.queries.push_back(RangeQuery(10, 20));
  auto direct = bare.HandleQueryBatch(batch);
  ASSERT_FALSE(direct.ok());
  EXPECT_TRUE(direct.status().IsNotFound()) << direct.status().ToString();
  auto result = client_->Query(&bare, RangeQuery(10, 20), 10, &net_);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsNotFound()) << result.status().ToString();

  // Once the map is installed the same replica answers, verified under it.
  auto map = central_->TablePartitionMap("items");
  ASSERT_TRUE(map.ok());
  ByteWriter w;
  map->Serialize(&w);
  ASSERT_TRUE(bare.InstallPartitionMap(Slice(w.buffer())).ok());
  auto answered = client_->Query(&bare, RangeQuery(10, 20), 10, &net_);
  ASSERT_TRUE(answered.ok()) << answered.status().ToString();
  EXPECT_TRUE(answered->verification.ok())
      << answered->verification.ToString();
  EXPECT_EQ(answered->rows.size(), 11u);
  EXPECT_EQ(answered->map_epoch, 1u);
}

TEST_F(EdgeComputingTest, SnapshotBytesScaleWithTable) {
  auto snap = central_->ExportTableSnapshot("items");
  ASSERT_TRUE(snap.ok());
  // 1000 tuples * (~200B data + 11 signatures * 16B) plus tree overhead.
  EXPECT_GT(snap->size(), 1000u * 200u);
}

}  // namespace
}  // namespace vbtree
