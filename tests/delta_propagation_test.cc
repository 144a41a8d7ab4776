#include <gtest/gtest.h>

#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/propagation/update_log.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

/// Central server + one delta-synced edge + one snapshot-synced edge.
class DeltaTest : public ::testing::Test {
 protected:
  void SetUp() override { SetUpWith({}); }

  void SetUpWith(CentralServer::Options options) {
    options.tree_opts.config.max_internal =
        options.tree_opts.config.max_internal == 128
            ? 8
            : options.tree_opts.config.max_internal;
    options.tree_opts.config.max_leaf = options.tree_opts.config.max_internal;
    auto central = CentralServer::Create(options);
    ASSERT_TRUE(central.ok());
    central_ = central.MoveValueUnsafe();
    schema_ = testutil::MakeWideSchema(6);
    ASSERT_TRUE(central_->CreateTable("t", schema_).ok());
    Rng rng(42);
    ASSERT_TRUE(
        central_->LoadTable("t", testutil::MakeRows(schema_, 1000, &rng)).ok());
    edge_ = std::make_unique<EdgeServer>("edge-delta");
    ASSERT_TRUE(testutil::Publish(central_.get(), "t", edge_.get(), &net_).ok());
  }

  void ApplyUpdates(int inserts, bool with_deletes) {
    Rng rng(7);
    for (int i = 0; i < inserts; ++i) {
      ASSERT_TRUE(central_
                      ->InsertTuple(
                          "t", testutil::MakeTuple(schema_, next_key_++, &rng))
                      .ok());
    }
    if (with_deletes) {
      ASSERT_TRUE(central_->DeleteRange("t", next_del_, next_del_ + 49).ok());
      ASSERT_TRUE(
          central_->DeleteRange("t", next_del_ + 400, next_del_ + 419).ok());
      next_del_ += 100;
    }
  }

  void ExpectEdgeMatchesCentral() {
    const VBTree* edge_tree = edge_->tree("t");
    ASSERT_NE(edge_tree, nullptr);
    EXPECT_EQ(edge_tree->root_digest(), central_->tree("t")->root_digest());
    EXPECT_EQ(edge_tree->root_signature(),
              central_->tree("t")->root_signature());
    EXPECT_EQ(edge_tree->size(), central_->tree("t")->size());
    EXPECT_TRUE(edge_tree->CheckDigestConsistency().ok());
    EXPECT_TRUE(edge_tree->CheckStructure().ok());
  }

  Client::Verified Query(int64_t lo, int64_t hi) {
    Client client(central_->db_name(), central_->key_directory());
    client.RegisterTable("t", schema_);
    SelectQuery q;
    q.table = "t";
    q.range = KeyRange{lo, hi};
    auto r = client.Query(edge_.get(), q, 1, &net_);
    EXPECT_TRUE(r.ok());
    return r.ok() ? std::move(*r) : Client::Verified{};
  }

  Schema schema_;
  SimulatedNetwork net_;
  std::unique_ptr<CentralServer> central_;
  std::unique_ptr<EdgeServer> edge_;
  int64_t next_key_ = 10000;
  int64_t next_del_ = 100;
};

TEST_F(DeltaTest, InsertDeltaReplaysExactly) {
  ApplyUpdates(50, /*with_deletes=*/false);
  ASSERT_TRUE(testutil::PublishDelta(central_.get(), "t", edge_.get(), &net_).ok());
  ExpectEdgeMatchesCentral();
  EXPECT_EQ(edge_->TableVersion("t"), 50u);
  auto r = Query(9990, 10049);
  EXPECT_TRUE(r.verification.ok()) << r.verification.ToString();
  EXPECT_EQ(r.rows.size(), 50u);
}

TEST_F(DeltaTest, MixedDeltaWithDeletesReplaysExactly) {
  ApplyUpdates(30, /*with_deletes=*/true);
  ASSERT_TRUE(testutil::PublishDelta(central_.get(), "t", edge_.get(), &net_).ok());
  ExpectEdgeMatchesCentral();
  auto r = Query(80, 600);
  EXPECT_TRUE(r.verification.ok()) << r.verification.ToString();
  // 100..149 and 500..519 deleted from [80, 600].
  EXPECT_EQ(r.rows.size(), 521u - 50u - 20u);
}

TEST_F(DeltaTest, SplitsReplayDeterministically) {
  // Enough inserts to force leaf and internal splits (fan-out 8).
  ApplyUpdates(400, /*with_deletes=*/true);
  ASSERT_TRUE(testutil::PublishDelta(central_.get(), "t", edge_.get(), &net_).ok());
  ExpectEdgeMatchesCentral();
}

TEST_F(DeltaTest, SequentialDeltasAccumulate) {
  for (int round = 0; round < 4; ++round) {
    Rng rng(100 + round);
    for (int i = 0; i < 20; ++i) {
      int64_t k = 20000 + round * 100 + i;
      ASSERT_TRUE(
          central_->InsertTuple("t", testutil::MakeTuple(schema_, k, &rng))
              .ok());
    }
    ASSERT_TRUE(central_->DeleteRange("t", round * 30, round * 30 + 9).ok());
    ASSERT_TRUE(testutil::PublishDelta(central_.get(), "t", edge_.get(), &net_).ok());
    ExpectEdgeMatchesCentral();
  }
  EXPECT_EQ(edge_->TableVersion("t"), 4u * 21u);
}

TEST_F(DeltaTest, VersionGapRejected) {
  ApplyUpdates(5, false);
  ApplyUpdates(3, false);
  // A batch starting past the replica's version (skipping the first 5
  // ops) must be rejected: replay is version-gated.
  auto batch = central_->DeltaSince("t", 5);
  ASSERT_TRUE(batch.ok());
  ByteWriter w;
  batch->Serialize(&w);
  Status s = edge_->ApplyUpdateBatch(Slice(w.buffer()));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // Recovery: a fresh snapshot resets the lineage.
  ASSERT_TRUE(testutil::Publish(central_.get(), "t", edge_.get(), &net_).ok());
  ExpectEdgeMatchesCentral();
}

TEST_F(DeltaTest, LogWindowEvictionForcesSnapshot) {
  // With a tiny retained window the oldest ops are evicted, and a
  // subscriber that far behind can no longer be served a delta.
  CentralServer::Options options;
  options.tree_opts.config.max_internal = 8;
  options.update_log_window = 4;
  SetUpWith(options);
  ApplyUpdates(10, false);
  auto covers = central_->DeltaCovers("t", 0);
  ASSERT_TRUE(covers.ok());
  EXPECT_FALSE(*covers);
  EXPECT_EQ(central_->DeltaSince("t", 0).status().code(),
            StatusCode::kInvalidArgument);
  // The most recent window is still serveable.
  ASSERT_TRUE(central_->DeltaSince("t", 6).ok());
}

TEST_F(DeltaTest, DeltaMuchSmallerThanSnapshot) {
  ApplyUpdates(20, false);
  auto snapshot = central_->ExportTableSnapshot("t");
  auto delta = central_->DeltaSince("t", 0);
  ASSERT_TRUE(snapshot.ok() && delta.ok());
  size_t delta_size = delta->SerializedSize();
  EXPECT_LT(delta_size * 10, snapshot->size())
      << "delta " << delta_size << " vs snapshot " << snapshot->size();
}

TEST_F(DeltaTest, SameDeltaFansOutToManyEdges) {
  EdgeServer edge2("edge-2");
  ASSERT_TRUE(testutil::Publish(central_.get(), "t", &edge2, &net_).ok());
  ApplyUpdates(25, true);
  // One serialization serves every subscriber at the same version.
  auto batch = central_->DeltaSince("t", 0);
  ASSERT_TRUE(batch.ok());
  ByteWriter w;
  batch->Serialize(&w);
  ASSERT_TRUE(edge_->ApplyUpdateBatch(Slice(w.buffer())).ok());
  ASSERT_TRUE(edge2.ApplyUpdateBatch(Slice(w.buffer())).ok());
  EXPECT_EQ(edge_->tree("t")->root_digest(), edge2.tree("t")->root_digest());
  ExpectEdgeMatchesCentral();
}

TEST_F(DeltaTest, TamperedDeltaSignatureCaughtByClients) {
  // An attacker (or fault) corrupts one node signature inside the delta.
  // The edge applies it blindly — it cannot sign, and does not verify —
  // but every client query whose VO touches that node now fails.
  ApplyUpdates(10, false);
  auto batch = central_->DeltaSince("t", 0);
  ASSERT_TRUE(batch.ok());
  ByteWriter w;
  batch->Serialize(&w);
  // Flip a byte near the end (inside the last op's resigned signatures).
  std::vector<uint8_t> bad = w.TakeBuffer();
  bad[bad.size() - 3] ^= 0x40;
  Status applied = edge_->ApplyUpdateBatch(Slice(bad));
  if (applied.ok()) {
    // The corrupted signature is the last one resigned — the root. A
    // query whose enveloping subtree is the whole tree checks it.
    auto r = Query(0, 30000);
    EXPECT_TRUE(r.verification.IsVerificationFailure());
  }
  // Either rejected at parse/replay time or caught by verification —
  // never silently accepted as authentic.
}

TEST_F(DeltaTest, RsaDeltasReplay) {
  // PKCS#1 v1.5 signing is deterministic, so MakeEntryMaterial equals the
  // signatures the tree stores — required for delta correctness.
  CentralServer::Options options;
  options.use_rsa = true;
  options.tree_opts.config.max_internal = 8;
  SetUpWith(options);
  ApplyUpdates(5, false);
  ASSERT_TRUE(testutil::PublishDelta(central_.get(), "t", edge_.get(), &net_).ok());
  ExpectEdgeMatchesCentral();
  auto r = Query(9995, 10005);
  EXPECT_TRUE(r.verification.ok()) << r.verification.ToString();
}

}  // namespace
}  // namespace vbtree
