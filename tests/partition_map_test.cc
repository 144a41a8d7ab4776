// Adversarial and structural tests for the signed PartitionMap and the
// scatter-gather verification built on it: a malicious edge must not be
// able to hide a shard's answers, serve a pre-split layout, or present a
// map whose signature does not bind the shard ranges it claims.
#include <gtest/gtest.h>

#include <algorithm>

#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/partition_map.h"
#include "edge/propagation/distribution_hub.h"
#include "edge/query_service/query_service.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

constexpr int64_t kMinKey = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxKey = std::numeric_limits<int64_t>::max();
constexpr size_t kRows = 1000;

/// Central with a 4-shard "orders" table (splits at 250/500/750), two
/// subscribed edges, and a manual-flush hub.
class PartitionMapTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CentralServer::Options opts;
    opts.tree_opts.config.max_internal = 16;
    opts.tree_opts.config.max_leaf = 16;
    auto central = CentralServer::Create(opts);
    ASSERT_TRUE(central.ok());
    central_ = central.MoveValueUnsafe();

    schema_ = testutil::MakeWideSchema(6);
    ASSERT_TRUE(
        central_->CreateTable("orders", schema_, {250, 500, 750}).ok());
    Rng rng(42);
    ASSERT_TRUE(
        central_->LoadTable("orders", testutil::MakeRows(schema_, kRows, &rng))
            .ok());

    edge1_ = std::make_unique<EdgeServer>("edge-1");
    edge2_ = std::make_unique<EdgeServer>("edge-2");
    PropagationOptions popts;
    popts.auto_start = false;
    hub_ = std::make_unique<DistributionHub>(central_.get(), &net_, popts);
    ASSERT_TRUE(hub_->Subscribe(edge1_.get()).ok());
    ASSERT_TRUE(hub_->Subscribe(edge2_.get()).ok());
    ASSERT_TRUE(hub_->SyncAll().ok());

    client_ = std::make_unique<Client>(central_->db_name(),
                                       central_->key_directory());
    client_->RegisterTable("orders", schema_);
  }

  void TearDown() override {
    if (hub_ != nullptr) hub_->Stop();
  }

  SelectQuery RangeQuery(int64_t lo, int64_t hi) {
    SelectQuery q;
    q.table = "orders";
    q.range = KeyRange{lo, hi};
    return q;
  }

  Schema schema_;
  SimulatedNetwork net_;
  std::unique_ptr<CentralServer> central_;
  std::unique_ptr<EdgeServer> edge1_, edge2_;
  std::unique_ptr<DistributionHub> hub_;
  std::unique_ptr<Client> client_;
};

PartitionMap FourShardMap() {
  PartitionMap map;
  map.db_name = "edgedb";
  map.table = "orders";
  map.epoch = 1;
  map.key_version = 1;
  map.shards = {ShardEntry{1, kMinKey, 249, ""}, ShardEntry{2, 250, 499, ""},
                ShardEntry{3, 500, 749, ""}, ShardEntry{4, 750, kMaxKey, ""}};
  return map;
}

TEST(PartitionMapUnit, SerdeRoundTrip) {
  PartitionMap map = FourShardMap();
  map.sig = Signature{1, 2, 3, 4};
  ByteWriter w;
  map.Serialize(&w);
  ByteReader r{Slice(w.buffer())};
  auto back = PartitionMap::Deserialize(&r);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->table, "orders");
  EXPECT_EQ(back->epoch, 1u);
  EXPECT_EQ(back->shards.size(), 4u);
  EXPECT_EQ(back->shards[2].lo, 500);
  EXPECT_EQ(back->sig, map.sig);
  EXPECT_EQ(back->ContentDigest(),
            map.ContentDigest());
}

TEST(PartitionMapUnit, WellFormednessRejectsBrokenLayouts) {
  EXPECT_TRUE(FourShardMap().CheckWellFormed().ok());

  PartitionMap gap = FourShardMap();
  gap.shards[1].lo = 251;  // hole at key 250
  EXPECT_FALSE(gap.CheckWellFormed().ok());

  PartitionMap overlap = FourShardMap();
  overlap.shards[1].lo = 249;
  EXPECT_FALSE(overlap.CheckWellFormed().ok());

  PartitionMap uncovered = FourShardMap();
  uncovered.shards[3].hi = 10000;  // domain not covered to INT64_MAX
  EXPECT_FALSE(uncovered.CheckWellFormed().ok());

  PartitionMap dup = FourShardMap();
  dup.shards[3].shard_id = 1;
  EXPECT_FALSE(dup.CheckWellFormed().ok());

  PartitionMap reserved = FourShardMap();
  reserved.shards[0].shard_id = 0;  // id 0 aliases the plain-name schema
  EXPECT_FALSE(reserved.CheckWellFormed().ok());

  PartitionMap empty;
  empty.table = "orders";
  EXPECT_FALSE(empty.CheckWellFormed().ok());
}

TEST(PartitionMapUnit, ShardNamesAndRouting) {
  PartitionMap map = FourShardMap();
  EXPECT_EQ(map.shard_name(0), "orders#1");
  EXPECT_EQ(PartitionMap::ShardName("t", 0), "t");

  std::string base;
  uint32_t id = 0;
  ASSERT_TRUE(PartitionMap::ParseShardName("orders#3", &base, &id));
  EXPECT_EQ(base, "orders");
  EXPECT_EQ(id, 3u);
  EXPECT_FALSE(PartitionMap::ParseShardName("orders", &base, &id));

  EXPECT_EQ(map.ShardForKey(0).shard_id, 1u);
  EXPECT_EQ(map.ShardForKey(250).shard_id, 2u);
  EXPECT_EQ(map.ShardForKey(kMaxKey).shard_id, 4u);
  EXPECT_EQ(map.ShardIndicesForRange(KeyRange{0, 100}).size(), 1u);
  EXPECT_EQ(map.ShardIndicesForRange(KeyRange{249, 250}).size(), 2u);
  EXPECT_EQ(map.ShardIndicesForRange(KeyRange{0, 999}).size(), 4u);
  EXPECT_TRUE(map.ShardIndicesForRange(KeyRange{10, 5}).empty());
}

TEST(PartitionMapUnit, ScatterPlanClampsToSignedBoundaries) {
  PartitionMap map = FourShardMap();
  std::vector<SelectQuery> queries(2);
  queries[0].table = "orders";
  queries[0].range = KeyRange{100, 620};  // spans shards 1..3
  queries[1].table = "orders";
  queries[1].range = KeyRange{300, 310};  // inside shard 2

  std::vector<ShardScatter> plan = BuildScatterPlan(map, queries);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0].shard_id, 1u);
  ASSERT_EQ(plan[0].slices.size(), 1u);
  EXPECT_EQ(plan[0].slices[0].query.range.lo, 100);
  EXPECT_EQ(plan[0].slices[0].query.range.hi, 249);
  EXPECT_EQ(plan[0].slices[0].query.table, "orders#1");

  EXPECT_EQ(plan[1].shard_id, 2u);
  ASSERT_EQ(plan[1].slices.size(), 2u);  // both queries touch shard 2
  EXPECT_EQ(plan[1].slices[0].query.range.lo, 250);
  EXPECT_EQ(plan[1].slices[0].query.range.hi, 499);
  EXPECT_EQ(plan[1].slices[1].query_index, 1u);
  EXPECT_EQ(plan[1].slices[1].query.range.lo, 300);

  EXPECT_EQ(plan[2].shard_id, 3u);
  EXPECT_EQ(plan[2].slices[0].query.range.lo, 500);
  EXPECT_EQ(plan[2].slices[0].query.range.hi, 620);
}

TEST_F(PartitionMapTest, CentralSignsMapAndTamperedCopiesFailVerification) {
  auto map_or = central_->TablePartitionMap("orders");
  ASSERT_TRUE(map_or.ok());
  PartitionMap map = *map_or;
  ASSERT_EQ(map.shards.size(), 4u);

  auto rec = central_->key_directory()->RecovererFor(map.key_version, 10);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(map.Verify(rec->get()).ok());

  // A shifted boundary, a renumbered shard, a different epoch, or a
  // retargeted table must all break the signature binding.
  PartitionMap boundary = map;
  boundary.shards[1].hi -= 10;
  boundary.shards[2].lo -= 10;
  EXPECT_FALSE(boundary.Verify(rec->get()).ok());

  PartitionMap renumbered = map;
  std::swap(renumbered.shards[0].shard_id, renumbered.shards[1].shard_id);
  EXPECT_FALSE(renumbered.Verify(rec->get()).ok());

  PartitionMap epoch = map;
  epoch.epoch += 1;
  EXPECT_FALSE(epoch.Verify(rec->get()).ok());

  PartitionMap retable = map;
  retable.table = "payments";
  EXPECT_FALSE(retable.Verify(rec->get()).ok());
}

TEST_F(PartitionMapTest, SpanningRangeVerifiesEndToEnd) {
  // Touches all 4 shards: per-shard VOs meet at the signed boundaries.
  auto result = client_->Query(edge1_.get(), RangeQuery(100, 900), 10, &net_);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->verification.ok()) << result->verification.ToString();
  EXPECT_EQ(result->rows.size(), 801u);
  EXPECT_EQ(result->shards_touched, 4u);
  EXPECT_EQ(result->map_epoch, 1u);
  for (size_t i = 0; i < result->rows.size(); ++i) {
    EXPECT_EQ(result->rows[i].key, static_cast<int64_t>(100 + i));
  }
}

TEST_F(PartitionMapTest, EdgeRoutesSingleShardQueries) {
  // A base-table query inside one shard is routed by the edge itself.
  auto result = client_->Query(edge1_.get(), RangeQuery(300, 340), 10, &net_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->verification.ok()) << result->verification.ToString();
  EXPECT_EQ(result->rows.size(), 41u);
  EXPECT_EQ(result->shards_touched, 1u);
}

TEST_F(PartitionMapTest, BatchScatterGatherVerifies) {
  QueryService service(edge1_.get(), QueryServiceOptions{2, 64});
  QueryBatch batch;
  batch.table = "orders";
  for (int i = 0; i < 6; ++i) {
    SelectQuery q;
    q.range = KeyRange{i * 150, i * 150 + 220};
    if (i % 2 == 1) q.projection = {0, 2};
    batch.queries.push_back(std::move(q));
  }
  auto out = client_->QueryBatched(&service, batch, 10, nullptr, &net_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->results.size(), batch.queries.size());
  EXPECT_EQ(out->map_epoch, 1u);
  EXPECT_FALSE(out->shard_query_counts.empty());
  for (size_t i = 0; i < out->results.size(); ++i) {
    const auto& v = out->results[i];
    EXPECT_TRUE(v.verification.ok()) << i << ": " << v.verification.ToString();
    const int64_t lo = static_cast<int64_t>(i) * 150;
    const int64_t hi = std::min<int64_t>(lo + 220, kRows - 1);
    ASSERT_EQ(v.rows.size(), static_cast<size_t>(hi - lo + 1));
    for (size_t r = 0; r < v.rows.size(); ++r) {
      EXPECT_EQ(v.rows[r].key, lo + static_cast<int64_t>(r));
    }
  }
}

TEST_F(PartitionMapTest, EmptyRangeSlotInShardedBatchIsNotVerified) {
  QueryService service(edge1_.get(), QueryServiceOptions{2, 64});
  QueryBatch batch;
  batch.table = "orders";
  SelectQuery good;
  good.range = KeyRange{10, 20};
  SelectQuery empty;
  empty.range = KeyRange{30, 20};  // lo > hi: no shard executes it
  batch.queries = {good, empty};
  auto out = client_->QueryBatched(&service, batch, 10, nullptr, &net_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->results.size(), 2u);
  EXPECT_TRUE(out->results[0].verification.ok())
      << out->results[0].verification.ToString();
  // Nothing ran for the empty slot — it must not claim authentication.
  EXPECT_FALSE(out->results[1].verification.ok());
  EXPECT_TRUE(out->results[1].verification.IsInvalidArgument())
      << out->results[1].verification.ToString();
  EXPECT_TRUE(out->results[1].rows.empty());
}

TEST_F(PartitionMapTest, OmittedShardGroupIsDetected) {
  QueryService service(edge1_.get(), QueryServiceOptions{2, 64});
  edge1_->set_response_tamper(ResponseTamper::kDropShardGroup);
  QueryBatch batch;
  batch.table = "orders";
  SelectQuery q;
  q.range = KeyRange{100, 900};  // spans all 4 shards
  batch.queries.push_back(std::move(q));

  // The scatter plan (derived from the signed map) dictates 4 shard
  // groups; a response with 3 is rejected before verification starts.
  auto out = client_->QueryBatched(&service, batch, 10, nullptr, &net_);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsCorruption()) << out.status().ToString();
}

TEST_F(PartitionMapTest, ForgedMapDoesNotBindShardRoots) {
  // A hacked edge re-draws the shard boundaries (hiding keys 400..499
  // from shard 2's range) but cannot re-sign the map. Same epoch, so the
  // edge accepts the reinstall; the client must not.
  auto map_or = central_->TablePartitionMap("orders");
  ASSERT_TRUE(map_or.ok());
  PartitionMap forged = *map_or;
  forged.shards[1].hi = 399;
  forged.shards[2].lo = 400;
  ByteWriter w;
  forged.Serialize(&w);
  ASSERT_TRUE(edge1_->InstallPartitionMap(Slice(w.buffer())).ok());

  auto result = client_->Query(edge1_.get(), RangeQuery(100, 900), 10, &net_);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->verification.ok());
  EXPECT_TRUE(result->verification.IsVerificationFailure())
      << result->verification.ToString();

  // The honest edge still verifies — the client state is not poisoned.
  auto honest = client_->Query(edge2_.get(), RangeQuery(100, 900), 10, &net_);
  ASSERT_TRUE(honest.ok());
  EXPECT_TRUE(honest->verification.ok()) << honest->verification.ToString();
}

TEST_F(PartitionMapTest, StaleMapEpochAfterSplitIsRejected) {
  // Baseline: both edges verify at epoch 1.
  auto before = client_->Query(edge2_.get(), RangeQuery(100, 900), 10, &net_);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(before->verification.ok());
  EXPECT_EQ(before->map_epoch, 1u);

  // Split while edge-2 is partitioned away: it keeps serving the
  // pre-split layout.
  ASSERT_TRUE(hub_->Unsubscribe("edge-2").ok());
  ASSERT_TRUE(central_->SplitShard("orders", 600).ok());
  ASSERT_TRUE(hub_->SyncAll().ok());
  ASSERT_EQ(central_->ShardCount("orders").ValueOrDie(), 5u);

  // The synced edge answers under the new epoch and advances the
  // client's floor.
  auto fresh = client_->Query(edge1_.get(), RangeQuery(100, 900), 10, &net_);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->verification.ok()) << fresh->verification.ToString();
  EXPECT_EQ(fresh->map_epoch, 2u);
  EXPECT_EQ(fresh->rows.size(), 801u);
  EXPECT_EQ(fresh->shards_touched, 5u);

  // The lagging edge presents the (authentically signed!) pre-split map:
  // the epoch floor rejects the replay.
  auto stale = client_->Query(edge2_.get(), RangeQuery(100, 900), 10, &net_);
  ASSERT_TRUE(stale.ok());
  EXPECT_FALSE(stale->verification.ok());
  EXPECT_TRUE(stale->verification.IsVerificationFailure())
      << stale->verification.ToString();
  EXPECT_NE(stale->verification.ToString().find("stale partition map"),
            std::string::npos)
      << stale->verification.ToString();
}

TEST_F(PartitionMapTest, MapEpochGatesShardInstalls) {
  // Capture a pre-split shard snapshot, then split: the retired shard is
  // no longer in the layout, so its snapshot must not install.
  auto old_snap = central_->ExportTableSnapshot("orders#3");
  ASSERT_TRUE(old_snap.ok());
  ASSERT_TRUE(central_->SplitShard("orders", 600).ok());
  ASSERT_TRUE(hub_->SyncAll().ok());

  Status s = edge1_->InstallSnapshot(Slice(*old_snap));
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInvalidArgument()) << s.ToString();

  // And the pre-split map itself cannot be re-installed over the new one.
  PartitionMap old_map = FourShardMap();
  ByteWriter w;
  old_map.Serialize(&w);
  Status m = edge1_->InstallPartitionMap(Slice(w.buffer()));
  EXPECT_FALSE(m.ok());
  EXPECT_TRUE(m.IsInvalidArgument()) << m.ToString();
}

TEST_F(PartitionMapTest, PerShardDeltasShipIndependently) {
  auto before = hub_->stats();
  // One insert lands in exactly one shard: the next flush ships ONE
  // delta per subscriber, not one per shard.
  Rng rng(7);
  ASSERT_TRUE(
      central_->InsertTuple("orders", testutil::MakeTuple(schema_, 1500, &rng))
          .ok());
  ASSERT_TRUE(hub_->SyncAll().ok());
  auto after = hub_->stats();
  EXPECT_EQ(after.deltas_shipped - before.deltas_shipped, 2u);  // 2 edges
  EXPECT_EQ(after.snapshots_shipped, before.snapshots_shipped);

  // The refreshed shard verifies; the untouched shards kept their trees.
  auto result = client_->Query(edge1_.get(), RangeQuery(995, 1505), 10, &net_);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->verification.ok()) << result->verification.ToString();
  EXPECT_EQ(result->rows.size(), 6u);  // 995..999 plus 1500
  EXPECT_EQ(edge1_->TableVersion("orders#4"), 1u);
  EXPECT_EQ(edge1_->TableVersion("orders#1"), 0u);
}

TEST_F(PartitionMapTest, TamperedShardValueDetectedThroughScatter) {
  // Store-level tampering in one shard of a spanning range: only that
  // shard's VO breaks, and the failure surfaces on the merged result.
  ASSERT_TRUE(
      edge1_->TamperValueByKey("orders", 620, 2, Value::Str("evil")).ok());
  auto result = client_->Query(edge1_.get(), RangeQuery(100, 900), 10, &net_);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->verification.ok());
  EXPECT_TRUE(result->verification.IsVerificationFailure())
      << result->verification.ToString();

  // A range avoiding the tampered shard still verifies.
  auto clean = client_->Query(edge1_.get(), RangeQuery(100, 240), 10, &net_);
  ASSERT_TRUE(clean.ok());
  EXPECT_TRUE(clean->verification.ok()) << clean->verification.ToString();
}

}  // namespace
}  // namespace vbtree
