// The incremental-split pipeline end to end: o(rows) re-signing
// (counter-gated on the trees' own signer-invocation counts), the
// contention-driven auto-split policy converging under a Zipf write
// storm, and the adversarial case the shard binding signature exists
// for — a sibling tree from the same lineage digest domain substituted
// for a shard must fail client verification, not authenticate.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/propagation/distribution_hub.h"
#include "edge/shard_write_domain.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

constexpr size_t kRows = 800;

Tuple KeyedTuple(const Schema& schema, int64_t key) {
  Rng rng(static_cast<uint64_t>(key) * 2654435761u + 7);
  return testutil::MakeTuple(schema, key, &rng);
}

std::unique_ptr<CentralServer> MakeCentral(
    std::function<void(CentralServer::Options*)> tweak = nullptr) {
  CentralServer::Options opts;
  opts.tree_opts.config.max_internal = 16;
  opts.tree_opts.config.max_leaf = 16;
  if (tweak) tweak(&opts);
  auto central = CentralServer::Create(opts);
  return central.ok() ? central.MoveValueUnsafe() : nullptr;
}

// The property the whole refactor exists for, proven without a clock:
// with one write domain per shard, a shard whose signer is wedged cannot
// stall any other shard's pipeline. Under the old global dml_mu_ every
// op below would queue behind the blocked one; here the sibling domain
// applies a full op stream to completion while the first is provably
// still inside its op. Deterministic on any host — including the 1-vCPU
// bench box where wall-clock scaling cannot show the parallelism.
TEST(ShardWriteDomainTest, SiblingDomainProgressesWhileOneIsBlocked) {
  ShardWriteDomain hot("t#1");
  ShardWriteDomain cold("t#2");

  std::promise<void> entered;
  std::promise<void> release;
  auto entered_f = entered.get_future();
  auto blocked = hot.Enqueue([&] {
    entered.set_value();
    release.get_future().wait();
    return Status::OK();
  });
  ASSERT_TRUE(blocked.ok());
  entered_f.wait();  // hot's worker is now mid-op and will not return

  // A second hot-domain op queued behind the blocked one must NOT run —
  // per-domain FIFO order — while the cold domain drains everything.
  std::atomic<bool> second_ran{false};
  auto queued = hot.Enqueue([&] {
    second_ran.store(true);
    return Status::OK();
  });
  ASSERT_TRUE(queued.ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cold.Execute([] { return Status::OK(); }).ok());
  }
  EXPECT_EQ(cold.stats().ops_applied, 100u);
  EXPECT_EQ(hot.ops_applied(), 0u);
  EXPECT_FALSE(second_ran.load());

  release.set_value();
  EXPECT_TRUE(blocked->get().ok());
  EXPECT_TRUE(queued->get().ok());
  EXPECT_TRUE(second_ran.load());
  EXPECT_EQ(hot.ops_applied(), 2u);
}

TEST(SplitPipelineTest, IncrementalSplitSignsSubLinearly) {
  auto central = MakeCentral();
  ASSERT_NE(central, nullptr);
  Schema schema = testutil::MakeWideSchema(5);
  ASSERT_TRUE(central->CreateTable("t", schema, {}).ok());
  Rng rng(4242);
  ASSERT_TRUE(
      central->LoadTable("t", testutil::MakeRows(schema, kRows, &rng)).ok());

  ASSERT_TRUE(central->SplitShard("t", kRows / 2).ok());

  auto stats = central->TableDomainStats("t");
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->size(), 2u);
  // The children are fresh trees whose signer counters start at zero, so
  // their sum is exactly what the split itself signed: the boundary
  // resigns of the two CloneRange trims plus one binding signature each.
  // O(tree height), nowhere near the O(rows) a naive rebuild pays.
  uint64_t split_signs = 0;
  size_t rows_total = 0;
  for (const auto& d : *stats) {
    split_signs += d.sign_calls;
    rows_total += d.rows;
  }
  EXPECT_EQ(rows_total, kRows);
  EXPECT_GT(split_signs, 0u);
  EXPECT_LT(split_signs, kRows / 4)
      << "incremental split re-signed O(rows), not O(boundary)";
}

// Signing work per insert, as an exact count: on a pinned layout one
// seeded single-threaded insert sequence makes the same signer calls on
// every run, so a batching regression or an extra re-sign on any insert
// path moves this number, not just a timing.
TEST(SplitPipelineTest, InsertSignCallsArePinned) {
  constexpr size_t kInserts = 400;
  constexpr int64_t kStride = 4;
  const int64_t span = static_cast<int64_t>(kRows) * kStride;
  struct Layout {
    std::vector<int64_t> splits;
    uint64_t sign_calls;
  };
  for (const Layout& layout :
       {Layout{{}, 5966}, Layout{{span / 4, span / 2, 3 * span / 4}, 5948}}) {
    SCOPED_TRACE(layout.splits.size() + 1);
    auto central = MakeCentral();
    ASSERT_NE(central, nullptr);
    Schema schema = testutil::MakeWideSchema(5);
    ASSERT_TRUE(central->CreateTable("t", schema, layout.splits).ok());
    Rng rng(99);
    ASSERT_TRUE(central
                    ->LoadTable("t", testutil::MakeRows(schema, kRows, &rng,
                                                        kStride))
                    .ok());
    auto sum_signs = [&] {
      uint64_t total = 0;
      auto stats = central->TableDomainStats("t");
      EXPECT_TRUE(stats.ok());
      if (stats.ok()) {
        EXPECT_EQ(stats->size(), layout.splits.size() + 1);
        for (const auto& d : *stats) total += d.sign_calls;
      }
      return total;
    };
    const uint64_t before = sum_signs();
    // Keys off the loaded stride, so no insert collides with a loaded
    // row; a key the sequence repeats is rejected as AlreadyExists.
    for (size_t i = 0; i < kInserts; ++i) {
      const int64_t key =
          static_cast<int64_t>(rng.Uniform(kRows)) * kStride + 1 +
          static_cast<int64_t>(i % (kStride - 1));
      Status st = central->InsertTuple("t", KeyedTuple(schema, key));
      ASSERT_TRUE(st.ok() || st.code() == StatusCode::kAlreadyExists)
          << st.ToString();
    }
    EXPECT_EQ(sum_signs() - before, layout.sign_calls);
  }
}

TEST(SplitPipelineTest, AutoSplitConvergesUnderSkewedWrites) {
  // Long windows + a low absolute floor keep the policy live on
  // sanitizer-slowed hosts where writers manage only tens of inserts
  // per second; the skew bar, not the floor, is what the test exercises.
  auto central = MakeCentral([](CentralServer::Options* opts) {
    opts->auto_split = true;
    opts->auto_split_interval_ms = 250;
    opts->auto_split_min_ops = 8;
    opts->auto_split_skew = 1.5;
    opts->auto_split_min_rows = 32;
    opts->auto_split_max_shards = 8;
    opts->auto_split_cooldown_ms = 50;
  });
  ASSERT_NE(central, nullptr);
  Schema schema = testutil::MakeWideSchema(3);
  // Four uniform shards whose boundaries deliberately mismatch the
  // traffic: the whole hot range lives inside shard 0. A median split
  // equalizes a stationary workload by construction, so iterative
  // convergence (split, re-measure, split again) only shows up when the
  // halves of the hot shard still clear the skew bar against the
  // table mean — which 2x45% does against a 4+-shard layout.
  const int64_t kHot = int64_t{1} << 20;
  ASSERT_TRUE(
      central->CreateTable("t", schema, {kHot, 2 * kHot, 3 * kHot}).ok());
  Rng seed_rng(7);
  ASSERT_TRUE(
      central->LoadTable("t", testutil::MakeRows(schema, 64, &seed_rng)).ok());
  const uint64_t epoch_before = [&] {
    auto map = central->TablePartitionMap("t");
    return map.ok() ? map->epoch : 0;
  }();

  // 90% of inserts land uniformly inside shard 0's range; the rest
  // spread across the three cold shards.
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (size_t t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(1000 + t);
      while (!stop.load(std::memory_order_relaxed)) {
        const bool hot = rng.Uniform(10) < 9;
        const int64_t key =
            hot ? static_cast<int64_t>(rng.Uniform(static_cast<uint64_t>(kHot)))
                : kHot + static_cast<int64_t>(
                             rng.Uniform(static_cast<uint64_t>(3 * kHot)));
        Status s = central->InsertTuple("t", KeyedTuple(schema, key));
        ASSERT_TRUE(s.ok() || s.code() == StatusCode::kAlreadyExists)
            << s.ToString();
      }
    });
  }
  // Two policy windows suffice on a fast host; the generous deadline is
  // for sanitizer builds, where the loop still exits as soon as the
  // second split lands.
  for (int spins = 0; spins < 12000 && central->splits_triggered() < 2;
       ++spins) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  stop.store(true);
  for (auto& th : writers) th.join();

  EXPECT_GE(central->splits_triggered(), 2u);
  auto shards = central->ShardCount("t");
  ASSERT_TRUE(shards.ok());
  EXPECT_GE(*shards, 6u);
  auto map = central->TablePartitionMap("t");
  ASSERT_TRUE(map.ok());
  EXPECT_GT(map->epoch, epoch_before);
  size_t lineage_shards = 0;
  for (const auto& s : map->shards) {
    if (!s.lineage.empty()) lineage_shards++;
  }
  EXPECT_GE(lineage_shards, 2u);

  // The split layout serves verified reads: ship everything to an edge
  // and authenticate ranges crossing the new shard boundaries.
  SimulatedNetwork net;
  EdgeServer edge("edge");
  PropagationOptions popts;
  popts.auto_start = false;
  DistributionHub hub(central.get(), &net, popts);
  ASSERT_TRUE(hub.Subscribe(&edge).ok());
  ASSERT_TRUE(hub.SyncAll().ok());
  Client client(central->db_name(), central->key_directory());
  client.RegisterTable("t", schema);
  for (const auto& s : map->shards) {
    SelectQuery q;
    q.table = "t";
    // Straddle this shard's upper boundary (clamped at the domain edge).
    const int64_t hi = s.hi < (int64_t{1} << 60) ? s.hi : (int64_t{1} << 60);
    q.range = KeyRange{hi - 20, hi + 20};
    auto r = client.Query(&edge, q, 10, &net);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r->verification.ok()) << r->verification.ToString();
  }
}

// The PR 5 residual: a multi-statement read spanning sharded tables must
// observe one partition-map generation per table, not whatever mix of
// pre- and post-split layouts a concurrent SplitShard happens to serve.
// Each answer authenticates individually; only the pin makes the *pair*
// a consistent cut.
TEST(SplitPipelineTest, PinnedReadRejectsEpochMixAcrossTables) {
  auto central = MakeCentral();
  ASSERT_NE(central, nullptr);
  Schema schema = testutil::MakeWideSchema(3);
  Rng rng(99);
  for (const char* table : {"t", "u"}) {
    ASSERT_TRUE(central
                    ->CreateTable(table, schema,
                                  {static_cast<int64_t>(kRows / 2)})
                    .ok());
    ASSERT_TRUE(
        central->LoadTable(table, testutil::MakeRows(schema, kRows, &rng))
            .ok());
  }

  SimulatedNetwork net;
  EdgeServer edge("edge");
  PropagationOptions popts;
  popts.auto_start = false;
  DistributionHub hub(central.get(), &net, popts);
  ASSERT_TRUE(hub.Subscribe(&edge).ok());
  ASSERT_TRUE(hub.SyncAll().ok());
  Client client(central->db_name(), central->key_directory());
  client.RegisterTable("t", schema);
  client.RegisterTable("u", schema);

  SelectQuery qt;
  qt.table = "t";
  qt.range = KeyRange{10, 60};
  SelectQuery qu = qt;
  qu.table = "u";

  client.BeginPinnedRead();
  auto first_t = client.Query(&edge, qt, 10, &net);
  ASSERT_TRUE(first_t.ok());
  ASSERT_TRUE(first_t->verification.ok()) << first_t->verification.ToString();
  auto first_u = client.Query(&edge, qu, 10, &net);
  ASSERT_TRUE(first_u.ok());
  ASSERT_TRUE(first_u->verification.ok()) << first_u->verification.ToString();

  // A split lands on "u" mid-read and the edge converges on the new
  // layout. "u" is now a different generation than this read pinned.
  ASSERT_TRUE(central->SplitShard("u", static_cast<int64_t>(kRows / 4)).ok());
  ASSERT_TRUE(hub.SyncAll().ok());

  auto mixed = client.Query(&edge, qu, 10, &net);
  ASSERT_TRUE(mixed.ok()) << mixed.status().ToString();
  EXPECT_FALSE(mixed->verification.ok())
      << "post-split map accepted inside a pinned read";
  EXPECT_NE(mixed->verification.ToString().find("pinned"), std::string::npos)
      << mixed->verification.ToString();
  // The untouched table still reads fine under its pinned epoch.
  auto still_t = client.Query(&edge, qt, 10, &net);
  ASSERT_TRUE(still_t.ok());
  EXPECT_TRUE(still_t->verification.ok()) << still_t->verification.ToString();
  client.EndPinnedRead();

  // A fresh pinned read adopts the post-split generation.
  client.BeginPinnedRead();
  auto fresh = client.Query(&edge, qu, 10, &net);
  ASSERT_TRUE(fresh.ok());
  EXPECT_TRUE(fresh->verification.ok()) << fresh->verification.ToString();
  client.EndPinnedRead();
}

TEST(SplitPipelineTest, SiblingSubstitutionFailsVerification) {
  auto central = MakeCentral();
  ASSERT_NE(central, nullptr);
  Schema schema = testutil::MakeWideSchema(5);
  ASSERT_TRUE(central->CreateTable("t", schema, {}).ok());
  Rng rng(4242);
  ASSERT_TRUE(
      central->LoadTable("t", testutil::MakeRows(schema, kRows, &rng)).ok());
  ASSERT_TRUE(central->SplitShard("t", kRows / 2).ok());
  auto map = central->TablePartitionMap("t");
  ASSERT_TRUE(map.ok());
  ASSERT_EQ(map->shards.size(), 2u);
  const std::string left_name = map->shard_name(0);
  const std::string right_name = map->shard_name(1);

  SimulatedNetwork net;
  EdgeServer edge("edge");
  PropagationOptions popts;
  popts.auto_start = false;
  DistributionHub hub(central.get(), &net, popts);
  ASSERT_TRUE(hub.Subscribe(&edge).ok());
  ASSERT_TRUE(hub.SyncAll().ok());
  Client client(central->db_name(), central->key_directory());
  client.RegisterTable("t", schema);

  SelectQuery right_q;
  right_q.table = "t";
  right_q.range = KeyRange{static_cast<int64_t>(kRows / 2 + 10),
                           static_cast<int64_t>(kRows / 2 + 60)};
  {
    auto r = client.Query(&edge, right_q, 10, &net);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    ASSERT_TRUE(r->verification.ok()) << r->verification.ToString();
    ASSERT_EQ(r->rows.size(), 51u);
  }

  // Forge: both children live in the ancestor's digest domain ("t"), so
  // every per-row and interior signature of the left tree is *valid* for
  // a verifier running the right shard's digest schema. Splice the left
  // sibling's snapshot body under the right shard's snapshot header and
  // install it — a compromised edge serving the left tree for the right
  // shard's range, silently hiding every row of the right half.
  auto left_snap = central->ExportTableSnapshot(left_name);
  auto right_snap = central->ExportTableSnapshot(right_name);
  ASSERT_TRUE(left_snap.ok());
  ASSERT_TRUE(right_snap.ok());
  auto body_offset = [](const std::vector<uint8_t>& snap) {
    ByteReader r{Slice(snap)};
    EXPECT_TRUE(r.ReadU32().ok());
    EXPECT_TRUE(r.ReadString().ok());
    return r.position();
  };
  const size_t left_body = body_offset(*left_snap);
  const size_t right_body = body_offset(*right_snap);
  std::vector<uint8_t> forged(right_snap->begin(),
                              right_snap->begin() + right_body);
  forged.insert(forged.end(), left_snap->begin() + left_body,
                left_snap->end());
  ASSERT_TRUE(edge.InstallSnapshot(Slice(forged)).ok());

  // The forged answer carries internally consistent signatures from the
  // shared domain; only the binding signature — root digest tied to the
  // shard's own name and signed range — tells the siblings apart. The
  // client must reject.
  auto r = client.Query(&edge, right_q, 10, &net);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r->verification.ok())
      << "sibling-substituted replica authenticated";
}

}  // namespace
}  // namespace vbtree
