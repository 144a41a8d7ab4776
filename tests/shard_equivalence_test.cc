// Shard-vs-monolith equivalence: the same rows served at 1, 4 and 16
// shards must produce row-for-row identical *verified* results for the
// same queries — including ranges inside one shard, ranges landing
// exactly on shard boundaries, and ranges spanning every shard — through
// both Client::Query and the batched scatter-gather path, which must also
// agree with each other (a query is a batch of one).
//
// The DML-heavy suite extends the same equivalence bar to the per-shard
// write pipeline: concurrent pipelined DML must land row-for-row
// identical (verified) with the same ops applied serially, cross-shard
// DeleteRanges fencing through several domains must stay sound while
// racing inserts, and a SplitShard mid-write-storm must be invisible to
// writers beyond the seal-retry.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/propagation/distribution_hub.h"
#include "edge/query_service/query_service.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

constexpr size_t kRows = 800;

/// One complete stack (central + hub + edge + client) over the same rows
/// at a given shard count.
struct Stack {
  std::unique_ptr<CentralServer> central;
  std::unique_ptr<EdgeServer> edge;
  std::unique_ptr<DistributionHub> hub;
  std::unique_ptr<Client> client;
  SimulatedNetwork net;
  Schema schema;

  ~Stack() {
    if (hub != nullptr) hub->Stop();
  }
};

std::unique_ptr<Stack> MakeStack(size_t shards) {
  auto stack = std::make_unique<Stack>();
  CentralServer::Options opts;
  opts.tree_opts.config.max_internal = 16;
  opts.tree_opts.config.max_leaf = 16;
  auto central = CentralServer::Create(opts);
  if (!central.ok()) return nullptr;
  stack->central = central.MoveValueUnsafe();
  stack->schema = testutil::MakeWideSchema(5);

  if (!stack->central
           ->CreateTable("t", stack->schema, EvenSplitPoints(kRows, shards))
           .ok()) {
    return nullptr;
  }
  // Identical seed across stacks → identical rows.
  Rng rng(4242);
  if (!stack->central
           ->LoadTable("t", testutil::MakeRows(stack->schema, kRows, &rng))
           .ok()) {
    return nullptr;
  }

  stack->edge = std::make_unique<EdgeServer>("edge");
  PropagationOptions popts;
  popts.auto_start = false;
  stack->hub = std::make_unique<DistributionHub>(stack->central.get(),
                                                 &stack->net, popts);
  if (!stack->hub->Subscribe(stack->edge.get()).ok()) return nullptr;
  if (!stack->hub->SyncAll().ok()) return nullptr;

  stack->client = std::make_unique<Client>(stack->central->db_name(),
                                           stack->central->key_directory());
  stack->client->RegisterTable("t", stack->schema);
  return stack;
}

/// Queries covering the boundary taxonomy for the 4-shard layout
/// (boundaries at 200/400/600) and the 16-shard layout (every 50).
std::vector<SelectQuery> EquivalenceQueries() {
  std::vector<SelectQuery> queries;
  auto add = [&](int64_t lo, int64_t hi) {
    SelectQuery q;
    q.table = "t";
    q.range = KeyRange{lo, hi};
    queries.push_back(std::move(q));
  };
  add(120, 180);    // strictly inside one shard (all layouts)
  add(200, 399);    // exactly one 4-shard shard, 4 of the 16-shard ones
  add(199, 200);    // straddles a boundary by one key on each side
  add(400, 400);    // single key exactly on a boundary
  add(399, 399);    // single key just left of a boundary
  add(150, 650);    // spans 3+ shards
  add(0, kRows - 1);        // full table
  add(-100, 2 * kRows);     // beyond both ends of the data
  // Conditions + projection interact with per-shard VOs the same way
  // they do with the monolith's.
  {
    SelectQuery q;
    q.table = "t";
    q.range = KeyRange{100, 700};
    q.projection = {0, 2};
    queries.push_back(std::move(q));
  }
  {
    SelectQuery q;
    q.table = "t";
    q.range = KeyRange{0, kRows - 1};
    q.conditions.push_back(
        ColumnCondition{1, CompareOp::kGt, Value::Str("m")});
    queries.push_back(std::move(q));
  }
  return queries;
}

void ExpectSameRows(const std::vector<ResultRow>& a,
                    const std::vector<ResultRow>& b, const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << what << " row " << i;
    ASSERT_EQ(a[i].values.size(), b[i].values.size()) << what << " row " << i;
    for (size_t v = 0; v < a[i].values.size(); ++v) {
      EXPECT_EQ(a[i].values[v].Compare(b[i].values[v]), 0)
          << what << " row " << i << " col " << v;
    }
  }
}

TEST(ShardEquivalenceTest, SingleQueriesMatchRowForRow) {
  auto mono = MakeStack(1);
  auto four = MakeStack(4);
  auto sixteen = MakeStack(16);
  ASSERT_NE(mono, nullptr);
  ASSERT_NE(four, nullptr);
  ASSERT_NE(sixteen, nullptr);

  size_t qi = 0;
  for (const SelectQuery& q : EquivalenceQueries()) {
    const std::string what = "query " + std::to_string(qi++);
    auto r1 = mono->client->Query(mono->edge.get(), q, 10, &mono->net);
    auto r4 = four->client->Query(four->edge.get(), q, 10, &four->net);
    auto r16 =
        sixteen->client->Query(sixteen->edge.get(), q, 10, &sixteen->net);
    ASSERT_TRUE(r1.ok()) << what << ": " << r1.status().ToString();
    ASSERT_TRUE(r4.ok()) << what << ": " << r4.status().ToString();
    ASSERT_TRUE(r16.ok()) << what << ": " << r16.status().ToString();
    EXPECT_TRUE(r1->verification.ok())
        << what << ": " << r1->verification.ToString();
    EXPECT_TRUE(r4->verification.ok())
        << what << ": " << r4->verification.ToString();
    EXPECT_TRUE(r16->verification.ok())
        << what << ": " << r16->verification.ToString();
    ExpectSameRows(r1->rows, r4->rows, what + " (1 vs 4)");
    ExpectSameRows(r1->rows, r16->rows, what + " (1 vs 16)");
  }
}

TEST(ShardEquivalenceTest, BatchedQueriesMatchRowForRow) {
  auto mono = MakeStack(1);
  auto four = MakeStack(4);
  auto sixteen = MakeStack(16);
  ASSERT_NE(mono, nullptr);
  ASSERT_NE(four, nullptr);
  ASSERT_NE(sixteen, nullptr);

  QueryBatch batch;
  batch.table = "t";
  batch.queries = EquivalenceQueries();

  auto run = [&](Stack* stack) {
    QueryService service(stack->edge.get(), QueryServiceOptions{2, 64});
    return stack->client->QueryBatched(&service, batch, 10, nullptr,
                                       &stack->net);
  };
  auto b1 = run(mono.get());
  auto b4 = run(four.get());
  auto b16 = run(sixteen.get());
  ASSERT_TRUE(b1.ok()) << b1.status().ToString();
  ASSERT_TRUE(b4.ok()) << b4.status().ToString();
  ASSERT_TRUE(b16.ok()) << b16.status().ToString();
  ASSERT_EQ(b1->results.size(), batch.queries.size());
  ASSERT_EQ(b4->results.size(), batch.queries.size());
  ASSERT_EQ(b16->results.size(), batch.queries.size());
  for (size_t i = 0; i < batch.queries.size(); ++i) {
    const std::string what = "batched query " + std::to_string(i);
    EXPECT_TRUE(b1->results[i].verification.ok())
        << what << ": " << b1->results[i].verification.ToString();
    EXPECT_TRUE(b4->results[i].verification.ok())
        << what << ": " << b4->results[i].verification.ToString();
    EXPECT_TRUE(b16->results[i].verification.ok())
        << what << ": " << b16->results[i].verification.ToString();
    ExpectSameRows(b1->results[i].rows, b4->results[i].rows,
                   what + " (1 vs 4)");
    ExpectSameRows(b1->results[i].rows, b16->results[i].rows,
                   what + " (1 vs 16)");
  }
}

TEST(ShardEquivalenceTest, QueryEqualsOneQueryBatch) {
  for (size_t shards : {1, 4, 16}) {
    auto stack = MakeStack(shards);
    ASSERT_NE(stack, nullptr);
    QueryService service(stack->edge.get(), QueryServiceOptions{2, 64});
    size_t qi = 0;
    for (const SelectQuery& q : EquivalenceQueries()) {
      const std::string what = std::to_string(shards) + " shards, query " +
                               std::to_string(qi++);
      auto single = stack->client->Query(stack->edge.get(), q, 10, &stack->net);
      QueryBatch batch;
      batch.table = "t";
      batch.queries.push_back(q);
      auto batched = stack->client->QueryBatched(&service, batch, 10, nullptr,
                                                 &stack->net);
      ASSERT_TRUE(single.ok()) << what << ": " << single.status().ToString();
      ASSERT_TRUE(batched.ok()) << what << ": " << batched.status().ToString();
      ASSERT_EQ(batched->results.size(), 1u) << what;
      const Client::Verified& b = batched->results[0];
      EXPECT_TRUE(single->verification.ok())
          << what << ": " << single->verification.ToString();
      EXPECT_EQ(single->verification.code(), b.verification.code()) << what;
      ExpectSameRows(single->rows, b.rows, what);
      // Every table answers under its signed map, one shard or sixteen.
      EXPECT_GE(single->map_epoch, 1u) << what;
      EXPECT_EQ(single->map_epoch, b.map_epoch) << what;
      EXPECT_EQ(single->map_epoch, batched->map_epoch) << what;
      EXPECT_EQ(single->shards_touched, b.shards_touched) << what;
    }
  }
}

TEST(ShardEquivalenceTest, UpdatesKeepShardedStacksEquivalent) {
  auto mono = MakeStack(1);
  auto four = MakeStack(4);
  ASSERT_NE(mono, nullptr);
  ASSERT_NE(four, nullptr);

  // Same DML against both stacks: a boundary-crossing range delete, then
  // inserts into several shards (one exactly on the 4-shard boundary key
  // 400, re-filling a hole the delete left).
  for (Stack* stack : {mono.get(), four.get()}) {
    Rng rng(99);
    auto removed = stack->central->DeleteRange("t", 390, 410);
    ASSERT_TRUE(removed.ok());
    EXPECT_EQ(*removed, 21u);
    ASSERT_TRUE(stack->central
                    ->InsertTuple("t", testutil::MakeTuple(stack->schema,
                                                           kRows + 5, &rng))
                    .ok());
    ASSERT_TRUE(stack->central
                    ->InsertTuple("t", testutil::MakeTuple(stack->schema,
                                                           400, &rng))
                    .ok());
    ASSERT_TRUE(stack->hub->SyncAll().ok());
  }

  for (auto [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {380, 420}, {0, kRows + 10}, {395, 405}}) {
    SelectQuery q;
    q.table = "t";
    q.range = KeyRange{lo, hi};
    auto r1 = mono->client->Query(mono->edge.get(), q, 10, &mono->net);
    auto r4 = four->client->Query(four->edge.get(), q, 10, &four->net);
    ASSERT_TRUE(r1.ok());
    ASSERT_TRUE(r4.ok());
    EXPECT_TRUE(r1->verification.ok()) << r1->verification.ToString();
    EXPECT_TRUE(r4->verification.ok()) << r4->verification.ToString();
    ExpectSameRows(r1->rows, r4->rows,
                   "post-update [" + std::to_string(lo) + "," +
                       std::to_string(hi) + "]");
  }
}

/// Key-seeded tuple values: any stack inserting `key` produces the
/// identical tuple, regardless of which thread (or stack) does it — the
/// determinism the pipelined-vs-serial comparisons rest on.
Tuple KeyedTuple(const Schema& schema, int64_t key) {
  Rng rng(static_cast<uint64_t>(key) * 2654435761u + 7);
  return testutil::MakeTuple(schema, key, &rng);
}

void ExpectVerifiedKeys(Stack* stack, const std::set<int64_t>& expected,
                        const std::string& what) {
  SelectQuery q;
  q.table = "t";
  q.range = KeyRange{-1, int64_t{1} << 60};
  auto r = stack->client->Query(stack->edge.get(), q, 10, &stack->net);
  ASSERT_TRUE(r.ok()) << what << ": " << r.status().ToString();
  EXPECT_TRUE(r->verification.ok())
      << what << ": " << r->verification.ToString();
  ASSERT_EQ(r->rows.size(), expected.size()) << what;
  auto it = expected.begin();
  for (size_t i = 0; i < r->rows.size(); ++i, ++it) {
    ASSERT_EQ(r->rows[i].key, *it) << what << " row " << i;
  }
}

TEST(ShardDmlPipelineTest, PipelinedDmlMatchesSerialRowForRow) {
  auto pipelined = MakeStack(4);
  auto serial = MakeStack(4);
  ASSERT_NE(pipelined, nullptr);
  ASSERT_NE(serial, nullptr);

  // Op set: per-thread disjoint insert keyspaces plus delete ranges that
  // never overlap an insert — the final state is order-independent, so
  // the concurrent pipelined application and the serial one must agree
  // row for row even though their per-shard interleavings differ.
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 120;
  auto insert_key = [](size_t t, size_t j) {
    return static_cast<int64_t>(kRows + 100 + t * 10000 + j);
  };
  const std::vector<std::pair<int64_t, int64_t>> deletes = {
      {10, 40}, {190, 210}, {395, 405}, {600, 780}};

  {
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (size_t j = 0; j < kPerThread; ++j) {
          Tuple tuple = KeyedTuple(pipelined->schema, insert_key(t, j));
          if (!pipelined->central->InsertTuple("t", tuple).ok()) failures++;
        }
        // Each thread also runs one of the (idempotent, disjoint) range
        // deletes mid-stream, crossing shard boundaries concurrently
        // with every other thread's inserts.
        if (t < deletes.size()) {
          auto removed = pipelined->central->DeleteRange(
              "t", deletes[t].first, deletes[t].second);
          if (!removed.ok()) failures++;
        }
      });
    }
    for (auto& th : threads) th.join();
    ASSERT_EQ(failures.load(), 0);
  }
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t j = 0; j < kPerThread; ++j) {
      ASSERT_TRUE(
          serial->central
              ->InsertTuple("t", KeyedTuple(serial->schema, insert_key(t, j)))
              .ok());
    }
  }
  for (const auto& [lo, hi] : deletes) {
    ASSERT_TRUE(serial->central->DeleteRange("t", lo, hi).ok());
  }

  ASSERT_TRUE(pipelined->hub->SyncAll().ok());
  ASSERT_TRUE(serial->hub->SyncAll().ok());

  for (auto [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {0, kRows - 1},
           {0, kRows + 100000},
           {395, 405},
           {kRows + 100, kRows + 100 + 50}}) {
    SelectQuery q;
    q.table = "t";
    q.range = KeyRange{lo, hi};
    auto rp =
        pipelined->client->Query(pipelined->edge.get(), q, 10, &pipelined->net);
    auto rs = serial->client->Query(serial->edge.get(), q, 10, &serial->net);
    ASSERT_TRUE(rp.ok()) << rp.status().ToString();
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_TRUE(rp->verification.ok()) << rp->verification.ToString();
    EXPECT_TRUE(rs->verification.ok()) << rs->verification.ToString();
    ExpectSameRows(rp->rows, rs->rows,
                   "pipelined vs serial [" + std::to_string(lo) + "," +
                       std::to_string(hi) + "]");
  }
}

TEST(ShardDmlPipelineTest, CrossShardDeleteRangeRacesInserts) {
  auto stack = MakeStack(4);
  ASSERT_NE(stack, nullptr);

  // One thread repeatedly deletes a range spanning three shard
  // boundaries; writers race it with inserts both inside and outside the
  // doomed range. A final delete makes the end state deterministic: the
  // races probe ordering soundness (each clamped per-shard delete fences
  // at its own domain's sequence point), not the survivor set.
  constexpr int64_t kDelLo = 150, kDelHi = 650;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {
    for (int i = 0; i < 20; ++i) {
      if (!stack->central->DeleteRange("t", kDelLo, kDelHi).ok()) failures++;
    }
  });
  for (size_t t = 0; t < 3; ++t) {
    threads.emplace_back([&, t] {
      for (size_t j = 0; j < 150; ++j) {
        // Every third insert lands inside the contested range.
        const int64_t key =
            (j % 3 == 0)
                ? kDelLo + static_cast<int64_t>((t * 150 + j) % 500)
                : static_cast<int64_t>(2000 + t * 1000 + j);
        Tuple tuple = KeyedTuple(stack->schema, key);
        Status s = stack->central->InsertTuple("t", tuple);
        // AlreadyExists is expected (two writers may pick one in-range
        // key, or a seed row not yet deleted); anything else is not.
        if (!s.ok() && s.code() != StatusCode::kAlreadyExists) failures++;
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_EQ(failures.load(), 0);
  auto final_removed = stack->central->DeleteRange("t", kDelLo, kDelHi);
  ASSERT_TRUE(final_removed.ok());

  std::set<int64_t> expected;
  for (int64_t k = 0; k < static_cast<int64_t>(kRows); ++k) {
    if (k < kDelLo || k > kDelHi) expected.insert(k);
  }
  for (size_t t = 0; t < 3; ++t) {
    for (size_t j = 0; j < 150; ++j) {
      if (j % 3 != 0) expected.insert(static_cast<int64_t>(2000 + t * 1000 + j));
    }
  }
  ASSERT_TRUE(stack->hub->SyncAll().ok());
  ExpectVerifiedKeys(stack.get(), expected, "post-race state");
}

TEST(ShardDmlPipelineTest, SplitShardMidWriteStorm) {
  auto stack = MakeStack(4);
  ASSERT_NE(stack, nullptr);
  const uint64_t epoch_before = [&] {
    auto map = stack->central->TablePartitionMap("t");
    return map.ok() ? map->epoch : 0;
  }();

  // Writers hammer inserts across the whole domain while the main thread
  // splits two shards under them. Every InsertTuple must succeed: a
  // writer racing a seal retries transparently against the post-split
  // layout, never surfacing kResourceExhausted.
  std::atomic<int> failures{0};
  std::set<int64_t> inserted;
  std::mutex inserted_mu;
  std::vector<std::thread> writers;
  for (size_t t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      for (size_t j = 0; j < 250; ++j) {
        const int64_t key = static_cast<int64_t>(kRows + 1 + t + 4 * j);
        if (stack->central->InsertTuple("t", KeyedTuple(stack->schema, key))
                .ok()) {
          std::lock_guard<std::mutex> lock(inserted_mu);
          inserted.insert(key);
        } else {
          failures++;
        }
      }
    });
  }
  // Two splits while the storm runs: one through the seed rows, one
  // through the writers' own keyspace (the hot half of the last shard).
  ASSERT_TRUE(stack->central->SplitShard("t", 100).ok());
  ASSERT_TRUE(
      stack->central->SplitShard("t", static_cast<int64_t>(kRows + 500)).ok());
  for (auto& th : writers) th.join();
  ASSERT_EQ(failures.load(), 0);

  auto shards = stack->central->ShardCount("t");
  ASSERT_TRUE(shards.ok());
  EXPECT_EQ(*shards, 6u);
  auto map = stack->central->TablePartitionMap("t");
  ASSERT_TRUE(map.ok());
  EXPECT_GT(map->epoch, epoch_before);
  // Both split children stayed in their parents' digest domains — the
  // signature-free surgery the lineage field advertises to clients.
  size_t lineage_shards = 0;
  for (const auto& s : map->shards) {
    if (!s.lineage.empty()) lineage_shards++;
  }
  EXPECT_GE(lineage_shards, 4u);

  std::set<int64_t> expected;
  for (int64_t k = 0; k < static_cast<int64_t>(kRows); ++k) expected.insert(k);
  expected.insert(inserted.begin(), inserted.end());
  ASSERT_TRUE(stack->hub->SyncAll().ok());
  ExpectVerifiedKeys(stack.get(), expected, "post-split state");
}

}  // namespace
}  // namespace vbtree
