// OLC stress suite: latch-free readers racing structural writers on the
// VB-tree, with every answer authenticated. The linearizability check is
// exact, not statistical — the churn writer inserts *consecutive* keys,
// and every tree mutation bumps the version by exactly one, so an answer
// labeled with read_version L must contain precisely the base keys plus
// the first L churn keys. Any torn read (a key missing, duplicated, or
// from a mix of two tree states) fails the key-set comparison or the
// client-side verification.
//
// Runs under the regular build and all three sanitizer builds; the TSan
// CI job (`ci.sh --sanitize=thread`) leans on this file to surface data
// races the version-validation protocol might otherwise hide.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <thread>
#include <vector>

#include "edge/client.h"
#include "edge/query_service/query_service.h"
#include "storage/row_store.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

using testutil::MakeTuple;
using testutil::MakeWideSchema;

/// Central-in-miniature over a RowStore: signer-owning VB-tree whose
/// leaf keys resolve through the striped store, so readers can fetch
/// while a writer concurrently Puts (publication order: store first,
/// then tree — same discipline as edge delta replay).
struct StressDb {
  Schema schema = MakeWideSchema(4);
  SimSigner signer{/*key_seed=*/7};
  SimRecoverer recoverer{signer.key_material()};
  RowStore store{schema};
  std::unique_ptr<VBTree> tree;
  size_t base = 0;

  explicit StressDb(size_t n, int fanout = 8) : base(n) {
    VBTreeOptions opts;
    opts.config.max_internal = fanout;
    opts.config.max_leaf = fanout;
    DigestSchema ds("stressdb", "t", schema);
    tree = std::make_unique<VBTree>(std::move(ds), opts, &signer);
    Rng rng(42);
    std::vector<Tuple> rows = testutil::MakeRows(schema, n, &rng);
    for (const Tuple& t : rows) store.Put(t);
    EXPECT_TRUE(tree->BulkLoad(rows).ok());
  }

  Verifier MakeVerifier() {
    return Verifier(DigestSchema("stressdb", "t", schema), &recoverer);
  }

  SelectQuery RangeQuery(int64_t lo, int64_t hi) const {
    SelectQuery q;
    q.table = "t";
    q.range = KeyRange{lo, hi};
    return q;
  }

  /// `q` as a batch of one — exactly what ExecuteSelect runs — adding the
  /// batch's counted restarts to `*restarts`.
  Result<QueryOutput> SelectOne(const SelectQuery& q, uint64_t* restarts) {
    VBBatchStats bs;
    VBT_ASSIGN_OR_RETURN(std::vector<QueryOutput> outs,
                         tree->ExecuteSelectBatch({&q, 1}, store.Fetcher(),
                                                  &bs));
    *restarts += bs.olc_restarts;
    VBT_RETURN_NOT_OK(outs[0].status);
    return std::move(outs[0]);
  }

  /// Inserts churn key base+seq (store first, then tree).
  Status InsertChurn(int64_t seq, Rng* rng) {
    int64_t key = static_cast<int64_t>(base) + seq;
    Tuple t = MakeTuple(schema, key, rng);
    store.Put(t);
    return tree->Insert(t);
  }
};

/// The exact-answer assertion: an answer labeled L over the full domain
/// must be keys 0 .. base+L-1, contiguous, and must authenticate.
void ExpectExactAtLabel(StressDb* db, const SelectQuery& q,
                        const QueryOutput& out, int64_t churn_total) {
  const uint64_t label = out.read_version;
  ASSERT_LE(label, static_cast<uint64_t>(churn_total))
      << "label exceeds the number of mutations ever applied";
  const int64_t expect_n =
      static_cast<int64_t>(db->base) + static_cast<int64_t>(label);
  ASSERT_EQ(out.rows.size(), static_cast<size_t>(expect_n))
      << "row count does not match the labeled version " << label;
  for (int64_t i = 0; i < expect_n; ++i) {
    ASSERT_EQ(out.rows[static_cast<size_t>(i)].key, i)
        << "non-contiguous key set at labeled version " << label;
  }
  Verifier v = db->MakeVerifier();
  ASSERT_TRUE(v.VerifySelect(q, out.rows, out.vo).ok())
      << "answer at labeled version " << label << " failed authentication";
}

// ---------------------------------------------------------------------------
// Readers race a splitting writer; every answer is exact for its label.
// ---------------------------------------------------------------------------

TEST(OLCStressTest, ReadersRaceInsertsExactAtLabel) {
  constexpr size_t kBase = 256;
  constexpr int64_t kChurn = 200;
  constexpr int kReaders = 3;
  StressDb db(kBase);

  std::atomic<bool> done{false};
  std::atomic<bool> writer_ok{true};
  std::thread writer([&] {
    Rng rng(7001);
    for (int64_t seq = 0; seq < kChurn; ++seq) {
      if (!db.InsertChurn(seq, &rng).ok()) {
        writer_ok = false;
        break;
      }
    }
    done = true;
  });

  std::atomic<uint64_t> total_restarts{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&] {
      SelectQuery q = db.RangeQuery(0, static_cast<int64_t>(kBase) + kChurn);
      uint64_t restarts = 0;
      int laps_after_done = 0;
      while (laps_after_done < 2) {
        if (done.load(std::memory_order_acquire)) laps_after_done++;
        auto out = db.SelectOne(q, &restarts);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        ExpectExactAtLabel(&db, q, *out, kChurn);
      }
      total_restarts.fetch_add(restarts, std::memory_order_relaxed);
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_TRUE(writer_ok.load());
  EXPECT_EQ(db.tree->version(), static_cast<uint64_t>(kChurn));
  EXPECT_TRUE(db.tree->CheckStructure().ok());
  EXPECT_TRUE(db.tree->CheckDigestConsistency().ok());
  // A final quiesced read restarts zero times and sees everything.
  SelectQuery q = db.RangeQuery(0, static_cast<int64_t>(kBase) + kChurn);
  uint64_t final_restarts = 0;
  auto out = db.SelectOne(q, &final_restarts);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(final_restarts, 0u);
  ExpectExactAtLabel(&db, q, *out, kChurn);
}

// ---------------------------------------------------------------------------
// Batches converge on ONE label while the writer splits under them.
// ---------------------------------------------------------------------------

TEST(OLCStressTest, BatchConvergesOnOneLabelUnderChurn) {
  constexpr size_t kBase = 256;
  constexpr int64_t kChurn = 150;
  StressDb db(kBase);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(7002);
    for (int64_t seq = 0; seq < kChurn; ++seq) {
      ASSERT_TRUE(db.InsertChurn(seq, &rng).ok());
    }
    done = true;
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      const int64_t hi = static_cast<int64_t>(kBase) + kChurn;
      // Overlapping windows: the full domain plus three staggered
      // sub-ranges, so the batch exercises the shared fetch memo while
      // converging.
      std::vector<SelectQuery> queries = {
          db.RangeQuery(0, hi), db.RangeQuery(0, hi / 2),
          db.RangeQuery(hi / 4, 3 * hi / 4), db.RangeQuery(hi / 2, hi)};
      Verifier v = db.MakeVerifier();
      int laps_after_done = 0;
      while (laps_after_done < 2) {
        if (done.load(std::memory_order_acquire)) laps_after_done++;
        VBBatchStats bs;
        auto outs = db.tree->ExecuteSelectBatch(queries, db.store.Fetcher(),
                                                &bs);
        ASSERT_TRUE(outs.ok()) << outs.status().ToString();
        ASSERT_EQ(outs->size(), queries.size());
        // Single-label convergence: every slot carries the batch label.
        for (const QueryOutput& out : *outs) {
          ASSERT_TRUE(out.status.ok()) << out.status.ToString();
          ASSERT_EQ(out.read_version, bs.read_version);
        }
        // Slot 0 covers the full domain: exact contiguity at the label.
        ExpectExactAtLabel(&db, queries[0], (*outs)[0], kChurn);
        // Every slot's answer is the label-consistent slice of slot 0's.
        for (size_t i = 1; i < queries.size(); ++i) {
          const KeyRange& kr = queries[i].range;
          size_t expect = 0;
          for (const ResultRow& row : (*outs)[0].rows) {
            if (row.key >= kr.lo && row.key <= kr.hi) expect++;
          }
          ASSERT_EQ((*outs)[i].rows.size(), expect);
          ASSERT_TRUE(
              v.VerifySelect(queries[i], (*outs)[i].rows, (*outs)[i].vo).ok());
        }
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_TRUE(db.tree->CheckDigestConsistency().ok());
}

// ---------------------------------------------------------------------------
// Splits AND merges: a scratch region churns (insert + range-delete)
// while readers pin an invariant answer on the base region.
// ---------------------------------------------------------------------------

TEST(OLCStressTest, ReadersStableUnderSplitsAndMerges) {
  constexpr size_t kBase = 256;
  StressDb db(kBase);
  const int64_t scratch_lo = static_cast<int64_t>(kBase);

  std::atomic<bool> done{false};
  std::thread writer([&] {
    Rng rng(7003);
    // Each round grows a scratch run past several leaf splits, then
    // range-deletes it (node merges / frees), repeatedly reshaping the
    // right spine readers traverse.
    for (int round = 0; round < 12; ++round) {
      for (int64_t i = 0; i < 40; ++i) {
        int64_t key = scratch_lo + i;
        Tuple t = MakeTuple(db.schema, key, &rng);
        db.store.Put(t);
        ASSERT_TRUE(db.tree->Insert(t).ok());
      }
      auto removed = db.tree->DeleteRange(scratch_lo, scratch_lo + 40);
      ASSERT_TRUE(removed.ok());
      ASSERT_EQ(*removed, 40u);
      db.store.RemoveKeyRange(scratch_lo, scratch_lo + 40);
    }
    done = true;
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&] {
      // The base region never changes: every validated read must return
      // exactly the full base key set no matter how the scratch churn
      // reshapes the tree around it.
      SelectQuery q = db.RangeQuery(0, static_cast<int64_t>(kBase) - 1);
      Verifier v = db.MakeVerifier();
      int laps_after_done = 0;
      while (laps_after_done < 2) {
        if (done.load(std::memory_order_acquire)) laps_after_done++;
        auto out = db.tree->ExecuteSelect(q, db.store.Fetcher());
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        ASSERT_EQ(out->rows.size(), kBase);
        for (size_t i = 0; i < kBase; ++i) {
          ASSERT_EQ(out->rows[i].key, static_cast<int64_t>(i));
        }
        ASSERT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
      }
    });
  }
  writer.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(db.tree->size(), kBase);
  EXPECT_TRUE(db.tree->CheckStructure().ok());
  EXPECT_TRUE(db.tree->CheckDigestConsistency().ok());
}

// ---------------------------------------------------------------------------
// Two writers delete disjoint ranges while verified readers run: the
// writers serialize inside the tree, and every answer is exact for its
// label.
// ---------------------------------------------------------------------------

TEST(OLCStressTest, DisjointDeletersWithVerifiedReaders) {
  constexpr size_t kBase = 4000;
  constexpr int kDeletesPerWriter = 10;
  constexpr int64_t kRun = 10;  // keys per delete
  StressDb db(kBase);

  std::atomic<int> writers_done{0};
  auto deleter = [&](int64_t origin) {
    for (int i = 0; i < kDeletesPerWriter; ++i) {
      const int64_t lo = origin + 20 * i;
      auto removed = db.tree->DeleteRange(lo, lo + kRun - 1);
      ASSERT_TRUE(removed.ok()) << removed.status().ToString();
      ASSERT_EQ(*removed, static_cast<size_t>(kRun));
      db.store.RemoveKeyRange(lo, lo + kRun - 1);
    }
    writers_done.fetch_add(1, std::memory_order_release);
  };
  std::thread w1(deleter, 0);
  std::thread w2(deleter, 3000);

  // Reader 1: the untouched middle region answers identically throughout.
  std::thread middle([&] {
    SelectQuery q = db.RangeQuery(1000, 1999);
    Verifier v = db.MakeVerifier();
    int laps_after_done = 0;
    while (laps_after_done < 2) {
      if (writers_done.load(std::memory_order_acquire) == 2) laps_after_done++;
      auto out = db.tree->ExecuteSelect(q, db.store.Fetcher());
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ASSERT_EQ(out->rows.size(), 1000u);
      ASSERT_EQ(out->rows.front().key, 1000);
      ASSERT_EQ(out->rows.back().key, 1999);
      ASSERT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
    }
  });
  // Reader 2: the full domain at label L has lost exactly L runs.
  std::thread full([&] {
    SelectQuery q = db.RangeQuery(0, static_cast<int64_t>(kBase) - 1);
    Verifier v = db.MakeVerifier();
    uint64_t restarts = 0;
    int laps_after_done = 0;
    while (laps_after_done < 2) {
      if (writers_done.load(std::memory_order_acquire) == 2) laps_after_done++;
      auto out = db.SelectOne(q, &restarts);
      ASSERT_TRUE(out.ok()) << out.status().ToString();
      ASSERT_LE(out->read_version, 2u * kDeletesPerWriter);
      ASSERT_EQ(out->rows.size(),
                kBase - static_cast<size_t>(kRun) * out->read_version);
      ASSERT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
    }
  });
  w1.join();
  w2.join();
  middle.join();
  full.join();
  EXPECT_EQ(db.tree->version(), 2u * kDeletesPerWriter);
  EXPECT_EQ(db.tree->size(), kBase - 2 * kDeletesPerWriter * kRun);
  EXPECT_TRUE(db.tree->CheckStructure().ok());
  EXPECT_TRUE(db.tree->CheckDigestConsistency().ok());
}

// ---------------------------------------------------------------------------
// Forced-restart injection: every injected restart is counted exactly
// once, and the re-executed reads still authenticate.
// ---------------------------------------------------------------------------

TEST(OLCStressTest, InjectedRestartsAreCountedSingle) {
  StressDb db(200);
  Verifier v = db.MakeVerifier();
  SelectQuery q = db.RangeQuery(0, 500);

  // Quiesced tree: restarts can only come from injection.
  constexpr int kQueries = 20;
  db.tree->InjectRestartsForTest(kQueries);
  uint64_t counted = 0;
  for (int i = 0; i < kQueries; ++i) {
    auto out = db.SelectOne(q, &counted);
    ASSERT_TRUE(out.ok());
    ExpectExactAtLabel(&db, q, *out, /*churn_total=*/0);
    ASSERT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
  }
  // One injection per query (the pool drains one per attempt), each
  // surfaced as exactly one counted restart.
  EXPECT_EQ(counted, static_cast<uint64_t>(kQueries));

  // Pool exhausted: the next read is restart-free.
  uint64_t after = 0;
  auto out = db.SelectOne(q, &after);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(after, 0u);
}

TEST(OLCStressTest, InjectedRestartsAreCountedBatch) {
  StressDb db(200);
  Verifier v = db.MakeVerifier();
  std::vector<SelectQuery> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(db.RangeQuery(10 * i, 10 * i + 60));
  }

  constexpr int64_t kInjected = 5;
  db.tree->InjectRestartsForTest(kInjected);
  VBBatchStats bs;
  auto outs = db.tree->ExecuteSelectBatch(queries, db.store.Fetcher(), &bs);
  ASSERT_TRUE(outs.ok());
  EXPECT_EQ(bs.olc_restarts, static_cast<uint64_t>(kInjected));
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE((*outs)[i].status.ok());
    EXPECT_EQ((*outs)[i].read_version, bs.read_version);
    ASSERT_TRUE(
        v.VerifySelect(queries[i], (*outs)[i].rows, (*outs)[i].vo).ok());
  }
}

// ---------------------------------------------------------------------------
// Label-convergence fallback regression: a writer that commits BETWEEN
// the lock-free stale scan and the fallback writer_mu_ acquisition must
// not leave a slot labeled at the new version with pre-commit rows. The
// batch hook reproduces that interleaving deterministically: churn on
// the right half of the domain forces the batch through every
// convergence pass into the fallback, and at the pre-lock window a
// delete hits the so-far-untouched LEFT slot — exactly the slot the old
// code would have relabeled without re-validation.
// ---------------------------------------------------------------------------

TEST(OLCStressTest, FallbackRevalidatesSlotsInvalidatedBeforeLock) {
  constexpr size_t kBase = 128;
  StressDb db(kBase);
  Rng rng(7004);

  // Slot 0: left half, untouched by the churn inserts. Slot 1: right
  // half plus the churn region, invalidated by every insert.
  std::vector<SelectQuery> queries = {
      db.RangeQuery(0, 63), db.RangeQuery(64, 2000)};

  int64_t churn_seq = 0;
  int pre_lock_calls = 0;
  db.tree->SetBatchLabelHookForTest([&](int, bool pre_fallback_lock) {
    if (!pre_fallback_lock) {
      // Keep the right slot stale on every pass so the batch is driven
      // all the way into the pessimistic fallback.
      ASSERT_TRUE(db.InsertChurn(churn_seq++, &rng).ok());
      return;
    }
    // The race window: the stale scan for `pass` has completed, the
    // fallback lock is not yet held. Invalidate the LEFT slot, which
    // that scan just proved valid.
    pre_lock_calls++;
    auto removed = db.tree->DeleteRange(10, 10);
    ASSERT_TRUE(removed.ok());
    ASSERT_EQ(*removed, 1u);
    db.store.RemoveKeyRange(10, 10);
  });

  VBBatchStats bs;
  auto outs = db.tree->ExecuteSelectBatch(queries, db.store.Fetcher(), &bs);
  db.tree->SetBatchLabelHookForTest(nullptr);
  ASSERT_TRUE(outs.ok()) << outs.status().ToString();
  ASSERT_EQ(pre_lock_calls, 1) << "batch never reached the fallback window";

  // Every mutation happened inside the batch, so the single batch label
  // must be the final tree version — churn inserts plus the delete.
  const uint64_t v_final = db.tree->version();
  EXPECT_EQ(static_cast<int64_t>(v_final), churn_seq + 1);
  EXPECT_EQ(bs.read_version, v_final);

  Verifier v = db.MakeVerifier();
  for (size_t i = 0; i < queries.size(); ++i) {
    ASSERT_TRUE((*outs)[i].status.ok());
    EXPECT_EQ((*outs)[i].read_version, v_final);
    ASSERT_TRUE(
        v.VerifySelect(queries[i], (*outs)[i].rows, (*outs)[i].vo).ok());
  }

  // The left slot claims version v_final, which includes the delete of
  // key 10 — its rows must reflect that, not the pre-delete leaf.
  const std::vector<ResultRow>& left = (*outs)[0].rows;
  ASSERT_EQ(left.size(), 63u);
  for (const ResultRow& row : left) {
    ASSERT_NE(row.key, 10) << "slot labeled " << v_final
                           << " still contains the deleted key";
  }
  // The right slot saw every churn insert: keys 64..127 plus the run of
  // churn keys starting at kBase.
  const std::vector<ResultRow>& right = (*outs)[1].rows;
  ASSERT_EQ(right.size(), 64u + static_cast<size_t>(churn_seq));
  for (size_t i = 0; i < right.size(); ++i) {
    ASSERT_EQ(right[i].key, 64 + static_cast<int64_t>(i));
  }
  EXPECT_TRUE(db.tree->CheckStructure().ok());
  EXPECT_TRUE(db.tree->CheckDigestConsistency().ok());
}

// ---------------------------------------------------------------------------
// Edge level: snapshot installs and delta replay race authenticated
// client queries against the EdgeServer.
// ---------------------------------------------------------------------------

TEST(OLCStressTest, SnapshotInstallRacesVerifiedQueries) {
  CentralServer::Options opts;
  opts.tree_opts.config.max_internal = 8;
  opts.tree_opts.config.max_leaf = 8;
  auto central_or = CentralServer::Create(opts);
  ASSERT_TRUE(central_or.ok());
  std::unique_ptr<CentralServer> central = central_or.MoveValueUnsafe();

  Schema schema = MakeWideSchema(6);
  ASSERT_TRUE(central->CreateTable("items", schema).ok());
  Rng rng(42);
  ASSERT_TRUE(
      central->LoadTable("items", testutil::MakeRows(schema, 400, &rng)).ok());

  EdgeServer edge("edge-1");
  ASSERT_TRUE(testutil::Publish(central.get(), "items", &edge).ok());

  std::atomic<bool> done{false};
  std::thread churn([&] {
    Rng crng(9001);
    for (int i = 0; i < 30; ++i) {
      Tuple t = MakeTuple(schema, 400 + i, &crng);
      ASSERT_TRUE(central->InsertTuple("items", t).ok());
      // Alternate the two install paths racing the readers: full
      // snapshot swap (replica pointer replaced under the directory
      // lock) and in-place delta replay (latch-free against the live
      // tree).
      if (i % 2 == 0) {
        ASSERT_TRUE(testutil::Publish(central.get(), "items", &edge).ok());
      } else {
        ASSERT_TRUE(testutil::PublishDelta(central.get(), "items", &edge).ok());
      }
    }
    done = true;
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      Client client(central->db_name(), central->key_directory());
      client.RegisterTable("items", schema);
      SelectQuery q;
      q.table = "items";
      q.range = KeyRange{0, 1000};
      uint64_t last_version = 0;
      int laps_after_done = 0;
      while (laps_after_done < 2) {
        if (done.load(std::memory_order_acquire)) laps_after_done++;
        auto res = client.Query(&edge, q, /*now=*/10);
        ASSERT_TRUE(res.ok()) << res.status().ToString();
        ASSERT_TRUE(res->verification.ok()) << res->verification.ToString();
        // The replica only moves forward under the install churn, and
        // every answer reflects at least the 400 loaded rows.
        ASSERT_GE(res->replica_version, last_version);
        last_version = res->replica_version;
        ASSERT_GE(res->rows.size(), 400u);
        ASSERT_EQ(res->rows.size(), 400u + res->replica_version);
      }
    });
  }
  churn.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(edge.TableVersion("items"), 30u);
}

// ---------------------------------------------------------------------------
// Row-address reuse, deterministically: a key deleted and re-inserted
// between a batch's first execution and its label-convergence re-run is a
// different row at the same address, and the fetch memo must not serve
// the re-run the first incarnation's row.
// ---------------------------------------------------------------------------

TEST(OLCStressTest, FetchMemoNeverServesAnEarlierIncarnation) {
  StressDb db(128);
  Rng rng(7005);
  // Overlapping slots: the second is served key 40 from the memo.
  std::vector<SelectQuery> queries = {db.RangeQuery(0, 63),
                                      db.RangeQuery(32, 95)};
  const Tuple reborn = MakeTuple(db.schema, 40, &rng);
  int hooked = 0;
  db.tree->SetBatchLabelHookForTest([&](int pass, bool pre_fallback_lock) {
    if (pass != 0 || pre_fallback_lock) return;
    hooked++;
    // Edge replay order: tree before store on delete, store before tree
    // on insert.
    ASSERT_TRUE(db.tree->DeleteRange(40, 40).ok());
    db.store.RemoveKeyRange(40, 40);
    db.store.Put(reborn);
    ASSERT_TRUE(db.tree->Insert(reborn).ok());
  });
  VBBatchStats bs;
  auto outs = db.tree->ExecuteSelectBatch(queries, db.store.Fetcher(), &bs);
  db.tree->SetBatchLabelHookForTest(nullptr);
  ASSERT_TRUE(outs.ok()) << outs.status().ToString();
  ASSERT_EQ(hooked, 1);
  EXPECT_EQ(bs.read_version, 2u);

  Verifier v = db.MakeVerifier();
  for (size_t i = 0; i < queries.size(); ++i) {
    const QueryOutput& out = (*outs)[i];
    ASSERT_TRUE(out.status.ok()) << out.status.ToString();
    EXPECT_TRUE(v.VerifySelect(queries[i], out.rows, out.vo).ok())
        << "slot " << i;
    for (const ResultRow& row : out.rows) {
      if (row.key == 40) {
        EXPECT_EQ(row.values, reborn.values()) << "slot " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Row-address reuse under load: rows are addressed by key, so a key
// deleted and re-inserted with a new value is a new row at an old
// address. Edge replay removes a row only after the tree's delete
// commits and Puts the new row before the tree publishes it, so every
// verified answer labeled v must carry exactly the value the key held
// at version v. Each batch asks for the key from eight overlapping
// queries, so the batch fetch memo is asked for it across the replays
// too.
// ---------------------------------------------------------------------------

TEST(OLCStressTest, ReusedRowAddressServesOnlyItsLabeledValue) {
  CentralServer::Options opts;
  opts.tree_opts.config.max_internal = 8;
  opts.tree_opts.config.max_leaf = 8;
  auto central_or = CentralServer::Create(opts);
  ASSERT_TRUE(central_or.ok());
  std::unique_ptr<CentralServer> central = central_or.MoveValueUnsafe();

  Schema schema = MakeWideSchema(4);
  ASSERT_TRUE(central->CreateTable("items", schema).ok());
  Rng rng(42);
  std::vector<Tuple> rows = testutil::MakeRows(schema, 200, &rng);
  constexpr int64_t kKey = 100;
  constexpr int kRounds = 60;
  // oracle[v] is the row kKey holds at replica version v: round r deletes
  // it (version 2r+1) and re-inserts it under a new value (version 2r+2).
  std::vector<std::optional<Tuple>> oracle = {rows[kKey]};
  for (int r = 0; r < kRounds; ++r) {
    Tuple next = rows[kKey];
    next.set_value(1, Value::Str("incarnation-" + std::to_string(r)));
    oracle.push_back(std::nullopt);
    oracle.push_back(std::move(next));
  }
  ASSERT_TRUE(central->LoadTable("items", rows).ok());

  EdgeServer edge("edge-1");
  ASSERT_TRUE(testutil::Publish(central.get(), "items", &edge).ok());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> answered{0};
  std::atomic<int> readers_live{2};
  // The bodies return early on a failed ASSERT; the threads around them
  // still signal, so neither side waits on a peer that gave up.
  auto churn_rounds = [&] {
    for (int r = 0; r < kRounds; ++r) {
      // Pace the rounds by the readers, so every replay lands among
      // batches in flight.
      const uint64_t seen = answered.load();
      while (answered.load() == seen && readers_live.load() > 0) {
        std::this_thread::yield();
      }
      auto removed = central->DeleteRange("items", kKey, kKey);
      ASSERT_TRUE(removed.ok() && *removed == 1u);
      ASSERT_TRUE(central->InsertTuple("items", *oracle[2 * r + 2]).ok());
      // One delta: the edge replays the delete and the re-insert back to
      // back, inside the window of a batch already under way.
      ASSERT_TRUE(testutil::PublishDelta(central.get(), "items", &edge).ok());
    }
  };
  auto read_until_done = [&] {
    Client client(central->db_name(), central->key_directory());
    client.RegisterTable("items", schema);
    QueryService service(&edge, QueryServiceOptions{1, 64});
    QueryBatch batch;
    batch.table = "items";
    for (int64_t lo = kKey - 35; lo <= kKey; lo += 5) {
      SelectQuery q;
      q.table = "items";
      q.range = KeyRange{lo, lo + 40};
      batch.queries.push_back(std::move(q));
    }
    int laps_after_done = 0;
    while (laps_after_done < 2) {
      if (done.load(std::memory_order_acquire)) laps_after_done++;
      auto res = client.QueryBatched(&service, batch, /*now=*/10);
      answered.fetch_add(1);
      ASSERT_TRUE(res.ok()) << res.status().ToString();
      const uint64_t v = res->replica_version;
      ASSERT_LT(v, oracle.size());
      for (const Client::Verified& answer : res->results) {
        ASSERT_TRUE(answer.verification.ok())
            << answer.verification.ToString();
        auto row = std::find_if(
            answer.rows.begin(), answer.rows.end(),
            [&](const ResultRow& r) { return r.key == kKey; });
        if (!oracle[v].has_value()) {
          ASSERT_EQ(row, answer.rows.end())
              << "key present at version " << v << ", where it is deleted";
        } else {
          ASSERT_NE(row, answer.rows.end()) << "key missing at version " << v;
          ASSERT_EQ(row->values, oracle[v]->values())
              << "another incarnation's row served at version " << v;
        }
      }
    }
  };

  std::thread churn([&] {
    churn_rounds();
    done = true;
  });
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      read_until_done();
      readers_live.fetch_sub(1);
    });
  }
  churn.join();
  for (auto& t : readers) t.join();
  EXPECT_EQ(edge.TableVersion("items"), 2u * kRounds);
}

}  // namespace
}  // namespace vbtree
