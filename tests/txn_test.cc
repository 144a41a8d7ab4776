#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "tests/testutil.h"
#include "txn/lock_manager.h"

namespace vbtree {
namespace {

using namespace std::chrono_literals;

TEST(LockManagerTest, SharedLocksCompatible) {
  LockManager lm(100ms);
  EXPECT_TRUE(lm.Acquire(1, 10, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(2, 10, LockMode::kShared).ok());
  EXPECT_TRUE(lm.HoldsLock(1, 10));
  EXPECT_TRUE(lm.HoldsLock(2, 10));
}

TEST(LockManagerTest, ExclusiveConflictsWithShared) {
  LockManager lm(100ms);
  ASSERT_TRUE(lm.Acquire(1, 10, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(2, 10, LockMode::kExclusive).IsLockTimeout());
  lm.ReleaseAll(1);
  EXPECT_TRUE(lm.Acquire(2, 10, LockMode::kExclusive).ok());
}

TEST(LockManagerTest, ExclusiveConflictsWithExclusive) {
  LockManager lm(100ms);
  ASSERT_TRUE(lm.Acquire(1, 10, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(2, 10, LockMode::kExclusive).IsLockTimeout());
  EXPECT_TRUE(lm.Acquire(2, 11, LockMode::kExclusive).ok());  // disjoint
}

TEST(LockManagerTest, ReacquisitionIsNoop) {
  LockManager lm(100ms);
  ASSERT_TRUE(lm.Acquire(1, 10, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(1, 10, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(1, 11, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(1, 11, LockMode::kExclusive).ok());
  EXPECT_TRUE(lm.Acquire(1, 11, LockMode::kShared).ok());  // X implies S
}

TEST(LockManagerTest, UpgradeWhenSoleHolder) {
  LockManager lm(100ms);
  ASSERT_TRUE(lm.Acquire(1, 10, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(1, 10, LockMode::kExclusive).ok());
  // Now txn 2 cannot get S.
  EXPECT_TRUE(lm.Acquire(2, 10, LockMode::kShared).IsLockTimeout());
}

TEST(LockManagerTest, UpgradeBlockedByOtherReader) {
  LockManager lm(100ms);
  ASSERT_TRUE(lm.Acquire(1, 10, LockMode::kShared).ok());
  ASSERT_TRUE(lm.Acquire(2, 10, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Acquire(1, 10, LockMode::kExclusive).IsLockTimeout());
}

TEST(LockManagerTest, ReleaseWakesWaiters) {
  LockManager lm(2000ms);
  ASSERT_TRUE(lm.Acquire(1, 10, LockMode::kExclusive).ok());
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    Status s = lm.Acquire(2, 10, LockMode::kShared);
    acquired = s.ok();
  });
  std::this_thread::sleep_for(50ms);
  EXPECT_FALSE(acquired.load());
  lm.ReleaseAll(1);
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(LockManagerTest, ReleaseAllClearsEverything) {
  LockManager lm(100ms);
  ASSERT_TRUE(lm.Acquire(1, 10, LockMode::kExclusive).ok());
  ASSERT_TRUE(lm.Acquire(1, 11, LockMode::kShared).ok());
  EXPECT_EQ(lm.NumLockedResources(), 2u);
  lm.ReleaseAll(1);
  EXPECT_EQ(lm.NumLockedResources(), 0u);
  EXPECT_FALSE(lm.HoldsLock(1, 10));
}

TEST(LockManagerTest, ReleaseOfUnheldLockFails) {
  LockManager lm(100ms);
  EXPECT_TRUE(lm.Release(1, 99).IsNotFound());
  ASSERT_TRUE(lm.Acquire(1, 10, LockMode::kShared).ok());
  EXPECT_TRUE(lm.Release(2, 10).IsNotFound());
  EXPECT_TRUE(lm.Release(1, 10).ok());
}

// ---------------------------------------------------------------------------
// VB-tree + digest-lock protocol (§3.4).
// ---------------------------------------------------------------------------

/// TestDb wired to a LockManager.
struct LockedDb {
  std::unique_ptr<testutil::TestDb> db;
  LockManager lm{std::chrono::milliseconds(300)};
  std::unique_ptr<VBTree> tree;

  static std::unique_ptr<LockedDb> Make(size_t n) {
    auto out = std::make_unique<LockedDb>();
    out->db = testutil::MakeTestDb(n, 4, 8);
    if (out->db == nullptr) return nullptr;
    // Rebuild the tree with the lock manager attached.
    ByteWriter w;
    out->db->tree->SerializeTo(&w);
    ByteReader r(Slice(w.buffer()));
    auto t = VBTree::Deserialize(&r, out->db->signer.get(), &out->lm);
    if (!t.ok()) return nullptr;
    out->tree = t.MoveValueUnsafe();
    return out;
  }
};

TEST(VBTreeLockingTest, QueriesOnDisjointSubtreesProceedDuringDelete) {
  auto ldb = LockedDb::Make(2000);
  ASSERT_NE(ldb, nullptr);

  // Txn 1: delete [0, 50] and keep its X locks (2PL growing phase).
  auto removed = ldb->tree->DeleteRange(0, 50, /*txn=*/1);
  ASSERT_TRUE(removed.ok());

  // Txn 2: query far away, inside a single subtree whose path does not
  // touch the delete's locked nodes — must succeed while txn 1 holds
  // locks. (A query whose enveloping subtree is the *root* would rightly
  // conflict: the delete X-locks the root digest per §3.4.)
  SelectQuery q;
  q.table = "t";
  q.range = KeyRange{1100, 1300};
  auto out = ldb->tree->ExecuteSelect(q, ldb->db->Fetcher(), /*txn=*/2);
  EXPECT_TRUE(out.ok());
  ldb->lm.ReleaseAll(2);

  // Txn 3: query overlapping the deleted range — blocked until release.
  SelectQuery q2;
  q2.table = "t";
  q2.range = KeyRange{40, 60};
  auto blocked = ldb->tree->ExecuteSelect(q2, ldb->db->Fetcher(), /*txn=*/3);
  EXPECT_TRUE(blocked.status().IsLockTimeout());

  ldb->lm.ReleaseAll(1);
  auto after = ldb->tree->ExecuteSelect(q2, ldb->db->Fetcher(), /*txn=*/3);
  EXPECT_TRUE(after.ok());
  ldb->lm.ReleaseAll(3);
}

TEST(VBTreeLockingTest, QueryLocksBlockOverlappingDelete) {
  auto ldb = LockedDb::Make(2000);
  ASSERT_NE(ldb, nullptr);

  SelectQuery q;
  q.table = "t";
  q.range = KeyRange{100, 200};
  auto out = ldb->tree->ExecuteSelect(q, ldb->db->Fetcher(), /*txn=*/1);
  ASSERT_TRUE(out.ok());  // txn 1 holds S locks on its subtree

  auto removed = ldb->tree->DeleteRange(150, 160, /*txn=*/2);
  EXPECT_TRUE(removed.status().IsLockTimeout());

  ldb->lm.ReleaseAll(1);
  auto after = ldb->tree->DeleteRange(150, 160, /*txn=*/2);
  EXPECT_TRUE(after.ok());
  ldb->lm.ReleaseAll(2);
}

TEST(VBTreeLockingTest, ConcurrentInsertsAndQueriesStayConsistent) {
  auto ldb = LockedDb::Make(1000);
  ASSERT_NE(ldb, nullptr);
  // The locked tree has no rows of its own; queries fetch from the TestDb
  // store, so the writer stores each row before the tree publishes it.
  auto* db = ldb->db.get();
  VBTree* tree = ldb->tree.get();

  std::atomic<int> failures{0};
  std::atomic<int64_t> next_key{10000};

  std::thread writer([&] {
    Rng rng(21);
    for (int i = 0; i < 100; ++i) {
      int64_t k = next_key.fetch_add(1);
      Tuple t = testutil::MakeTuple(db->schema, k, &rng);
      db->store->Put(t);
      if (!tree->Insert(t).ok()) failures++;
    }
  });
  std::thread reader([&] {
    Rng rng(22);
    Verifier v = db->MakeVerifier();
    for (int i = 0; i < 50; ++i) {
      SelectQuery q;
      q.table = "t";
      int64_t lo = static_cast<int64_t>(rng.Uniform(900));
      q.range = KeyRange{lo, lo + 50};
      auto out = tree->ExecuteSelect(q, db->Fetcher());
      if (!out.ok() ||
          !v.VerifySelect(q, out->rows, out->vo).ok()) {
        failures++;
      }
    }
  });
  writer.join();
  reader.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(tree->CheckDigestConsistency().ok());
  EXPECT_TRUE(tree->CheckStructure().ok());
  EXPECT_EQ(tree->size(), 1100u);
}

TEST(VBTreeLockingTest, ConcurrentDisjointDeletes) {
  auto ldb = LockedDb::Make(4000);
  ASSERT_NE(ldb, nullptr);
  VBTree* tree = ldb->tree.get();
  std::atomic<int> failures{0};
  std::thread t1([&] {
    for (int i = 0; i < 10; ++i) {
      if (!tree->DeleteRange(i * 20, i * 20 + 9).ok()) failures++;
    }
  });
  std::thread t2([&] {
    for (int i = 0; i < 10; ++i) {
      if (!tree->DeleteRange(3000 + i * 20, 3000 + i * 20 + 9).ok()) {
        failures++;
      }
    }
  });
  t1.join();
  t2.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(tree->size(), 4000u - 200u);
  EXPECT_TRUE(tree->CheckDigestConsistency().ok());
}

}  // namespace
}  // namespace vbtree
