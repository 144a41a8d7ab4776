#include <gtest/gtest.h>

#include <set>

#include "tests/testutil.h"

namespace vbtree {
namespace {

using testutil::MakeTestDb;
using testutil::MakeTuple;

TEST(VBTreeInsertTest, InsertIntoEmptyTree) {
  auto db = MakeTestDb(0);
  ASSERT_NE(db, nullptr);
  Rng rng(1);
  Tuple t = MakeTuple(db->schema, 7, &rng);
  ASSERT_TRUE(db->tree->Insert(t).ok());
  db->store->Put(t);
  EXPECT_EQ(db->tree->size(), 1u);
  EXPECT_TRUE(db->tree->CheckDigestConsistency().ok());
}

TEST(VBTreeInsertTest, IncrementalFoldMatchesRebuild) {
  // Insert without splits: the incremental D^t update (§3.4) must leave
  // the same digests a full recomputation would.
  auto db = MakeTestDb(4, /*ncols=*/5, /*max_fanout=*/16);
  ASSERT_NE(db, nullptr);
  Rng rng(2);
  Tuple t = MakeTuple(db->schema, 100, &rng);
  ASSERT_TRUE(db->tree->Insert(t).ok());
  db->store->Put(t);
  EXPECT_TRUE(db->tree->CheckDigestConsistency().ok());
}

TEST(VBTreeInsertTest, SplitsKeepDigestsConsistent) {
  auto db = MakeTestDb(0, /*ncols=*/5, /*max_fanout=*/4);
  ASSERT_NE(db, nullptr);
  Rng rng(3);
  for (int64_t k = 0; k < 200; ++k) {
    Tuple t = MakeTuple(db->schema, k, &rng);
    ASSERT_TRUE(db->tree->Insert(t).ok()) << k;
    db->store->Put(t);
  }
  EXPECT_EQ(db->tree->size(), 200u);
  EXPECT_GE(db->tree->height(), 3);
  EXPECT_TRUE(db->tree->CheckStructure().ok());
  EXPECT_TRUE(db->tree->CheckDigestConsistency().ok());
}

TEST(VBTreeInsertTest, RandomOrderInsertsConsistent) {
  auto db = MakeTestDb(0, 5, 4);
  ASSERT_NE(db, nullptr);
  Rng rng(4);
  std::set<int64_t> keys;
  while (keys.size() < 150) {
    int64_t k = static_cast<int64_t>(rng.Uniform(100000));
    if (!keys.insert(k).second) continue;
    Tuple t = MakeTuple(db->schema, k, &rng);
    ASSERT_TRUE(db->tree->Insert(t).ok());
    db->store->Put(t);
  }
  EXPECT_TRUE(db->tree->CheckStructure().ok());
  EXPECT_TRUE(db->tree->CheckDigestConsistency().ok());
  std::vector<int64_t> expect(keys.begin(), keys.end());
  EXPECT_EQ(db->tree->AllKeys(), expect);
}

TEST(VBTreeInsertTest, DuplicateKeyRejectedWithoutDigestDamage) {
  auto db = MakeTestDb(20);
  ASSERT_NE(db, nullptr);
  Digest before = db->tree->root_digest();
  Rng rng(5);
  Tuple t = MakeTuple(db->schema, 10, &rng);  // key 10 already present
  EXPECT_EQ(db->tree->Insert(t).code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(db->tree->size(), 20u);
  // Note: duplicate detection happens at the leaf, so path digests are
  // untouched only if the insert failed before any fold — verify by full
  // consistency check.
  EXPECT_TRUE(db->tree->CheckDigestConsistency().ok());
  (void)before;
}

TEST(VBTreeDeleteTest, DeleteSingleKey) {
  auto db = MakeTestDb(50, 5, 8);
  ASSERT_NE(db, nullptr);
  auto removed = db->tree->DeleteRange(25, 25);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 1u);
  EXPECT_EQ(db->tree->size(), 49u);
  EXPECT_TRUE(db->tree->KeysInRange(25, 25).empty());
  EXPECT_TRUE(db->tree->CheckDigestConsistency().ok());
  EXPECT_TRUE(db->tree->CheckStructure().ok());
}

TEST(VBTreeDeleteTest, DeleteRangeSpanningLeaves) {
  auto db = MakeTestDb(500, 5, 8);
  ASSERT_NE(db, nullptr);
  auto removed = db->tree->DeleteRange(100, 399);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 300u);
  EXPECT_EQ(db->tree->size(), 200u);
  EXPECT_TRUE(db->tree->CheckDigestConsistency().ok());
  EXPECT_TRUE(db->tree->CheckStructure().ok());
  auto keys = db->tree->AllKeys();
  ASSERT_EQ(keys.size(), 200u);
  EXPECT_EQ(keys[99], 99);
  EXPECT_EQ(keys[100], 400);
}

TEST(VBTreeDeleteTest, DeleteEverything) {
  auto db = MakeTestDb(300, 5, 8);
  ASSERT_NE(db, nullptr);
  auto removed = db->tree->DeleteRange(std::numeric_limits<int64_t>::min(),
                                       std::numeric_limits<int64_t>::max());
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 300u);
  EXPECT_EQ(db->tree->size(), 0u);
  EXPECT_EQ(db->tree->height(), 1);
  EXPECT_TRUE(db->tree->CheckDigestConsistency().ok());
  // Tree stays usable.
  Rng rng(6);
  Tuple t = MakeTuple(db->schema, 7, &rng);
  EXPECT_TRUE(db->tree->Insert(t).ok());
  db->store->Put(t);
  EXPECT_TRUE(db->tree->CheckDigestConsistency().ok());
}

TEST(VBTreeDeleteTest, DeleteMissingRangeIsNoop) {
  auto db = MakeTestDb(50);
  ASSERT_NE(db, nullptr);
  Digest before = db->tree->root_digest();
  auto removed = db->tree->DeleteRange(1000, 2000);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 0u);
  EXPECT_EQ(db->tree->root_digest(), before);
}

TEST(VBTreeDeleteTest, InvertedRangeIsNoop) {
  auto db = MakeTestDb(50);
  ASSERT_NE(db, nullptr);
  auto removed = db->tree->DeleteRange(30, 10);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 0u);
}

/// Differential fuzz: random inserts and range-deletes, checked against a
/// std::set reference, with digest consistency verified at the end of
/// every round.
class VBTreeUpdateFuzz : public ::testing::TestWithParam<int> {};

TEST_P(VBTreeUpdateFuzz, RandomMixedWorkload) {
  auto db = MakeTestDb(0, /*ncols=*/4, /*max_fanout=*/5);
  ASSERT_NE(db, nullptr);
  std::set<int64_t> reference;
  Rng rng(9000 + GetParam());

  for (int round = 0; round < 20; ++round) {
    // A batch of inserts...
    for (int i = 0; i < 40; ++i) {
      int64_t k = static_cast<int64_t>(rng.Uniform(2000));
      Tuple t = MakeTuple(db->schema, k, &rng);
      bool fresh = reference.insert(k).second;
      Status s = db->tree->Insert(t);
      if (s.ok()) db->store->Put(t);
      ASSERT_EQ(s.ok(), fresh) << s.ToString();
    }
    // ...then a range delete.
    int64_t lo = static_cast<int64_t>(rng.Uniform(2000));
    int64_t hi = lo + static_cast<int64_t>(rng.Uniform(300));
    auto removed = db->tree->DeleteRange(lo, hi);
    ASSERT_TRUE(removed.ok());
    size_t expect_removed = 0;
    for (auto it = reference.lower_bound(lo);
         it != reference.end() && *it <= hi;) {
      it = reference.erase(it);
      expect_removed++;
    }
    EXPECT_EQ(*removed, expect_removed);

    ASSERT_TRUE(db->tree->CheckStructure().ok()) << "round " << round;
    ASSERT_TRUE(db->tree->CheckDigestConsistency().ok()) << "round " << round;
    std::vector<int64_t> expect(reference.begin(), reference.end());
    ASSERT_EQ(db->tree->AllKeys(), expect) << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, VBTreeUpdateFuzz, ::testing::Range(0, 6));

TEST(VBTreeResignTest, ResignAllRotatesSignatures) {
  auto db = MakeTestDb(100, 5, 8);
  ASSERT_NE(db, nullptr);
  Signature old_sig = db->tree->root_signature();
  Digest old_digest = db->tree->root_digest();

  SimSigner new_signer(/*key_seed=*/999);
  ASSERT_TRUE(
      db->tree->ResignAll(&new_signer, /*new_key_version=*/2, db->Fetcher())
          .ok());
  EXPECT_EQ(db->tree->key_version(), 2u);
  // Digests unchanged (same data), signatures changed (new key).
  EXPECT_EQ(db->tree->root_digest(), old_digest);
  EXPECT_NE(db->tree->root_signature(), old_sig);
  EXPECT_TRUE(db->tree->CheckDigestConsistency().ok());
  // New key recovers the root digest.
  SimRecoverer rec(new_signer.key_material());
  EXPECT_EQ(*rec.Recover(db->tree->root_signature()), old_digest);
}

/// Pins the write path's counted crypto work (Cost_h, Cost_k and
/// signatures) over a seeded sequence of inserts and range deletes: a
/// leaf insert folds the tuple digest in with one Extend, every other
/// changed node recombines with CombineDigests, and every changed node
/// is re-signed once. Any change to that rule moves these counts.
TEST(VBTreeUpdateTest, WriteCryptoWorkIsPinned) {
  auto db = MakeTestDb(300, /*ncols=*/5, /*max_fanout=*/8, /*stride=*/10);
  ASSERT_NE(db, nullptr);
  CryptoCounters counters;
  db->tree->set_counters(&counters);
  const uint64_t signs_before = db->tree->sign_calls();

  std::set<int64_t> keys;
  for (int64_t k : db->tree->AllKeys()) keys.insert(k);
  Rng rng(2718);
  int inserts = 0;
  int deletes = 0;
  while (inserts < 400) {
    int64_t k = static_cast<int64_t>(rng.Uniform(6000));
    if (!keys.insert(k).second) continue;
    Tuple t = MakeTuple(db->schema, k, &rng);
    ASSERT_TRUE(db->tree->Insert(t).ok());
    db->store->Put(t);
    if (++inserts % 20 == 0) {
      int64_t lo = static_cast<int64_t>(rng.Uniform(6000));
      int64_t hi = lo + static_cast<int64_t>(rng.Uniform(120));
      ASSERT_TRUE(db->tree->DeleteRange(lo, hi).ok());
      keys.erase(keys.lower_bound(lo), keys.upper_bound(hi));
      deletes++;
    }
  }
  ASSERT_EQ(deletes, 20);

  // 400 inserts x 5 attribute digests; no delete hashes an attribute.
  EXPECT_EQ(counters.attr_hashes.load(), 2000u);
  EXPECT_EQ(counters.combine_ops.load(), 9243u);
  EXPECT_EQ(db->tree->sign_calls() - signs_before, 4150u);
  EXPECT_EQ(db->tree->size(), keys.size());
  db->tree->set_counters(nullptr);
  EXPECT_TRUE(db->tree->CheckDigestConsistency().ok());
  EXPECT_TRUE(db->tree->CheckStructure().ok());
}

}  // namespace
}  // namespace vbtree
