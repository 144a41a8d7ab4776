#include <gtest/gtest.h>

#include "tests/testutil.h"

namespace vbtree {
namespace {

using testutil::MakeTestDb;
using testutil::MakeTuple;
using testutil::MakeWideSchema;

TEST(VBTreeBuildTest, EmptyTreeHasIdentityDigest) {
  auto db = MakeTestDb(0);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->tree->size(), 0u);
  EXPECT_EQ(db->tree->height(), 1);
  EXPECT_TRUE(db->tree->CheckDigestConsistency().ok());
  // Root signature recovers to the identity combination.
  auto d = db->recoverer->Recover(db->tree->root_signature());
  ASSERT_TRUE(d.ok());
  CommutativeHash g;
  EXPECT_EQ(*d, g.Identity());
}

TEST(VBTreeBuildTest, BulkLoadDigestsConsistent) {
  auto db = MakeTestDb(1000, /*ncols=*/10, /*max_fanout=*/16);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->tree->size(), 1000u);
  EXPECT_GE(db->tree->height(), 3);
  EXPECT_TRUE(db->tree->CheckStructure().ok());
  EXPECT_TRUE(db->tree->CheckDigestConsistency().ok());
}

TEST(VBTreeBuildTest, RootSignatureRecoversRootDigest) {
  auto db = MakeTestDb(200);
  ASSERT_NE(db, nullptr);
  auto d = db->recoverer->Recover(db->tree->root_signature());
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(*d, db->tree->root_digest());
}

TEST(VBTreeBuildTest, BulkLoadRejectsUnsortedInput) {
  auto db = MakeTestDb(0);
  ASSERT_NE(db, nullptr);
  Rng rng(1);
  Tuple a = MakeTuple(db->schema, 5, &rng);
  Tuple b = MakeTuple(db->schema, 3, &rng);
  std::vector<Tuple> rows = {a, b};
  EXPECT_EQ(db->tree->BulkLoad(rows).code(), StatusCode::kInvalidArgument);
}

TEST(VBTreeBuildTest, BulkLoadRejectsNonEmptyTree) {
  auto db = MakeTestDb(10);
  ASSERT_NE(db, nullptr);
  std::vector<Tuple> rows;
  EXPECT_EQ(db->tree->BulkLoad(rows).code(), StatusCode::kInvalidArgument);
}

TEST(VBTreeBuildTest, AllKeysInOrder) {
  auto db = MakeTestDb(500, 10, 8, /*stride=*/3);
  ASSERT_NE(db, nullptr);
  std::vector<int64_t> keys = db->tree->AllKeys();
  ASSERT_EQ(keys.size(), 500u);
  for (size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(keys[i], static_cast<int64_t>(i) * 3);
  }
}

TEST(VBTreeBuildTest, KeysInRange) {
  auto db = MakeTestDb(100);
  ASSERT_NE(db, nullptr);
  auto keys = db->tree->KeysInRange(10, 19);
  ASSERT_EQ(keys.size(), 10u);
  EXPECT_EQ(keys.front(), 10);
  EXPECT_EQ(keys.back(), 19);
  EXPECT_TRUE(db->tree->KeysInRange(200, 300).empty());
}

TEST(VBTreeBuildTest, DifferentTablesDifferentDigests) {
  // The db/table names are bound into attribute digests (formula (1)):
  // identical data in differently-named tables must not share digests.
  Schema schema = MakeWideSchema(3);
  SimSigner signer(7);
  VBTreeOptions opts;
  Rng rng_a(42), rng_b(42);

  DigestSchema ds_a("db", "alpha", schema);
  DigestSchema ds_b("db", "beta", schema);
  VBTree tree_a(std::move(ds_a), opts, &signer);
  VBTree tree_b(std::move(ds_b), opts, &signer);

  std::vector<Tuple> rows_a, rows_b;
  for (int i = 0; i < 10; ++i) {
    rows_a.push_back(MakeTuple(schema, i, &rng_a));
    rows_b.push_back(MakeTuple(schema, i, &rng_b));
  }
  ASSERT_EQ(rows_a[0], rows_b[0]);  // identical data
  ASSERT_TRUE(tree_a.BulkLoad(rows_a).ok());
  ASSERT_TRUE(tree_b.BulkLoad(rows_b).ok());
  EXPECT_NE(tree_a.root_digest(), tree_b.root_digest());
}

TEST(VBTreeBuildTest, SerializeDeserializeRoundTrip) {
  auto db = MakeTestDb(300, 10, 8);
  ASSERT_NE(db, nullptr);
  ByteWriter w;
  db->tree->SerializeTo(&w);
  ByteReader r(Slice(w.buffer()));
  auto replica = VBTree::Deserialize(&r);
  ASSERT_TRUE(replica.ok());
  EXPECT_EQ((*replica)->size(), 300u);
  EXPECT_EQ((*replica)->height(), db->tree->height());
  EXPECT_EQ((*replica)->root_digest(), db->tree->root_digest());
  EXPECT_TRUE((*replica)->CheckDigestConsistency().ok());
  EXPECT_TRUE((*replica)->CheckStructure().ok());
  EXPECT_EQ((*replica)->AllKeys(), db->tree->AllKeys());
}

TEST(VBTreeBuildTest, DeserializedReplicaCannotSign) {
  auto db = MakeTestDb(10);
  ASSERT_NE(db, nullptr);
  ByteWriter w;
  db->tree->SerializeTo(&w);
  ByteReader r(Slice(w.buffer()));
  auto replica = VBTree::Deserialize(&r);  // no signer
  ASSERT_TRUE(replica.ok());
  Rng rng(1);
  Tuple t = MakeTuple(db->schema, 1000, &rng);
  EXPECT_EQ((*replica)->Insert(t).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ((*replica)->DeleteRange(0, 5).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(VBTreeBuildTest, CorruptSerializationRejected) {
  auto db = MakeTestDb(50);
  ASSERT_NE(db, nullptr);
  ByteWriter w;
  db->tree->SerializeTo(&w);
  std::vector<uint8_t> bytes = w.TakeBuffer();
  // Bad magic.
  {
    std::vector<uint8_t> bad = bytes;
    bad[0] ^= 0xFF;
    ByteReader r((Slice(bad)));
    EXPECT_FALSE(VBTree::Deserialize(&r).ok());
  }
  // Truncated stream.
  {
    ByteReader r(Slice(bytes.data(), bytes.size() / 2));
    EXPECT_FALSE(VBTree::Deserialize(&r).ok());
  }
}

TEST(VBTreeBuildTest, NodeCountMatchesPackedExpectation) {
  auto db = MakeTestDb(1000, 10, 10);
  ASSERT_NE(db, nullptr);
  // 1000 tuples / 10 per leaf = 100 leaves; 10 internals; 1 root.
  EXPECT_EQ(db->tree->node_count(), 111u);
  EXPECT_EQ(db->tree->height(), 3);
}

/// Height of packed trees tracks the cost-model formula across sizes.
class PackedHeightSweep : public ::testing::TestWithParam<size_t> {};

TEST_P(PackedHeightSweep, MatchesFormula) {
  size_t n = GetParam();
  int fanout = 8;
  auto db = MakeTestDb(n, /*ncols=*/3, fanout);
  ASSERT_NE(db, nullptr);
  int formula = BTreeConfig::PackedHeight(n, fanout);
  EXPECT_EQ(db->tree->height(), formula) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, PackedHeightSweep,
                         ::testing::Values(1, 8, 9, 64, 65, 512, 513, 2000));

}  // namespace
}  // namespace vbtree
