#include <gtest/gtest.h>

#include <algorithm>
#include <random>

#include "tests/testutil.h"

namespace vbtree {
namespace {

using testutil::MakeTestDb;
using testutil::TestDb;

SelectQuery RangeQuery(const TestDb& db, int64_t lo, int64_t hi) {
  SelectQuery q;
  q.table = db.table_name;
  q.range = KeyRange{lo, hi};
  return q;
}

TEST(VBTreeQueryTest, FullRangeVerifies) {
  auto db = MakeTestDb(200, 10, 8);
  ASSERT_NE(db, nullptr);
  SelectQuery q = RangeQuery(*db, 0, 199);
  auto out = db->tree->ExecuteSelect(q, db->Fetcher());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->rows.size(), 200u);
  Verifier v = db->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
}

TEST(VBTreeQueryTest, SingleTupleVerifies) {
  auto db = MakeTestDb(200, 10, 8);
  ASSERT_NE(db, nullptr);
  SelectQuery q = RangeQuery(*db, 57, 57);
  auto out = db->tree->ExecuteSelect(q, db->Fetcher());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->rows.size(), 1u);
  EXPECT_EQ(out->rows[0].key, 57);
  Verifier v = db->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
}

TEST(VBTreeQueryTest, EmptyResultVerifies) {
  auto db = MakeTestDb(100, 10, 8);
  ASSERT_NE(db, nullptr);
  // Range between existing keys: stride puts nothing at 1000+.
  SelectQuery q = RangeQuery(*db, 1000, 2000);
  auto out = db->tree->ExecuteSelect(q, db->Fetcher());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->rows.empty());
  Verifier v = db->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
}

TEST(VBTreeQueryTest, EmptyTreeQueryVerifies) {
  auto db = MakeTestDb(0);
  ASSERT_NE(db, nullptr);
  SelectQuery q = RangeQuery(*db, 0, 100);
  auto out = db->tree->ExecuteSelect(q, db->Fetcher());
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->rows.empty());
  Verifier v = db->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
}

TEST(VBTreeQueryTest, ProjectionVerifies) {
  auto db = MakeTestDb(100, 10, 8);
  ASSERT_NE(db, nullptr);
  SelectQuery q = RangeQuery(*db, 20, 40);
  q.projection = {0, 2, 5};  // key + two attributes
  auto out = db->tree->ExecuteSelect(q, db->Fetcher());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->rows.size(), 21u);
  EXPECT_EQ(out->rows[0].values.size(), 3u);
  // D_P carries (10-3) signatures per row.
  EXPECT_EQ(out->vo.projected_attr_sigs.size(), 21u * 7u);
  Verifier v = db->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
}

TEST(VBTreeQueryTest, ProjectionWithoutExplicitKeyGetsKeyAdded) {
  auto db = MakeTestDb(50, 6, 8);
  ASSERT_NE(db, nullptr);
  SelectQuery q = RangeQuery(*db, 5, 9);
  q.projection = {3, 1};  // unsorted, no key: NormalizeProjection fixes it
  auto out = db->tree->ExecuteSelect(q, db->Fetcher());
  ASSERT_TRUE(out.ok());
  ASSERT_EQ(out->rows.size(), 5u);
  EXPECT_EQ(out->rows[0].values.size(), 3u);  // {0,1,3}
  Verifier v = db->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
}

TEST(VBTreeQueryTest, NonKeyConditionCreatesGapsAndVerifies) {
  auto db = MakeTestDb(200, 4, 8);
  ASSERT_NE(db, nullptr);
  SelectQuery q = RangeQuery(*db, 50, 150);
  // String comparison partitions rows roughly in half.
  q.conditions.push_back(
      ColumnCondition{1, CompareOp::kGe, Value::Str("Q")});
  auto out = db->tree->ExecuteSelect(q, db->Fetcher());
  ASSERT_TRUE(out.ok());
  EXPECT_GT(out->rows.size(), 10u);
  EXPECT_LT(out->rows.size(), 95u);  // some rows filtered => gaps exist
  Verifier v = db->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
}

TEST(VBTreeQueryTest, ConditionPlusProjectionVerifies) {
  auto db = MakeTestDb(300, 8, 8);
  ASSERT_NE(db, nullptr);
  SelectQuery q = RangeQuery(*db, 0, 299);
  q.conditions.push_back(
      ColumnCondition{2, CompareOp::kLt, Value::Str("m")});
  q.projection = {0, 2, 7};
  auto out = db->tree->ExecuteSelect(q, db->Fetcher());
  ASSERT_TRUE(out.ok());
  Verifier v = db->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
}

TEST(VBTreeQueryTest, ConditionOnProjectedAwayColumnVerifies) {
  auto db = MakeTestDb(100, 6, 8);
  ASSERT_NE(db, nullptr);
  SelectQuery q = RangeQuery(*db, 0, 99);
  q.conditions.push_back(
      ColumnCondition{4, CompareOp::kGe, Value::Str("5")});
  q.projection = {0, 1};  // condition column 4 not returned
  auto out = db->tree->ExecuteSelect(q, db->Fetcher());
  ASSERT_TRUE(out.ok());
  Verifier v = db->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
}

TEST(VBTreeQueryTest, RangeWiderThanTableVerifies) {
  auto db = MakeTestDb(100, 10, 8);
  ASSERT_NE(db, nullptr);
  SelectQuery q = RangeQuery(*db, -1000, 1000);
  auto out = db->tree->ExecuteSelect(q, db->Fetcher());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->rows.size(), 100u);
  Verifier v = db->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
}

TEST(VBTreeQueryTest, InvalidQueriesRejected) {
  auto db = MakeTestDb(10, 4, 8);
  ASSERT_NE(db, nullptr);
  SelectQuery q = RangeQuery(*db, 5, 2);  // empty range
  EXPECT_FALSE(db->tree->ExecuteSelect(q, db->Fetcher()).ok());
  q = RangeQuery(*db, 0, 5);
  q.conditions.push_back(ColumnCondition{99, CompareOp::kEq, Value::Int(0)});
  EXPECT_FALSE(db->tree->ExecuteSelect(q, db->Fetcher()).ok());
  q = RangeQuery(*db, 0, 5);
  q.projection = {0, 99};
  EXPECT_FALSE(db->tree->ExecuteSelect(q, db->Fetcher()).ok());
}

std::vector<uint8_t> VOBytes(const VerificationObject& vo) {
  ByteWriter w;
  vo.Serialize(&w);
  return w.TakeBuffer();
}

TEST(VBTreeQueryTest, SelectIsABatchOfOne) {
  // ExecuteSelect(q) is ExecuteSelectBatch({q})[0]: same rows, same VO
  // bytes, same label — and the slot's status for an invalid query.
  auto db = MakeTestDb(500, 6, 8);
  ASSERT_NE(db, nullptr);
  SelectQuery plain = RangeQuery(*db, 40, 260);
  SelectQuery projected = RangeQuery(*db, 100, 180);
  projected.projection = {0, 2, 4};
  SelectQuery filtered = RangeQuery(*db, 10, 400);
  filtered.conditions.push_back(
      ColumnCondition{3, CompareOp::kGe, Value::Str("m")});
  // Delete and re-insert key 150, so both paths must report label 2.
  Rng rng(3);
  Tuple extra = testutil::MakeTuple(db->schema, 150, &rng);
  ASSERT_TRUE(db->tree->DeleteRange(150, 150).ok());
  db->store->Put(extra);
  ASSERT_TRUE(db->tree->Insert(extra).ok());
  for (const SelectQuery& q : {plain, projected, filtered}) {
    auto single = db->tree->ExecuteSelect(q, db->Fetcher());
    auto batch = db->tree->ExecuteSelectBatch({&q, 1}, db->Fetcher());
    ASSERT_TRUE(single.ok());
    ASSERT_TRUE(batch.ok());
    ASSERT_EQ(batch->size(), 1u);
    const QueryOutput& b = (*batch)[0];
    ASSERT_TRUE(b.status.ok());
    ASSERT_FALSE(b.rows.empty());
    ASSERT_EQ(single->rows.size(), b.rows.size());
    for (size_t i = 0; i < b.rows.size(); ++i) {
      EXPECT_EQ(single->rows[i].key, b.rows[i].key);
      EXPECT_EQ(single->rows[i].values, b.rows[i].values);
    }
    EXPECT_EQ(VOBytes(single->vo), VOBytes(b.vo));
    EXPECT_EQ(single->read_version, 2u);
    EXPECT_EQ(b.read_version, 2u);
  }
  SelectQuery invalid = RangeQuery(*db, 0, 5);
  invalid.projection = {0, 99};
  auto single = db->tree->ExecuteSelect(invalid, db->Fetcher());
  auto batch = db->tree->ExecuteSelectBatch({&invalid, 1}, db->Fetcher());
  ASSERT_TRUE(batch.ok());
  EXPECT_FALSE(single.ok());
  EXPECT_EQ(single.status().code(), (*batch)[0].status.code());
}

TEST(VBTreeQueryTest, VOSizeIndependentOfTableSize) {
  // The paper's headline claim: for a fixed result size, the VO does not
  // grow with the table (§3.3). Compare a 2k-row and a 64k-row table.
  auto small = MakeTestDb(2000, 4, 16);
  auto large = MakeTestDb(64000, 4, 16);
  ASSERT_NE(small, nullptr);
  ASSERT_NE(large, nullptr);

  SelectQuery qs = RangeQuery(*small, 500, 599);
  SelectQuery ql = RangeQuery(*large, 500, 599);
  auto out_s = small->tree->ExecuteSelect(qs, small->Fetcher());
  auto out_l = large->tree->ExecuteSelect(ql, large->Fetcher());
  ASSERT_TRUE(out_s.ok() && out_l.ok());
  ASSERT_EQ(out_s->rows.size(), 100u);
  ASSERT_EQ(out_l->rows.size(), 100u);

  size_t s_bytes = out_s->vo.SerializedSize();
  size_t l_bytes = out_l->vo.SerializedSize();
  // Allow one extra boundary node of slack, not a log-factor growth.
  EXPECT_LT(l_bytes, s_bytes + 20 * kDigestLen)
      << "small=" << s_bytes << " large=" << l_bytes;
}

TEST(VBTreeQueryTest, VOGrowsLinearlyWithResult) {
  auto db = MakeTestDb(10000, 4, 16);
  ASSERT_NE(db, nullptr);
  SelectQuery q10 = RangeQuery(*db, 0, 9);
  SelectQuery q1000 = RangeQuery(*db, 0, 999);
  auto o10 = db->tree->ExecuteSelect(q10, db->Fetcher());
  auto o1000 = db->tree->ExecuteSelect(q1000, db->Fetcher());
  ASSERT_TRUE(o10.ok() && o1000.ok());
  // Bigger result, bigger VO — but still tiny relative to result bytes.
  EXPECT_GE(o1000->vo.SerializedSize(), o10->vo.SerializedSize());
}

TEST(VBTreeQueryTest, ShuffledVOStillVerifies) {
  // Commutativity means digest order within a VO node is irrelevant
  // (§3.3: "the VO does not need to preserve the order in which the
  // digests are merged").
  auto db = MakeTestDb(500, 6, 8);
  ASSERT_NE(db, nullptr);
  SelectQuery q = RangeQuery(*db, 100, 300);
  q.projection = {0, 1, 2};
  auto out = db->tree->ExecuteSelect(q, db->Fetcher());
  ASSERT_TRUE(out.ok());

  VerificationObject vo = out->vo.Clone();
  std::mt19937 rng(7);
  // Shuffle filtered-tuple digests within each leaf skeleton node.
  std::vector<VONode*> stack{vo.skeleton.get()};
  while (!stack.empty()) {
    VONode* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      std::shuffle(n->filtered_tuple_sigs.begin(),
                   n->filtered_tuple_sigs.end(), rng);
    } else {
      for (auto& item : n->items) {
        if (item.is_covered()) stack.push_back(item.covered.get());
      }
    }
  }
  // Shuffle each row's projected-attribute digests among themselves.
  size_t nf = vo.num_filtered_cols;
  for (size_t row = 0; row * nf < vo.projected_attr_sigs.size(); ++row) {
    std::shuffle(vo.projected_attr_sigs.begin() + row * nf,
                 vo.projected_attr_sigs.begin() + (row + 1) * nf, rng);
  }
  Verifier v = db->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, out->rows, vo).ok());
}

TEST(VBTreeQueryTest, VOSerializationRoundTrip) {
  auto db = MakeTestDb(300, 6, 8);
  ASSERT_NE(db, nullptr);
  SelectQuery q = RangeQuery(*db, 50, 250);
  q.projection = {0, 3};
  auto out = db->tree->ExecuteSelect(q, db->Fetcher());
  ASSERT_TRUE(out.ok());
  ByteWriter w;
  out->vo.Serialize(&w);
  EXPECT_EQ(w.size(), out->vo.SerializedSize());
  ByteReader r(Slice(w.buffer()));
  auto back = VerificationObject::Deserialize(&r);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(r.AtEnd());
  Verifier v = db->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, out->rows, *back).ok());
}

TEST(VBTreeQueryTest, QueryAfterUpdatesVerifies) {
  auto db = MakeTestDb(200, 5, 8);
  ASSERT_NE(db, nullptr);
  ASSERT_TRUE(db->tree->DeleteRange(50, 80).ok());
  Rng rng(11);
  for (int64_t k = 1000; k < 1020; ++k) {
    Tuple t = testutil::MakeTuple(db->schema, k, &rng);
    ASSERT_TRUE(db->tree->Insert(t).ok());
    db->store->Put(t);
  }
  SelectQuery q = RangeQuery(*db, 40, 1010);
  auto out = db->tree->ExecuteSelect(q, db->Fetcher());
  ASSERT_TRUE(out.ok());
  Verifier v = db->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
}

TEST(VBTreeQueryTest, StatsReportSubtree) {
  auto db = MakeTestDb(4096, 4, 8);
  ASSERT_NE(db, nullptr);
  // A narrow query should use a short enveloping subtree, far from root.
  SelectQuery narrow = RangeQuery(*db, 100, 101);
  auto out = db->tree->ExecuteSelect(narrow, db->Fetcher());
  ASSERT_TRUE(out.ok());
  EXPECT_LT(out->stats.subtree_height, db->tree->height());
  EXPECT_LE(out->stats.nodes_visited, 4u);
}

/// Property sweep: random ranges, conditions and projections all verify.
class HonestQuerySweep : public ::testing::TestWithParam<int> {};

TEST_P(HonestQuerySweep, AlwaysVerifies) {
  static std::unique_ptr<TestDb> db = MakeTestDb(3000, 6, 12);
  ASSERT_NE(db, nullptr);
  Rng rng(5000 + GetParam());
  Verifier v = db->MakeVerifier();
  for (int trial = 0; trial < 10; ++trial) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(3200)) - 100;
    int64_t hi = lo + static_cast<int64_t>(rng.Uniform(800));
    SelectQuery q = RangeQuery(*db, lo, hi);
    if (rng.OneIn(2)) {
      q.conditions.push_back(ColumnCondition{
          1 + rng.Uniform(5), CompareOp::kGe,
          Value::Str(std::string(1, static_cast<char>('A' + rng.Uniform(50))))});
    }
    if (rng.OneIn(2)) {
      q.projection = {0, 1 + rng.Uniform(5)};
    }
    auto out = db->tree->ExecuteSelect(q, db->Fetcher());
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok())
        << "lo=" << lo << " hi=" << hi;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HonestQuerySweep, ::testing::Range(0, 10));

}  // namespace
}  // namespace vbtree
