#include <gtest/gtest.h>

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

/// Fixture whose row store stands in for a hacked edge server's replica.
class TamperTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = MakeTestDb(500, 6, 8);
    ASSERT_NE(db_, nullptr);
  }

  Result<QueryOutput> Run(const SelectQuery& q) {
    return db_->tree->ExecuteSelect(q, db_->Fetcher());
  }

  std::unique_ptr<TestDb> db_;
};

TEST_F(TamperTest, HonestBaselineVerifies) {
  SelectQuery q = RangeQuery(*db_, 100, 200);
  auto out = Run(q);
  ASSERT_TRUE(out.ok());
  Verifier v = db_->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
}

TEST_F(TamperTest, TamperedValueDetected) {
  ASSERT_TRUE(db_->store->TamperByKey(150, 2, Value::Str("EVIL")).ok());
  SelectQuery q = RangeQuery(*db_, 100, 200);
  auto out = Run(q);
  ASSERT_TRUE(out.ok());
  Verifier v = db_->MakeVerifier();
  EXPECT_TRUE(
      v.VerifySelect(q, out->rows, out->vo).IsVerificationFailure());
}

TEST_F(TamperTest, TamperOutsideQueryRangeHarmless) {
  ASSERT_TRUE(db_->store->TamperByKey(400, 2, Value::Str("EVIL")).ok());
  SelectQuery q = RangeQuery(*db_, 100, 200);
  auto out = Run(q);
  ASSERT_TRUE(out.ok());
  Verifier v = db_->MakeVerifier();
  // The corrupted tuple is not part of this result; its digest in the VO
  // is the *signed original*, so the query still authenticates.
  EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
}

TEST_F(TamperTest, TamperedProjectedValueDetected) {
  // Tamper a column that IS returned while others are projected away.
  ASSERT_TRUE(db_->store->TamperByKey(120, 1, Value::Str("EVIL")).ok());
  SelectQuery q = RangeQuery(*db_, 100, 200);
  q.projection = {0, 1};
  auto out = Run(q);
  ASSERT_TRUE(out.ok());
  Verifier v = db_->MakeVerifier();
  EXPECT_TRUE(
      v.VerifySelect(q, out->rows, out->vo).IsVerificationFailure());
}

TEST_F(TamperTest, TamperedFilteredColumnUndetectedByDesign) {
  // Tampering a projected-away column never reaches the client: the edge
  // ships the original *signed* attribute digest, so verification passes
  // and no wrong data was served. Integrity of what was returned holds.
  ASSERT_TRUE(db_->store->TamperByKey(120, 5, Value::Str("EVIL")).ok());
  SelectQuery q = RangeQuery(*db_, 100, 200);
  q.projection = {0, 1};
  auto out = Run(q);
  ASSERT_TRUE(out.ok());
  Verifier v = db_->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
}

TEST_F(TamperTest, InjectedRowDetected) {
  SelectQuery q = RangeQuery(*db_, 100, 200);
  auto out = Run(q);
  ASSERT_TRUE(out.ok());
  // The edge fabricates an extra row (with a fresh key inside the range).
  ResultRow fake = out->rows.back();
  fake.key = 205;  // outside returned set
  fake.values[0] = Value::Int(205);
  auto rows = out->rows;
  rows.push_back(fake);
  Verifier v = db_->MakeVerifier();
  EXPECT_FALSE(v.VerifySelect(q, rows, out->vo).ok());
}

TEST_F(TamperTest, DuplicatedRowDetected) {
  SelectQuery q = RangeQuery(*db_, 100, 200);
  auto out = Run(q);
  ASSERT_TRUE(out.ok());
  auto rows = out->rows;
  rows.push_back(rows.back());  // duplicate => keys not strictly ascending
  Verifier v = db_->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, rows, out->vo).IsVerificationFailure());
}

TEST_F(TamperTest, DroppedRowDetected) {
  SelectQuery q = RangeQuery(*db_, 100, 200);
  auto out = Run(q);
  ASSERT_TRUE(out.ok());
  auto rows = out->rows;
  rows.pop_back();
  Verifier v = db_->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, rows, out->vo).IsVerificationFailure());
}

TEST_F(TamperTest, ReorderedRowsDetected) {
  SelectQuery q = RangeQuery(*db_, 100, 200);
  auto out = Run(q);
  ASSERT_TRUE(out.ok());
  auto rows = out->rows;
  ASSERT_GE(rows.size(), 2u);
  std::swap(rows[0], rows[1]);
  Verifier v = db_->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, rows, out->vo).IsVerificationFailure());
}

TEST_F(TamperTest, RowOutsideRangeDetected) {
  SelectQuery q = RangeQuery(*db_, 100, 200);
  auto out = Run(q);
  ASSERT_TRUE(out.ok());
  auto rows = out->rows;
  rows.back().key = 999;
  rows.back().values[0] = Value::Int(999);
  Verifier v = db_->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, rows, out->vo).IsVerificationFailure());
}

TEST_F(TamperTest, TamperedVOTopSignatureDetected) {
  SelectQuery q = RangeQuery(*db_, 100, 200);
  auto out = Run(q);
  ASSERT_TRUE(out.ok());
  VerificationObject vo = out->vo.Clone();
  vo.signed_top[3] ^= 0x01;
  Verifier v = db_->MakeVerifier();
  EXPECT_FALSE(v.VerifySelect(q, out->rows, vo).ok());
}

TEST_F(TamperTest, TamperedGapDigestDetected) {
  SelectQuery q = RangeQuery(*db_, 100, 200);
  q.conditions.push_back(ColumnCondition{1, CompareOp::kGe, Value::Str("Q")});
  auto out = Run(q);
  ASSERT_TRUE(out.ok());
  VerificationObject vo = out->vo.Clone();
  // Find some leaf with a filtered-tuple signature and corrupt it.
  std::vector<VONode*> stack{vo.skeleton.get()};
  bool corrupted = false;
  while (!stack.empty() && !corrupted) {
    VONode* n = stack.back();
    stack.pop_back();
    if (n->is_leaf) {
      if (!n->filtered_tuple_sigs.empty()) {
        n->filtered_tuple_sigs[0][0] ^= 0xFF;
        corrupted = true;
      }
    } else {
      for (auto& item : n->items) {
        if (item.is_covered()) stack.push_back(item.covered.get());
      }
    }
  }
  ASSERT_TRUE(corrupted);
  Verifier v = db_->MakeVerifier();
  EXPECT_FALSE(v.VerifySelect(q, out->rows, vo).ok());
}

TEST_F(TamperTest, TamperedProjectionDigestDetected) {
  SelectQuery q = RangeQuery(*db_, 100, 200);
  q.projection = {0, 1};
  auto out = Run(q);
  ASSERT_TRUE(out.ok());
  VerificationObject vo = out->vo.Clone();
  ASSERT_FALSE(vo.projected_attr_sigs.empty());
  vo.projected_attr_sigs[0][5] ^= 0x10;
  Verifier v = db_->MakeVerifier();
  EXPECT_FALSE(v.VerifySelect(q, out->rows, vo).ok());
}

TEST_F(TamperTest, CrossTableSubstitutionDetected) {
  // Build a second table with identical data but another name, run the
  // same query there, and try to pass its (authentic!) answer off as an
  // answer for table t. The name binding in formula (1) must catch it.
  auto other = MakeTestDb(500, 6, 8, /*stride=*/1, /*seed=*/42, "other_table");
  ASSERT_NE(other, nullptr);
  SelectQuery q = RangeQuery(*db_, 100, 200);

  auto foreign = other->tree->ExecuteSelect(q, other->Fetcher());
  ASSERT_TRUE(foreign.ok());
  Verifier v = db_->MakeVerifier();  // verifier configured for our table
  EXPECT_FALSE(v.VerifySelect(q, foreign->rows, foreign->vo).ok());
}

TEST_F(TamperTest, SingleBitFlipsAlwaysDetected) {
  // Any single-bit flip in any returned value must break verification.
  SelectQuery q = RangeQuery(*db_, 100, 110);
  auto out = Run(q);
  ASSERT_TRUE(out.ok());
  Verifier v = db_->MakeVerifier();
  ASSERT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());

  for (size_t row = 0; row < out->rows.size(); row += 3) {
    for (size_t col = 1; col < out->rows[row].values.size(); col += 2) {
      auto rows = out->rows;
      std::string s = rows[row].values[col].AsString();
      s[0] ^= 0x01;
      rows[row].values[col] = Value::Str(s);
      EXPECT_FALSE(v.VerifySelect(q, rows, out->vo).ok())
          << "row " << row << " col " << col;
    }
  }
}

TEST_F(TamperTest, SilentGapReclassificationUndetectedByDesign) {
  // Documented threat-model boundary (§3.1): a server that *drops*
  // qualifying tuples by reclassifying them as predicate gaps (shipping
  // their signed digests instead of their values) passes verification.
  // The paper assumes edge servers do not act maliciously in this way.
  SelectQuery q = RangeQuery(*db_, 100, 200);
  // All generated strings start with [a-zA-Z0-9], so >= "0" keeps all.
  q.conditions.push_back(ColumnCondition{1, CompareOp::kGe, Value::Str("0")});
  auto honest = Run(q);
  ASSERT_TRUE(honest.ok());

  // Malicious re-execution: reclassify rows starting with [0-9A-Z] as
  // "gaps" by tightening the condition.
  SelectQuery narrower = q;
  narrower.conditions[0].operand = Value::Str("a");
  auto dropped = Run(narrower);
  ASSERT_TRUE(dropped.ok());
  ASSERT_LT(dropped->rows.size(), honest->rows.size());

  Verifier v = db_->MakeVerifier();
  // Verified against the *original* query: the dropped rows hide behind
  // their authentic signed digests.
  EXPECT_TRUE(v.VerifySelect(q, dropped->rows, dropped->vo).ok());
}

}  // namespace
}  // namespace vbtree
