#include <gtest/gtest.h>

#include "costmodel/cost_model.h"
#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "naive/naive_scheme.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

/// Larger-scale end-to-end scenario exercising most of the stack at once.
TEST(IntegrationTest, LifecycleAtScale) {
  CentralServer::Options opts;
  opts.tree_opts.config.max_internal = 32;
  opts.tree_opts.config.max_leaf = 32;
  auto central_or = CentralServer::Create(opts);
  ASSERT_TRUE(central_or.ok());
  CentralServer& central = **central_or;

  Schema schema = testutil::MakeWideSchema(10);
  ASSERT_TRUE(central.CreateTable("t", schema).ok());
  Rng rng(42);
  ASSERT_TRUE(central.LoadTable("t", testutil::MakeRows(schema, 20000, &rng))
                  .ok());

  SimulatedNetwork net;
  EdgeServer edge("edge-1");
  ASSERT_TRUE(testutil::Publish(&central, "t", &edge, &net).ok());
  Client client(central.db_name(), central.key_directory());
  client.RegisterTable("t", schema);

  // 1. A batch of random honest queries all verify.
  Rng qrng(9);
  for (int i = 0; i < 25; ++i) {
    SelectQuery q;
    q.table = "t";
    int64_t lo = static_cast<int64_t>(qrng.Uniform(19000));
    q.range = KeyRange{lo, lo + static_cast<int64_t>(qrng.Uniform(2000))};
    if (qrng.OneIn(2)) q.projection = {0, 1 + qrng.Uniform(9)};
    if (qrng.OneIn(3)) {
      q.conditions.push_back(
          ColumnCondition{1 + qrng.Uniform(9), CompareOp::kGe,
                          Value::Str("T")});
    }
    auto r = client.Query(&edge, q, 10, &net);
    ASSERT_TRUE(r.ok());
    EXPECT_TRUE(r->verification.ok())
        << i << ": " << r->verification.ToString();
  }

  // 2. Updates at the central server, republish, re-verify.
  for (int64_t k = 100000; k < 100200; ++k) {
    ASSERT_TRUE(
        central.InsertTuple("t", testutil::MakeTuple(schema, k, &rng)).ok());
  }
  ASSERT_TRUE(central.DeleteRange("t", 5000, 5999).ok());
  ASSERT_TRUE(central.tree("t")->CheckDigestConsistency().ok());
  ASSERT_TRUE(testutil::Publish(&central, "t", &edge, &net).ok());

  SelectQuery wide;
  wide.table = "t";
  wide.range = KeyRange{4000, 101000};
  auto r = client.Query(&edge, wide, 10, &net);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->verification.ok()) << r->verification.ToString();
  EXPECT_EQ(r->rows.size(), 20000u - 1000u - 4000u + 200u);

  // 3. Tamper one value: exactly queries covering it fail.
  ASSERT_TRUE(edge.TamperValueByKey("t", 15000, 4, Value::Str("EVIL")).ok());
  SelectQuery hit;
  hit.table = "t";
  hit.range = KeyRange{14950, 15050};
  auto bad = client.Query(&edge, hit, 10, &net);
  ASSERT_TRUE(bad.ok());
  EXPECT_TRUE(bad->verification.IsVerificationFailure());
  SelectQuery miss;
  miss.table = "t";
  miss.range = KeyRange{1000, 1100};
  auto good = client.Query(&edge, miss, 10, &net);
  ASSERT_TRUE(good.ok());
  EXPECT_TRUE(good->verification.ok());
}

TEST(IntegrationTest, MeasuredVsModelCommunicationShape) {
  // The measured byte counts should reproduce the *shape* of Fig. 10:
  // Naive > VB at every selectivity, with a growing gap.
  const size_t kTuples = 4000;
  auto db = testutil::MakeTestDb(kTuples, 10, 114);
  ASSERT_NE(db, nullptr);
  NaiveStore naive(db->MakeDigestSchema(), db->signer.get());
  for (int64_t key : db->tree->AllKeys()) {
    auto t = db->store->Get(key);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(naive.Load(*t).ok());
  }

  double prev_gap = -1;
  for (double sel : {0.2, 0.5, 0.8}) {
    SelectQuery q;
    q.table = db->table_name;
    q.range = KeyRange{0, static_cast<int64_t>(sel * kTuples) - 1};
    q.projection = {0, 1, 2, 3, 4};  // Q_c = 5

    auto vb = db->tree->ExecuteSelect(q, db->Fetcher());
    auto nv = naive.ExecuteSelect(q);
    ASSERT_TRUE(vb.ok() && nv.ok());
    ASSERT_EQ(vb->rows.size(), nv->rows.size());

    size_t vb_total = vb->ResultBytes() + vb->vo.SerializedSize();
    size_t nv_total = nv->ResultBytes() + nv->AuthBytes();
    EXPECT_LT(vb_total, nv_total) << "sel=" << sel;
    double gap = static_cast<double>(nv_total) - vb_total;
    EXPECT_GT(gap, prev_gap);
    prev_gap = gap;
  }
}

TEST(IntegrationTest, MeasuredVsModelComputationShape) {
  // Fig. 12 shape on real counters: Naive decrypts per row; VB-tree's
  // decrypt count is bounded by the enveloping subtree, so in Cost_h
  // units Naive >> VB for large X.
  const size_t kTuples = 4000;
  auto db = testutil::MakeTestDb(kTuples, 10, 114);
  ASSERT_NE(db, nullptr);
  NaiveStore naive(db->MakeDigestSchema(), db->signer.get());
  for (int64_t key : db->tree->AllKeys()) {
    auto t = db->store->Get(key);
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(naive.Load(*t).ok());
  }

  SelectQuery q;
  q.table = db->table_name;
  q.range = KeyRange{0, 1999};  // 50% selectivity

  auto vb = db->tree->ExecuteSelect(q, db->Fetcher());
  auto nv = naive.ExecuteSelect(q);
  ASSERT_TRUE(vb.ok() && nv.ok());

  // VB verification counters.
  CryptoCounters vb_counters;
  SimRecoverer vb_rec(db->signer->key_material(), &vb_counters);
  Verifier v(db->MakeDigestSchema(), &vb_rec);
  v.set_counters(&vb_counters);
  ASSERT_TRUE(v.VerifySelect(q, vb->rows, vb->vo).ok());

  // Naive verification counters.
  CryptoCounters nv_counters;
  SimRecoverer nv_rec(db->signer->key_material(), &nv_counters);
  NaiveVerifier nverif(db->MakeDigestSchema(), &nv_rec);
  nverif.set_counters(&nv_counters);
  ASSERT_TRUE(nverif.VerifySelect(q, nv->rows, nv->auth).ok());

  // Same hashing work; drastically fewer signature decrypts for VB (the
  // paper's core Fig. 12 claim: Naive pays one decrypt per result row).
  EXPECT_EQ(vb_counters.attr_hashes, nv_counters.attr_hashes);
  EXPECT_EQ(nv_counters.recovers, 2000u);
  EXPECT_LT(vb_counters.recovers, 300u);

  // In measured Cost_h units the VB-tree also pays per-leaf digest folds
  // that the paper's model elides, so its win is guaranteed once X
  // dominates; assert it at the paper's X = 100 (and at 10 the two are
  // within the fold overhead of each other).
  EXPECT_LT(vb_counters.CostUnits(10, 100), nv_counters.CostUnits(10, 100));
  EXPECT_LT(vb_counters.CostUnits(10, 10),
            1.1 * nv_counters.CostUnits(10, 10));
}

TEST(IntegrationTest, MeasuredVoDigestsTrackModelBound) {
  // |D_S| measured stays below the analytical maximum (2h_Q+1)(f-1).
  const size_t kTuples = 16000;
  const int kFanout = 16;
  auto db = testutil::MakeTestDb(kTuples, 4, kFanout);
  ASSERT_NE(db, nullptr);
  for (size_t result : {10u, 100u, 1000u}) {
    SelectQuery q;
    q.table = db->table_name;
    q.range = KeyRange{0, static_cast<int64_t>(result) - 1};
    auto out = db->tree->ExecuteSelect(q, db->Fetcher());
    ASSERT_TRUE(out.ok());
    costmodel::CostParams p;
    p.num_tuples = kTuples;
    p.result_tuples = static_cast<double>(result);
    // Model with the test fan-out rather than the 4KB-derived one.
    double h_q = costmodel::PackedHeight(p.result_tuples, kFanout);
    double bound = (2 * h_q + 1) * (kFanout - 1) + 1;
    EXPECT_LE(out->vo.DigestCount(), bound) << "result=" << result;
  }
}

TEST(IntegrationTest, SnapshotRoundTripPreservesEverything) {
  auto db = testutil::MakeTestDb(5000, 10, 64);
  ASSERT_NE(db, nullptr);
  ByteWriter w;
  db->tree->SerializeTo(&w);
  size_t serialized = w.size();
  ByteReader r(Slice(w.buffer()));
  auto replica = VBTree::Deserialize(&r);
  ASSERT_TRUE(replica.ok());
  EXPECT_TRUE(r.AtEnd());
  EXPECT_EQ((*replica)->root_digest(), db->tree->root_digest());
  EXPECT_TRUE((*replica)->CheckDigestConsistency().ok());
  // Sanity: serialization cost ~ tuples * (tuple sig + attr sigs + keys).
  EXPECT_GT(serialized, 5000u * 11u * kDigestLen);
}

}  // namespace
}  // namespace vbtree
