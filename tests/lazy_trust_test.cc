// Lazy-trust tier (docs/TRUST_MODEL.md): answer now, certify
// asynchronously. The suite pins (a) the happy path — provisional
// delivery, background audit, zero alarms, queue drained, watermark
// advancing only on audited answers; (b) the adversarial path — every
// injected tamper (store bit-flip, response forgery, wrong-shard
// substitution) raises an alarm carrying the offending query and VO,
// while a stale-replica replay is flagged stale but never alarmed;
// (c) the mechanics — seeded-RNG-exact sampling, bounded-queue
// backpressure, and trust-mode wire plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>

#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/query_service/lazy_auditor.h"
#include "edge/query_service/query_service.h"
#include "query/query_serde.h"
#include "query/trust.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

// ---------------------------------------------------------------------------
// Wire plumbing.
// ---------------------------------------------------------------------------

TEST(TrustModeWireTest, RoundTripsOnBatchRequests) {
  for (TrustMode mode :
       {TrustMode::kCertified, TrustMode::kLazy, TrustMode::kSampled}) {
    QueryBatch batch;
    batch.table = "items";
    SelectQuery q;
    q.table = "items";
    q.range = KeyRange{10, 20};
    batch.queries.push_back(q);
    batch.trust_mode = mode;

    ByteWriter w;
    SerializeQueryBatch(batch, &w);
    ByteReader r{Slice(w.buffer())};
    auto decoded = DeserializeQueryBatch(&r);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->trust_mode, mode) << TrustModeName(mode);
  }
}

TEST(TrustModeWireTest, LegacyRequestWithoutModeByteParsesAsCertified) {
  QueryBatch batch;
  batch.table = "items";
  SelectQuery q;
  q.table = "items";
  q.range = KeyRange{10, 20};
  batch.queries.push_back(q);
  batch.trust_mode = TrustMode::kLazy;

  ByteWriter w;
  SerializeQueryBatch(batch, &w);
  // Pre-trust-mode encodings end right after the queries.
  std::vector<uint8_t> legacy(w.buffer().begin(), w.buffer().end() - 1);
  ByteReader r{Slice(legacy)};
  auto decoded = DeserializeQueryBatch(&r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->trust_mode, TrustMode::kCertified);
}

TEST(TrustModeWireTest, OutOfRangeModeByteIsCorruption) {
  QueryBatch batch;
  batch.table = "items";
  SelectQuery q;
  q.table = "items";
  q.range = KeyRange{10, 20};
  batch.queries.push_back(q);

  ByteWriter w;
  SerializeQueryBatch(batch, &w);
  std::vector<uint8_t> bytes(w.buffer().begin(), w.buffer().end());
  bytes.back() = 0x7f;  // not a TrustMode
  ByteReader r{Slice(bytes)};
  EXPECT_TRUE(DeserializeQueryBatch(&r).status().IsCorruption());
}

// ---------------------------------------------------------------------------
// Full-stack fixture: central + edge + client + auditor.
// ---------------------------------------------------------------------------

class LazyTrustTest : public ::testing::Test {
 protected:
  void SetUp() override {
    CentralServer::Options opts;
    opts.tree_opts.config.max_internal = 16;
    opts.tree_opts.config.max_leaf = 16;
    auto central = CentralServer::Create(opts);
    ASSERT_TRUE(central.ok());
    central_ = central.MoveValueUnsafe();

    schema_ = testutil::MakeWideSchema(10);
    ASSERT_TRUE(central_->CreateTable("items", schema_).ok());
    Rng rng(42);
    ASSERT_TRUE(
        central_->LoadTable("items", testutil::MakeRows(schema_, 1000, &rng))
            .ok());
    // One post-load mutation so the published replica carries a non-zero
    // version label and the watermark assertions below are non-vacuous.
    ASSERT_TRUE(
        central_->InsertTuple("items", testutil::MakeTuple(schema_, 5000, &rng))
            .ok());

    edge_ = std::make_unique<EdgeServer>("edge-1");
    ASSERT_TRUE(testutil::Publish(central_.get(), "items", edge_.get()).ok());
    ASSERT_GT(edge_->TableVersion("items"), 0u);

    client_ = std::make_unique<Client>(central_->db_name(),
                                       central_->key_directory());
    client_->RegisterTable("items", schema_);
  }

  std::unique_ptr<LazyAuditor> MakeAuditor(LazyAuditor::Options opts = {}) {
    auto auditor = std::make_unique<LazyAuditor>(
        central_->db_name(), central_->key_directory(), opts);
    client_->set_auditor(auditor.get());
    return auditor;
  }

  SelectQuery RangeQuery(int64_t lo, int64_t hi) {
    SelectQuery q;
    q.table = "items";
    q.range = KeyRange{lo, hi};
    return q;
  }

  QueryBatch LazyBatch(TrustMode mode, int64_t lo = 100) {
    QueryBatch batch;
    batch.table = "items";
    batch.trust_mode = mode;
    batch.queries.push_back(RangeQuery(lo, lo + 40));
    batch.queries.push_back(RangeQuery(lo + 400, lo + 430));
    return batch;
  }

  std::unique_ptr<CentralServer> central_;
  std::unique_ptr<EdgeServer> edge_;
  std::unique_ptr<Client> client_;
  Schema schema_;
};

TEST_F(LazyTrustTest, LazyModeWithoutAuditorIsAnError) {
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});
  auto out = client_->QueryBatched(&service, LazyBatch(TrustMode::kLazy),
                                   /*now=*/10);
  EXPECT_TRUE(out.status().IsInvalidArgument()) << out.status().ToString();
}

TEST_F(LazyTrustTest, HonestRunDrainsToZeroWithNoAlarms) {
  auto auditor = MakeAuditor();
  // Auditor and client share one (internally sharded, thread-safe) cache.
  auto cache = std::make_shared<RecoveredDigestCache>();
  client_->set_digest_cache(cache);
  auditor->set_digest_cache(cache);
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});

  constexpr int kBatches = 6;
  std::vector<Client::VerifiedBatch> lazy_outs;
  for (int i = 0; i < kBatches; ++i) {
    auto out = client_->QueryBatched(&service, LazyBatch(TrustMode::kLazy),
                                     /*now=*/10);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->deferred_queries, 2u);
    for (const Client::Verified& v : out->results) {
      EXPECT_TRUE(v.verification.ok());
      EXPECT_TRUE(v.pending_audit);
    }
    // Lazy mode pays no synchronous crypto on the issuing path.
    EXPECT_EQ(out->crypto.recovers, 0u);
    EXPECT_EQ(out->crypto.attr_hashes, 0u);
    EXPECT_EQ(out->crypto.combine_ops, 0u);
    lazy_outs.push_back(std::move(*out));
  }

  auditor->Drain();

  // Certified control after the drain: lazy answers must be the same
  // rows a synchronous verification would have delivered. (After, not
  // before — a prior certified run would warm the shared digest cache
  // and the audits below would do zero fresh recoveries.)
  QueryBatch certified = LazyBatch(TrustMode::kCertified);
  auto control = client_->QueryBatched(&service, certified, /*now=*/10);
  ASSERT_TRUE(control.ok());
  for (const Client::VerifiedBatch& lazy : lazy_outs) {
    for (size_t s = 0; s < lazy.results.size(); ++s) {
      const auto& v = lazy.results[s];
      ASSERT_EQ(v.rows.size(), control->results[s].rows.size());
      for (size_t row = 0; row < v.rows.size(); ++row) {
        EXPECT_EQ(v.rows[row].key, control->results[s].rows[row].key);
      }
    }
  }
  LazyAuditor::Stats stats = auditor->stats();
  EXPECT_EQ(stats.tickets_enqueued, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.tickets_audited, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.queries_enqueued, static_cast<uint64_t>(2 * kBatches));
  EXPECT_EQ(stats.queries_audited, static_cast<uint64_t>(2 * kBatches));
  EXPECT_EQ(stats.alarms, 0u);
  EXPECT_EQ(auditor->backlog(), 0u);
  EXPECT_TRUE(auditor->TakeAlarms().empty());
  // The deferred audits performed the certified check's crypto work.
  EXPECT_GT(stats.crypto.recovers, 0u);
  // Audited answers define the lazy watermark.
  EXPECT_EQ(auditor->audited_watermark("items"),
            edge_->TableVersion("items"));
  // The request wire told the edge this was lazy traffic.
  EXPECT_EQ(service.stats().lazy_queries, static_cast<uint64_t>(2 * kBatches));
}

TEST_F(LazyTrustTest, DeferredAuditsDoTheCertifiedCryptoWork) {
  // Neither side is handed a cache: the lazy client's auditor and the
  // certified client each verify through the one they are built with.
  auto auditor = MakeAuditor();
  Client certified(central_->db_name(), central_->key_directory());
  certified.RegisterTable("items", schema_);
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});

  // One seeded sequence with a small hot set, so later batches re-present
  // signatures earlier ones already recovered.
  Rng rng(2024);
  CryptoCounters certified_crypto;
  constexpr int kBatches = 24;
  for (int i = 0; i < kBatches; ++i) {
    const int64_t lo =
        100 + 20 * static_cast<int64_t>(rng.Uniform(rng.OneIn(2) ? 3 : 24));
    auto lazy = client_->QueryBatched(
        &service, LazyBatch(TrustMode::kLazy, lo), /*now=*/10);
    auto cert = certified.QueryBatched(
        &service, LazyBatch(TrustMode::kCertified, lo), /*now=*/10);
    ASSERT_TRUE(lazy.ok()) << lazy.status().ToString();
    ASSERT_TRUE(cert.ok()) << cert.status().ToString();
    for (const Client::Verified& v : cert->results) {
      ASSERT_TRUE(v.verification.ok()) << v.verification.ToString();
    }
    certified_crypto.Add(cert->crypto);
  }
  auditor->Drain();

  // Deferral moves the certified check's schedule, never its work.
  const LazyAuditor::Stats stats = auditor->stats();
  EXPECT_EQ(stats.alarms, 0u);
  EXPECT_GT(certified_crypto.digest_cache_hits, 0u);
  const CryptoCounters& audit = stats.crypto;
  EXPECT_EQ(audit.recovers.load(), certified_crypto.recovers.load());
  EXPECT_EQ(audit.digest_cache_hits.load(),
            certified_crypto.digest_cache_hits.load());
  EXPECT_EQ(audit.digest_cache_misses.load(),
            certified_crypto.digest_cache_misses.load());
  EXPECT_EQ(audit.digest_cache_evictions.load(),
            certified_crypto.digest_cache_evictions.load());
  EXPECT_EQ(audit.attr_hashes.load(), certified_crypto.attr_hashes.load());
  EXPECT_EQ(audit.combine_ops.load(), certified_crypto.combine_ops.load());
  EXPECT_EQ(audit.signs.load(), certified_crypto.signs.load());
}

TEST_F(LazyTrustTest, WatermarkAdvancesOnlyAfterAudit) {
  LazyAuditor::Options opts;
  opts.start_paused = true;
  auto auditor = MakeAuditor(opts);
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});

  auto out = client_->QueryBatched(&service, LazyBatch(TrustMode::kLazy),
                                   /*now=*/10);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->results[0].pending_audit);
  EXPECT_FALSE(out->stale_replica);
  // Provisional delivery: nothing audited yet, watermark untouched.
  EXPECT_EQ(auditor->audited_watermark("items"), 0u);

  auditor->ResumeForTest();
  auditor->Drain();
  EXPECT_EQ(auditor->audited_watermark("items"),
            edge_->TableVersion("items"));
}

TEST_F(LazyTrustTest, StaleReplicaReplayFlaggedStaleButNeverAlarmed) {
  // A frozen edge replays answers from the pre-churn tree state. The old
  // state was honestly signed, so the deferred check *passes* — replay
  // detection is the monotone audited watermark, not an alarm.
  auto stale_edge = std::make_unique<EdgeServer>("edge-stale");
  ASSERT_TRUE(
      testutil::Publish(central_.get(), "items", stale_edge.get()).ok());

  Rng rng(9);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        central_->InsertTuple("items",
                              testutil::MakeTuple(schema_, 6000 + i, &rng))
            .ok());
  }
  ASSERT_TRUE(testutil::Publish(central_.get(), "items", edge_.get()).ok());
  ASSERT_GT(edge_->TableVersion("items"), stale_edge->TableVersion("items"));

  auto auditor = MakeAuditor();
  QueryService fresh_service(edge_.get(), QueryServiceOptions{2, 64});
  QueryService stale_service(stale_edge.get(), QueryServiceOptions{2, 64});

  auto fresh = client_->QueryBatched(&fresh_service,
                                     LazyBatch(TrustMode::kLazy), /*now=*/10);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->stale_replica);
  auditor->Drain();
  ASSERT_EQ(auditor->audited_watermark("items"),
            edge_->TableVersion("items"));

  auto replay = client_->QueryBatched(&stale_service,
                                      LazyBatch(TrustMode::kLazy), /*now=*/10);
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay->stale_replica) << "replayed replica must be flagged";
  EXPECT_TRUE(replay->results[0].stale_replica);
  EXPECT_TRUE(replay->results[0].pending_audit);

  auditor->Drain();
  EXPECT_EQ(auditor->stats().alarms, 0u);
  // The replay's audit succeeded but must not regress the watermark.
  EXPECT_EQ(auditor->audited_watermark("items"),
            edge_->TableVersion("items"));
}

TEST_F(LazyTrustTest, TamperedAnswerRaisesExactlyOneAlarmWithOffendingVO) {
  ASSERT_TRUE(
      edge_->TamperValueByKey("items", 150, 3, Value::Str("forged")).ok());
  auto auditor = MakeAuditor();
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});

  QueryBatch batch;
  batch.table = "items";
  batch.trust_mode = TrustMode::kLazy;
  batch.queries.push_back(RangeQuery(100, 200));  // covers the forged tuple
  batch.queries.push_back(RangeQuery(500, 560));  // untouched region
  auto out = client_->QueryBatched(&service, batch, /*now=*/10);
  ASSERT_TRUE(out.ok());
  // Delivery is provisional for BOTH queries: the lie is only caught by
  // the audit — that asymmetry is exactly the lazy-trust exposure.
  EXPECT_TRUE(out->results[0].verification.ok());
  EXPECT_TRUE(out->results[0].pending_audit);

  auditor->Drain();
  std::vector<LazyAuditor::Alarm> alarms = auditor->TakeAlarms();
  ASSERT_EQ(alarms.size(), 1u) << "exactly the tampered query must alarm";
  const LazyAuditor::Alarm& alarm = alarms[0];
  EXPECT_EQ(alarm.schema_table, "items");
  EXPECT_EQ(alarm.query.range.lo, 100);
  EXPECT_EQ(alarm.query.range.hi, 200);
  EXPECT_TRUE(alarm.verification.IsVerificationFailure())
      << alarm.verification.ToString();
  EXPECT_FALSE(alarm.vo_bytes.empty()) << "alarm must carry the evidence VO";
  EXPECT_EQ(alarm.replica_version, edge_->TableVersion("items"));
  // A ticket containing a lie must not advance the audited watermark.
  EXPECT_EQ(auditor->audited_watermark("items"), 0u);
  // Both queries were still audited (the honest one passed silently).
  EXPECT_EQ(auditor->stats().queries_audited, 2u);
}

TEST_F(LazyTrustTest, ResponseForgeriesAlarmUnderEveryTamperMode) {
  auto auditor = MakeAuditor();
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});
  uint64_t alarms_so_far = 0;
  for (ResponseTamper mode :
       {ResponseTamper::kModifyValue, ResponseTamper::kInjectRow,
        ResponseTamper::kDropRow}) {
    edge_->set_response_tamper(mode);
    auto out = client_->QueryBatched(&service, LazyBatch(TrustMode::kLazy),
                                     /*now=*/10);
    ASSERT_TRUE(out.ok());
    auditor->Drain();
    uint64_t alarms = auditor->stats().alarms;
    EXPECT_GT(alarms, alarms_so_far)
        << "tamper mode " << static_cast<int>(mode) << " must alarm";
    alarms_so_far = alarms;
  }
  edge_->set_response_tamper(ResponseTamper::kNone);
  EXPECT_EQ(auditor->audited_watermark("items"), 0u);
}

TEST_F(LazyTrustTest, WrongShardSubstitutionAlarms) {
  // A compromised edge answers one shard's slice with another shard's
  // (honestly signed) rows and VOs. Certified mode rejects this at
  // verification time because each shard is its own digest domain
  // (DESIGN.md §7.2); the deferred audit must reject it identically.
  CentralServer::Options opts;
  opts.tree_opts.config.max_internal = 16;
  opts.tree_opts.config.max_leaf = 16;
  auto central_or = CentralServer::Create(opts);
  ASSERT_TRUE(central_or.ok());
  auto central = central_or.MoveValueUnsafe();
  Schema schema = testutil::MakeWideSchema(5);
  ASSERT_TRUE(
      central->CreateTable("t", schema, EvenSplitPoints(800, 4)).ok());
  Rng rng(4242);
  ASSERT_TRUE(
      central->LoadTable("t", testutil::MakeRows(schema, 800, &rng)).ok());
  // Mutate shard 1 after the bulk load so its replica carries a non-zero
  // version label — the audited-watermark assertions below are then
  // non-vacuous.
  ASSERT_TRUE(central->DeleteRange("t", 190, 195).ok());
  EdgeServer edge("edge-sharded");
  for (uint32_t s = 1; s <= 4; ++s) {
    ASSERT_TRUE(testutil::Publish(central.get(),
                                  PartitionMap::ShardName("t", s), &edge)
                    .ok());
  }
  ASSERT_GT(edge.TableVersion(PartitionMap::ShardName("t", 1)), 0u);

  LazyAuditor auditor(central->db_name(), central->key_directory(),
                      LazyAuditor::Options{});

  // Execute honestly against shard 1 (the range lies inside it, so the
  // scatter yields that one group), then present the response as if it
  // answered shard 2's slice.
  QueryBatch batch;
  batch.table = "t";
  SelectQuery q;
  q.table = batch.table;
  q.range = KeyRange{120, 180};
  q.NormalizeProjection();
  batch.queries.push_back(q);
  auto resp = testutil::ExecuteSoleGroup(&edge, batch);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_TRUE(resp->responses[0].status.ok());

  AuditTicket ticket;
  ticket.schema_table = PartitionMap::ShardName("t", 2);  // the substitution
  ticket.schema = schema;
  ticket.queries = batch.queries;
  ticket.resp = std::move(*resp);
  ticket.now = 10;
  ticket.issued_at = std::chrono::steady_clock::now();
  ASSERT_TRUE(auditor.Submit(std::move(ticket), TrustMode::kLazy));
  auditor.Drain();

  std::vector<LazyAuditor::Alarm> alarms = auditor.TakeAlarms();
  ASSERT_EQ(alarms.size(), 1u);
  EXPECT_TRUE(alarms[0].verification.IsVerificationFailure())
      << alarms[0].verification.ToString();
  EXPECT_EQ(alarms[0].schema_table, PartitionMap::ShardName("t", 2));
  EXPECT_EQ(auditor.audited_watermark(PartitionMap::ShardName("t", 2)), 0u);

  // Control: the same ticket under its true shard passes.
  auto resp2 = testutil::ExecuteSoleGroup(&edge, batch);
  ASSERT_TRUE(resp2.ok()) << resp2.status().ToString();
  ASSERT_TRUE(resp2->responses[0].status.ok());
  ASSERT_GT(resp2->replica_version, 0u);
  AuditTicket honest;
  honest.schema_table = PartitionMap::ShardName("t", 1);
  honest.schema = schema;
  honest.queries = batch.queries;
  honest.resp = std::move(*resp2);
  honest.now = 10;
  honest.issued_at = std::chrono::steady_clock::now();
  ASSERT_TRUE(auditor.Submit(std::move(honest), TrustMode::kLazy));
  auditor.Drain();
  EXPECT_EQ(auditor.stats().queries_audited, 2u);
  EXPECT_TRUE(auditor.TakeAlarms().empty());
  EXPECT_GT(auditor.audited_watermark(PartitionMap::ShardName("t", 1)), 0u);
}

TEST_F(LazyTrustTest, SampledModeAuditsSeededRngExactFraction) {
  LazyAuditor::Options opts;
  opts.sample_fraction = 0.5;
  opts.sample_seed = 123;
  auto auditor = MakeAuditor(opts);
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});

  constexpr int kBatches = 40;
  for (int i = 0; i < kBatches; ++i) {
    auto out = client_->QueryBatched(
        &service, LazyBatch(TrustMode::kSampled, 100 + i), /*now=*/10);
    ASSERT_TRUE(out.ok());
    EXPECT_TRUE(out->results[0].pending_audit);
  }
  auditor->Drain();

  // The audited subset is a pure function of the seed: one draw per
  // ticket, in submit order.
  Rng expected_rng(123);
  uint64_t expected_audited = 0;
  for (int i = 0; i < kBatches; ++i) {
    if (expected_rng.NextDouble() < opts.sample_fraction) expected_audited++;
  }
  LazyAuditor::Stats stats = auditor->stats();
  EXPECT_EQ(stats.tickets_enqueued, static_cast<uint64_t>(kBatches));
  EXPECT_EQ(stats.tickets_audited, expected_audited);
  EXPECT_EQ(stats.tickets_sampled_out,
            static_cast<uint64_t>(kBatches) - expected_audited);
  EXPECT_EQ(stats.alarms, 0u);
  // Sanity: a 0.5 fraction over 40 draws lands strictly between the
  // degenerate outcomes, so the test distinguishes sampling from
  // audit-all and audit-none.
  EXPECT_GT(stats.tickets_audited, 0u);
  EXPECT_LT(stats.tickets_audited, static_cast<uint64_t>(kBatches));
}

TEST_F(LazyTrustTest, BoundedQueueBackpressuresSubmitters) {
  LazyAuditor::Options opts;
  opts.queue_capacity = 1;
  opts.start_paused = true;
  auto auditor = MakeAuditor(opts);
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});

  // Fills the single queue slot (auditor paused, nothing drains).
  auto first = client_->QueryBatched(&service, LazyBatch(TrustMode::kLazy),
                                     /*now=*/10);
  ASSERT_TRUE(first.ok());

  std::atomic<bool> second_delivered{false};
  std::thread submitter([&] {
    // One Client per thread; shares the same auditor (its submission
    // side is thread-safe).
    Client other(central_->db_name(), central_->key_directory());
    other.RegisterTable("items", schema_);
    other.set_auditor(auditor.get());
    auto out = other.QueryBatched(&service, LazyBatch(TrustMode::kLazy),
                                  /*now=*/10);
    ASSERT_TRUE(out.ok());
    second_delivered = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(second_delivered.load()) << "full queue must backpressure";

  auditor->ResumeForTest();
  submitter.join();
  EXPECT_TRUE(second_delivered.load());
  auditor->Drain();
  EXPECT_EQ(auditor->stats().tickets_audited, 2u);
  EXPECT_EQ(auditor->stats().alarms, 0u);
}

}  // namespace
}  // namespace vbtree
