// Chaos suite for the fault-injecting transport + edge quarantine +
// verified failover stack: Zipf traffic over a lossy network with one
// lying edge in the fleet. Pins the robustness contract end to end —
// (a) zero unverified rows are ever delivered, and no answer from the
// caught-lying edge is ever returned; (b) the liar is quarantined by
// the director (synchronously under certified trust, within a bounded
// number of alarms under lazy trust, with its queued tickets
// expedited); (c) throughput recovers after quarantine; (d) degraded
// answers — stale floor or central fallback — are always explicitly
// flagged; (e) failover never regresses the monotonic-read watermark
// silently and never serves a mixed-replica-version batch; (f) a
// black-holed edge is quarantined and re-admitted through probation
// once the network heals.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/propagation/fault_transport.h"
#include "edge/propagation/transport.h"
#include "edge/query_service/edge_director.h"
#include "edge/query_service/lazy_auditor.h"
#include "edge/query_service/query_service.h"
#include "query/trust.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

// Central + a small fleet of published edges behind QueryServices, a
// fault-injecting transport over the in-process one, and a director.
class ChaosFailoverTest : public ::testing::Test {
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
    // One post-load mutation so replicas carry a non-zero version label.
    ASSERT_TRUE(
        central_->InsertTuple("items", testutil::MakeTuple(schema_, 5000, &rng))
            .ok());

    net_ = std::make_unique<FaultInjectingTransport>(&inner_,
                                                     /*seed=*/0xC0FFEE);
    client_ = std::make_unique<Client>(central_->db_name(),
                                       central_->key_directory());
    client_->RegisterTable("items", schema_);
  }

  // Publishes a fresh edge + service and registers it with `director`.
  QueryService* AddEdge(EdgeDirector* director, const std::string& name) {
    auto edge = std::make_unique<EdgeServer>(name);
    EXPECT_TRUE(testutil::Publish(central_.get(), "items", edge.get()).ok());
    auto service =
        std::make_unique<QueryService>(edge.get(), QueryServiceOptions{2, 64});
    QueryService* raw = service.get();
    if (director != nullptr) director->AddEdge(raw);
    edges_.push_back(std::move(edge));
    services_.push_back(std::move(service));
    return raw;
  }

  EdgeServer* EdgeNamed(const std::string& name) {
    for (auto& e : edges_) {
      if (e->name() == name) return e.get();
    }
    return nullptr;
  }

  SelectQuery RangeQuery(int64_t lo, int64_t hi) {
    SelectQuery q;
    q.table = "items";
    q.range = KeyRange{lo, hi};
    return q;
  }

  QueryBatch ZipfBatch(ZipfGenerator* zipf,
                       TrustMode mode = TrustMode::kCertified) {
    QueryBatch batch;
    batch.table = "items";
    batch.trust_mode = mode;
    const int64_t lo = static_cast<int64_t>(zipf->Next());
    batch.queries.push_back(RangeQuery(lo, lo + 15));
    batch.queries.push_back(RangeQuery(lo + 20, lo + 35));
    return batch;
  }

  Schema schema_;
  std::unique_ptr<CentralServer> central_;
  std::vector<std::unique_ptr<EdgeServer>> edges_;
  std::vector<std::unique_ptr<QueryService>> services_;
  InProcessTransport inner_;
  std::unique_ptr<FaultInjectingTransport> net_;
  std::unique_ptr<Client> client_;
};

// ---------------------------------------------------------------------------
// Headline chaos run: Zipf traffic + lossy network + one lying edge,
// certified trust. Zero unverified rows, the liar never serves a
// returned answer and lands in quarantine, throughput recovers.
// ---------------------------------------------------------------------------

TEST_F(ChaosFailoverTest, CertifiedChaosDeliversOnlyVerifiedRows) {
  EdgeDirector::Options dopts;
  dopts.probation_initial_us = 10'000'000;  // liar stays out for the test
  // Loss-induced timeouts shouldn't bench the honest edges mid-run;
  // this test is about catching the liar.
  dopts.timeout_quarantine_after = 5;
  EdgeDirector director(dopts);
  AddEdge(&director, "chaos-a");
  AddEdge(&director, "chaos-b");
  AddEdge(&director, "chaos-liar");
  QueryService* central_svc = AddEdge(nullptr, "centralrep");
  EdgeNamed("chaos-liar")->set_response_tamper(ResponseTamper::kModifyValue);

  // Lossy client<->edge network for the chaos fleet only (the central
  // fallback's channels stay clean). No reorder/truncate here: request
  // /response legs are RPC-framed, so those faults read as corruption
  // and would (correctly, but noisily for this test) strike honest
  // edges too — the propagation suite covers them.
  FaultPolicy lossy;
  lossy.drop = 0.08;
  lossy.duplicate = 0.10;
  lossy.delay_us = 50;
  net_->SetPolicy("edge:chaos-", lossy);

  Client::FailoverPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_initial_us = 100;
  policy.backoff_max_us = 2'000;
  policy.central_fallback = central_svc;

  ZipfGenerator zipf(900, 0.8, /*seed=*/7);
  const int kBatches = 240;
  uint64_t rows_delivered = 0;
  uint64_t degraded = 0;
  uint64_t failovers_total = 0;
  int non_degraded_last_third = 0;

  for (int i = 0; i < kBatches; ++i) {
    auto res = client_->QueryBatched(&director, ZipfBatch(&zipf), /*now=*/10,
                                     policy, nullptr, net_.get());
    ASSERT_TRUE(res.ok()) << "batch " << i << ": " << res.status().ToString();

    // (a) Every delivered row authenticated; a caught-lying edge's
    // answer is never returned, not even partially.
    EXPECT_NE(res->served_by, "chaos-liar") << "batch " << i;
    for (const Client::Verified& v : res->results) {
      EXPECT_TRUE(v.verification.ok())
          << "batch " << i << ": " << v.verification.ToString();
      rows_delivered += v.rows.size();
      // (e) Never a mixed-replica-version batch.
      EXPECT_EQ(v.replica_version, res->replica_version) << "batch " << i;
    }
    // (d) Degradation is always explicit.
    EXPECT_EQ(res->degraded, !res->degraded_mode.empty()) << "batch " << i;
    if (res->degraded) {
      EXPECT_EQ(res->degraded_mode, "central") << "batch " << i;
      degraded++;
    } else if (i >= 2 * kBatches / 3) {
      non_degraded_last_third++;
    }
    failovers_total += res->failovers;
  }

  EXPECT_GT(rows_delivered, 0u);
  EXPECT_GT(failovers_total, 0u);

  // (b) The liar was caught on its first served batch and quarantined.
  EXPECT_EQ(director.health("chaos-liar"), EdgeHealth::kQuarantined);
  EdgeDirector::Stats dstats = director.stats();
  EXPECT_GE(dstats.verify_failures, 1u);
  EXPECT_GE(dstats.quarantines, 1u);

  // (c) Throughput recovered: with the liar out of rotation the final
  // third of the run is overwhelmingly served fresh by honest edges
  // (drops may still push a handful to the explicit central fallback).
  EXPECT_GE(non_degraded_last_third, (kBatches / 3) * 3 / 4);

  // The transport really did inject faults.
  FaultInjectingTransport::InjectionCounters inj = net_->injection_counters();
  EXPECT_GT(inj.dropped, 0u);
  EXPECT_GT(inj.duplicated, 0u);
  EXPECT_GT(inj.delivered, 0u);
}

// ---------------------------------------------------------------------------
// Lazy trust: alarms (not synchronous failures) drive quarantine, the
// liar lands in quarantine within a bounded number of alarms, and its
// still-queued tickets are expedited.
// ---------------------------------------------------------------------------

TEST_F(ChaosFailoverTest, LazyAlarmsQuarantineLiarAndExpediteItsTickets) {
  EdgeDirector::Options dopts;
  dopts.alarm_quarantine_after = 2;
  dopts.probation_initial_us = 10'000'000;
  EdgeDirector director(dopts);
  QueryService* liar_svc = AddEdge(&director, "liar");
  AddEdge(&director, "honest");
  EdgeNamed("liar")->set_response_tamper(ResponseTamper::kModifyValue);

  LazyAuditor::Options aopts;
  aopts.start_paused = true;
  LazyAuditor auditor(central_->key_directory(), aopts);
  client_->set_auditor(&auditor);
  director.WireAlarms(&auditor);

  // Four provisional batches against the liar queue four tickets. The
  // tampered rows are delivered provisionally (that is the lazy-trust
  // exposure window) — the audit must then catch every one.
  for (int i = 0; i < 4; ++i) {
    QueryBatch batch;
    batch.table = "items";
    batch.trust_mode = TrustMode::kLazy;
    batch.queries.push_back(RangeQuery(100 + 10 * i, 130 + 10 * i));
    auto res = client_->QueryBatched(liar_svc, batch, /*now=*/10);
    ASSERT_TRUE(res.ok());
    ASSERT_EQ(res->deferred_queries, 1u);
  }
  EXPECT_EQ(director.health("liar"), EdgeHealth::kHealthy);  // not yet audited

  auditor.ResumeForTest();
  auditor.Drain();

  // Bounded detection: quarantined after alarm_quarantine_after alarms,
  // with the rest of its queue expedited at quarantine time.
  EXPECT_EQ(director.health("liar"), EdgeHealth::kQuarantined);
  EXPECT_GE(auditor.alarm_count(), 2u);
  EdgeDirector::Stats dstats = director.stats();
  EXPECT_GE(dstats.alarms, 2u);
  EXPECT_EQ(dstats.quarantines, 1u);
  EXPECT_GE(dstats.expedited_tickets, 1u);
  for (const LazyAuditor::Alarm& a : auditor.TakeAlarms()) {
    EXPECT_EQ(a.source, "liar");
  }

  // The honest edge still serves verified answers through failover.
  Client::FailoverPolicy policy;
  QueryBatch batch;
  batch.table = "items";
  batch.queries.push_back(RangeQuery(200, 240));
  auto res =
      client_->QueryBatched(&director, batch, /*now=*/10, policy, nullptr);
  ASSERT_TRUE(res.ok());
  EXPECT_EQ(res->served_by, "honest");
  for (const Client::Verified& v : res->results) {
    EXPECT_TRUE(v.verification.ok());
  }
}

// ---------------------------------------------------------------------------
// Degraded answers are explicit, never silent.
// ---------------------------------------------------------------------------

TEST_F(ChaosFailoverTest, StaleFloorAnswerIsFlaggedNotSilent) {
  EdgeDirector director;
  // Publish the stale edge at the current version, then advance central
  // and publish the fresh one.
  QueryService* stale_svc = AddEdge(&director, "stale");
  Rng rng(7);
  ASSERT_TRUE(
      central_->InsertTuple("items", testutil::MakeTuple(schema_, 6000, &rng))
          .ok());
  AddEdge(&director, "fresh");
  const uint64_t fresh_version = EdgeNamed("fresh")->TableVersion("items");
  ASSERT_GT(fresh_version, EdgeNamed("stale")->TableVersion("items"));

  // The fresh edge's network goes dark; the stale edge is reachable but
  // below the freshness floor.
  net_->PartitionOnce("edge:fresh", 1'000'000);

  Client::FailoverPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_initial_us = 0;
  policy.min_fresh_version = fresh_version;

  QueryBatch batch;
  batch.table = "items";
  batch.queries.push_back(RangeQuery(50, 90));
  auto res = client_->QueryBatched(&director, batch, /*now=*/10, policy,
                                   nullptr, net_.get());
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->degraded);
  EXPECT_EQ(res->degraded_mode, "stale_floor");
  EXPECT_TRUE(res->stale_replica);
  EXPECT_EQ(res->served_by, "stale");
  EXPECT_LT(res->replica_version, fresh_version);
  for (const Client::Verified& v : res->results) {
    EXPECT_TRUE(v.verification.ok());  // degraded but still authenticated
    EXPECT_TRUE(v.stale_replica);
  }
  (void)stale_svc;
}

TEST_F(ChaosFailoverTest, CentralFallbackIsFlaggedWhenFleetIsDark) {
  EdgeDirector director;
  AddEdge(&director, "dark-a");
  AddEdge(&director, "dark-b");
  QueryService* central_svc = AddEdge(nullptr, "centralrep");

  net_->PartitionOnce("edge:dark-", 1'000'000);

  Client::FailoverPolicy policy;
  policy.max_attempts = 4;
  policy.backoff_initial_us = 0;
  policy.central_fallback = central_svc;

  QueryBatch batch;
  batch.table = "items";
  batch.queries.push_back(RangeQuery(300, 340));
  auto res = client_->QueryBatched(&director, batch, /*now=*/10, policy,
                                   nullptr, net_.get());
  ASSERT_TRUE(res.ok());
  EXPECT_TRUE(res->degraded);
  EXPECT_EQ(res->degraded_mode, "central");
  EXPECT_EQ(res->served_by, "centralrep");
  for (const Client::Verified& v : res->results) {
    EXPECT_TRUE(v.verification.ok());
  }
  EXPECT_GE(director.stats().timeouts, 2u);

  // Without the fallback the same dark fleet surfaces a hard error —
  // never a silent empty answer.
  policy.central_fallback = nullptr;
  auto dark = client_->QueryBatched(&director, batch, /*now=*/10, policy,
                                    nullptr, net_.get());
  EXPECT_FALSE(dark.ok());
}

// ---------------------------------------------------------------------------
// Monotonic reads across failover: an answer from a replica behind the
// client's watermark is delivered flagged stale, and the watermark
// itself never regresses.
// ---------------------------------------------------------------------------

TEST_F(ChaosFailoverTest, FailoverToOlderReplicaIsFlaggedStale) {
  EdgeDirector director;
  AddEdge(&director, "fresh");  // registered first: first in rotation
  // Snapshot "stale" at the current version, then advance central and
  // refresh only "fresh".
  QueryService* stale_svc = AddEdge(&director, "stale");
  Rng rng(9);
  ASSERT_TRUE(
      central_->InsertTuple("items", testutil::MakeTuple(schema_, 7000, &rng))
          .ok());
  ASSERT_TRUE(testutil::Publish(central_.get(), "items", EdgeNamed("fresh"))
                  .ok());
  ASSERT_GT(EdgeNamed("fresh")->TableVersion("items"),
            EdgeNamed("stale")->TableVersion("items"));

  Client::FailoverPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_initial_us = 0;

  QueryBatch batch;
  batch.table = "items";
  batch.queries.push_back(RangeQuery(400, 440));

  // First batch lands on "fresh" and advances the watermark.
  auto first = client_->QueryBatched(&director, batch, /*now=*/10, policy,
                                     nullptr, net_.get());
  ASSERT_TRUE(first.ok());
  ASSERT_EQ(first->served_by, "fresh");
  EXPECT_FALSE(first->stale_replica);
  const uint64_t watermark = first->replica_version;

  // "fresh" goes dark; failover serves the older replica — verified,
  // but flagged against the watermark rather than silently regressing.
  net_->PartitionOnce("edge:fresh", 1'000'000);

  auto second = client_->QueryBatched(&director, batch, /*now=*/10, policy,
                                      nullptr, net_.get());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->served_by, "stale");
  EXPECT_TRUE(second->stale_replica);
  EXPECT_LT(second->replica_version, watermark);
  for (const Client::Verified& v : second->results) {
    EXPECT_TRUE(v.verification.ok());
    EXPECT_TRUE(v.stale_replica);
    EXPECT_EQ(v.replica_version, second->replica_version);
  }
  (void)stale_svc;
}

// ---------------------------------------------------------------------------
// Black-holed edge: quarantined after consecutive timeouts, then
// re-admitted through a probe once the network heals.
// ---------------------------------------------------------------------------

TEST_F(ChaosFailoverTest, BlackHoledEdgeIsQuarantinedThenReadmittedOnHeal) {
  EdgeDirector::Options dopts;
  dopts.timeout_quarantine_after = 2;
  dopts.probation_initial_us = 2'000;  // 2ms: probes quickly in-test
  EdgeDirector director(dopts);
  AddEdge(&director, "flaky");
  AddEdge(&director, "steady");

  net_->PartitionOnce("edge:flaky", 1'000'000);

  Client::FailoverPolicy policy;
  policy.max_attempts = 3;
  policy.backoff_initial_us = 0;

  QueryBatch batch;
  batch.table = "items";
  batch.queries.push_back(RangeQuery(500, 540));

  // Every batch that tries "flaky" takes an IOError and fails over to
  // "steady"; two strikes quarantine it.
  for (int i = 0; i < 6 && director.health("flaky") != EdgeHealth::kQuarantined;
       ++i) {
    auto res = client_->QueryBatched(&director, batch, /*now=*/10, policy,
                                     nullptr, net_.get());
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res->served_by, "steady");
  }
  EXPECT_EQ(director.health("flaky"), EdgeHealth::kQuarantined);
  EXPECT_GE(director.stats().quarantines, 1u);

  // Network heals; after the probation window the director hands
  // "flaky" out as a probe, the verified answer re-admits it.
  net_->Heal();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  bool readmitted = false;
  for (int i = 0; i < 20 && !readmitted; ++i) {
    auto res = client_->QueryBatched(&director, batch, /*now=*/10, policy,
                                     nullptr, net_.get());
    ASSERT_TRUE(res.ok());
    for (const Client::Verified& v : res->results) {
      ASSERT_TRUE(v.verification.ok());
    }
    readmitted = director.health("flaky") == EdgeHealth::kHealthy;
    if (!readmitted) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_TRUE(readmitted);
  EXPECT_GE(director.stats().probes, 1u);
  EXPECT_GE(director.stats().readmissions, 1u);
}

}  // namespace
}  // namespace vbtree
