#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <thread>

#include "common/thread_pool.h"
#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/query_service/batch_verifier.h"
#include "edge/query_service/query_service.h"
#include "query/query_serde.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

// ---------------------------------------------------------------------------
// ThreadPool: bounded-queue semantics.
// ---------------------------------------------------------------------------

TEST(ThreadPoolTest, ExecutesSubmittedTasks) {
  ThreadPool pool(ThreadPoolOptions{4, 64, OverflowPolicy::kBlock});
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(pool.Submit([&count] { count++; }).ok());
  }
  pool.Shutdown();  // drains
  EXPECT_EQ(count.load(), 100);
  EXPECT_EQ(pool.stats().executed, 100u);
}

TEST(ThreadPoolTest, RejectPolicyShedsWhenQueueFull) {
  ThreadPool pool(ThreadPoolOptions{1, 1, OverflowPolicy::kReject});
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  // Occupy the single worker deterministically.
  ASSERT_TRUE(pool.Submit([gate] { gate.wait(); }).ok());
  // Wait until the worker has dequeued it (queue drains to 0).
  while (pool.queue_depth() > 0) std::this_thread::yield();
  // Fill the queue slot, then overflow.
  ASSERT_TRUE(pool.Submit([gate] { gate.wait(); }).ok());
  Status rejected = pool.Submit([] {});
  EXPECT_TRUE(rejected.IsResourceExhausted()) << rejected.ToString();
  EXPECT_EQ(pool.stats().rejected, 1u);
  release.set_value();
  pool.Shutdown();
  EXPECT_EQ(pool.stats().executed, 2u);
}

TEST(ThreadPoolTest, BlockPolicyThrottlesUntilSpaceFrees) {
  ThreadPool pool(ThreadPoolOptions{1, 1, OverflowPolicy::kBlock});
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  ASSERT_TRUE(pool.Submit([gate] { gate.wait(); }).ok());
  while (pool.queue_depth() > 0) std::this_thread::yield();
  ASSERT_TRUE(pool.Submit([gate] { gate.wait(); }).ok());  // fills the queue

  std::atomic<bool> third_accepted{false};
  std::thread submitter([&] {
    // Blocks until the gated tasks run and free a slot.
    ASSERT_TRUE(pool.Submit([] {}).ok());
    third_accepted = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(third_accepted.load());  // still throttled
  release.set_value();
  submitter.join();
  EXPECT_TRUE(third_accepted.load());
  pool.Shutdown();
  EXPECT_EQ(pool.stats().executed, 3u);
}

// ---------------------------------------------------------------------------
// QueryService + BatchVerifier against a full Fig. 2 topology.
// ---------------------------------------------------------------------------

class QueryServiceTest : public ::testing::Test {
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

    edge_ = std::make_unique<EdgeServer>("edge-1");
    ASSERT_TRUE(
        testutil::Publish(central_.get(), "items", edge_.get(), &net_).ok());

    client_ = std::make_unique<Client>(central_->db_name(),
                                       central_->key_directory());
    client_->RegisterTable("items", schema_);
  }

  SelectQuery RangeQuery(int64_t lo, int64_t hi) {
    SelectQuery q;
    q.table = "items";
    q.range = KeyRange{lo, hi};
    return q;
  }

  /// Heavily overlapping windows with a common projection: the workload
  /// signature interning targets — boundary, opaque-branch and
  /// projected-attribute signatures repeat across the batch's envelopes.
  QueryBatch HotRangeBatch() {
    QueryBatch batch;
    batch.table = "items";
    for (int i = 0; i < 8; ++i) {
      SelectQuery q = RangeQuery(100 + 2 * i, 140 + 2 * i);
      q.projection = {0, 2, 5};
      batch.queries.push_back(std::move(q));
    }
    return batch;
  }

  /// `q` alone, serialized as the wire request the service queues.
  std::vector<uint8_t> OneQueryRequest(const SelectQuery& q) {
    QueryBatch batch;
    batch.table = "items";
    batch.queries.push_back(q);
    ByteWriter w(256);
    SerializeQueryBatch(batch, &w);
    return w.TakeBuffer();
  }

  QueryBatch MixedBatch() {
    QueryBatch batch;
    batch.table = "items";
    batch.queries.push_back(RangeQuery(100, 160));
    SelectQuery projected = RangeQuery(140, 200);  // overlaps the first
    projected.projection = {0, 2, 5};
    batch.queries.push_back(projected);
    SelectQuery conditional = RangeQuery(0, 400);
    conditional.conditions.push_back(
        ColumnCondition{1, CompareOp::kNe, Value::Str("no-such-value")});
    batch.queries.push_back(conditional);
    batch.queries.push_back(RangeQuery(950, 999));
    return batch;
  }

  Schema schema_;
  SimulatedNetwork net_;
  std::unique_ptr<CentralServer> central_;
  std::unique_ptr<EdgeServer> edge_;
  std::unique_ptr<Client> client_;
};

TEST_F(QueryServiceTest, BatchAnswersMatchSerialExecutionRowForRow) {
  QueryBatch batch = MixedBatch();
  auto batched = testutil::ExecuteSoleGroup(edge_.get(), batch);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ASSERT_EQ(batched->responses.size(), batch.queries.size());
  EXPECT_GT(batched->stats.shared_fetch_hits, 0u)
      << "overlapping envelopes should share tuple fetches";

  for (size_t i = 0; i < batch.queries.size(); ++i) {
    QueryBatch one;
    one.table = batch.table;
    one.queries.push_back(batch.queries[i]);
    auto group = testutil::ExecuteSoleGroup(edge_.get(), one);
    ASSERT_TRUE(group.ok()) << group.status().ToString();
    const QueryResponse* serial = &group->responses[0];
    const QueryResponse& b = batched->responses[i];
    ASSERT_EQ(b.rows.size(), serial->rows.size()) << "query " << i;
    for (size_t r = 0; r < b.rows.size(); ++r) {
      EXPECT_EQ(b.rows[r].key, serial->rows[r].key);
      ASSERT_EQ(b.rows[r].values.size(), serial->rows[r].values.size());
      for (size_t v = 0; v < b.rows[r].values.size(); ++v) {
        EXPECT_EQ(b.rows[r].values[v].Compare(serial->rows[r].values[v]), 0);
      }
    }
    EXPECT_EQ(b.replica_version, serial->replica_version);
  }
}

TEST_F(QueryServiceTest, BatchedAnswersVerifyThroughService) {
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});
  BatchVerifier verifier(BatchVerifier::Options{2});
  auto out = client_->QueryBatched(&service, MixedBatch(), /*now=*/10,
                                   &verifier, &net_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->results.size(), 4u);
  for (size_t i = 0; i < out->results.size(); ++i) {
    EXPECT_TRUE(out->results[i].verification.ok())
        << "query " << i << ": " << out->results[i].verification.ToString();
    EXPECT_GT(out->results[i].rows.size(), 0u);
    EXPECT_GT(out->results[i].counters.attr_hashes, 0u);
  }
  EXPECT_FALSE(out->stale_replica);
  EXPECT_GT(out->stats.exec_us, 0u);
  EXPECT_GT(out->stats.total_vo_bytes, 0u);
  // Request/response traffic went over the accounted channels.
  EXPECT_GT(net_.stats("client->edge:edge-1").bytes, 0u);
  EXPECT_GT(net_.stats("edge:edge-1->client").bytes, 0u);
}

TEST_F(QueryServiceTest, SingleQuerySubmissionVerifies) {
  // A single query is a batch of one: queued, scattered over the table's
  // one-shard map, and answered as a v3 response like any batch.
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});
  const SelectQuery q = RangeQuery(10, 40);
  auto bytes = service.SubmitBatchBytes(OneQueryRequest(q)).get();
  ASSERT_TRUE(bytes.ok()) << bytes.status().ToString();
  ByteReader r((Slice(*bytes)));
  auto decoded = DeserializeShardedQueryBatchResponse(&r, schema_, {q});
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->map.epoch, 1u);
  ASSERT_EQ(decoded->groups.size(), 1u);
  EXPECT_EQ(decoded->groups[0].shard_id, 0u);
  EXPECT_EQ(decoded->groups[0].resp.responses[0].rows.size(), 31u);
  QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.batches, 1u);
  EXPECT_EQ(stats.batched_queries, 1u);
  EXPECT_GT(stats.vo_bytes_total, 0u);
}

TEST_F(QueryServiceTest, ConcurrentQueriesRaceSnapshotInstallsAndDeltas) {
  QueryService service(edge_.get(), QueryServiceOptions{4, 256});
  std::atomic<bool> stop{false};

  // Writer: churn the central table and alternately ship full snapshots
  // and deltas — both take the edge's exclusive latch mid-query-stream.
  std::thread writer([&] {
    Rng rng(7);
    int64_t key = 10000;
    int round = 0;
    while (!stop.load()) {
      ASSERT_TRUE(central_
                      ->InsertTuple("items",
                                    testutil::MakeTuple(schema_, key++, &rng))
                      .ok());
      Status shipped =
          (round++ % 2 == 0)
              ? testutil::Publish(central_.get(), "items", edge_.get())
              : testutil::PublishDelta(central_.get(), "items", edge_.get());
      ASSERT_TRUE(shipped.ok()) << shipped.ToString();
    }
  });

  // Readers: authenticated queries through the service the whole time.
  std::atomic<uint64_t> verified{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      Client client(central_->db_name(), central_->key_directory());
      client.RegisterTable("items", schema_);
      Rng rng(100 + t);
      BatchVerifier inline_verifier(BatchVerifier::Options{0});
      for (int i = 0; i < 30; ++i) {
        QueryBatch batch;
        batch.table = "items";
        for (int q = 0; q < 4; ++q) {
          int64_t lo = static_cast<int64_t>(rng.Uniform(900));
          batch.queries.push_back(RangeQuery(lo, lo + 50));
        }
        auto out = client.QueryBatched(&service, batch, /*now=*/10,
                                       &inline_verifier);
        ASSERT_TRUE(out.ok()) << out.status().ToString();
        for (const auto& v : out->results) {
          ASSERT_TRUE(v.verification.ok()) << v.verification.ToString();
          verified++;
        }
      }
    });
  }
  for (auto& r : readers) r.join();
  stop.store(true);
  writer.join();
  EXPECT_EQ(verified.load(), 3u * 30u * 4u);
  // Replica converged to some post-churn version and queries never saw a
  // torn state (every VO authenticated above).
  EXPECT_GT(edge_->TableVersion("items"), 0u);
}

TEST_F(QueryServiceTest, RejectBackpressureSurfacesToSubmitters) {
  QueryServiceOptions opts;
  opts.num_workers = 1;
  opts.queue_capacity = 1;
  opts.overflow = OverflowPolicy::kReject;
  opts.modeled_io_stall_us = 100000;  // pin the worker for 100ms
  QueryService service(edge_.get(), opts);

  std::vector<std::future<Result<std::vector<uint8_t>>>> futures;
  futures.push_back(service.SubmitBatchBytes(OneQueryRequest(RangeQuery(0, 10))));
  // Wait until the worker has dequeued the first batch (it then stalls
  // for 100ms), so the remaining submissions race only the queue slot.
  while (service.queue_depth() > 0) std::this_thread::yield();
  for (int i = 0; i < 5; ++i) {
    futures.push_back(
        service.SubmitBatchBytes(OneQueryRequest(RangeQuery(0, 10))));
  }
  size_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    Result<std::vector<uint8_t>> r = f.get();
    if (r.ok()) {
      ok++;
    } else {
      EXPECT_TRUE(r.status().IsResourceExhausted()) << r.status().ToString();
      rejected++;
    }
  }
  // One in flight + one queued are accepted; with a 100ms stall the
  // other four submissions (issued within microseconds) must overflow.
  EXPECT_EQ(ok, 2u);
  EXPECT_EQ(rejected, 4u);
  EXPECT_EQ(service.stats().rejected, rejected);
}

TEST_F(QueryServiceTest, BlockBackpressureAcceptsEverything) {
  QueryServiceOptions opts;
  opts.num_workers = 2;
  opts.queue_capacity = 2;
  opts.overflow = OverflowPolicy::kBlock;
  QueryService service(edge_.get(), opts);
  std::vector<std::future<Result<std::vector<uint8_t>>>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(
        service.SubmitBatchBytes(OneQueryRequest(RangeQuery(i * 10, i * 10 + 20))));
  }
  for (auto& f : futures) {
    Result<std::vector<uint8_t>> r = f.get();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  EXPECT_EQ(service.stats().batches, 32u);
  EXPECT_EQ(service.stats().batched_queries, 32u);
  EXPECT_EQ(service.stats().rejected, 0u);
}

TEST_F(QueryServiceTest, StoreTamperDetectedUnderBatching) {
  ASSERT_TRUE(edge_->TamperValueByKey("items", 150, 3,
                                      Value::Str("forged")).ok());
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});
  BatchVerifier verifier(BatchVerifier::Options{2});

  QueryBatch batch;
  batch.table = "items";
  batch.queries.push_back(RangeQuery(100, 200));  // covers the forged tuple
  batch.queries.push_back(RangeQuery(500, 560));  // untouched region
  auto out = client_->QueryBatched(&service, batch, /*now=*/10, &verifier,
                                   &net_);
  ASSERT_TRUE(out.ok());
  EXPECT_TRUE(out->results[0].verification.IsVerificationFailure())
      << out->results[0].verification.ToString();
  EXPECT_TRUE(out->results[1].verification.ok())
      << out->results[1].verification.ToString();
}

TEST_F(QueryServiceTest, ResponseTamperDetectedUnderBatching) {
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});
  for (ResponseTamper mode :
       {ResponseTamper::kModifyValue, ResponseTamper::kInjectRow,
        ResponseTamper::kDropRow}) {
    edge_->set_response_tamper(mode);
    auto out = client_->QueryBatched(&service, MixedBatch(), /*now=*/10,
                                     /*verifier=*/nullptr, &net_);
    ASSERT_TRUE(out.ok());
    size_t failures = 0;
    for (const auto& v : out->results) {
      if (!v.verification.ok()) failures++;
    }
    EXPECT_GT(failures, 0u) << "tamper mode " << static_cast<int>(mode);
  }
  edge_->set_response_tamper(ResponseTamper::kNone);
}

TEST_F(QueryServiceTest, BatchPreservesMonotonicReadWatermark) {
  // Second edge left at the load-time replica state.
  auto stale_edge = std::make_unique<EdgeServer>("edge-stale");
  ASSERT_TRUE(
      testutil::Publish(central_.get(), "items", stale_edge.get()).ok());

  // Advance the central table and refresh only the primary edge.
  Rng rng(9);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(
        central_->InsertTuple("items",
                              testutil::MakeTuple(schema_, 5000 + i, &rng))
            .ok());
  }
  ASSERT_TRUE(testutil::Publish(central_.get(), "items", edge_.get()).ok());
  ASSERT_GT(edge_->TableVersion("items"), stale_edge->TableVersion("items"));

  QueryService fresh_service(edge_.get(), QueryServiceOptions{2, 64});
  QueryService stale_service(stale_edge.get(), QueryServiceOptions{2, 64});

  QueryBatch batch;
  batch.table = "items";
  batch.queries.push_back(RangeQuery(10, 60));

  auto fresh = client_->QueryBatched(&fresh_service, batch, /*now=*/10);
  ASSERT_TRUE(fresh.ok());
  ASSERT_TRUE(fresh->results[0].verification.ok());
  EXPECT_FALSE(fresh->stale_replica);

  auto stale = client_->QueryBatched(&stale_service, batch, /*now=*/10);
  ASSERT_TRUE(stale.ok());
  ASSERT_TRUE(stale->results[0].verification.ok());
  EXPECT_TRUE(stale->stale_replica) << "older replica must be flagged";
  EXPECT_TRUE(stale->results[0].stale_replica);
  EXPECT_LT(stale->replica_version, fresh->replica_version);
}

TEST_F(QueryServiceTest, BatchVerifierMatchesSerialVerifierOutcomes) {
  QueryBatch batch = MixedBatch();
  // Normalize as the client would: jobs reference normalized queries.
  for (SelectQuery& q : batch.queries) q.NormalizeProjection();
  auto resp = testutil::ExecuteSoleGroup(edge_.get(), batch);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();

  DigestSchema ds(central_->db_name(), "items", schema_,
                  HashAlgorithm::kSha256, 128);
  auto rec = central_->key_directory()->RecovererFor(1, /*now=*/10);
  ASSERT_TRUE(rec.ok());

  std::vector<BatchVerifier::Job> jobs;
  for (size_t i = 0; i < batch.queries.size(); ++i) {
    jobs.push_back(BatchVerifier::Job{&batch.queries[i],
                                      &resp->responses[i].rows,
                                      &resp->responses[i].vo});
  }
  BatchVerifier parallel(BatchVerifier::Options{3});
  BatchVerifier inline_mode(BatchVerifier::Options{0});
  auto par = parallel.VerifyAll(ds, rec->get(), jobs);
  auto ser = inline_mode.VerifyAll(ds, rec->get(), jobs);
  ASSERT_EQ(par.size(), ser.size());
  for (size_t i = 0; i < par.size(); ++i) {
    EXPECT_EQ(par[i].verification.code(), ser[i].verification.code());
    EXPECT_TRUE(par[i].verification.ok());
    // Identical work on both paths: the per-job counters agree exactly.
    EXPECT_EQ(par[i].counters.attr_hashes, ser[i].counters.attr_hashes);
    EXPECT_EQ(par[i].counters.recovers, ser[i].counters.recovers);
  }
}

TEST_F(QueryServiceTest, BatchWirePathRoundTrips) {
  // Direct (service-less) wire dispatch: request bytes in, response
  // bytes out, decoding to the same answers as the parsed path.
  QueryBatch batch = MixedBatch();
  for (SelectQuery& q : batch.queries) q.NormalizeProjection();

  ByteWriter req(1 << 10);
  SerializeQueryBatch(batch, &req);
  auto resp_bytes = edge_->HandleQueryBatchBytes(Slice(req.buffer()));
  ASSERT_TRUE(resp_bytes.ok()) << resp_bytes.status().ToString();

  ByteReader r((Slice(*resp_bytes)));
  auto decoded =
      DeserializeShardedQueryBatchResponse(&r, schema_, batch.queries);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(r.AtEnd());
  // An unsplit table answers under its signed one-shard map.
  EXPECT_EQ(decoded->map.table, "items");
  ASSERT_EQ(decoded->map.shards.size(), 1u);
  ASSERT_EQ(decoded->groups.size(), 1u);
  const QueryBatchResponse* wire = &decoded->groups[0].resp;
  auto direct = testutil::ExecuteSoleGroup(edge_.get(), batch);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  ASSERT_EQ(wire->responses.size(), direct->responses.size());
  EXPECT_EQ(wire->replica_version, direct->replica_version);
  EXPECT_EQ(wire->stats.queue_wait_us, 0u);  // direct path: never queued
  for (size_t i = 0; i < wire->responses.size(); ++i) {
    EXPECT_EQ(wire->responses[i].rows.size(),
              direct->responses[i].rows.size());
    // Both ends account row payload identically.
    EXPECT_EQ(wire->responses[i].result_bytes,
              direct->responses[i].result_bytes);
    // Wire v2 ships pool-referencing VOs: the per-query wire footprint
    // must undercut the raw (self-contained) size the direct path reports.
    EXPECT_LT(wire->responses[i].vo_bytes, direct->responses[i].vo_bytes);
  }
  EXPECT_EQ(wire->stats.total_result_bytes, direct->stats.total_result_bytes);
  // The raw total survives the trailer; the actual wire cost (pool +
  // pooled skeletons) is measured while parsing. MixedBatch shares little
  // (mostly singleton signatures), so the pool only has to stay within
  // its small constant framing overhead here — the shrink is asserted on
  // the overlapping workload below.
  EXPECT_EQ(wire->stats.total_vo_bytes, direct->stats.total_vo_bytes);
  EXPECT_GT(wire->stats.vo_wire_bytes, 0u);
  EXPECT_LT(wire->stats.vo_wire_bytes, wire->stats.total_vo_bytes * 12 / 10);
  EXPECT_GT(wire->stats.sig_pool_entries, 0u);
}

TEST_F(QueryServiceTest, PooledWireCutsVOBytesOnOverlappingRanges) {
  QueryBatch batch = HotRangeBatch();
  for (SelectQuery& q : batch.queries) q.NormalizeProjection();
  auto resp = testutil::ExecuteSoleGroup(edge_.get(), batch);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();

  ByteWriter w(1 << 12);
  SerializeQueryBatchResponse(*resp, &w);
  ByteReader r((Slice(w.buffer())));
  auto wire = DeserializeQueryBatchResponse(&r, schema_, batch.queries);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();

  // The acceptance bar of the interning change: ≥30% fewer VO bytes on
  // the wire than the raw per-query encoding on an overlapping workload.
  ASSERT_GT(wire->stats.total_vo_bytes, 0u);
  EXPECT_LE(wire->stats.vo_wire_bytes * 10, wire->stats.total_vo_bytes * 7)
      << "pooled " << wire->stats.vo_wire_bytes << " vs raw "
      << wire->stats.total_vo_bytes;

  // And the answers still authenticate.
  DigestSchema ds(central_->db_name(), "items", schema_,
                  HashAlgorithm::kSha256, 128);
  auto rec = central_->key_directory()->RecovererFor(1, /*now=*/10);
  ASSERT_TRUE(rec.ok());
  BatchVerifier inline_verifier(BatchVerifier::Options{0});
  for (size_t i = 0; i < wire->responses.size(); ++i) {
    BatchVerifier::Job job{&batch.queries[i], &wire->responses[i].rows,
                           &wire->responses[i].vo};
    auto outcome = inline_verifier.VerifyAll(ds, rec->get(), {&job, 1});
    EXPECT_TRUE(outcome[0].verification.ok())
        << "query " << i << ": " << outcome[0].verification.ToString();
  }
}

TEST_F(QueryServiceTest, ResponseCountMismatchIsCorruptionNotOutOfBounds) {
  // An adversarial edge answering with a different response count than
  // the query count must be rejected at deserialization — positional
  // indexing downstream would otherwise run out of bounds (too many) or
  // silently truncate (too few).
  QueryBatch batch = MixedBatch();
  for (SelectQuery& q : batch.queries) q.NormalizeProjection();
  auto resp = testutil::ExecuteSoleGroup(edge_.get(), batch);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();

  // Too few: drop the last response before serializing.
  QueryBatchResponse fewer;
  fewer.replica_version = resp->replica_version;
  fewer.stats = resp->stats;
  for (size_t i = 0; i + 1 < resp->responses.size(); ++i) {
    QueryResponse qr;
    qr.status = resp->responses[i].status;
    qr.rows = resp->responses[i].rows;
    qr.vo = resp->responses[i].vo.Clone();
    fewer.responses.push_back(std::move(qr));
  }
  ByteWriter w;
  SerializeQueryBatchResponse(fewer, &w);
  ByteReader r((Slice(w.buffer())));
  auto out = DeserializeQueryBatchResponse(&r, schema_, batch.queries);
  ASSERT_FALSE(out.ok());
  EXPECT_TRUE(out.status().IsCorruption()) << out.status().ToString();

  // Too many: deserialize against a shorter query list.
  std::vector<SelectQuery> shorter(batch.queries.begin(),
                                   batch.queries.end() - 1);
  ByteWriter w2;
  SerializeQueryBatchResponse(*resp, &w2);
  ByteReader r2((Slice(w2.buffer())));
  auto out2 = DeserializeQueryBatchResponse(&r2, schema_, shorter);
  ASSERT_FALSE(out2.ok());
  EXPECT_TRUE(out2.status().IsCorruption()) << out2.status().ToString();
}

TEST_F(QueryServiceTest, BatchWithOneInvalidQueryStillAuthenticatesRest) {
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});
  QueryBatch batch;
  batch.table = "items";
  batch.queries.push_back(RangeQuery(100, 160));
  batch.queries.push_back(RangeQuery(60, 20));  // empty range: invalid
  SelectQuery bad_condition = RangeQuery(200, 260);
  bad_condition.conditions.push_back(
      ColumnCondition{99, CompareOp::kEq, Value::Int(1)});  // no such column
  batch.queries.push_back(bad_condition);
  batch.queries.push_back(RangeQuery(300, 360));

  auto out = client_->QueryBatched(&service, batch, /*now=*/10,
                                   /*verifier=*/nullptr, &net_);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->results.size(), 4u);
  EXPECT_TRUE(out->results[0].verification.ok())
      << out->results[0].verification.ToString();
  EXPECT_EQ(out->results[1].verification.code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(out->results[1].rows.empty());
  EXPECT_EQ(out->results[2].verification.code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(out->results[3].verification.ok())
      << out->results[3].verification.ToString();
  EXPECT_GT(out->results[0].rows.size(), 0u);
  EXPECT_GT(out->results[3].rows.size(), 0u);
}

TEST_F(QueryServiceTest, EveryAnswerWalksTheTreeAtTheCurrentVersion) {
  // Overlapping staircase (step = span / 2): consecutive queries share
  // tuples, so every walk has batch fetch-memo hits to report.
  QueryBatch batch;
  batch.table = "items";
  for (int i = 0; i < 8; ++i) {
    batch.queries.push_back(RangeQuery(200 + 10 * i, 220 + 10 * i));
  }

  // The edge keeps no answer cache: a repeated batch does the same tree
  // work, so its fetch counters never read as a dead memo.
  auto first = edge_->HandleQueryBatch(batch);
  auto second = edge_->HandleQueryBatch(batch);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(first->stats.tuple_fetches, 0u);
  EXPECT_GT(first->stats.shared_fetch_hits, 0u);
  EXPECT_EQ(second->stats.tuple_fetches, first->stats.tuple_fetches);
  EXPECT_EQ(second->stats.shared_fetch_hits, first->stats.shared_fetch_hits);

  // End to end, a repeated batch gets identical, authenticated answers.
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});
  auto a = client_->QueryBatched(&service, batch, /*now=*/10);
  auto b = client_->QueryBatched(&service, batch, /*now=*/10);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ASSERT_EQ(a->results.size(), batch.queries.size());
  ASSERT_EQ(b->results.size(), batch.queries.size());
  for (size_t i = 0; i < batch.queries.size(); ++i) {
    ASSERT_TRUE(a->results[i].verification.ok())
        << a->results[i].verification.ToString();
    ASSERT_TRUE(b->results[i].verification.ok())
        << b->results[i].verification.ToString();
    ASSERT_EQ(b->results[i].rows.size(), a->results[i].rows.size());
    for (size_t r = 0; r < a->results[i].rows.size(); ++r) {
      EXPECT_EQ(b->results[i].rows[r].key, a->results[i].rows[r].key);
      EXPECT_EQ(b->results[i].rows[r].values, a->results[i].rows[r].values);
    }
    EXPECT_EQ(b->results[i].vo_bytes, a->results[i].vo_bytes);
  }

  // After a delta install, and again after a snapshot install, the next
  // answer is built at — and labeled with — the replica's new version.
  Rng rng(21);
  ASSERT_TRUE(
      central_->InsertTuple("items", testutil::MakeTuple(schema_, 7000, &rng))
          .ok());
  ASSERT_TRUE(
      testutil::PublishDelta(central_.get(), "items", edge_.get()).ok());
  auto after_delta = client_->QueryBatched(&service, batch, /*now=*/10);
  ASSERT_TRUE(after_delta.ok()) << after_delta.status().ToString();
  EXPECT_EQ(after_delta->replica_version, edge_->TableVersion("items"));
  EXPECT_GT(after_delta->replica_version, a->replica_version);
  for (const auto& v : after_delta->results) {
    EXPECT_TRUE(v.verification.ok()) << v.verification.ToString();
  }

  ASSERT_TRUE(testutil::Publish(central_.get(), "items", edge_.get()).ok());
  auto after_snapshot = client_->QueryBatched(&service, batch, /*now=*/10);
  ASSERT_TRUE(after_snapshot.ok()) << after_snapshot.status().ToString();
  EXPECT_EQ(after_snapshot->replica_version, edge_->TableVersion("items"));
  for (const auto& v : after_snapshot->results) {
    EXPECT_TRUE(v.verification.ok()) << v.verification.ToString();
  }
}

TEST_F(QueryServiceTest, EveryShardGroupWalksTheTreeWithALiveFetchMemo) {
  // A 4-shard table beside the fixture's unsplit one. The overlapping
  // staircase straddles the boundary at 250, so both groups it touches
  // hold several overlapping slices.
  ASSERT_TRUE(central_->CreateTable("orders", schema_, {250, 500, 750}).ok());
  Rng rng(43);
  ASSERT_TRUE(
      central_->LoadTable("orders", testutil::MakeRows(schema_, 1000, &rng))
          .ok());
  for (const std::string& shard : central_->ShardNames()) {
    if (shard.rfind("orders#", 0) != 0) continue;
    ASSERT_TRUE(testutil::Publish(central_.get(), shard, edge_.get()).ok());
  }
  QueryBatch batch;
  batch.table = "orders";
  for (int i = 0; i < 8; ++i) {
    SelectQuery q = RangeQuery(200 + 10 * i, 220 + 10 * i);
    q.table = "orders";
    batch.queries.push_back(std::move(q));
  }

  auto first = edge_->HandleQueryBatch(batch);
  auto second = edge_->HandleQueryBatch(batch);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_EQ(first->groups.size(), 2u);
  ASSERT_EQ(second->groups.size(), first->groups.size());
  for (size_t g = 0; g < first->groups.size(); ++g) {
    const BatchExecStats& a = first->groups[g].resp.stats;
    const BatchExecStats& b = second->groups[g].resp.stats;
    EXPECT_GT(first->groups[g].resp.responses.size(), 1u) << "group " << g;
    EXPECT_GT(a.tuple_fetches, 0u) << "group " << g;
    EXPECT_GT(a.shared_fetch_hits, 0u) << "group " << g;
    EXPECT_EQ(b.tuple_fetches, a.tuple_fetches) << "group " << g;
    EXPECT_EQ(b.shared_fetch_hits, a.shared_fetch_hits) << "group " << g;
  }

  Client client(central_->db_name(), central_->key_directory());
  client.RegisterTable("orders", schema_);
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});
  auto out = client.QueryBatched(&service, batch, /*now=*/10);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  for (const auto& v : out->results) {
    EXPECT_TRUE(v.verification.ok()) << v.verification.ToString();
  }
}

TEST_F(QueryServiceTest, TamperedPooledSignatureStillDetected) {
  // Flip one byte inside the serialized v2 signature pool: the response
  // must either fail to parse or fail verification — never authenticate.
  QueryBatch batch = MixedBatch();
  for (SelectQuery& q : batch.queries) q.NormalizeProjection();
  auto resp = testutil::ExecuteSoleGroup(edge_.get(), batch);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();

  ByteWriter w(1 << 12);
  SerializeQueryBatchResponse(*resp, &w);
  std::vector<uint8_t> honest = w.TakeBuffer();

  DigestSchema ds(central_->db_name(), "items", schema_,
                  HashAlgorithm::kSha256, 128);
  auto rec = central_->key_directory()->RecovererFor(1, /*now=*/10);
  ASSERT_TRUE(rec.ok());

  // The pool begins right after the version byte (1), replica version
  // (8) and the response-count varint; its entries are the signature
  // bytes themselves, so flipping anywhere inside the first entries hits
  // pooled signature material shared across the batch's VOs.
  Rng rng(31337);
  int rejected = 0;
  for (int trial = 0; trial < 32; ++trial) {
    std::vector<uint8_t> bytes = honest;
    size_t pos = 12 + rng.Uniform(64);  // inside the pool region
    ASSERT_LT(pos, bytes.size());
    bytes[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    ByteReader r((Slice(bytes)));
    auto out = DeserializeQueryBatchResponse(&r, schema_, batch.queries);
    if (!out.ok()) {
      rejected++;
      continue;
    }
    bool any_failed = false;
    BatchVerifier inline_verifier(BatchVerifier::Options{0});
    for (size_t i = 0; i < out->responses.size(); ++i) {
      BatchVerifier::Job job{&batch.queries[i], &out->responses[i].rows,
                             &out->responses[i].vo};
      auto outcome = inline_verifier.VerifyAll(ds, rec->get(), {&job, 1});
      if (!outcome[0].verification.ok()) any_failed = true;
    }
    if (any_failed) rejected++;
  }
  EXPECT_EQ(rejected, 32) << "a flipped pooled signature authenticated";
}

TEST_F(QueryServiceTest, BatchRejectsMixedTables) {
  QueryBatch batch;
  batch.table = "items";
  SelectQuery q = RangeQuery(0, 10);
  q.table = "other_table";
  batch.queries.push_back(q);
  auto resp = edge_->HandleQueryBatch(batch);
  EXPECT_FALSE(resp.ok());
  EXPECT_EQ(resp.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace vbtree
