#ifndef VBTREE_TESTS_TESTUTIL_H_
#define VBTREE_TESTS_TESTUTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "common/random.h"
#include "crypto/sim_signer.h"
#include "edge/central_server.h"
#include "edge/edge_server.h"
#include "edge/propagation/fault_transport.h"
#include "edge/propagation/transport.h"
#include "query/executor.h"
#include "storage/buffer_pool.h"
#include "storage/disk_manager.h"
#include "storage/table_heap.h"
#include "vbtree/vb_tree.h"
#include "vbtree/verifier.h"

namespace vbtree {
namespace testutil {

/// Schema with an INT64 key column plus (ncols-1) string attributes —
/// the paper's 10-attribute/200-byte-tuple workload shape.
inline Schema MakeWideSchema(size_t ncols) {
  std::vector<Column> cols;
  cols.emplace_back("id", TypeId::kInt64);
  for (size_t i = 1; i < ncols; ++i) {
    cols.emplace_back("a" + std::to_string(i), TypeId::kString);
  }
  return Schema(std::move(cols));
}

inline Tuple MakeTuple(const Schema& schema, int64_t key, Rng* rng,
                       size_t attr_len = 20) {
  std::vector<Value> values;
  values.reserve(schema.num_columns());
  values.push_back(Value::Int(key));
  for (size_t c = 1; c < schema.num_columns(); ++c) {
    values.push_back(Value::Str(rng->NextString(attr_len)));
  }
  return Tuple(std::move(values));
}

/// `n` rows with keys 0, stride, 2*stride, ...
inline std::vector<Tuple> MakeRows(const Schema& schema, size_t n,
                                   Rng* rng, int64_t stride = 1,
                                   size_t attr_len = 20) {
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(MakeTuple(schema, static_cast<int64_t>(i) * stride, rng,
                             attr_len));
  }
  return rows;
}

/// A self-contained "central server in miniature" for unit tests: heap +
/// VB-tree + SimSigner + matching verifier parts.
struct TestDb {
  Schema schema;
  std::unique_ptr<InMemoryDiskManager> disk;
  std::unique_ptr<BufferPool> pool;
  std::unique_ptr<TableHeap> heap;
  std::unique_ptr<SimSigner> signer;
  std::unique_ptr<SimRecoverer> recoverer;
  std::unique_ptr<VBTree> tree;
  std::string db_name = "testdb";
  std::string table_name = "t";

  DigestSchema MakeDigestSchema() const {
    return DigestSchema(db_name, table_name, schema,
                        tree->options().hash_algo,
                        tree->options().modulus_bits);
  }

  Verifier MakeVerifier() { return Verifier(MakeDigestSchema(), recoverer.get()); }

  VBTree::TupleFetcher Fetcher() const {
    return Executor::FetcherFor(heap.get());
  }
};

/// Caller-driven snapshot shipping for tests that exercise the wire
/// codecs and replica mechanics directly. Production code propagates via
/// the DistributionHub (edge/propagation/distribution_hub.h). Like the
/// hub, it installs the signed map of the shard's table (or view) ahead
/// of the snapshot: an edge answers no query without one.
inline Status Publish(CentralServer* central, const std::string& name,
                      EdgeServer* edge, Transport* net = nullptr) {
  std::string base = name;
  uint32_t shard_id = 0;
  PartitionMap::ParseShardName(name, &base, &shard_id);
  auto map = central->TablePartitionMap(base);
  if (!map.ok()) return map.status();
  ByteWriter map_bytes(128);
  map->Serialize(&map_bytes);
  Status installed = edge->InstallPartitionMap(Slice(map_bytes.buffer()));
  if (!installed.ok()) return installed;
  auto snapshot = central->ExportTableSnapshot(name);
  if (!snapshot.ok()) return snapshot.status();
  if (net != nullptr) {
    net->Record("central->edge:" + edge->name(), snapshot->size());
  }
  return edge->InstallSnapshot(Slice(*snapshot));
}

/// Executes `batch` on `edge` and returns its sole shard group's response
/// — the v2 group codec's input, for tests whose queries all land on one
/// shard (an unsplit table, or ranges inside one shard).
inline Result<QueryBatchResponse> ExecuteSoleGroup(EdgeServer* edge,
                                                   const QueryBatch& batch) {
  auto resp = edge->HandleQueryBatch(batch);
  if (!resp.ok()) return resp.status();
  if (resp->groups.size() != 1) {
    return Status::Internal("expected one shard group, got " +
                            std::to_string(resp->groups.size()));
  }
  return std::move(resp->groups[0].resp);
}

/// Caller-driven delta shipping: serializes everything logged past the
/// edge's current replica version and applies it.
inline Status PublishDelta(CentralServer* central, const std::string& name,
                           EdgeServer* edge, Transport* net = nullptr) {
  auto batch = central->DeltaSince(name, edge->TableVersion(name));
  if (!batch.ok()) return batch.status();
  ByteWriter w(1 << 12);
  batch->Serialize(&w);
  std::vector<uint8_t> bytes = w.TakeBuffer();
  if (net != nullptr) {
    net->Record("central->edge:" + edge->name() + ":delta", bytes.size());
  }
  return edge->ApplyUpdateBatch(Slice(bytes));
}

/// Builds a TestDb holding `n` rows (keys 0..n-1 by `stride`).
inline std::unique_ptr<TestDb> MakeTestDb(size_t n, size_t ncols = 10,
                                          int max_fanout = 16,
                                          int64_t stride = 1,
                                          uint64_t seed = 42,
                                          const std::string& table_name = "t") {
  auto db = std::make_unique<TestDb>();
  db->table_name = table_name;
  db->schema = MakeWideSchema(ncols);
  db->disk = std::make_unique<InMemoryDiskManager>();
  db->pool = std::make_unique<BufferPool>(4096, db->disk.get());
  auto heap_or = TableHeap::Create(db->pool.get(), db->schema);
  if (!heap_or.ok()) return nullptr;
  db->heap = heap_or.MoveValueUnsafe();
  db->signer = std::make_unique<SimSigner>(/*key_seed=*/7);
  db->recoverer = std::make_unique<SimRecoverer>(db->signer->key_material());

  VBTreeOptions opts;
  opts.config.max_internal = max_fanout;
  opts.config.max_leaf = max_fanout;
  DigestSchema ds(db->db_name, db->table_name, db->schema, opts.hash_algo,
                  opts.modulus_bits);
  db->tree = std::make_unique<VBTree>(std::move(ds), opts, db->signer.get());

  Rng rng(seed);
  std::vector<Tuple> rows = MakeRows(db->schema, n, &rng, stride);
  std::vector<std::pair<Tuple, Rid>> pairs;
  pairs.reserve(n);
  for (Tuple& t : rows) {
    auto rid_or = db->heap->Insert(t);
    if (!rid_or.ok()) return nullptr;
    pairs.emplace_back(std::move(t), rid_or.ValueOrDie());
  }
  if (!db->tree->BulkLoad(pairs).ok()) return nullptr;
  return db;
}

/// One shared vocabulary for injecting failures: transport faults (what
/// the network does to honest messages) and response tampering (what a
/// lying edge does to honest data). The chaos and adversarial suites
/// all configure through this instead of scattering per-test knob
/// pokes.
struct FaultPlan {
  /// Transport faults, applied to channels whose name contains
  /// `channel_substr` ("" = every channel). Ignored when `policy` is
  /// all-zero or no FaultInjectingTransport is supplied.
  std::string channel_substr;
  FaultPolicy policy;
  /// The lying edge and its tamper mode (kNone = everyone honest).
  EdgeServer* liar = nullptr;
  ResponseTamper tamper = ResponseTamper::kNone;
};

inline void ApplyFaultPlan(const FaultPlan& plan,
                           FaultInjectingTransport* net = nullptr) {
  if (net != nullptr && plan.policy.any()) {
    net->SetPolicy(plan.channel_substr, plan.policy);
  }
  if (plan.liar != nullptr) plan.liar->set_response_tamper(plan.tamper);
}

/// The standard lossy-network profile (drop + duplicate + reorder +
/// truncate): one set of numbers shared by propagation_test and the
/// chaos suite, so "converges under loss" always means the same loss.
inline FaultPolicy LossyPolicy() {
  FaultPolicy p;
  p.drop = 0.25;
  p.duplicate = 0.15;
  p.reorder = 0.15;
  p.truncate = 0.05;
  return p;
}

}  // namespace testutil
}  // namespace vbtree

#endif  // VBTREE_TESTS_TESTUTIL_H_
