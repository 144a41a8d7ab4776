#include <gtest/gtest.h>

#include <optional>

#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/partition_map.h"
#include "edge/query_service/batch_verifier.h"
#include "query/query_serde.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

/// Robustness fuzzing: random byte-level corruption of every wire format
/// must never crash, and corrupted responses must never authenticate.

class WireFuzz : public ::testing::TestWithParam<int> {};

TEST_P(WireFuzz, MutatedQueryResponsesNeverVerify) {
  // Build an honest response once, then hammer it with random mutations.
  static std::unique_ptr<testutil::TestDb> db = testutil::MakeTestDb(500, 6, 8);
  ASSERT_NE(db, nullptr);

  SelectQuery q;
  q.table = db->table_name;
  q.range = KeyRange{100, 300};
  q.projection = {0, 2, 4};
  q.NormalizeProjection();
  auto out = db->tree->ExecuteSelect(q, db->Fetcher());
  ASSERT_TRUE(out.ok());

  ByteWriter w;
  SerializeResultRows(out->rows, &w);
  size_t rows_end = w.size();
  out->vo.Serialize(&w);
  std::vector<uint8_t> honest = w.TakeBuffer();

  Rng rng(4000 + GetParam());
  Verifier verifier = db->MakeVerifier();
  int parse_failures = 0, verify_failures = 0, accepted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes = honest;
    // 1-4 random byte mutations. The 4 bytes at rows_end hold the VO's
    // key_version, which the *raw* Verifier legitimately ignores (the
    // Client checks it against the key directory's validity windows) —
    // skip them here.
    size_t k = 1 + rng.Uniform(4);
    for (size_t i = 0; i < k; ++i) {
      size_t pos = rng.Uniform(bytes.size());
      if (pos >= rows_end && pos < rows_end + 4) continue;
      bytes[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    if (bytes == honest) continue;  // mutation cancelled itself out

    ByteReader r((Slice(bytes)));
    auto rows_or = DeserializeResultRows(&r, db->schema, q.projection);
    if (!rows_or.ok()) {
      parse_failures++;
      continue;
    }
    auto vo_or = VerificationObject::Deserialize(&r);
    if (!vo_or.ok() || !r.AtEnd()) {
      parse_failures++;
      continue;
    }
    Status s = verifier.VerifySelect(q, *rows_or, *vo_or);
    if (s.ok()) {
      accepted++;
    } else {
      verify_failures++;
    }
  }
  // Every mutation must be caught at parse or verification time.
  EXPECT_EQ(accepted, 0);
  EXPECT_GT(parse_failures + verify_failures, 0);
}

TEST_P(WireFuzz, MutatedTreeSnapshotsNeverCrash) {
  static std::unique_ptr<testutil::TestDb> db =
      testutil::MakeTestDb(200, 4, 8);
  ASSERT_NE(db, nullptr);
  ByteWriter w;
  db->tree->SerializeTo(&w);
  std::vector<uint8_t> honest = w.TakeBuffer();

  Rng rng(5000 + GetParam());
  for (int trial = 0; trial < 100; ++trial) {
    std::vector<uint8_t> bytes = honest;
    size_t k = 1 + rng.Uniform(8);
    for (size_t i = 0; i < k; ++i) {
      bytes[rng.Uniform(bytes.size())] ^=
          static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    // Truncate sometimes.
    if (rng.OneIn(3)) bytes.resize(rng.Uniform(bytes.size()) + 1);
    ByteReader r((Slice(bytes)));
    auto tree_or = VBTree::Deserialize(&r);
    if (tree_or.ok()) {
      // Structurally parseable: consistency checking must still work
      // without crashing (it may pass if the mutation hit only
      // signatures, which CheckDigestConsistency does not cover).
      (void)(*tree_or)->CheckDigestConsistency();
      (void)(*tree_or)->CheckStructure();
    }
  }
  SUCCEED();  // reaching here without UB/crash is the property
}

/// A 4-shard table on one edge, shared by the read-wire fuzzers below.
struct ShardedFixture {
  std::unique_ptr<CentralServer> central;
  std::unique_ptr<EdgeServer> edge;
  Schema schema = testutil::MakeWideSchema(4);
};

ShardedFixture* Sharded() {
  static std::unique_ptr<ShardedFixture> fx = [] {
    auto f = std::make_unique<ShardedFixture>();
    CentralServer::Options opts;
    opts.tree_opts.config.max_internal = 8;
    opts.tree_opts.config.max_leaf = 8;
    auto c = CentralServer::Create(opts);
    if (!c.ok()) return std::unique_ptr<ShardedFixture>();
    f->central = c.MoveValueUnsafe();
    Rng rng(1);
    if (!f->central->CreateTable("t", f->schema, EvenSplitPoints(400, 4))
             .ok() ||
        !f->central->LoadTable("t", testutil::MakeRows(f->schema, 400, &rng))
             .ok()) {
      return std::unique_ptr<ShardedFixture>();
    }
    f->edge = std::make_unique<EdgeServer>("fuzz-edge");
    for (const std::string& shard : f->central->ShardNames()) {
      if (!testutil::Publish(f->central.get(), shard, f->edge.get()).ok()) {
        return std::unique_ptr<ShardedFixture>();
      }
    }
    return f;
  }();
  return fx.get();
}

/// Normalized queries spanning one, two and all four shards.
std::vector<SelectQuery> SpanningQueries() {
  std::vector<SelectQuery> queries;
  for (KeyRange range :
       {KeyRange{10, 60}, KeyRange{180, 230}, KeyRange{50, 390}}) {
    SelectQuery q;
    q.table = "t";
    q.range = range;
    queries.push_back(q);
  }
  queries[1].projection = {0, 2};
  for (SelectQuery& q : queries) q.NormalizeProjection();
  return queries;
}

TEST_P(WireFuzz, MutatedQueryBatchesNeverCrashEdge) {
  ShardedFixture* fx = Sharded();
  ASSERT_NE(fx, nullptr);
  QueryBatch batch;
  batch.table = "t";
  batch.queries = SpanningQueries();
  batch.trust_mode = TrustMode::kLazy;
  ByteWriter w;
  SerializeQueryBatch(batch, &w);
  const std::vector<uint8_t> honest = w.TakeBuffer();
  ASSERT_TRUE(fx->edge->HandleQueryBatchBytes(Slice(honest)).ok());

  // The trailing trust-mode byte: every value past kSampled is rejected.
  for (int m = static_cast<int>(TrustMode::kSampled) + 1; m < 256; ++m) {
    std::vector<uint8_t> bytes = honest;
    bytes.back() = static_cast<uint8_t>(m);
    auto out = fx->edge->HandleQueryBatchBytes(Slice(bytes));
    ASSERT_FALSE(out.ok()) << "trust mode byte " << m;
    EXPECT_TRUE(out.status().IsCorruption()) << out.status().ToString();
  }

  Rng rng(6000 + GetParam());
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<uint8_t> bytes = honest;
    size_t k = 1 + rng.Uniform(3);
    for (size_t i = 0; i < k; ++i) {
      // One in four flips lands on the trust-mode byte.
      const size_t pos =
          rng.OneIn(4) ? bytes.size() - 1 : rng.Uniform(bytes.size());
      bytes[pos] ^= static_cast<uint8_t>(1 + rng.Uniform(255));
    }
    if (rng.OneIn(4)) bytes.resize(rng.Uniform(bytes.size()) + 1);
    // The edge must answer or reject gracefully, never crash.
    (void)fx->edge->HandleQueryBatchBytes(Slice(bytes));
  }
  SUCCEED();
}

/// Authenticates a v3 response the way the client does — decode, map
/// signature, then every shard group through BatchVerifier::VerifyGroup
/// (pool recovery, digest cache, one key version per group) under that
/// shard's digest schema — and returns each query's stitched rows, or the
/// first failure.
Result<std::vector<std::vector<ResultRow>>> Authenticate(
    ShardedFixture* fx, const std::vector<uint8_t>& bytes,
    const std::vector<SelectQuery>& queries) {
  ByteReader r{Slice(bytes)};
  VBT_ASSIGN_OR_RETURN(
      ShardedBatchDecoded decoded,
      DeserializeShardedQueryBatchResponse(&r, fx->schema, queries));
  {
    // The embedded map must also survive a standalone decode.
    ByteReader mr{Slice(decoded.map_bytes)};
    VBT_RETURN_NOT_OK(PartitionMap::Deserialize(&mr).status());
  }
  KeyDirectory* keys = fx->central->key_directory();
  VBT_ASSIGN_OR_RETURN(std::shared_ptr<Recoverer> map_rec,
                       keys->RecovererFor(decoded.map.key_version, 10));
  VBT_RETURN_NOT_OK(decoded.map.Verify(map_rec.get()));
  if (decoded.map.table != "t" ||
      decoded.map.db_name != fx->central->db_name()) {
    return Status::VerificationFailure("map bound to another table");
  }
  std::vector<std::vector<ResultRow>> rows(queries.size());
  BatchVerifier verifier(BatchVerifier::Options{0});
  RecoveredDigestCache cache;
  for (size_t g = 0; g < decoded.groups.size(); ++g) {
    const ShardScatter& planned = decoded.plan[g];
    const ShardEntry& entry = decoded.map.shards[planned.shard_index];
    const std::string shard = decoded.map.shard_name(planned.shard_index);
    std::optional<Verifier::TopBinding> binding;
    if (!entry.lineage.empty()) {
      binding = Verifier::TopBinding{shard, entry.lo, entry.hi};
    }
    BatchVerifier::Group group{
        DigestSchema(fx->central->db_name(),
                     binding ? entry.lineage : shard, fx->schema),
        binding, {}, std::move(decoded.groups[g].resp), /*now=*/10};
    for (const ShardSlice& slice : planned.slices) {
      group.queries.push_back(slice.query);
    }
    CryptoCounters crypto;
    std::vector<BatchVerifier::Outcome> outcomes =
        verifier.VerifyGroup(group, *keys, &cache, &crypto);
    for (size_t s = 0; s < planned.slices.size(); ++s) {
      VBT_RETURN_NOT_OK(outcomes[s].verification);
      const std::vector<ResultRow>& got = group.resp.responses[s].rows;
      auto& dst = rows[planned.slices[s].query_index];
      dst.insert(dst.end(), got.begin(), got.end());
    }
  }
  return rows;
}

bool SameRows(const std::vector<ResultRow>& a, const std::vector<ResultRow>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].key != b[i].key || a[i].values.size() != b[i].values.size()) {
      return false;
    }
    for (size_t v = 0; v < a[i].values.size(); ++v) {
      if (a[i].values[v].Compare(b[i].values[v]) != 0) return false;
    }
  }
  return true;
}

TEST_P(WireFuzz, MutatedShardedResponsesNeverVerify) {
  ShardedFixture* fx = Sharded();
  ASSERT_NE(fx, nullptr);
  const std::vector<SelectQuery> queries = SpanningQueries();
  QueryBatch batch;
  batch.table = "t";
  batch.queries = queries;
  ByteWriter req;
  SerializeQueryBatch(batch, &req);
  auto served = fx->edge->HandleQueryBatchBytes(Slice(req.buffer()));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  const std::vector<uint8_t> honest = std::move(*served);
  auto truth = Authenticate(fx, honest, queries);
  ASSERT_TRUE(truth.ok()) << truth.status().ToString();

  // Field offsets of the honest response: the map region, the group
  // count, each group's shard id, and each group's body after its pool
  // (the pooled VO references live there).
  size_t map_begin = 0, map_end = 0, count_pos = 0;
  std::vector<size_t> shard_id_pos;
  std::vector<std::pair<size_t, size_t>> bodies;
  {
    ByteReader dr{Slice(honest)};
    auto decoded = DeserializeShardedQueryBatchResponse(&dr, fx->schema, queries);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->groups.size(), 4u);

    ByteReader r{Slice(honest)};
    ASSERT_TRUE(r.ReadU8().ok());
    auto map = r.ReadLengthPrefixed();
    ASSERT_TRUE(map.ok());
    map_end = r.position();
    map_begin = map_end - map->size();
    count_pos = r.position();
    ASSERT_TRUE(r.ReadVarint().ok());
    for (const ShardScatter& planned : decoded->plan) {
      shard_id_pos.push_back(r.position());
      ASSERT_TRUE(r.ReadU32().ok());
      ByteReader header = r;  // version, replica version, count, pool
      ASSERT_TRUE(header.ReadU8().ok());
      ASSERT_TRUE(header.ReadU64().ok());
      ASSERT_TRUE(header.ReadVarint().ok());
      ASSERT_TRUE(SignaturePool::Deserialize(&header).ok());
      std::vector<SelectQuery> slice_queries;
      for (const ShardSlice& slice : planned.slices) {
        slice_queries.push_back(slice.query);
      }
      ASSERT_TRUE(
          DeserializeQueryBatchResponse(&r, fx->schema, slice_queries).ok());
      bodies.emplace_back(header.position(), r.position());
    }
    ASSERT_TRUE(r.AtEnd());
  }

  Rng rng(8000 + GetParam());
  auto flip = [&](std::vector<uint8_t>* bytes, size_t lo, size_t hi) {
    (*bytes)[lo + rng.Uniform(hi - lo)] ^=
        static_cast<uint8_t>(1 + rng.Uniform(255));
  };
  int rejected = 0, harmless = 0;
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<uint8_t> bytes = honest;
    switch (trial % 6) {
      case 0:  // the embedded map: layout, epoch, key version, signature
        flip(&bytes, map_begin, map_end);
        break;
      case 1:  // the group count
        bytes[count_pos] = static_cast<uint8_t>(rng.Uniform(8));
        break;
      case 2: {  // a shard id: another group's, or garbage
        const size_t a = rng.Uniform(shard_id_pos.size());
        const size_t b = rng.Uniform(shard_id_pos.size());
        if (a != b && rng.OneIn(2)) {
          std::swap_ranges(bytes.begin() + shard_id_pos[a],
                           bytes.begin() + shard_id_pos[a] + 4,
                           bytes.begin() + shard_id_pos[b]);
        } else {
          flip(&bytes, shard_id_pos[a], shard_id_pos[a] + 4);
        }
        break;
      }
      case 3: {  // a group body: statuses, rows, pooled VO references
        const auto& [lo, hi] = bodies[rng.Uniform(bodies.size())];
        flip(&bytes, lo, hi);
        break;
      }
      case 4:  // anywhere
        for (size_t k = 1 + rng.Uniform(3); k > 0; --k) {
          flip(&bytes, 0, bytes.size());
        }
        break;
      case 5:  // truncation
        bytes.resize(rng.Uniform(bytes.size()));
        break;
    }
    if (bytes == honest) continue;
    auto out = Authenticate(fx, bytes, queries);
    if (!out.ok()) {
      rejected++;
      continue;
    }
    // Bytes outside the authenticated content (stats trailers, replica
    // versions) may change without failing verification, but then the
    // answer must be the honest one.
    harmless++;
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_TRUE(SameRows((*out)[i], (*truth)[i]))
          << "trial " << trial << ": a mutated response authenticated a "
          << "wrong answer for query " << i;
    }
  }
  EXPECT_GT(rejected, harmless);
}

TEST_P(WireFuzz, MutatedDeltasNeverCorruptSilently) {
  CentralServer::Options opts;
  opts.tree_opts.config.max_internal = 8;
  opts.tree_opts.config.max_leaf = 8;
  auto central_or = CentralServer::Create(opts);
  ASSERT_TRUE(central_or.ok());
  CentralServer& central = **central_or;
  Schema schema = testutil::MakeWideSchema(4);
  ASSERT_TRUE(central.CreateTable("t", schema).ok());
  Rng data_rng(1);
  ASSERT_TRUE(
      central.LoadTable("t", testutil::MakeRows(schema, 200, &data_rng)).ok());
  EdgeServer edge("edge");
  ASSERT_TRUE(testutil::Publish(&central, "t", &edge, nullptr).ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        central
            .InsertTuple("t", testutil::MakeTuple(schema, 1000 + i, &data_rng))
            .ok());
  }
  auto batch = central.DeltaSince("t", 0);
  ASSERT_TRUE(batch.ok());
  ByteWriter delta_writer;
  batch->Serialize(&delta_writer);
  std::vector<uint8_t> delta = delta_writer.TakeBuffer();

  Client client(central.db_name(), central.key_directory());
  client.RegisterTable("t", schema);
  Rng rng(7000 + GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    // Fresh replica for each mutated delta.
    ASSERT_TRUE(central.ExportTableSnapshot("t").ok());
    EdgeServer victim("victim");
    auto snap = central.ExportTableSnapshot("t");
    ASSERT_TRUE(snap.ok());
    ASSERT_TRUE(victim.InstallSnapshot(Slice(*snap)).ok());
    // victim is already current; wind it back by installing the snapshot
    // from before the updates is not possible here, so instead apply the
    // mutated delta to the stale `edge_`-style replica: recreate it.
    std::vector<uint8_t> bytes = delta;
    bytes[rng.Uniform(bytes.size())] ^=
        static_cast<uint8_t>(1 + rng.Uniform(255));
    Status s = edge.ApplyUpdateBatch(Slice(bytes));
    if (s.ok()) {
      // Replay accepted: any forged signatures will surface at query
      // time; full-tree query must not crash.
      SelectQuery q;
      q.table = "t";
      q.range = KeyRange{0, 2000};
      (void)client.Query(&edge, q, 1, nullptr);
      // Restore the replica for the next trial.
      ASSERT_TRUE(testutil::Publish(&central, "t", &edge, nullptr).ok());
    }
  }
  SUCCEED();
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Range(0, 6));

/// A snapshot's rows are addressed by their INT64 key column; a schema
/// without one must be rejected at install, not dereferenced.
TEST(SnapshotDecodeTest, SchemaWithoutIntegerKeyIsRejected) {
  const std::pair<Schema, Tuple> keyless[] = {
      {Schema({{"name", TypeId::kString}}), Tuple({Value::Str("no-key")})},
      {Schema(std::vector<Column>{}), Tuple()}};
  for (const auto& [schema, row] : keyless) {
    ByteWriter w;
    w.PutU32(0x50414E53);  // "SNAP"
    w.PutString("t");
    schema.Serialize(&w);
    w.PutVarint(1);
    row.Serialize(&w);
    EdgeServer edge("edge");
    EXPECT_EQ(edge.InstallSnapshot(Slice(w.buffer())).code(),
              StatusCode::kCorruption)
        << schema.num_columns() << " columns";
  }
}

TEST(AuditTest, CleanReplicaPassesAudit) {
  auto db = testutil::MakeTestDb(300, 4, 8);
  ASSERT_NE(db, nullptr);
  auto audited = db->tree->AuditSignatures(db->recoverer.get());
  ASSERT_TRUE(audited.ok());
  // Every node + every tuple signature.
  EXPECT_EQ(*audited, db->tree->node_count() + 300);
}

TEST(AuditTest, CorruptedSnapshotFailsAudit) {
  auto db = testutil::MakeTestDb(300, 4, 8);
  ASSERT_NE(db, nullptr);
  ByteWriter w;
  db->tree->SerializeTo(&w);
  std::vector<uint8_t> bytes = w.TakeBuffer();
  // Flip a byte inside the serialized stream repeatedly until we land on
  // a parseable-but-corrupt tree, then audit must catch it.
  Rng rng(11);
  int caught = 0, tried = 0;
  while (caught == 0 && tried < 200) {
    tried++;
    std::vector<uint8_t> bad = bytes;
    bad[rng.Uniform(bad.size())] ^= 0x01;
    ByteReader r((Slice(bad)));
    auto tree = VBTree::Deserialize(&r);
    if (!tree.ok()) continue;
    auto audit = (*tree)->AuditSignatures(db->recoverer.get());
    if (!audit.ok()) caught++;
  }
  EXPECT_GT(caught, 0);
}

TEST(AuditTest, AuditRequiresKey) {
  auto db = testutil::MakeTestDb(10, 4, 8);
  ASSERT_NE(db, nullptr);
  EXPECT_EQ(db->tree->AuditSignatures(nullptr).status().code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace vbtree
