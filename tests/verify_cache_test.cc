// Soundness and concurrency tests for the client verification fast path:
// the byte-keyed RecoveredDigestCache, the pooled once-per-batch
// recovery, the signed-top memo, and the atomic CryptoCounters the
// parallel BatchVerifier ticks from many workers at once.
//
// The adversarial cases pin the §6 soundness argument: a tampered
// signature — bit flip, swapped pool index, tamper hidden behind an
// unchanged replica version — can never ride a cached digest to a
// passing verification.
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "crypto/commutative_hash.h"
#include "crypto/recovered_digest_cache.h"
#include "crypto/sim_signer.h"
#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/query_service/batch_verifier.h"
#include "edge/query_service/query_service.h"
#include "tests/testutil.h"

namespace vbtree {
namespace {

Digest RandomDigest(Rng* rng) {
  Digest d;
  for (auto& b : d.bytes) b = static_cast<uint8_t>(rng->Next());
  return d;
}

// ---------------------------------------------------------------------------
// RecoveredDigestCache unit behavior.
// ---------------------------------------------------------------------------

TEST(RecoveredDigestCacheTest, HitMissAndDomainIsolation) {
  RecoveredDigestCache cache;
  Rng rng(1);
  SimSigner signer(7);
  Signature sig = signer.Sign(RandomDigest(&rng)).ValueOrDie();
  Digest d = RandomDigest(&rng), out;
  CryptoCounters c;

  EXPECT_FALSE(cache.Lookup(1, sig, &out, &c));
  cache.Insert(1, sig, d, &c);
  ASSERT_TRUE(cache.Lookup(1, sig, &out, &c));
  EXPECT_EQ(out, d);
  // Same bytes under a different signing-key version must MISS: recovery
  // is only a pure function of the bytes under one public key.
  EXPECT_FALSE(cache.Lookup(2, sig, &out, &c));
  EXPECT_EQ(c.digest_cache_hits, 1u);
  EXPECT_EQ(c.digest_cache_misses, 2u);

  RecoveredDigestCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.entries, 1u);
}

TEST(RecoveredDigestCacheTest, BoundedWithEvictionCounters) {
  RecoveredDigestCache::Options opts;
  opts.capacity = 64;
  opts.shards = 4;
  RecoveredDigestCache cache(opts);
  Rng rng(2);
  CryptoCounters c;
  for (int i = 0; i < 1000; ++i) {
    Signature sig(16);
    for (auto& b : sig) b = static_cast<uint8_t>(rng.Next());
    cache.Insert(1, sig, RandomDigest(&rng), &c);
  }
  RecoveredDigestCache::Stats s = cache.stats();
  EXPECT_LE(s.entries, 64u);
  EXPECT_GT(s.evictions, 0u);
  EXPECT_EQ(s.evictions, c.digest_cache_evictions.load());
  EXPECT_EQ(s.entries + s.evictions, 1000u);
}

TEST(RecoveredDigestCacheTest, ZeroCapacityDisablesCaching) {
  RecoveredDigestCache::Options opts;
  opts.capacity = 0;
  RecoveredDigestCache cache(opts);
  Rng rng(3);
  Signature sig(16, 0xAB);
  Digest out;
  cache.Insert(1, sig, RandomDigest(&rng));
  EXPECT_FALSE(cache.Lookup(1, sig, &out));
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST(CachingRecovererTest, HitSkipsInnerRecover) {
  SimSigner signer(11);
  CryptoCounters inner_counters;
  SimRecoverer inner(signer.key_material(), &inner_counters);
  RecoveredDigestCache cache;
  CryptoCounters c;
  CachingRecoverer caching(&inner, &cache, /*domain=*/1, &c);

  Rng rng(4);
  Digest d = RandomDigest(&rng);
  Signature sig = signer.Sign(d).ValueOrDie();
  auto first = caching.Recover(sig);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(*first, d);
  EXPECT_EQ(inner_counters.recovers, 1u);
  auto second = caching.Recover(sig);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, d);
  EXPECT_EQ(inner_counters.recovers, 1u) << "hit must not reach the inner";
  EXPECT_EQ(c.recovers, 1u);
  EXPECT_EQ(c.digest_cache_hits, 1u);
}

// ---------------------------------------------------------------------------
// Atomic CryptoCounters under concurrent bumping (the BatchVerifier's
// pool workers share one batch-level sink). Run under TSan/ASan via the
// sanitizer CI job; with plain uint64_t fields this loses increments and
// is a TSan data race.
// ---------------------------------------------------------------------------

TEST(CryptoCountersTest, ConcurrentTicksAreNotLost) {
  CryptoCounters shared;
  RecoveredDigestCache cache;
  Schema schema = testutil::MakeWideSchema(4);
  DigestSchema ds("db", "t", schema);
  ds.set_counters(&shared);

  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(100 + t);
      for (int i = 0; i < kOpsPerThread; ++i) {
        // Cost_h tick through the shared DigestSchema sink.
        ds.AttributeDigest(i, 1, Value::Str("v"));
        // Cache traffic ticks through the same shared sink.
        Signature sig(16);
        for (auto& b : sig) b = static_cast<uint8_t>(rng.Next());
        Digest out;
        cache.Lookup(1, sig, &out, &shared);  // distinct keys: all misses
        shared.recovers++;
      }
    });
  }
  for (auto& t : threads) t.join();

  EXPECT_EQ(shared.attr_hashes, uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(shared.recovers, uint64_t{kThreads} * kOpsPerThread);
  EXPECT_EQ(shared.digest_cache_misses, uint64_t{kThreads} * kOpsPerThread);
}

// ---------------------------------------------------------------------------
// Exponent-folded Combine stays bit-identical to the chained form the
// verifier's digest equation is defined by.
// ---------------------------------------------------------------------------

TEST(CommutativeHashFoldTest, FoldedCombineMatchesChainedExtend) {
  CommutativeHash g;
  Rng rng(5);
  for (size_t n : {0u, 1u, 2u, 7u, 33u}) {
    std::vector<Digest> set;
    for (size_t i = 0; i < n; ++i) set.push_back(RandomDigest(&rng));
    Digest chained = g.Identity();
    for (const Digest& d : set) chained = g.Extend(chained, d);
    EXPECT_EQ(g.Combine(set), chained) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Adversarial soundness: tampered signatures vs. warm caches, end to end.
// ---------------------------------------------------------------------------

class VerifyCacheSoundnessTest : public ::testing::Test {
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
        central_->LoadTable("items", testutil::MakeRows(schema_, 500, &rng))
            .ok());

    edge_ = std::make_unique<EdgeServer>("edge-1");
    ASSERT_TRUE(testutil::Publish(central_.get(), "items", edge_.get()).ok());

    client_ = std::make_unique<Client>(central_->db_name(),
                                       central_->key_directory());
    client_->RegisterTable("items", schema_);
  }

  /// The edge's honest answer to `q` alone (a one-query batch).
  Result<QueryBatchResponse> HonestAnswer(SelectQuery q) {
    q.NormalizeProjection();
    QueryBatch batch;
    batch.table = "items";
    batch.queries.push_back(std::move(q));
    return testutil::ExecuteSoleGroup(edge_.get(), batch);
  }

  QueryBatch HotBatch() {
    QueryBatch batch;
    batch.table = "items";
    for (int i = 0; i < 4; ++i) {
      SelectQuery q;
      q.table = "items";
      q.range = KeyRange{100 + i, 140 + i};
      q.projection = {0, 2, 5};
      batch.queries.push_back(std::move(q));
    }
    return batch;
  }

  Schema schema_;
  std::unique_ptr<CentralServer> central_;
  std::unique_ptr<EdgeServer> edge_;
  std::unique_ptr<Client> client_;
};

TEST_F(VerifyCacheSoundnessTest, BitFlippedSignatureMissesWarmCacheAndFails) {
  // Warm the cache with an honest verified answer.
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});
  auto warm = client_->QueryBatched(&service, HotBatch(), /*now=*/10);
  ASSERT_TRUE(warm.ok());
  for (const auto& v : warm->results) ASSERT_TRUE(v.verification.ok());
  ASSERT_GT(client_->digest_cache()->stats().entries, 0u);

  // Re-run the same query directly and flip one bit in each class of VO
  // signature; every variant must fail against the warm cache, and the
  // flipped bytes must not hit any cached digest.
  SelectQuery q = HotBatch().queries[0];
  auto answer = HonestAnswer(q);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  const QueryResponse* honest = &answer->responses[0];

  auto verify_with_warm_cache = [&](const VerificationObject& vo) {
    auto rec = central_->key_directory()->RecovererFor(vo.key_version, 10);
    EXPECT_TRUE(rec.ok());
    DigestSchema ds(central_->db_name(), "items", schema_);
    Verifier verifier(ds, rec.ValueOrDie().get());
    verifier.set_digest_cache(client_->digest_cache(), vo.key_version);
    SelectQuery nq = q;
    nq.NormalizeProjection();
    return verifier.VerifySelect(nq, honest->rows, vo);
  };
  ASSERT_TRUE(verify_with_warm_cache(honest->vo).ok());

  {
    VerificationObject vo = honest->vo.Clone();
    vo.signed_top[0] ^= 0x01;
    Digest out;
    EXPECT_FALSE(client_->digest_cache()->Lookup(vo.key_version,
                                                 vo.signed_top, &out))
        << "a flipped signature must be a different cache key";
    EXPECT_FALSE(verify_with_warm_cache(vo).ok());
  }
  {
    VerificationObject vo = honest->vo.Clone();
    ASSERT_FALSE(vo.projected_attr_sigs.empty());
    vo.projected_attr_sigs[0][3] ^= 0x80;
    Digest out;
    EXPECT_FALSE(client_->digest_cache()->Lookup(
        vo.key_version, vo.projected_attr_sigs[0], &out));
    EXPECT_FALSE(verify_with_warm_cache(vo).ok());
  }
}

TEST_F(VerifyCacheSoundnessTest, SwappedPoolIndexFailsVerification) {
  // Build a pooled encoding of an honest VO, then decode it against a
  // pool whose first two entries are transposed — exactly what an edge
  // lying about varint indices achieves. Every signature materializes at
  // the wrong position, so the digest equation must fail even though
  // every byte string in the pool is individually authentic (and may
  // individually be cache-hot).
  SelectQuery q = HotBatch().queries[0];
  auto answer = HonestAnswer(q);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  const QueryResponse* honest = &answer->responses[0];

  SignaturePool pool;
  ByteWriter body;
  honest->vo.SerializePooled(&body, &pool);
  ASSERT_GE(pool.size(), 2u);

  SignaturePool swapped;
  ASSERT_EQ(swapped.Intern(*pool.Get(1)), 0u);  // transposed
  ASSERT_EQ(swapped.Intern(*pool.Get(0)), 1u);
  for (uint64_t i = 2; i < pool.size(); ++i) {
    ASSERT_EQ(swapped.Intern(*pool.Get(i)), i);
  }

  ByteReader r{Slice(body.buffer())};
  auto vo = VerificationObject::DeserializePooled(&r, swapped);
  ASSERT_TRUE(vo.ok()) << vo.status().ToString();

  auto rec = central_->key_directory()->RecovererFor(vo->key_version, 10);
  ASSERT_TRUE(rec.ok());
  DigestSchema ds(central_->db_name(), "items", schema_);

  // Warm cache with every honest pool signature's digest first.
  for (uint64_t i = 0; i < pool.size(); ++i) {
    auto d = rec.ValueOrDie()->Recover(*pool.Get(i));
    ASSERT_TRUE(d.ok());
    client_->digest_cache()->Insert(vo->key_version, *pool.Get(i), *d);
  }

  Verifier verifier(ds, rec.ValueOrDie().get());
  verifier.set_digest_cache(client_->digest_cache(), vo->key_version);
  SelectQuery nq = q;
  nq.NormalizeProjection();
  EXPECT_FALSE(verifier.VerifySelect(nq, honest->rows, *vo).ok())
      << "transposed pool indices must never authenticate";
}

TEST_F(VerifyCacheSoundnessTest,
       TamperBehindUnchangedReplicaVersionFailsDespiteWarmMemo) {
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});

  // Two honest rounds: the second one exercises memo/cache hits at this
  // replica version.
  auto first = client_->QueryBatched(&service, HotBatch(), /*now=*/10);
  ASSERT_TRUE(first.ok());
  for (const auto& v : first->results) ASSERT_TRUE(v.verification.ok());
  auto second = client_->QueryBatched(&service, HotBatch(), /*now=*/10);
  ASSERT_TRUE(second.ok());
  for (const auto& v : second->results) ASSERT_TRUE(v.verification.ok());
  EXPECT_GT(second->top_memo_hits, 0u)
      << "same watermark + same envelopes should hit the top memo";
  EXPECT_GT(second->crypto.digest_cache_hits, 0u);

  // Corrupt the store. The replica version does NOT change — the edge
  // keeps claiming the watermark the client has memoized tops for.
  ASSERT_TRUE(
      edge_->TamperValueByKey("items", 120, 2, Value::Str("forged")).ok());

  auto tampered = client_->QueryBatched(&service, HotBatch(), /*now=*/10);
  ASSERT_TRUE(tampered.ok());
  size_t failures = 0;
  for (const auto& v : tampered->results) {
    if (!v.verification.ok()) failures++;
  }
  EXPECT_GT(failures, 0u)
      << "stale memo/cache entries must never authenticate tampered data";
}

TEST_F(VerifyCacheSoundnessTest, FastPathAndPlainPathAgreeAndReduceRecovers) {
  QueryService service(edge_.get(), QueryServiceOptions{2, 64});

  Client plain(central_->db_name(), central_->key_directory());
  plain.RegisterTable("items", schema_);
  plain.set_verify_fast_path(false);

  uint64_t fast_recovers = 0, plain_recovers = 0;
  constexpr int kRounds = 5;
  for (int round = 0; round < kRounds; ++round) {
    auto fast = client_->QueryBatched(&service, HotBatch(), /*now=*/10);
    auto slow = plain.QueryBatched(&service, HotBatch(), /*now=*/10);
    ASSERT_TRUE(fast.ok());
    ASSERT_TRUE(slow.ok());
    ASSERT_EQ(fast->results.size(), slow->results.size());
    for (size_t i = 0; i < fast->results.size(); ++i) {
      EXPECT_EQ(fast->results[i].verification.ok(),
                slow->results[i].verification.ok());
      EXPECT_TRUE(fast->results[i].verification.ok());
      EXPECT_EQ(fast->results[i].rows.size(), slow->results[i].rows.size());
    }
    fast_recovers += fast->crypto.recovers.load();
    plain_recovers += slow->crypto.recovers.load();
  }
  // Identical hot batches: the fast path pays the pool once and then
  // rides the cross-batch cache; the plain path pays per reference every
  // round. The acceptance bar for the bench workload is >= 3x.
  EXPECT_GE(plain_recovers, 3 * fast_recovers)
      << "plain=" << plain_recovers << " fast=" << fast_recovers;
  EXPECT_GT(fast_recovers, 0u);
}

}  // namespace
}  // namespace vbtree
