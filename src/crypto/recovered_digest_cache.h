#ifndef VBTREE_CRYPTO_RECOVERED_DIGEST_CACHE_H_
#define VBTREE_CRYPTO_RECOVERED_DIGEST_CACHE_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "crypto/counters.h"
#include "crypto/digest.h"
#include "crypto/signer.h"

namespace vbtree {

/// FNV-1a over a signature's full byte string, hashing the
/// recovered-digest cache's shard tables. Never a trust boundary —
/// equality always compares full bytes.
struct SignatureHash {
  size_t operator()(const Signature& s) const;
};

/// Bounded, sharded LRU cache memoizing p(sig) — the digest a signature
/// recovers to under one public key. Recovery is a deterministic pure
/// function of the raw signature bytes (given the key), so caching the
/// mapping is plain memoization: a hit returns exactly what Recover()
/// would, one modular exponentiation (or AES decrypt) cheaper.
///
/// Soundness (the argument, in full, lives in DESIGN.md §6): the key is
/// the *entire* raw signature byte string plus a caller-chosen domain
/// (the signing-key version). Any tamper — a single bit flip, a swapped
/// pool index materializing a different pool entry, a replayed signature
/// from another key epoch — changes the lookup key, so a forged
/// signature can never alias a cached honest digest. Equality is over
/// the full bytes, never the hash, so engineered hash collisions only
/// cost a miss. The cache therefore cannot turn a failing verification
/// into a passing one; it can only skip re-deriving a digest that the
/// same bytes already produced.
///
/// Thread-safe: the table is split into shards, each guarded by its own
/// mutex, so the BatchVerifier's pool workers and many client threads
/// can share one instance. Hit/miss/eviction telemetry accrues both in
/// the cache-global stats and, per call, in the caller's CryptoCounters
/// sink (so per-query cost accounting sees its own cache traffic).
///
/// Recency is approximate (sampled LRU, Redis-style): hits stamp a
/// per-shard generation counter instead of maintaining a linked list,
/// and eviction scans a small bucket neighborhood for the oldest stamp.
/// A hit is thus one hash probe and one store — the cache must stay
/// worthwhile even when the underlying Recover is a 30 ns AES block, not
/// just when it is a multi-microsecond RSA exponentiation.
class RecoveredDigestCache {
 public:
  struct Options {
    /// Maximum resident entries across all shards (0 disables caching:
    /// every Lookup misses and Insert is a no-op).
    size_t capacity = 1 << 16;
    /// Power-of-two shard count; sized for low contention at the
    /// BatchVerifier's default worker counts.
    size_t shards = 8;
  };

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t entries = 0;
  };

  RecoveredDigestCache() : RecoveredDigestCache(Options{}) {}
  explicit RecoveredDigestCache(Options options);

  RecoveredDigestCache(const RecoveredDigestCache&) = delete;
  RecoveredDigestCache& operator=(const RecoveredDigestCache&) = delete;

  /// Looks up `sig` under `domain` (the signing-key version). On hit,
  /// stores the digest in `*out`, refreshes recency, and ticks the hit
  /// counters; on miss ticks the miss counters. `counters` may be null.
  bool Lookup(uint64_t domain, const Signature& sig, Digest* out,
              CryptoCounters* counters = nullptr);

  /// Inserts (or refreshes) sig -> digest under `domain`, evicting the
  /// least-recently-used entry of the shard when at capacity.
  void Insert(uint64_t domain, const Signature& sig, const Digest& digest,
              CryptoCounters* counters = nullptr);

  /// Drops every entry (all shards). Telemetry counters are kept.
  void Clear();

  Stats stats() const;
  size_t capacity() const { return options_.capacity; }

 private:
  struct Entry {
    uint64_t domain = 0;
    Digest digest;
    /// Shard-generation stamp of the last hit/insert (recency, sampled).
    uint64_t last_used = 0;
  };

  struct Shard {
    std::mutex mu;
    std::unordered_map<Signature, Entry, SignatureHash> map;
    uint64_t clock = 0;  ///< bumped on every hit/insert
    /// Rotating bucket cursor for the eviction scan.
    size_t sweep = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
  };

  /// Evicts the entry with the oldest stamp among a small sample of
  /// `shard`'s buckets (the shard mutex must be held).
  static void EvictOne(Shard* shard);

  Shard& ShardFor(const Signature& sig);

  Options options_;
  size_t per_shard_capacity_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace vbtree

#endif  // VBTREE_CRYPTO_RECOVERED_DIGEST_CACHE_H_
