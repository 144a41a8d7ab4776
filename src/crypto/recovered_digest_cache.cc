#include "crypto/recovered_digest_cache.h"

#include <cstring>

namespace vbtree {

namespace {

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

inline uint64_t Mix64(uint64_t x) {
  // splitmix64 finalizer: enough avalanche for ciphertext-like keys.
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

size_t SignatureHash::operator()(const Signature& s) const {
  // This runs once per cache probe on the verification hot path, so the
  // common 16-byte signature takes two word loads and one mix instead of
  // a byte-wise FNV walk. The hash is never a trust boundary (equality
  // compares full bytes); it only has to spread ciphertext-like keys.
  if (s.size() == 16) {
    return static_cast<size_t>(
        Mix64(Load64(s.data()) ^ (Load64(s.data() + 8) * 0x9e3779b97f4a7c15ULL)));
  }
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : s) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return static_cast<size_t>(Mix64(h));
}

RecoveredDigestCache::RecoveredDigestCache(Options options)
    : options_(options) {
  size_t shards = options_.shards;
  if (shards == 0) shards = 1;
  // Round down to a power of two so ShardFor can mask.
  while ((shards & (shards - 1)) != 0) shards &= shards - 1;
  shards_.reserve(shards);
  for (size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  per_shard_capacity_ = options_.capacity / shards;
  if (options_.capacity > 0 && per_shard_capacity_ == 0) {
    per_shard_capacity_ = 1;
  }
}

RecoveredDigestCache::Shard& RecoveredDigestCache::ShardFor(
    const Signature& sig) {
  return *shards_[SignatureHash{}(sig) & (shards_.size() - 1)];
}

bool RecoveredDigestCache::Lookup(uint64_t domain, const Signature& sig,
                                  Digest* out, CryptoCounters* counters) {
  if (per_shard_capacity_ == 0) {
    if (counters != nullptr) CryptoCounters::Tick(counters->digest_cache_misses);
    return false;
  }
  Shard& shard = ShardFor(sig);
  std::lock_guard lock(shard.mu);
  auto it = shard.map.find(sig);
  // A resident entry from another key epoch is a miss: recovery is only
  // a pure function of the bytes *under one public key*.
  if (it == shard.map.end() || it->second.domain != domain) {
    shard.misses++;
    if (counters != nullptr) CryptoCounters::Tick(counters->digest_cache_misses);
    return false;
  }
  it->second.last_used = ++shard.clock;
  *out = it->second.digest;
  shard.hits++;
  if (counters != nullptr) CryptoCounters::Tick(counters->digest_cache_hits);
  return true;
}

void RecoveredDigestCache::EvictOne(Shard* shard) {
  // Sample a handful of entries starting at the rotating bucket cursor
  // and drop the one least recently stamped. Approximate, but unbiased
  // over time — and never touches more than a few cache lines, unlike a
  // linked-list LRU whose per-hit splice costs more than a cheap
  // Recover.
  constexpr size_t kSample = 8;
  const size_t buckets = shard->map.bucket_count();
  const Signature* victim = nullptr;
  uint64_t oldest = 0;
  size_t seen = 0;
  for (size_t probe = 0; probe < buckets && seen < kSample; ++probe) {
    size_t b = (shard->sweep + probe) % buckets;
    for (auto it = shard->map.begin(b); it != shard->map.end(b); ++it) {
      if (victim == nullptr || it->second.last_used < oldest) {
        victim = &it->first;
        oldest = it->second.last_used;
      }
      if (++seen >= kSample) break;
    }
  }
  shard->sweep = (shard->sweep + 1) % (buckets == 0 ? 1 : buckets);
  if (victim != nullptr) {
    // Copy first: erasing through a reference into the node being
    // destroyed is a use-after-free waiting to happen.
    Signature victim_key = *victim;
    shard->map.erase(victim_key);
    shard->evictions++;
  }
}

void RecoveredDigestCache::Insert(uint64_t domain, const Signature& sig,
                                  const Digest& digest,
                                  CryptoCounters* counters) {
  if (per_shard_capacity_ == 0) return;
  Shard& shard = ShardFor(sig);
  std::lock_guard lock(shard.mu);
  auto it = shard.map.find(sig);
  if (it != shard.map.end()) {
    // Refresh: same bytes under a rotated key overwrite the stale epoch.
    it->second.domain = domain;
    it->second.digest = digest;
    it->second.last_used = ++shard.clock;
    return;
  }
  if (shard.map.size() >= per_shard_capacity_) {
    EvictOne(&shard);
    if (counters != nullptr) CryptoCounters::Tick(counters->digest_cache_evictions);
  }
  shard.map.emplace(sig, Entry{domain, digest, ++shard.clock});
}

void RecoveredDigestCache::Clear() {
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    shard->map.clear();
  }
}

RecoveredDigestCache::Stats RecoveredDigestCache::stats() const {
  Stats s;
  for (const auto& shard : shards_) {
    std::lock_guard lock(shard->mu);
    s.hits += shard->hits;
    s.misses += shard->misses;
    s.evictions += shard->evictions;
    s.entries += shard->map.size();
  }
  return s;
}

}  // namespace vbtree
