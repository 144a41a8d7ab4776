#ifndef VBTREE_EDGE_PARTITION_MAP_H_
#define VBTREE_EDGE_PARTITION_MAP_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/serde.h"
#include "crypto/hash.h"
#include "crypto/signer.h"
#include "query/predicate.h"

namespace vbtree {

/// One key-range shard of a table: an independently signed VB-tree whose
/// digest schema is qualified by the shard's distribution name, so a
/// signature minted for one shard can never authenticate data served as
/// another shard (or as the whole table).
struct ShardEntry {
  uint32_t shard_id = 0;
  /// Inclusive key range [lo, hi]. Adjacent shards satisfy
  /// hi + 1 == next.lo; the first/last shards pin INT64_MIN / INT64_MAX,
  /// so every possible key is owned by exactly one shard and a range
  /// query can never fall "between" shards.
  int64_t lo = 0;
  int64_t hi = 0;
  /// Lineage (DESIGN.md §10): the digest-schema table name of the split
  /// ancestor whose per-row signatures this shard still carries. Empty
  /// for shards signed under their own distribution name. When set, the
  /// shard's VOs anchor at a root *binding* signature over
  /// (shard name, lo, hi, root digest) instead of a raw root signature —
  /// the binding is what stops a sibling shard (same lineage, same key)
  /// from being substituted. Part of the signed content digest: a
  /// malicious edge cannot strip or alter it without breaking the map
  /// signature.
  std::string lineage;
};

/// The signed, epoch-versioned shard layout of one table (the
/// scatter-gather analogue of §3.3's boundary tuples, lifted to shard
/// granularity): shard id → key range, under one signature that also
/// covers the table identity and the epoch. A client holding the map
/// knows exactly which shards a range query must touch — a malicious
/// edge can neither hide a whole shard (the client expects its VO) nor
/// serve a stale layout (the client's epoch floor rejects it), and shard
/// substitution fails because every shard's tree is signed under its
/// shard-qualified digest schema, which the map's entries determine.
///
/// Epoch rules: the central server bumps `epoch` on every layout change
/// (split/reshard) and on key rotation (the map must be re-signed under
/// the new key); split-off shards get *fresh* ids, so signatures of a
/// pre-split shard can never verify as any current shard.
struct PartitionMap {
  std::string db_name;
  std::string table;
  uint64_t epoch = 0;
  /// Signing-key version `sig` was produced under (§3.4 key expiry
  /// applies to the map exactly as to tree digests).
  uint32_t key_version = 0;
  /// Ascending by `lo`; contiguous; covering the whole int64 domain.
  std::vector<ShardEntry> shards;
  /// s(h(canonical bytes of everything above)).
  Signature sig;

  /// The shard's distribution / replica / digest-schema name. A sole
  /// shard with id 0 keeps the plain table name (a 1-shard table is
  /// wire- and digest-compatible with the pre-sharding layout); every
  /// other shard is qualified as "table#<id>".
  static std::string ShardName(const std::string& table, uint32_t shard_id);
  std::string shard_name(size_t idx) const {
    return ShardName(table, shards[idx].shard_id);
  }

  /// Splits a distribution name back into (base table, shard id).
  /// Returns false for plain (unqualified) names.
  static bool ParseShardName(const std::string& dist_name, std::string* base,
                             uint32_t* shard_id);

  /// Index of the shard owning `key` (always valid for a well-formed map).
  size_t ShardIndexForKey(int64_t key) const;
  const ShardEntry& ShardForKey(int64_t key) const {
    return shards[ShardIndexForKey(key)];
  }
  /// Indices of all shards intersecting [range.lo, range.hi], ascending.
  std::vector<size_t> ShardIndicesForRange(const KeyRange& range) const;
  /// Entry for a shard id, or nullptr when the id is not in this map.
  const ShardEntry* FindShard(uint32_t shard_id) const;

  /// Structural invariants: at least one shard, sorted, contiguous,
  /// covering [INT64_MIN, INT64_MAX], ids unique. kCorruption otherwise.
  Status CheckWellFormed() const;

  /// SHA-256 digest of the canonical serialization (everything except
  /// `sig`) — the preimage the central server signs.
  Digest ContentDigest() const;

  /// Full client-side authentication: well-formedness, then p(sig) must
  /// equal the recomputed content digest. The caller resolves `recoverer`
  /// through the KeyDirectory for `key_version` so expired signing keys
  /// are rejected upstream.
  Status Verify(Recoverer* recoverer) const;

  void Serialize(ByteWriter* w) const;
  static Result<PartitionMap> Deserialize(ByteReader* r);
};

/// One clamped sub-query of a scatter plan: `query` is the original
/// query restricted to the shard's key range (and retargeted at the
/// shard's distribution name); `query_index` is its position in the
/// original batch.
struct ShardSlice {
  size_t query_index = 0;
  SelectQuery query;
};

/// All sub-queries a scatter sends to one shard.
struct ShardScatter {
  size_t shard_index = 0;  ///< index into map.shards
  uint32_t shard_id = 0;
  std::vector<ShardSlice> slices;
};

/// Strictly ascending split points dividing keys [0, n) into up to
/// `shards` even ranges — the helper behind every `--shards N` flag.
/// Degenerate inputs collapse instead of producing invalid layouts:
/// more shards than keys yields one split per distinct key, and
/// shards <= 1 (or n == 0) yields no splits (a single-shard table).
std::vector<int64_t> EvenSplitPoints(size_t n, size_t shards);

/// Deterministically partitions `queries` (already projection-normalized)
/// across the map's shards: each query is clamped to every shard range it
/// intersects. Groups are ascending by shard index and only shards with
/// at least one slice appear. Both the edge (fan-out execution) and the
/// client (completeness expectations) compute this plan from the same
/// signed map, so the client knows exactly which per-shard VOs must come
/// back — omitting any of them is detectable.
std::vector<ShardScatter> BuildScatterPlan(const PartitionMap& map,
                                           std::span<const SelectQuery> queries);

}  // namespace vbtree

#endif  // VBTREE_EDGE_PARTITION_MAP_H_
