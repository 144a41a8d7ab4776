#ifndef VBTREE_VBTREE_DIGEST_SCHEMA_H_
#define VBTREE_VBTREE_DIGEST_SCHEMA_H_

#include <span>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "crypto/commutative_hash.h"
#include "crypto/counters.h"

namespace vbtree {

/// Digest computation rules shared by the central server (building and
/// updating VB-trees) and clients (verifying results). Implements the
/// paper's formulas:
///
///   (1) attribute digest  a_ij = h(db | table | attr | key | value)
///   (2) tuple digest      t_j  = g(a_j1, ..., a_jm)
///   (3) node digest       D_N  = g(d_1, ..., d_p)   over tuple digests
///                                (leaf) or child node digests (internal)
///
/// where h is SHA-256 and g the commutative hash G^(d1·...·dm) mod 2^128
/// (§3.2 fixes one h and one g). Binding db/table/attr names and
/// the tuple key into every attribute digest defeats substitution of
/// authentic values across rows, columns or tables.
class DigestSchema {
 public:
  DigestSchema(std::string db_name, std::string table_name, Schema schema)
      : db_name_(std::move(db_name)),
        table_name_(std::move(table_name)),
        schema_(std::move(schema)) {}

  /// Routes Cost_h / Cost_k accounting to `counters` (may be nullptr).
  void set_counters(CryptoCounters* counters) {
    counters_ = counters;
    ghash_.set_counters(counters);
  }

  /// Formula (1). `key` is the tuple's primary key, not the attribute value.
  Digest AttributeDigest(int64_t key, size_t col_idx, const Value& v) const;

  /// All m attribute digests of a tuple, in column order.
  std::vector<Digest> AttributeDigests(const Tuple& t) const;

  /// Formula (2): tuple digest from a full tuple.
  Digest TupleDigest(const Tuple& t) const;

  /// Formula (2) verifier-side: combine already-obtained attribute digests
  /// (computed ones for returned columns, recovered ones for projected-away
  /// columns) in any order.
  Digest CombineDigests(std::span<const Digest> digests) const {
    return ghash_.Combine(digests);
  }

  const CommutativeHash& ghash() const { return ghash_; }
  const Schema& schema() const { return schema_; }
  const std::string& db_name() const { return db_name_; }
  const std::string& table_name() const { return table_name_; }

 private:
  std::string db_name_;
  std::string table_name_;
  Schema schema_;
  CommutativeHash ghash_;
  CryptoCounters* counters_ = nullptr;
};

/// Binding digest for a shard's root anchor when the shard shares its
/// digest-schema name with split siblings (lineage shards, DESIGN.md §10).
/// Incremental SplitShard hands both children the parent's digest-schema
/// name so every per-tuple and per-node signature transfers without
/// re-signing — which also means a node signature alone no longer proves
/// WHICH sibling's tree it came from. The central server therefore signs,
/// per shard, h(db | verify_name | lo | hi | root_digest), where
/// verify_name is the shard's own (unique) distribution name and [lo, hi]
/// its key range from the signed PartitionMap. Clients anchor lineage-
/// shard VOs at this binding instead of a raw node signature: a sibling's
/// tree (same digest domain, different range/name) can no longer stand in
/// for an overlapping shard or prove its ranges empty.
Digest ShardBindingDigest(const std::string& db_name,
                          const std::string& verify_name, int64_t lo,
                          int64_t hi, const Digest& root_digest);

}  // namespace vbtree

#endif  // VBTREE_VBTREE_DIGEST_SCHEMA_H_
