#ifndef VBTREE_STORAGE_ROW_STORE_H_
#define VBTREE_STORAGE_ROW_STORE_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <shared_mutex>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "common/result.h"
#include "common/slice.h"

namespace vbtree {

/// The rows of one table shard, join view or edge replica, keyed by
/// primary key. The key is the "tuple pointer" a VB-tree leaf entry
/// keeps its signed digests with (§3.2, Fig. 3b): every row already has
/// the unique key the tree is ordered by, so no row identifier exists.
///
/// Rows rest as their Tuple::Serialize bytes and are decoded on Get — a
/// third of the memory of Tuple objects, and a snapshot export copies
/// the stored bytes instead of re-encoding every row.
///
/// Thread-safe and striped: query workers Get while a writer Puts and
/// removes, so rows are spread by key hash over kStripes ordered maps,
/// each behind its own shared mutex, and readers on different stripes
/// never touch the same lock.
///
/// Consistency with a VB-tree that readers traverse latch-free is by
/// publication order, not by locking (DESIGN.md §8.5): a writer Puts a
/// row before the tree publishes its key, and removes rows only after the
/// tree's delete committed. A key's row therefore changes only while the
/// key is absent from the tree, so OLC validation rejects every read that
/// pairs a leaf entry with another entry's row. Being unsecured at the
/// edge (§3.1), the store exposes TamperByKey for the hacked-edge role.
class RowStore {
 public:
  explicit RowStore(Schema schema) : schema_(std::move(schema)) {}

  RowStore(const RowStore&) = delete;
  RowStore& operator=(const RowStore&) = delete;

  const Schema& schema() const { return schema_; }

  /// Stores `tuple` under its key, replacing any row there.
  void Put(const Tuple& tuple);
  /// Stores a row already in Tuple::Serialize form under `key`.
  void PutEncoded(int64_t key, Slice row);

  /// Decodes the row stored under `key`; kNotFound when there is none.
  Result<Tuple> Get(int64_t key) const;

  /// Removes every row keyed in [lo, hi]; returns their keys.
  std::vector<int64_t> RemoveKeyRange(int64_t lo, int64_t hi);

  /// Rewrites one attribute of the row at `key` — the "hacker modified
  /// the data at the edge" scenario the VO must expose.
  Status TamperByKey(int64_t key, size_t col, Value v);

  size_t size() const;

  /// Calls `fn(key, encoded row)` for every row: stripe by stripe, in key
  /// order within a stripe, so the order depends on the key set alone.
  /// Each stripe is held shared while it is visited; `fn` must not write
  /// to this store.
  void Scan(const std::function<void(int64_t, Slice)>& fn) const;

  /// Key → decoded row: the VB-tree's TupleFetcher over this store.
  std::function<Result<Tuple>(int64_t)> Fetcher() const {
    return [this](int64_t key) { return Get(key); };
  }

 private:
  static constexpr size_t kStripes = 16;

  struct Stripe {
    mutable std::shared_mutex mu;
    std::map<int64_t, std::string> rows;
  };

  Stripe& StripeFor(int64_t key) const {
    // Fibonacci-hash the key so runs of consecutive keys spread across
    // stripes; >> 60 yields exactly [0, 16).
    return stripes_[(static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >>
                    60];
  }

  const Schema schema_;
  mutable std::array<Stripe, kStripes> stripes_;
};

}  // namespace vbtree

#endif  // VBTREE_STORAGE_ROW_STORE_H_
