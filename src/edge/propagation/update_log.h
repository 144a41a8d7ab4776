#ifndef VBTREE_EDGE_PROPAGATION_UPDATE_LOG_H_
#define VBTREE_EDGE_PROPAGATION_UPDATE_LOG_H_

#include <deque>
#include <functional>
#include <string>
#include <vector>

#include "catalog/schema.h"
#include "catalog/tuple.h"
#include "common/result.h"
#include "common/serde.h"
#include "vbtree/vb_tree.h"

namespace vbtree {

/// One logged update applied at the central server (§3.4), with all the
/// signature material an edge replica needs to replay it:
///  * inserts carry the tuple (its key is its address in the replica's
///    RowStore) and the signed attribute/tuple digests (formula (1)/(2));
///  * both kinds carry the node signatures produced while re-signing the
///    affected path, in deterministic order.
///
/// The replica recomputes all *unsigned* digests itself (they are public
/// functions of the data), so a delta is tiny compared to a snapshot: the
/// values of one tuple plus O(height) signatures.
struct UpdateOp {
  enum class Kind : uint8_t { kInsert = 0, kDeleteRange = 1 };

  Kind kind = Kind::kInsert;
  // kInsert payload:
  Tuple tuple;
  VBTree::SignedEntryMaterial material;
  // kDeleteRange payload:
  int64_t lo = 0;
  int64_t hi = 0;
  // Signatures from node re-signing, in ResignNode order.
  std::vector<Signature> resigned;

  void Serialize(ByteWriter* w) const;
  static Result<UpdateOp> Deserialize(ByteReader* r, const Schema& schema);
};

/// A consecutive run of updates for one table, shipped from the central
/// server to edge servers instead of a full snapshot.
struct UpdateBatch {
  std::string table;
  /// The table version the batch applies on top of (must equal the
  /// replica's current version) and the version it produces.
  uint64_t from_version = 0;
  uint64_t to_version = 0;
  std::vector<UpdateOp> ops;

  void Serialize(ByteWriter* w) const;

  /// `schema_for` resolves the table name to its schema (needed to decode
  /// tuple values).
  static Result<UpdateBatch> Deserialize(
      ByteReader* r,
      const std::function<Result<Schema>(const std::string&)>& schema_for);

  size_t SerializedSize() const;
};

/// The central server's retained, versioned op log for one table — the
/// propagation subsystem's source of truth. Op i (0-based from the log
/// base) produces table version `base_version + i + 1`; the log retains a
/// bounded window so that several edge subscribers at different versions
/// can each be served a delta, and only falls back to a full snapshot
/// when a subscriber's version predates the window (catch-up).
///
/// Not internally synchronized: the owner (CentralServer) guards it with
/// its per-table latch.
class UpdateLog {
 public:
  explicit UpdateLog(size_t max_retained = 1 << 16)
      : max_retained_(max_retained) {}

  /// Appends the op that produced version `head_version() + 1`. Evicts
  /// the oldest op (advancing the base) when the window is full.
  void Append(UpdateOp op);

  /// Version after the newest logged op.
  uint64_t head_version() const { return base_ + ops_.size(); }
  /// Version before the oldest retained op: deltas can start at any
  /// version in [base_version(), head_version()].
  uint64_t base_version() const { return base_; }
  bool Covers(uint64_t from_version) const {
    return from_version >= base_ && from_version <= head_version();
  }
  size_t retained() const { return ops_.size(); }

  /// Batch of up to `max_ops` ops replaying versions
  /// (from_version, to_version]. kInvalidArgument when `from_version` is
  /// outside the retained window (caller must snapshot instead).
  Result<UpdateBatch> BatchSince(const std::string& table,
                                 uint64_t from_version,
                                 size_t max_ops) const;

  /// Drops ops at or below `version` (all subscribers have applied them).
  void TruncateThrough(uint64_t version);

  /// Empties the log and restarts the lineage at `new_base` — used after
  /// key rotation, which re-signs every node and therefore cannot be
  /// expressed as a delta.
  void Reset(uint64_t new_base);

 private:
  std::deque<UpdateOp> ops_;
  uint64_t base_ = 0;
  size_t max_retained_;
};

}  // namespace vbtree

#endif  // VBTREE_EDGE_PROPAGATION_UPDATE_LOG_H_
