#ifndef VBTREE_VBTREE_VERIFICATION_OBJECT_H_
#define VBTREE_VBTREE_VERIFICATION_OBJECT_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <vector>

#include "common/result.h"
#include "common/serde.h"
#include "crypto/signer.h"

namespace vbtree {

/// Batch-level signature interning table (wire format v2).
///
/// Overlapping query envelopes inside a coalesced batch re-ship the same
/// boundary-tuple and opaque-branch signatures once per query; with a
/// 16-byte SimSigner that duplication dominates the VO wire cost. The
/// pool stores each distinct signature once per batch and lets every VO
/// reference it by a varint index — restoring the paper's "VO is simply
/// a set of signed digests" size claim at batch granularity.
///
/// Build side: `Intern` deduplicates and returns the entry index.
/// Read side: `Deserialize` then `Get`, which bounds-checks so a
/// malicious edge cannot send indices past the table.
class SignaturePool {
 public:
  /// Returns the pool index of `sig`, inserting it on first sight.
  uint32_t Intern(const Signature& sig);

  /// Entry at `idx`, or nullptr when idx is out of range.
  const Signature* Get(uint64_t idx) const {
    return idx < entries_.size() ? &entries_[idx] : nullptr;
  }

  size_t size() const { return entries_.size(); }

  /// Sum of entry byte lengths (excludes framing); telemetry.
  size_t entry_bytes() const { return entry_bytes_; }

  void Serialize(ByteWriter* w) const;
  static Result<SignaturePool> Deserialize(ByteReader* r);

 private:
  /// Index order: size, then bytes. Any strict order serves, since
  /// entries are numbered in first-sight order.
  struct SignatureLess {
    bool operator()(const Signature& a, const Signature& b) const {
      if (a.size() != b.size()) return a.size() < b.size();
      return !a.empty() && std::memcmp(a.data(), b.data(), a.size()) < 0;
    }
  };

  std::vector<Signature> entries_;
  std::map<Signature, uint32_t, SignatureLess> index_;  // build side only
  size_t entry_bytes_ = 0;
};

/// Sentinel for "this signature did not come from a batch pool" in the
/// pool-reference fields below.
inline constexpr uint32_t kNoPoolRef = 0xFFFFFFFFu;

/// One node of the enveloping subtree's skeleton.
///
/// The paper describes the VO as "simply a set of signed digests" thanks
/// to the commutative hash (§3.3). Commutativity indeed makes the order of
/// digests *within* a node irrelevant (a property our tests exercise by
/// shuffling), but the verifier must still know which digests combine at
/// which node, because node digests nest: D_parent = g(D_c1, ..., D_cp).
/// The skeleton encodes exactly that grouping, at a cost of a few varint
/// headers per subtree node — preserving the paper's size claims (linear
/// in the result, independent of table size).
struct VONode {
  bool is_leaf = true;

  // Leaf payload: how many of the (key-ordered) result rows fall in this
  // leaf, plus the signed tuple digests of leaf entries that are *not*
  // part of the result: range-boundary tuples and non-key-predicate gaps.
  // This is the D_S contribution of Fig. 5/6.
  uint32_t result_count = 0;
  std::vector<Signature> filtered_tuple_sigs;
  /// Pool indices the sigs above were materialized from (parallel to
  /// filtered_tuple_sigs; filled by DeserializePooled, empty otherwise).
  /// Pure client-side bookkeeping for the once-per-pool verification fast
  /// path — never serialized, and each entry is kNoPoolRef when unknown.
  std::vector<uint32_t> filtered_tuple_refs;

  // Internal payload: one item per child, in tree order. A child whose key
  // span overlaps the result recurses (`covered`); any other branch is
  // represented opaquely by its signed node digest (also D_S).
  struct Item {
    std::unique_ptr<VONode> covered;  // set for overlapping children
    Signature opaque;                 // set for non-overlapping branches
    /// Pool index `opaque` was materialized from (see filtered_tuple_refs).
    uint32_t opaque_ref = kNoPoolRef;

    bool is_covered() const { return covered != nullptr; }
  };
  std::vector<Item> items;
};

/// The verification object returned by an edge server with a query result
/// (§3.3): the signed digest of the enveloping subtree's top node, the
/// skeleton with D_S (signed digests for filtered tuples/branches), and
/// D_P (signed digests for projected-away attributes).
struct VerificationObject {
  /// Version of the signing key (§3.4 update propagation); the client
  /// checks it against the key directory's validity windows.
  uint32_t key_version = 1;

  /// s(D_N) for the top node N of the enveloping subtree.
  Signature signed_top;
  /// Pool index signed_top was materialized from (kNoPoolRef when the VO
  /// did not arrive through a batch pool).
  uint32_t signed_top_ref = kNoPoolRef;

  std::unique_ptr<VONode> skeleton;

  /// D_P, row-major: for each result row (in order), one signature per
  /// filtered column. Within a row the column order is irrelevant
  /// (commutativity); the per-row grouping is required to recompute each
  /// tuple digest.
  uint32_t num_filtered_cols = 0;
  std::vector<Signature> projected_attr_sigs;
  /// Pool indices for projected_attr_sigs (parallel when pooled, empty
  /// otherwise; see filtered_tuple_refs).
  std::vector<uint32_t> projected_attr_refs;

  /// Total number of signed digests carried (|D_S| + |D_P| + 1); the unit
  /// the paper's communication formulas count.
  size_t DigestCount() const;

  /// Exact wire size in bytes of the self-contained (v1) encoding.
  size_t SerializedSize() const;

  void Serialize(ByteWriter* w) const;
  static Result<VerificationObject> Deserialize(ByteReader* r);

  /// Pool-referencing encoding (wire v2): identical structure, but every
  /// signature is written as a varint index into `pool` (interned on the
  /// fly). The pool must be serialized ahead of the VOs in the enclosing
  /// message so a one-pass reader can resolve the indices.
  void SerializePooled(ByteWriter* w, SignaturePool* pool) const;

  /// Decodes a pool-referencing VO, materializing each referenced
  /// signature as a copy so downstream verification is layout-agnostic.
  /// An index past the pool is kCorruption, never a crash.
  static Result<VerificationObject> DeserializePooled(
      ByteReader* r, const SignaturePool& pool);

  /// Deep copy (VOs are move-only by default due to unique_ptr).
  VerificationObject Clone() const;
};

}  // namespace vbtree

#endif  // VBTREE_VBTREE_VERIFICATION_OBJECT_H_
