#ifndef VBTREE_VBTREE_VERIFIER_H_
#define VBTREE_VBTREE_VERIFIER_H_

#include <span>
#include <vector>

#include "crypto/recovered_digest_cache.h"
#include "crypto/signer.h"
#include "query/predicate.h"
#include "vbtree/digest_schema.h"
#include "vbtree/verification_object.h"

namespace vbtree {

/// Outcome of recovering one batch-pool signature: computed once per
/// batch by the BatchVerifier and consumed positionally (by pool index)
/// by every VO that references the entry.
struct RecoveredSignature {
  Status status = Status::OK();
  Digest digest;
};

/// Client-side result authentication (Lemmas 1 and 2 of §3.3).
///
/// Given a query, its result rows, and the VO from an (untrusted) edge
/// server, the verifier
///  1. checks result sanity: keys strictly ascending and inside the query
///     range; any condition on a returned column holds;
///  2. recomputes the digest hierarchy: attribute digests for returned
///     values (formula (1)); recovered digests for filtered attributes
///     (D_P) and filtered tuples/branches (D_S); commutative combination
///     upward through the VO skeleton;
///  3. recovers s(D_N) with the public key and compares.
///
/// Any tampering with returned values, injected rows, or a reshuffled
/// mapping of rows to subtree positions changes the computed digest and
/// fails the comparison. (As in the paper, an edge server that silently
/// *omits* qualifying tuples by reclassifying them as gaps is not
/// detected — the threat model assumes servers do not maliciously drop
/// results; see DESIGN.md.)
///
/// Verification fast path (DESIGN.md §6): signature recovery — the
/// client's dominant cost — is layered so each Cost_s is paid at most
/// once per distinct signature:
///  1. a VO that arrived through a batch SignaturePool carries the pool
///     index of every signature, the signed top included; supply the
///     batch's once-recovered digests via set_recovered_pool and the
///     verifier consumes them positionally instead of calling Recover
///     per reference;
///  2. a cross-batch RecoveredDigestCache (set_digest_cache) memoizes
///     byte-keyed recoveries for signatures not resolved by the pool.
/// Both are sound because p() is a deterministic function of the
/// signature bytes under one public key; neither bypasses the
/// digest-equation comparison itself.
class Verifier {
 public:
  /// `digest_schema` must match the central server's (same db/table/
  /// column names, hash algorithm and modulus); it is distributed to
  /// clients together with the public key.
  Verifier(DigestSchema digest_schema, Recoverer* recoverer)
      : ds_(std::move(digest_schema)), recoverer_(recoverer) {}

  /// Routes Cost_h/Cost_k accounting, plus this verifier's digest-cache
  /// traffic (Cost_s accrues in the Recoverer).
  void set_counters(CryptoCounters* counters) {
    counters_ = counters;
    ds_.set_counters(counters);
  }

  /// Supplies the once-per-batch recovered digests of the signature pool
  /// the VO's *_ref fields index into. The span must stay alive for the
  /// duration of VerifySelect.
  void set_recovered_pool(std::span<const RecoveredSignature> pool) {
    pool_ = pool;
  }

  /// Supplies the cross-batch recovered-digest cache. `domain` is the
  /// signing-key version the signatures resolve under (entries from
  /// other key epochs never hit).
  void set_digest_cache(RecoveredDigestCache* cache, uint64_t domain) {
    cache_ = cache;
    cache_domain_ = domain;
  }

  /// Lineage-shard root anchoring (DESIGN.md §10): the shard shares its
  /// digest-schema name with split siblings, so its VO anchors at the
  /// central server's binding signature over ShardBindingDigest(db,
  /// verify_name, lo, hi, root_digest) instead of a raw node signature.
  struct TopBinding {
    std::string verify_name;  ///< the shard's own distribution name
    int64_t lo = 0;           ///< shard key range from the verified map
    int64_t hi = 0;
  };

  /// When set, the final comparison wraps the computed root digest with
  /// the binding preimage before comparing against the recovered top —
  /// so a sibling tree from the same digest domain (valid node
  /// signatures, wrong shard) can never authenticate. Caller-owned; must
  /// outlive VerifySelect.
  void set_top_binding(const TopBinding* binding) { binding_ = binding; }

  /// Returns OK iff the result authenticates against the VO.
  Status VerifySelect(const SelectQuery& query,
                      const std::vector<ResultRow>& rows,
                      const VerificationObject& vo);

 private:
  /// Recovers the digest a signature decrypts to, cheapest source first:
  /// batch pool (by index), byte-keyed cache, then the Recoverer.
  Result<Digest> ResolveSig(const Signature& sig, uint32_t ref);

  Result<Digest> ComputeNodeDigest(const VONode& node,
                                   const std::vector<ResultRow>& rows,
                                   const SelectQuery& q,
                                   const std::vector<size_t>& filtered_cols,
                                   const VerificationObject& vo,
                                   size_t* cursor);

  DigestSchema ds_;
  Recoverer* recoverer_;
  CryptoCounters* counters_ = nullptr;
  std::span<const RecoveredSignature> pool_;
  RecoveredDigestCache* cache_ = nullptr;
  uint64_t cache_domain_ = 0;
  const TopBinding* binding_ = nullptr;
};

}  // namespace vbtree

#endif  // VBTREE_VBTREE_VERIFIER_H_
