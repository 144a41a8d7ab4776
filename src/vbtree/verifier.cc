#include "vbtree/verifier.h"

#include <algorithm>

namespace vbtree {

Result<Digest> Verifier::ResolveSig(const Signature& sig, uint32_t ref) {
  if (ref != kNoPoolRef && ref < pool_.size()) {
    // The deserializer materialized `sig` from pool entry `ref`, so the
    // once-per-batch recovery at that index is exactly p(sig). A VO that
    // lies about its refs can only point at a different pool entry, whose
    // digest then fails the digest-equation comparison — same outcome as
    // shipping the wrong signature inline.
    const RecoveredSignature& entry = pool_[ref];
    if (!entry.status.ok()) return entry.status;
    return entry.digest;
  }
  Digest d;
  if (cache_ != nullptr && cache_->Lookup(cache_domain_, sig, &d, counters_)) {
    return d;
  }
  VBT_ASSIGN_OR_RETURN(d, recoverer_->Recover(sig));
  if (cache_ != nullptr) cache_->Insert(cache_domain_, sig, d, counters_);
  return d;
}

Result<Digest> Verifier::ComputeNodeDigest(
    const VONode& node, const std::vector<ResultRow>& rows,
    const SelectQuery& q, const std::vector<size_t>& filtered_cols,
    const VerificationObject& vo, size_t* cursor) {
  std::vector<Digest> parts;

  if (node.is_leaf) {
    parts.reserve(node.result_count + node.filtered_tuple_sigs.size());
    for (uint32_t i = 0; i < node.result_count; ++i) {
      if (*cursor >= rows.size()) {
        return Status::VerificationFailure(
            "VO claims more result tuples than were returned");
      }
      size_t row_idx = (*cursor)++;
      const ResultRow& row = rows[row_idx];

      // Recompute the tuple digest (formula (2)) from returned values and
      // recovered projected-attribute digests.
      std::vector<Digest> attrs;
      attrs.reserve(ds_.schema().num_columns());
      const std::vector<size_t>& proj_cols = q.projection;
      if (proj_cols.empty()) {
        for (size_t c = 0; c < ds_.schema().num_columns(); ++c) {
          attrs.push_back(ds_.AttributeDigest(row.key, c, row.values[c]));
        }
      } else {
        for (size_t p = 0; p < proj_cols.size(); ++p) {
          attrs.push_back(
              ds_.AttributeDigest(row.key, proj_cols[p], row.values[p]));
        }
        for (size_t f = 0; f < filtered_cols.size(); ++f) {
          const size_t sig_idx = row_idx * filtered_cols.size() + f;
          const Signature& sig = vo.projected_attr_sigs[sig_idx];
          const uint32_t ref = sig_idx < vo.projected_attr_refs.size()
                                   ? vo.projected_attr_refs[sig_idx]
                                   : kNoPoolRef;
          VBT_ASSIGN_OR_RETURN(Digest d, ResolveSig(sig, ref));
          attrs.push_back(d);
        }
      }
      parts.push_back(ds_.CombineDigests(attrs));
    }
    for (size_t i = 0; i < node.filtered_tuple_sigs.size(); ++i) {
      const uint32_t ref = i < node.filtered_tuple_refs.size()
                               ? node.filtered_tuple_refs[i]
                               : kNoPoolRef;
      VBT_ASSIGN_OR_RETURN(Digest d,
                           ResolveSig(node.filtered_tuple_sigs[i], ref));
      parts.push_back(d);
    }
    return ds_.CombineDigests(parts);
  }

  parts.reserve(node.items.size());
  for (const VONode::Item& item : node.items) {
    if (item.is_covered()) {
      VBT_ASSIGN_OR_RETURN(
          Digest d,
          ComputeNodeDigest(*item.covered, rows, q, filtered_cols, vo, cursor));
      parts.push_back(d);
    } else {
      VBT_ASSIGN_OR_RETURN(Digest d, ResolveSig(item.opaque, item.opaque_ref));
      parts.push_back(d);
    }
  }
  return ds_.CombineDigests(parts);
}

Status Verifier::VerifySelect(const SelectQuery& query,
                              const std::vector<ResultRow>& rows,
                              const VerificationObject& vo) {
  SelectQuery q = query;
  q.NormalizeProjection();
  const size_t m = ds_.schema().num_columns();
  const std::vector<size_t> filtered_cols = q.FilteredColumns(m);
  const size_t row_width = q.projection.empty() ? m : q.projection.size();

  if (vo.skeleton == nullptr) {
    return Status::VerificationFailure("VO has no skeleton");
  }
  if (vo.num_filtered_cols != filtered_cols.size()) {
    return Status::VerificationFailure(
        "VO filtered-column count does not match the query's projection");
  }
  if (vo.projected_attr_sigs.size() != rows.size() * filtered_cols.size()) {
    return Status::VerificationFailure(
        "VO carries the wrong number of projected-attribute digests");
  }

  // Result sanity: width, key extraction, ordering, range membership, and
  // conditions that are checkable client-side (on returned columns).
  int64_t prev_key = 0;
  bool have_prev = false;
  for (const ResultRow& row : rows) {
    if (row.values.size() != row_width) {
      return Status::VerificationFailure("result row has wrong arity");
    }
    // Column 0 is always retained by NormalizeProjection and is first.
    if (row.values[0].type() != TypeId::kInt64 ||
        row.values[0].AsInt() != row.key) {
      return Status::VerificationFailure("result row key mismatch");
    }
    if (!q.range.Contains(row.key)) {
      return Status::VerificationFailure("result key outside query range");
    }
    if (have_prev && prev_key >= row.key) {
      return Status::VerificationFailure("result keys not strictly ascending");
    }
    prev_key = row.key;
    have_prev = true;
    for (const ColumnCondition& cond : q.conditions) {
      // Locate the condition column among returned columns, if present.
      const Value* v = nullptr;
      if (q.projection.empty()) {
        v = &row.values[cond.col_idx];
      } else {
        auto it = std::find(q.projection.begin(), q.projection.end(),
                            cond.col_idx);
        if (it != q.projection.end()) {
          v = &row.values[it - q.projection.begin()];
        }
      }
      if (v != nullptr && !cond.Eval(*v)) {
        return Status::VerificationFailure(
            "result row violates a query condition");
      }
    }
  }

  // Recompute the enveloping subtree's digest bottom-up.
  size_t cursor = 0;
  VBT_ASSIGN_OR_RETURN(
      Digest computed,
      ComputeNodeDigest(*vo.skeleton, rows, q, filtered_cols, vo, &cursor));
  if (cursor != rows.size()) {
    return Status::VerificationFailure(
        "returned tuples not all accounted for by the VO");
  }

  // Recover s(D_N) and compare (Lemma 1 / Lemma 2 check).
  VBT_ASSIGN_OR_RETURN(Digest expected,
                       ResolveSig(vo.signed_top, vo.signed_top_ref));
  if (binding_ != nullptr) {
    // Lineage shard: the VO's envelope top is the shard's root, and the
    // signed anchor covers the binding preimage — wrap the computed root
    // digest the same way. A raw node signature (or a sibling shard's
    // binding, which names a different verify_name/range) recovers to
    // something that cannot equal this hash.
    computed = ShardBindingDigest(ds_.hash_algorithm(), ds_.db_name(),
                                  binding_->verify_name, binding_->lo,
                                  binding_->hi, computed);
  }
  if (!(computed == expected)) {
    return Status::VerificationFailure(
        "digest mismatch: query result failed authentication");
  }
  return Status::OK();
}

}  // namespace vbtree
