#ifndef VBTREE_QUERY_JOIN_VIEW_H_
#define VBTREE_QUERY_JOIN_VIEW_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "storage/row_store.h"
#include "vbtree/vb_tree.h"

namespace vbtree {

/// Definition of an equi-join materialized view (§3.3 Join): R ⋈ S on
/// R.left_col = S.right_col. The paper's observation is that edge-side
/// queries are mostly embedded in applications and known in advance, so
/// each join is materialized and given its own VB-tree; the join result
/// is then authenticated exactly like a base table.
struct JoinSpec {
  std::string view_name;
  std::string left_table;
  std::string right_table;
  size_t left_col = 0;
  size_t right_col = 0;
};

/// A materialized equi-join view with its own RowStore and VB-tree.
///
/// View schema: [view_id INT64, l_<left columns...>, r_<right columns...>].
/// The synthetic view_id key makes view rows indexable by the VB-tree;
/// rows are keyed deterministically in (left key, right key) order at
/// materialization time and appended afterwards.
///
/// Incremental maintenance (driven by the central server, which sees every
/// base-table update): AddJoinedRow on insert matches; RemoveByLeftKey /
/// RemoveByRightKey on base deletions.
class JoinView {
 public:
  static Result<std::unique_ptr<JoinView>> Materialize(
      const JoinSpec& spec, const std::string& db_name,
      const Schema& left_schema, const Schema& right_schema,
      std::span<const Tuple> left_rows, std::span<const Tuple> right_rows,
      Signer* signer, const VBTreeOptions& opts);

  const JoinSpec& spec() const { return spec_; }
  const Schema& schema() const { return store_.schema(); }
  const VBTree* tree() const { return tree_.get(); }
  VBTree* tree() { return tree_.get(); }
  const RowStore& store() const { return store_; }
  size_t row_count() const { return row_count_; }

  /// Adds the join of (left, right); both must satisfy the join condition.
  Status AddJoinedRow(const Tuple& left, const Tuple& right);

  /// Removes all view rows produced from the base row with this left-table
  /// key, from the tree and the store; returns how many were removed.
  Result<size_t> RemoveByLeftKey(int64_t left_key);
  Result<size_t> RemoveByRightKey(int64_t right_key);

 private:
  JoinView(JoinSpec spec, Schema schema)
      : spec_(std::move(spec)), store_(std::move(schema)) {}

  /// Builds the view tuple for a matching pair.
  Tuple MakeViewTuple(int64_t view_id, const Tuple& left,
                      const Tuple& right) const;

  Result<size_t> RemoveByBaseKey(
      std::unordered_multimap<int64_t, int64_t>* index, int64_t base_key);

  JoinSpec spec_;
  RowStore store_;
  std::unique_ptr<VBTree> tree_;
  int64_t next_view_id_ = 0;
  size_t row_count_ = 0;
  /// base key → view ids, per side, for incremental deletes.
  std::unordered_multimap<int64_t, int64_t> left_index_;
  std::unordered_multimap<int64_t, int64_t> right_index_;
};

}  // namespace vbtree

#endif  // VBTREE_QUERY_JOIN_VIEW_H_
