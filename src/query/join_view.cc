#include "query/join_view.h"

#include <algorithm>

namespace vbtree {

namespace {

Schema MakeViewSchema(const Schema& left, const Schema& right) {
  std::vector<Column> cols;
  cols.reserve(1 + left.num_columns() + right.num_columns());
  cols.emplace_back("view_id", TypeId::kInt64);
  for (const Column& c : left.columns()) {
    cols.emplace_back("l_" + c.name, c.type);
  }
  for (const Column& c : right.columns()) {
    cols.emplace_back("r_" + c.name, c.type);
  }
  return Schema(std::move(cols));
}

}  // namespace

Tuple JoinView::MakeViewTuple(int64_t view_id, const Tuple& left,
                              const Tuple& right) const {
  std::vector<Value> values;
  values.reserve(schema().num_columns());
  values.push_back(Value::Int(view_id));
  for (const Value& v : left.values()) values.push_back(v);
  for (const Value& v : right.values()) values.push_back(v);
  return Tuple(std::move(values));
}

Result<std::unique_ptr<JoinView>> JoinView::Materialize(
    const JoinSpec& spec, const std::string& db_name,
    const Schema& left_schema, const Schema& right_schema,
    std::span<const Tuple> left_rows, std::span<const Tuple> right_rows,
    Signer* signer, const VBTreeOptions& opts) {
  if (spec.left_col >= left_schema.num_columns() ||
      spec.right_col >= right_schema.num_columns()) {
    return Status::InvalidArgument("join column out of range");
  }
  Schema schema = MakeViewSchema(left_schema, right_schema);
  auto view =
      std::unique_ptr<JoinView>(new JoinView(spec, schema));
  DigestSchema ds(db_name, spec.view_name, schema);
  view->tree_ = std::make_unique<VBTree>(std::move(ds), opts, signer);

  // Hash join on the right side, then emit pairs ordered by
  // (left key, right key) so view ids are deterministic.
  std::unordered_multimap<std::string, const Tuple*> right_by_join_key;
  for (const Tuple& r : right_rows) {
    ByteWriter w;
    r.value(spec.right_col).Serialize(&w);
    right_by_join_key.emplace(
        std::string(reinterpret_cast<const char*>(w.buffer().data()),
                    w.size()),
        &r);
  }
  struct Pair {
    const Tuple* left;
    const Tuple* right;
  };
  std::vector<Pair> pairs;
  for (const Tuple& l : left_rows) {
    ByteWriter w;
    l.value(spec.left_col).Serialize(&w);
    std::string jk(reinterpret_cast<const char*>(w.buffer().data()), w.size());
    auto [begin, end] = right_by_join_key.equal_range(jk);
    for (auto it = begin; it != end; ++it) {
      pairs.push_back(Pair{&l, it->second});
    }
  }
  std::sort(pairs.begin(), pairs.end(), [](const Pair& a, const Pair& b) {
    if (a.left->key() != b.left->key()) return a.left->key() < b.left->key();
    return a.right->key() < b.right->key();
  });

  std::vector<Tuple> rows;
  rows.reserve(pairs.size());
  for (const Pair& p : pairs) {
    int64_t id = view->next_view_id_++;
    view->left_index_.emplace(p.left->key(), id);
    view->right_index_.emplace(p.right->key(), id);
    rows.push_back(view->MakeViewTuple(id, *p.left, *p.right));
  }
  VBT_RETURN_NOT_OK(view->tree_->BulkLoad(rows));
  for (const Tuple& row : rows) view->store_.Put(row);
  view->row_count_ = rows.size();
  return view;
}

Status JoinView::AddJoinedRow(const Tuple& left, const Tuple& right) {
  if (left.value(spec_.left_col).Compare(right.value(spec_.right_col)) != 0) {
    return Status::InvalidArgument("rows do not satisfy the join condition");
  }
  int64_t id = next_view_id_++;
  Tuple vt = MakeViewTuple(id, left, right);
  VBT_RETURN_NOT_OK(tree_->Insert(vt));
  store_.Put(vt);
  left_index_.emplace(left.key(), id);
  right_index_.emplace(right.key(), id);
  row_count_++;
  return Status::OK();
}

Result<size_t> JoinView::RemoveByBaseKey(
    std::unordered_multimap<int64_t, int64_t>* index, int64_t base_key) {
  auto [begin, end] = index->equal_range(base_key);
  std::vector<int64_t> ids;
  for (auto it = begin; it != end; ++it) ids.push_back(it->second);
  index->erase(begin, end);
  size_t removed = 0;
  for (int64_t id : ids) {
    VBT_ASSIGN_OR_RETURN(size_t n, tree_->DeleteRange(id, id));
    store_.RemoveKeyRange(id, id);
    removed += n;
  }
  row_count_ -= removed;
  return removed;
}

Result<size_t> JoinView::RemoveByLeftKey(int64_t left_key) {
  return RemoveByBaseKey(&left_index_, left_key);
}

Result<size_t> JoinView::RemoveByRightKey(int64_t right_key) {
  return RemoveByBaseKey(&right_index_, right_key);
}

}  // namespace vbtree
