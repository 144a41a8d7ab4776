#include "storage/row_store.h"

#include <mutex>

#include "common/serde.h"

namespace vbtree {

void RowStore::Put(const Tuple& tuple) {
  ByteWriter w(tuple.SerializedSize());
  tuple.Serialize(&w);
  PutEncoded(tuple.key(), Slice(w.buffer()));
}

void RowStore::PutEncoded(int64_t key, Slice row) {
  Stripe& s = StripeFor(key);
  std::unique_lock lock(s.mu);
  s.rows.insert_or_assign(key, row.ToString());
}

Result<Tuple> RowStore::Get(int64_t key) const {
  const Stripe& s = StripeFor(key);
  std::shared_lock lock(s.mu);
  auto it = s.rows.find(key);
  if (it == s.rows.end()) return Status::NotFound("no row with key");
  ByteReader r{Slice(it->second)};
  return Tuple::Deserialize(&r, schema_);
}

std::vector<int64_t> RowStore::RemoveKeyRange(int64_t lo, int64_t hi) {
  std::vector<int64_t> removed;
  for (Stripe& s : stripes_) {
    std::unique_lock lock(s.mu);
    auto it = s.rows.lower_bound(lo);
    while (it != s.rows.end() && it->first <= hi) {
      removed.push_back(it->first);
      it = s.rows.erase(it);
    }
  }
  return removed;
}

Status RowStore::TamperByKey(int64_t key, size_t col, Value v) {
  Stripe& s = StripeFor(key);
  std::unique_lock lock(s.mu);
  auto it = s.rows.find(key);
  if (it == s.rows.end()) return Status::NotFound("no row with key");
  ByteReader r{Slice(it->second)};
  VBT_ASSIGN_OR_RETURN(Tuple t, Tuple::Deserialize(&r, schema_));
  if (col >= t.num_values()) {
    return Status::InvalidArgument("column out of range");
  }
  t.set_value(col, std::move(v));
  ByteWriter w(t.SerializedSize());
  t.Serialize(&w);
  it->second = Slice(w.buffer()).ToString();
  return Status::OK();
}

size_t RowStore::size() const {
  size_t n = 0;
  for (const Stripe& s : stripes_) {
    std::shared_lock lock(s.mu);
    n += s.rows.size();
  }
  return n;
}

void RowStore::Scan(const std::function<void(int64_t, Slice)>& fn) const {
  for (const Stripe& s : stripes_) {
    std::shared_lock lock(s.mu);
    for (const auto& [key, row] : s.rows) fn(key, Slice(row));
  }
}

}  // namespace vbtree
