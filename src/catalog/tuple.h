#ifndef VBTREE_CATALOG_TUPLE_H_
#define VBTREE_CATALOG_TUPLE_H_

#include <cstdint>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"
#include "common/result.h"

namespace vbtree {

/// A materialized row: one Value per schema column. Column 0 is the
/// primary key.
class Tuple {
 public:
  Tuple() = default;
  explicit Tuple(std::vector<Value> values) : values_(std::move(values)) {}

  size_t num_values() const { return values_.size(); }
  const Value& value(size_t i) const { return values_[i]; }
  const std::vector<Value>& values() const { return values_; }
  void set_value(size_t i, Value v) { values_[i] = std::move(v); }

  /// Primary key (column 0).
  int64_t key() const { return values_[0].AsInt(); }

  /// Exact serialized byte size under `schema` ordering.
  size_t SerializedSize() const;

  void Serialize(ByteWriter* w) const;
  static Result<Tuple> Deserialize(ByteReader* r, const Schema& schema);

  bool operator==(const Tuple& o) const { return values_ == o.values_; }

  std::string ToString() const;

 private:
  std::vector<Value> values_;
};

}  // namespace vbtree

#endif  // VBTREE_CATALOG_TUPLE_H_
