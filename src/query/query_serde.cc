#include "query/query_serde.h"

namespace vbtree {

namespace {

void SerializeValue(const Value& v, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(v.type()));
  v.Serialize(w);
}

Result<Value> DeserializeValueWithType(ByteReader* r) {
  VBT_ASSIGN_OR_RETURN(uint8_t t, r->ReadU8());
  if (t > static_cast<uint8_t>(TypeId::kString)) {
    return Status::Corruption("bad TypeId");
  }
  return Value::Deserialize(r, static_cast<TypeId>(t));
}

}  // namespace

namespace {

/// Everything after the table field; shared by the full and sans-table
/// encodings so the two can never diverge.
void SerializeSelectQueryTail(const SelectQuery& q, ByteWriter* w) {
  w->PutI64(q.range.lo);
  w->PutI64(q.range.hi);
  w->PutVarint(q.conditions.size());
  for (const ColumnCondition& c : q.conditions) {
    w->PutVarint(c.col_idx);
    w->PutU8(static_cast<uint8_t>(c.op));
    SerializeValue(c.operand, w);
  }
  w->PutVarint(q.projection.size());
  for (size_t c : q.projection) w->PutVarint(c);
}

/// The query bytes minus the table: the batch names its table once.
void SerializeSelectQuerySansTable(const SelectQuery& q, ByteWriter* w) {
  w->PutString(std::string());  // empty table slot keeps the framing
  SerializeSelectQueryTail(q, w);
}

}  // namespace

void SerializeSelectQuery(const SelectQuery& q, ByteWriter* w) {
  w->PutString(q.table);
  SerializeSelectQueryTail(q, w);
}

Result<SelectQuery> DeserializeSelectQuery(ByteReader* r) {
  SelectQuery q;
  VBT_ASSIGN_OR_RETURN(q.table, r->ReadString());
  VBT_ASSIGN_OR_RETURN(q.range.lo, r->ReadI64());
  VBT_ASSIGN_OR_RETURN(q.range.hi, r->ReadI64());
  VBT_ASSIGN_OR_RETURN(uint64_t nc, r->ReadCount());
  q.conditions.reserve(nc);
  for (uint64_t i = 0; i < nc; ++i) {
    ColumnCondition c;
    VBT_ASSIGN_OR_RETURN(uint64_t col, r->ReadVarint());
    c.col_idx = col;
    VBT_ASSIGN_OR_RETURN(uint8_t op, r->ReadU8());
    if (op > static_cast<uint8_t>(CompareOp::kGe)) {
      return Status::Corruption("bad CompareOp");
    }
    c.op = static_cast<CompareOp>(op);
    VBT_ASSIGN_OR_RETURN(c.operand, DeserializeValueWithType(r));
    q.conditions.push_back(std::move(c));
  }
  VBT_ASSIGN_OR_RETURN(uint64_t np, r->ReadCount());
  q.projection.reserve(np);
  for (uint64_t i = 0; i < np; ++i) {
    VBT_ASSIGN_OR_RETURN(uint64_t c, r->ReadVarint());
    q.projection.push_back(c);
  }
  return q;
}

void SerializeQueryBatch(const QueryBatch& batch, ByteWriter* w) {
  w->PutString(batch.table);
  w->PutVarint(batch.queries.size());
  for (const SelectQuery& q : batch.queries) {
    SerializeSelectQuerySansTable(q, w);
  }
  // Trailing trust-mode byte. Read-if-present on the other end, so
  // pre-trust-mode request encodings (exactly the queries, nothing after)
  // still parse as kCertified.
  w->PutU8(static_cast<uint8_t>(batch.trust_mode));
}

Result<QueryBatch> DeserializeQueryBatch(ByteReader* r) {
  QueryBatch batch;
  VBT_ASSIGN_OR_RETURN(batch.table, r->ReadString());
  VBT_ASSIGN_OR_RETURN(uint64_t n, r->ReadCount());
  batch.queries.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    VBT_ASSIGN_OR_RETURN(SelectQuery q, DeserializeSelectQuery(r));
    q.table = batch.table;
    batch.queries.push_back(std::move(q));
  }
  if (r->remaining() > 0) {
    VBT_ASSIGN_OR_RETURN(uint8_t m, r->ReadU8());
    if (m > static_cast<uint8_t>(TrustMode::kSampled)) {
      return Status::Corruption("bad TrustMode on the wire");
    }
    batch.trust_mode = static_cast<TrustMode>(m);
  }
  return batch;
}

void SerializeResultRows(const std::vector<ResultRow>& rows, ByteWriter* w) {
  w->PutVarint(rows.size());
  for (const ResultRow& row : rows) {
    for (const Value& v : row.values) v.Serialize(w);
  }
}

void SerializeStatus(const Status& s, ByteWriter* w) {
  w->PutU8(static_cast<uint8_t>(s.code()));
  w->PutString(s.message());
}

Status DeserializeStatus(ByteReader* r, Status* out) {
  VBT_ASSIGN_OR_RETURN(uint8_t code, r->ReadU8());
  if (code > static_cast<uint8_t>(StatusCode::kInternal)) {
    return Status::Corruption("bad StatusCode on the wire");
  }
  VBT_ASSIGN_OR_RETURN(std::string msg, r->ReadString());
  *out = Status(static_cast<StatusCode>(code), std::move(msg));
  return Status::OK();
}

Result<std::vector<ResultRow>> DeserializeResultRows(
    ByteReader* r, const Schema& schema,
    const std::vector<size_t>& projection) {
  VBT_ASSIGN_OR_RETURN(uint64_t n, r->ReadCount());
  std::vector<size_t> cols = projection;
  if (cols.empty()) {
    for (size_t c = 0; c < schema.num_columns(); ++c) cols.push_back(c);
  }
  std::vector<ResultRow> rows;
  rows.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ResultRow row;
    row.values.reserve(cols.size());
    for (size_t c : cols) {
      VBT_ASSIGN_OR_RETURN(Value v,
                           Value::Deserialize(r, schema.column(c).type));
      row.values.push_back(std::move(v));
    }
    if (row.values.empty() || row.values[0].type() != TypeId::kInt64) {
      return Status::Corruption("result row missing key column");
    }
    row.key = row.values[0].AsInt();
    rows.push_back(std::move(row));
  }
  return rows;
}

}  // namespace vbtree
