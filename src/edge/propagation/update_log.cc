#include "edge/propagation/update_log.h"

#include <algorithm>

namespace vbtree {

namespace {

void PutSig(ByteWriter* w, const Signature& s) {
  w->PutLengthPrefixed(Slice(s.data(), s.size()));
}

Result<Signature> ReadSig(ByteReader* r) {
  VBT_ASSIGN_OR_RETURN(Slice s, r->ReadLengthPrefixed());
  return Signature(s.data(), s.data() + s.size());
}

}  // namespace

void UpdateOp::Serialize(ByteWriter* w) const {
  w->PutU8(static_cast<uint8_t>(kind));
  if (kind == Kind::kInsert) {
    tuple.Serialize(w);
    PutSig(w, material.tuple_sig);
    w->PutVarint(material.attr_sigs.size());
    for (const Signature& s : material.attr_sigs) PutSig(w, s);
  } else {
    w->PutI64(lo);
    w->PutI64(hi);
  }
  w->PutVarint(resigned.size());
  for (const Signature& s : resigned) PutSig(w, s);
}

Result<UpdateOp> UpdateOp::Deserialize(ByteReader* r, const Schema& schema) {
  UpdateOp op;
  VBT_ASSIGN_OR_RETURN(uint8_t kind, r->ReadU8());
  if (kind > static_cast<uint8_t>(Kind::kDeleteRange)) {
    return Status::Corruption("bad update op kind");
  }
  op.kind = static_cast<Kind>(kind);
  if (op.kind == Kind::kInsert) {
    VBT_ASSIGN_OR_RETURN(op.tuple, Tuple::Deserialize(r, schema));
    VBT_ASSIGN_OR_RETURN(op.material.tuple_sig, ReadSig(r));
    VBT_ASSIGN_OR_RETURN(uint64_t n, r->ReadCount());
    op.material.attr_sigs.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      VBT_ASSIGN_OR_RETURN(Signature s, ReadSig(r));
      op.material.attr_sigs.push_back(std::move(s));
    }
  } else {
    VBT_ASSIGN_OR_RETURN(op.lo, r->ReadI64());
    VBT_ASSIGN_OR_RETURN(op.hi, r->ReadI64());
  }
  VBT_ASSIGN_OR_RETURN(uint64_t n, r->ReadCount());
  op.resigned.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    VBT_ASSIGN_OR_RETURN(Signature s, ReadSig(r));
    op.resigned.push_back(std::move(s));
  }
  return op;
}

void UpdateBatch::Serialize(ByteWriter* w) const {
  w->PutU32(0x544C4456);  // "VDLT"
  w->PutString(table);
  w->PutU64(from_version);
  w->PutU64(to_version);
  w->PutVarint(ops.size());
  for (const UpdateOp& op : ops) op.Serialize(w);
}

Result<UpdateBatch> UpdateBatch::Deserialize(
    ByteReader* r,
    const std::function<Result<Schema>(const std::string&)>& schema_for) {
  VBT_ASSIGN_OR_RETURN(uint32_t magic, r->ReadU32());
  if (magic != 0x544C4456) return Status::Corruption("bad delta magic");
  UpdateBatch batch;
  VBT_ASSIGN_OR_RETURN(batch.table, r->ReadString());
  VBT_ASSIGN_OR_RETURN(batch.from_version, r->ReadU64());
  VBT_ASSIGN_OR_RETURN(batch.to_version, r->ReadU64());
  VBT_ASSIGN_OR_RETURN(Schema schema, schema_for(batch.table));
  VBT_ASSIGN_OR_RETURN(uint64_t n, r->ReadCount());
  if (batch.to_version < batch.from_version ||
      batch.to_version - batch.from_version != n) {
    return Status::Corruption("delta op count does not match version span");
  }
  batch.ops.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    VBT_ASSIGN_OR_RETURN(UpdateOp op, UpdateOp::Deserialize(r, schema));
    batch.ops.push_back(std::move(op));
  }
  return batch;
}

size_t UpdateBatch::SerializedSize() const {
  ByteWriter w;
  Serialize(&w);
  return w.size();
}

void UpdateLog::Append(UpdateOp op) {
  ops_.push_back(std::move(op));
  if (ops_.size() > max_retained_) {
    ops_.pop_front();
    base_++;
  }
}

Result<UpdateBatch> UpdateLog::BatchSince(const std::string& table,
                                          uint64_t from_version,
                                          size_t max_ops) const {
  if (!Covers(from_version)) {
    return Status::InvalidArgument(
        "version " + std::to_string(from_version) +
        " predates the retained log window [" + std::to_string(base_) + ", " +
        std::to_string(head_version()) + "]; a full snapshot is required");
  }
  size_t skip = static_cast<size_t>(from_version - base_);
  size_t count = std::min(ops_.size() - skip, max_ops);
  UpdateBatch batch;
  batch.table = table;
  batch.from_version = from_version;
  batch.to_version = from_version + count;
  batch.ops.assign(ops_.begin() + static_cast<ptrdiff_t>(skip),
                   ops_.begin() + static_cast<ptrdiff_t>(skip + count));
  return batch;
}

void UpdateLog::TruncateThrough(uint64_t version) {
  uint64_t through = std::min(version, head_version());
  while (!ops_.empty() && base_ < through) {
    ops_.pop_front();
    base_++;
  }
}

void UpdateLog::Reset(uint64_t new_base) {
  ops_.clear();
  base_ = new_base;
}

}  // namespace vbtree
