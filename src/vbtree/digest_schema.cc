#include "vbtree/digest_schema.h"

#include "common/serde.h"
#include "crypto/hash.h"

namespace vbtree {

Digest DigestSchema::AttributeDigest(int64_t key, size_t col_idx,
                                     const Value& v) const {
  if (counters_ != nullptr) CryptoCounters::Tick(counters_->attr_hashes);
  // Length-prefixed fields make the preimage unambiguous (no separator
  // collisions between e.g. table and attribute names). The preimage
  // buffer is reused per thread: this runs once per returned attribute on
  // the client verification hot path, where a fresh heap allocation per
  // digest is measurable.
  thread_local ByteWriter w(64);
  w.Clear();
  w.PutString(db_name_);
  w.PutString(table_name_);
  w.PutString(schema_.column(col_idx).name);
  w.PutI64(key);
  v.Serialize(&w);
  return HashToDigest(HashAlgorithm::kSha256, Slice(w.buffer()));
}

std::vector<Digest> DigestSchema::AttributeDigests(const Tuple& t) const {
  std::vector<Digest> out;
  out.reserve(t.num_values());
  int64_t key = t.key();
  for (size_t c = 0; c < t.num_values(); ++c) {
    out.push_back(AttributeDigest(key, c, t.value(c)));
  }
  return out;
}

Digest DigestSchema::TupleDigest(const Tuple& t) const {
  std::vector<Digest> attrs = AttributeDigests(t);
  return ghash_.Combine(attrs);
}

Digest ShardBindingDigest(const std::string& db_name,
                          const std::string& verify_name, int64_t lo,
                          int64_t hi, const Digest& root_digest) {
  // Length-prefixed fields, same anti-collision discipline as
  // AttributeDigest. Deliberately NOT versioned: an old root digest under
  // a valid binding is mere staleness, which replica-version watermarks
  // already police; putting the tree version in the preimage would force
  // a re-sign on version bumps that leave the root digest unchanged
  // (no-op deletes).
  ByteWriter w(64);
  w.PutString(db_name);
  w.PutString(verify_name);
  w.PutI64(lo);
  w.PutI64(hi);
  w.PutBytes(root_digest.AsSlice());
  return HashToDigest(HashAlgorithm::kSha256, Slice(w.buffer()));
}

}  // namespace vbtree
