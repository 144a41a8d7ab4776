#include "edge/partition_map.h"

#include <algorithm>
#include <limits>
#include <set>

namespace vbtree {

namespace {
constexpr uint32_t kMapMagic = 0x50414D50;  // "PMAP"
constexpr int64_t kMinKey = std::numeric_limits<int64_t>::min();
constexpr int64_t kMaxKey = std::numeric_limits<int64_t>::max();
}  // namespace

std::string PartitionMap::ShardName(const std::string& table,
                                    uint32_t shard_id) {
  if (shard_id == 0) return table;
  return table + "#" + std::to_string(shard_id);
}

bool PartitionMap::ParseShardName(const std::string& dist_name,
                                  std::string* base, uint32_t* shard_id) {
  size_t pos = dist_name.rfind('#');
  if (pos == std::string::npos || pos + 1 >= dist_name.size()) return false;
  uint64_t id = 0;
  for (size_t i = pos + 1; i < dist_name.size(); ++i) {
    char c = dist_name[i];
    if (c < '0' || c > '9') return false;
    id = id * 10 + static_cast<uint64_t>(c - '0');
    if (id > std::numeric_limits<uint32_t>::max()) return false;
  }
  *base = dist_name.substr(0, pos);
  *shard_id = static_cast<uint32_t>(id);
  return true;
}

size_t PartitionMap::ShardIndexForKey(int64_t key) const {
  // First shard whose hi >= key; a well-formed map always has one.
  auto it = std::lower_bound(
      shards.begin(), shards.end(), key,
      [](const ShardEntry& s, int64_t k) { return s.hi < k; });
  return it == shards.end() ? shards.size() - 1
                            : static_cast<size_t>(it - shards.begin());
}

std::vector<size_t> PartitionMap::ShardIndicesForRange(
    const KeyRange& range) const {
  std::vector<size_t> out;
  if (range.empty() || shards.empty()) return out;
  for (size_t i = ShardIndexForKey(range.lo); i < shards.size(); ++i) {
    if (shards[i].lo > range.hi) break;
    out.push_back(i);
  }
  return out;
}

const ShardEntry* PartitionMap::FindShard(uint32_t shard_id) const {
  for (const ShardEntry& s : shards) {
    if (s.shard_id == shard_id) return &s;
  }
  return nullptr;
}

Status PartitionMap::CheckWellFormed() const {
  if (shards.empty()) return Status::Corruption("partition map has no shards");
  if (shards.front().lo != kMinKey || shards.back().hi != kMaxKey) {
    return Status::Corruption("partition map does not cover the key domain");
  }
  std::set<uint32_t> ids;
  for (size_t i = 0; i < shards.size(); ++i) {
    const ShardEntry& s = shards[i];
    if (s.lo > s.hi) return Status::Corruption("shard range is empty");
    if (!ids.insert(s.shard_id).second) {
      return Status::Corruption("duplicate shard id in partition map");
    }
    // Adjacency without overflow: a previous hi of INT64_MAX can have no
    // successor (an adversarial map could claim one), and `hi + 1` is
    // only evaluated once hi < INT64_MAX.
    if (i > 0 &&
        (shards[i - 1].hi == kMaxKey || shards[i - 1].hi + 1 != s.lo)) {
      return Status::Corruption("shard ranges are not contiguous");
    }
  }
  if (shards.size() > 1 && ids.count(0) != 0) {
    // Id 0 is reserved for the sole shard of an unsplit table (it keeps
    // the plain table name); a multi-shard map claiming it would alias a
    // shard's digest schema onto the whole-table schema.
    return Status::Corruption("multi-shard map uses reserved shard id 0");
  }
  return Status::OK();
}

Digest PartitionMap::ContentDigest() const {
  ByteWriter w(64 + shards.size() * 20);
  w.PutU32(kMapMagic);
  w.PutString(db_name);
  w.PutString(table);
  w.PutU64(epoch);
  w.PutU32(key_version);
  w.PutVarint(shards.size());
  for (const ShardEntry& s : shards) {
    w.PutU32(s.shard_id);
    w.PutI64(s.lo);
    w.PutI64(s.hi);
    // Length-prefixed, so an empty lineage is still an unambiguous byte
    // in the preimage — "no lineage" and "lineage ''" cannot collide
    // with a crafted neighboring field.
    w.PutString(s.lineage);
  }
  return HashToDigest(HashAlgorithm::kSha256, Slice(w.buffer()));
}

Status PartitionMap::Verify(Recoverer* recoverer) const {
  VBT_RETURN_NOT_OK(CheckWellFormed());
  if (recoverer == nullptr) {
    return Status::InvalidArgument("null recoverer for partition map");
  }
  auto recovered = recoverer->Recover(sig);
  if (!recovered.ok()) {
    return Status::VerificationFailure("partition map signature of '" + table +
                                       "' does not recover: " +
                                       recovered.status().ToString());
  }
  if (!(*recovered == ContentDigest())) {
    return Status::VerificationFailure(
        "partition map signature does not bind the shard layout of '" + table +
        "' (epoch " + std::to_string(epoch) + ")");
  }
  return Status::OK();
}

void PartitionMap::Serialize(ByteWriter* w) const {
  w->PutU32(kMapMagic);
  w->PutString(db_name);
  w->PutString(table);
  w->PutU64(epoch);
  w->PutU32(key_version);
  w->PutVarint(shards.size());
  for (const ShardEntry& s : shards) {
    w->PutU32(s.shard_id);
    w->PutI64(s.lo);
    w->PutI64(s.hi);
    w->PutString(s.lineage);
  }
  w->PutLengthPrefixed(Slice(sig.data(), sig.size()));
}

Result<PartitionMap> PartitionMap::Deserialize(ByteReader* r) {
  PartitionMap map;
  VBT_ASSIGN_OR_RETURN(uint32_t magic, r->ReadU32());
  if (magic != kMapMagic) return Status::Corruption("bad partition map magic");
  VBT_ASSIGN_OR_RETURN(map.db_name, r->ReadString());
  VBT_ASSIGN_OR_RETURN(map.table, r->ReadString());
  VBT_ASSIGN_OR_RETURN(map.epoch, r->ReadU64());
  VBT_ASSIGN_OR_RETURN(map.key_version, r->ReadU32());
  VBT_ASSIGN_OR_RETURN(uint64_t n, r->ReadCount());
  map.shards.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    ShardEntry s;
    VBT_ASSIGN_OR_RETURN(s.shard_id, r->ReadU32());
    VBT_ASSIGN_OR_RETURN(s.lo, r->ReadI64());
    VBT_ASSIGN_OR_RETURN(s.hi, r->ReadI64());
    VBT_ASSIGN_OR_RETURN(s.lineage, r->ReadString());
    map.shards.push_back(s);
  }
  VBT_ASSIGN_OR_RETURN(Slice sig_bytes, r->ReadLengthPrefixed());
  map.sig.assign(sig_bytes.data(), sig_bytes.data() + sig_bytes.size());
  VBT_RETURN_NOT_OK(map.CheckWellFormed());
  return map;
}

std::vector<int64_t> EvenSplitPoints(size_t n, size_t shards) {
  std::vector<int64_t> splits;
  if (shards <= 1 || n == 0) return splits;
  for (size_t s = 1; s < shards; ++s) {
    int64_t point = static_cast<int64_t>(s * n / shards);
    if ((splits.empty() || point > splits.back()) && point > 0) {
      splits.push_back(point);
    }
  }
  return splits;
}

std::vector<ShardScatter> BuildScatterPlan(
    const PartitionMap& map, std::span<const SelectQuery> queries) {
  // slices_by_shard[i] collects the clamped sub-queries of shard index i.
  std::vector<std::vector<ShardSlice>> slices_by_shard(map.shards.size());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const SelectQuery& q = queries[qi];
    for (size_t si : map.ShardIndicesForRange(q.range)) {
      const ShardEntry& shard = map.shards[si];
      ShardSlice slice;
      slice.query_index = qi;
      slice.query = q;
      slice.query.table = map.shard_name(si);
      slice.query.range.lo = std::max(q.range.lo, shard.lo);
      slice.query.range.hi = std::min(q.range.hi, shard.hi);
      slices_by_shard[si].push_back(std::move(slice));
    }
  }
  std::vector<ShardScatter> plan;
  for (size_t si = 0; si < slices_by_shard.size(); ++si) {
    if (slices_by_shard[si].empty()) continue;
    ShardScatter group;
    group.shard_index = si;
    group.shard_id = map.shards[si].shard_id;
    group.slices = std::move(slices_by_shard[si]);
    plan.push_back(std::move(group));
  }
  return plan;
}

}  // namespace vbtree
