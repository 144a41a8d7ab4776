#include "btree/btree_config.h"

#include <cmath>

namespace vbtree {

int BTreeConfig::BTreeFanOut(size_t key_len, size_t ptr_len,
                             size_t block_size) {
  int f = static_cast<int>((block_size + key_len) / (key_len + ptr_len));
  return f < 2 ? 2 : f;
}

int BTreeConfig::VBTreeFanOut(size_t key_len, size_t ptr_len,
                              size_t digest_len, size_t block_size) {
  int f = static_cast<int>((block_size + key_len) /
                           (key_len + ptr_len + digest_len));
  return f < 2 ? 2 : f;
}

int BTreeConfig::PackedHeight(uint64_t num_tuples, int fan_out) {
  if (num_tuples <= 1) return 1;
  double h = std::log(static_cast<double>(num_tuples)) /
             std::log(static_cast<double>(fan_out));
  int hi = static_cast<int>(std::ceil(h - 1e-9));
  return hi < 1 ? 1 : hi;
}

BTreeConfig BTreeConfig::FromBlockSize(size_t key_len, size_t ptr_len,
                                       size_t block_size) {
  BTreeConfig c;
  c.max_internal = BTreeFanOut(key_len, ptr_len, block_size);
  c.max_leaf = c.max_internal;
  return c;
}

}  // namespace vbtree
