#ifndef VBTREE_BTREE_BTREE_CONFIG_H_
#define VBTREE_BTREE_BTREE_CONFIG_H_

#include <cstddef>
#include <cstdint>

namespace vbtree {

/// Node-capacity parameters of the VB-tree, plus the plain-B-tree fan-out
/// it is compared against (Fig. 8). Capacities derive from the paper's block-size formulas (§4.1): an
/// index node of |B| bytes holds f child pointers, f-1 keys and (for the
/// VB-tree) f signed digests.
struct BTreeConfig {
  /// Maximum children per internal node (fan-out f).
  int max_internal = 128;
  /// Maximum entries per leaf node.
  int max_leaf = 128;

  /// Fan-out of a plain B-tree node: floor((|B| + |K|) / (|K| + |P|)),
  /// i.e. f pointers + (f-1) keys must fit in a block.
  static int BTreeFanOut(size_t key_len, size_t ptr_len, size_t block_size);

  /// Fan-out of a VB-tree node (paper formula (6)): each child entry
  /// additionally carries a signed digest of |s| bytes:
  /// floor((|B| + |K|) / (|K| + |P| + |s|)).
  static int VBTreeFanOut(size_t key_len, size_t ptr_len, size_t digest_len,
                          size_t block_size);

  /// Height of a fully packed tree of `fan_out` over `num_tuples` tuples
  /// (paper formula (7)): ceil(log_f T_R), at least 1.
  static int PackedHeight(uint64_t num_tuples, int fan_out);

  static BTreeConfig FromBlockSize(size_t key_len, size_t ptr_len,
                                   size_t block_size);
};

}  // namespace vbtree

#endif  // VBTREE_BTREE_BTREE_CONFIG_H_
