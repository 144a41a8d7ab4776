#ifndef VBTREE_COMMON_CONFIG_H_
#define VBTREE_COMMON_CONFIG_H_

#include <cstddef>

namespace vbtree {

/// Length of a (signed) digest in bytes (paper Table 1: |s| = 16).
inline constexpr size_t kDigestLen = 16;

}  // namespace vbtree

#endif  // VBTREE_COMMON_CONFIG_H_
