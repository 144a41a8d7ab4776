#include <gtest/gtest.h>

#include "btree/btree_config.h"

namespace vbtree {
namespace {

TEST(BTreeConfigTest, FanOutFormulas) {
  // Defaults of Table 1: |B|=4096, |K|=16, |P|=4, |s|=16.
  EXPECT_EQ(BTreeConfig::BTreeFanOut(16, 4, 4096), 205);
  EXPECT_EQ(BTreeConfig::VBTreeFanOut(16, 4, 16, 4096), 114);
  // VB-tree fan-out is never larger.
  for (size_t klen = 1; klen <= 256; klen *= 2) {
    EXPECT_LE(BTreeConfig::VBTreeFanOut(klen, 4, 16, 4096),
              BTreeConfig::BTreeFanOut(klen, 4, 4096));
  }
}

TEST(BTreeConfigTest, FanOutGapShrinksWithKeyLength) {
  double prev_ratio = 1e9;
  for (size_t klen = 1; klen <= 256; klen *= 2) {
    double ratio =
        static_cast<double>(BTreeConfig::BTreeFanOut(klen, 4, 4096)) /
        BTreeConfig::VBTreeFanOut(klen, 4, 16, 4096);
    EXPECT_LE(ratio, prev_ratio + 0.05);
    prev_ratio = ratio;
  }
  // Long keys dominate the entry size; the structures converge (Fig. 8).
  EXPECT_LT(prev_ratio, 1.2);
}

TEST(BTreeConfigTest, PackedHeight) {
  EXPECT_EQ(BTreeConfig::PackedHeight(1, 100), 1);
  EXPECT_EQ(BTreeConfig::PackedHeight(100, 100), 1);
  EXPECT_EQ(BTreeConfig::PackedHeight(101, 100), 2);
  EXPECT_EQ(BTreeConfig::PackedHeight(10000, 100), 2);
  EXPECT_EQ(BTreeConfig::PackedHeight(10001, 100), 3);
}

}  // namespace
}  // namespace vbtree
