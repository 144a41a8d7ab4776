// Regenerates Figure 8: index tree fan-out versus key length, B-tree vs
// VB-tree, for |B| = 4 KB, |P| = 4, |s| = 16 and |K| = 2^0 .. 2^8 bytes.
#include "bench/bench_util.h"
#include "btree/btree_config.h"
#include "costmodel/cost_model.h"

using namespace vbtree;

int main() {
  bench::PrintHeader(
      "Figure 8 — Index tree fan-out vs key length",
      "f_B = (|B|+|K|)/(|K|+|P|); f_VB = (|B|+|K|)/(|K|+|P|+|s|)  (formula 6)");

  std::printf("%10s %12s %14s %14s %10s\n", "log2|K|", "|K|(bytes)",
              "B-tree fanout", "VB-tree fanout", "ratio");
  for (int lg = 0; lg <= 8; ++lg) {
    size_t klen = static_cast<size_t>(1) << lg;
    costmodel::CostParams p;
    p.key_len = static_cast<double>(klen);
    double fb = costmodel::BTreeFanOut(p);
    double fv = costmodel::VBTreeFanOut(p);
    // Cross-check against the structural capacity helpers the trees use.
    int fb2 = BTreeConfig::BTreeFanOut(klen, 4, 4096);
    int fv2 = BTreeConfig::VBTreeFanOut(klen, 4, 16, 4096);
    if (fb2 != static_cast<int>(fb) || fv2 != static_cast<int>(fv)) {
      std::printf("MISMATCH between cost model and tree config!\n");
      return 1;
    }
    std::printf("%10d %12zu %14.0f %14.0f %10.2f\n", lg, klen, fb, fv,
                fb / fv);
  }
  std::printf(
      "\nExpected shape (paper): VB-tree fan-out well below B-tree for\n"
      "short keys (digest dominates the entry), converging as |K| grows.\n");
  return 0;
}
