// Regenerates Figure 9: index tree height versus key length at
// T_R = 1,000,000 tuples (formula 7), plus measured packed-tree heights
// at the bench scale as a cross-check.
#include "bench/bench_util.h"
#include "btree/btree_config.h"
#include "costmodel/cost_model.h"

using namespace vbtree;

int main() {
  bench::PrintHeader(
      "Figure 9 — Index tree height vs key length (T_R = 1M)",
      "height = ceil(log_f T_R) with f from Figure 8  (formula 7)");

  std::printf("%10s %12s %14s %14s\n", "log2|K|", "|K|(bytes)",
              "B-tree height", "VB-tree height");
  for (int lg = 0; lg <= 8; ++lg) {
    costmodel::CostParams p;
    p.key_len = static_cast<double>(1 << lg);
    double hb = costmodel::PackedHeight(p.num_tuples, costmodel::BTreeFanOut(p));
    double hv =
        costmodel::PackedHeight(p.num_tuples, costmodel::VBTreeFanOut(p));
    std::printf("%10d %12d %14.0f %14.0f\n", lg, 1 << lg, hb, hv);
  }

  // Measured: real packed trees at bench scale track the formula.
  size_t n = bench::MeasuredTuples(20000);
  auto table = bench::BuildBenchTable(n, 10, 20, /*with_naive=*/false);
  if (table == nullptr) return 1;
  int f = table->tree->options().config.max_internal;
  std::printf(
      "\nMeasured cross-check: packed VB-tree over %zu tuples, fan-out %d:\n"
      "  built height = %d, formula height = %d\n",
      n, f, table->tree->height(),
      BTreeConfig::PackedHeight(n, f));
  std::printf(
      "\nExpected shape (paper): despite the fan-out penalty, the height\n"
      "difference is at most ~1 level, so traversal cost is comparable.\n");
  return 0;
}
