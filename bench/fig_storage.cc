// Regenerates §4.1 (storage costs): the overhead the VB-tree scheme adds
// to the base table and the index, analytical (paper parameters) and
// measured (serialized snapshot sizes of real tables).
#include "bench/bench_util.h"
#include "costmodel/cost_model.h"

using namespace vbtree;

int main() {
  bench::PrintHeader("§4.1 — Storage costs",
                     "base-table digest overhead and index size overhead");

  // ---- analytical at the paper's scale ----
  costmodel::CostParams p;
  double table_bytes = p.num_tuples * p.num_cols * p.attr_len;
  double overhead = costmodel::BaseTableOverheadBytes(p);
  std::printf(
      "Analytical @T_R=1M, T_c=10, 20 B/attribute, |s|=16:\n"
      "  base table data:              %8.1f MB\n"
      "  signed attribute digests:     %8.1f MB  (T_R * T_c * |s|)\n"
      "  per-tuple overhead factor:    %8.2fx\n",
      table_bytes / 1e6, overhead / 1e6, (table_bytes + overhead) / table_bytes);
  double f_b = costmodel::BTreeFanOut(p);
  double f_vb = costmodel::VBTreeFanOut(p);
  double nodes_b = p.num_tuples / f_b;   // leaf level approximation
  double nodes_vb = p.num_tuples / f_vb;
  std::printf(
      "  B-tree leaf nodes:            %8.0f (fan-out %.0f)\n"
      "  VB-tree leaf nodes:           %8.0f (fan-out %.0f; %.0f KB of\n"
      "  node digests per level: f * |s| per node)\n",
      nodes_b, f_b, nodes_vb, f_vb, nodes_vb * f_vb * p.digest_len / 1e3);

  // ---- measured: serialized components ----
  size_t n = bench::MeasuredTuples(20000);
  auto table = bench::BuildBenchTable(n, 10, 20, /*with_naive=*/false);
  if (table == nullptr) return 1;

  // Raw data bytes.
  size_t data_bytes = 0;
  table->store->Scan(
      [&](int64_t, Slice row) { data_bytes += row.size(); });
  ByteWriter w;
  table->tree->SerializeTo(&w);
  size_t tree_bytes = w.size();
  // Signature material: (T_c attribute sigs + 1 tuple sig) per tuple plus
  // one per node.
  size_t sig_count = n * 11 + table->tree->node_count();
  std::printf(
      "\nMeasured @T_R=%zu:\n"
      "  tuple data:                   %8.1f KB\n"
      "  serialized VB-tree (digests,  %8.1f KB\n"
      "  signatures, keys, structure)\n"
      "  signatures stored:            %8zu (16 B each = %.1f KB)\n"
      "  total vs raw data:            %8.2fx\n",
      n, data_bytes / 1e3, tree_bytes / 1e3, sig_count,
      sig_count * 16.0 / 1e3,
      static_cast<double>(data_bytes + tree_bytes) / data_bytes);
  std::printf(
      "\nExpected shape (paper): storage overhead is substantial — an |s|\n"
      "per attribute, per tuple and per node — and is the price paid for\n"
      "VOs that never reach to the root (Fig. 8/9 fan-out penalty).\n");
  return 0;
}
