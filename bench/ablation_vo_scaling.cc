// Ablation: sign-every-node (VB-tree) vs sign-root-only (Merkle hash
// tree, Devanbu-style). Fixes the result size at 100 tuples and sweeps
// the table size: the VB-tree VO must stay flat while the MHT proof
// grows with log(table size). This isolates the paper's central design
// decision (§3.3: "our VO does not contain digests for branches all the
// way up to the root node").
#include "bench/bench_util.h"
#include "mht/merkle_tree.h"

using namespace vbtree;

int main() {
  bench::PrintHeader(
      "Ablation — VO size vs table size (result fixed at 100 tuples)",
      "VB-tree (every node signed) vs Merkle tree (root-only signature)");

  std::printf("%10s | %13s %13s | %13s %13s\n", "tuples", "VB VO (B)",
              "VB digests", "MHT proof (B)", "MHT hashes");

  size_t cap = bench::MeasuredTuples(20000) * 8;
  Rng rng(17);
  for (size_t n = 1000; n <= cap; n *= 4) {
    auto table = bench::BuildBenchTable(n, 4, 20, /*with_naive=*/false);
    if (table == nullptr) return 1;
    std::vector<Tuple> rows;
    for (int64_t key : table->tree->AllKeys()) {
      auto t = table->store->Get(key);
      if (!t.ok()) return 1;
      rows.push_back(std::move(*t));
    }
    auto mht = MerkleTree::Build(rows, table->signer.get());
    if (!mht.ok()) return 1;

    // Average over several (unaligned) result positions to smooth out
    // boundary-alignment effects.
    const int kTrials = 8;
    double vb_bytes = 0, vb_digests = 0, mht_bytes = 0, mht_hashes = 0;
    for (int trial = 0; trial < kTrials; ++trial) {
      int64_t lo = static_cast<int64_t>(rng.Uniform(n - 150)) + 13;
      SelectQuery q;
      q.table = "t";
      q.range = KeyRange{lo, lo + 99};
      auto vb = table->tree->ExecuteSelect(q, table->Fetcher());
      if (!vb.ok()) return 1;
      auto mht_out = (*mht)->RangeQuery(q.range.lo, q.range.hi);
      if (!mht_out.ok()) return 1;
      vb_bytes += static_cast<double>(vb->vo.SerializedSize());
      vb_digests += static_cast<double>(vb->vo.DigestCount());
      mht_bytes += static_cast<double>(mht_out->proof.SerializedSize());
      mht_hashes += static_cast<double>(mht_out->proof.hashes.size());
    }
    std::printf("%10zu | %13.0f %13.0f | %13.0f %13.0f\n", n,
                vb_bytes / kTrials, vb_digests / kTrials,
                mht_bytes / kTrials, mht_hashes / kTrials);
  }
  std::printf(
      "\nExpected shape: VB VO flat in table size (it stops at the\n"
      "enveloping subtree); MHT proof adds ~16 bytes per doubling.\n"
      "The price: the central server signs every VB-tree node (storage\n"
      "overhead |s| per entry, Fig. 8's fan-out penalty).\n");
  return 0;
}
