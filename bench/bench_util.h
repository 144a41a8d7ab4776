#ifndef VBTREE_BENCH_BENCH_UTIL_H_
#define VBTREE_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "crypto/sim_signer.h"
#include "naive/naive_scheme.h"
#include "storage/row_store.h"
#include "vbtree/vb_tree.h"
#include "vbtree/verifier.h"

namespace vbtree {
namespace bench {

/// Number of tuples for the *measured* side of each figure; the
/// analytical side always uses the paper's 1M. Override with
/// VBT_BENCH_TUPLES.
inline size_t MeasuredTuples(size_t default_n = 20000) {
  const char* env = std::getenv("VBT_BENCH_TUPLES");
  if (env != nullptr) {
    long v = std::atol(env);
    if (v > 0) return static_cast<size_t>(v);
  }
  return default_n;
}

/// Paper workload shape: 10 attributes, ~20 bytes each (§4.2: 200-byte
/// tuples, 20 bytes per attribute). Column 0 is the INT64 key; string
/// attributes are padded so every attribute serializes to `attr_len`
/// bytes on the wire (matching |A_j| in the formulas).
inline Schema PaperSchema(size_t ncols = 10) {
  std::vector<Column> cols;
  cols.emplace_back("id", TypeId::kInt64);
  for (size_t i = 1; i < ncols; ++i) {
    cols.emplace_back("a" + std::to_string(i), TypeId::kString);
  }
  return Schema(std::move(cols));
}

inline Tuple PaperTuple(const Schema& schema, int64_t key, Rng* rng,
                        size_t attr_len = 20) {
  // A string value of length L serializes as varint(L) + L bytes; keep
  // the payload at attr_len-1 so each attribute costs ~attr_len bytes.
  size_t payload = attr_len > 1 ? attr_len - 1 : 1;
  std::vector<Value> values;
  values.reserve(schema.num_columns());
  values.push_back(Value::Int(key));
  for (size_t c = 1; c < schema.num_columns(); ++c) {
    values.push_back(Value::Str(rng->NextString(payload)));
  }
  return Tuple(std::move(values));
}

/// A measured-side table: rows + VB-tree + Naive store sharing one
/// SimSigner, built once per benchmark binary.
struct BenchTable {
  Schema schema;
  std::unique_ptr<RowStore> store;
  std::unique_ptr<SimSigner> signer;
  std::unique_ptr<SimRecoverer> recoverer;
  std::unique_ptr<VBTree> tree;
  std::unique_ptr<NaiveStore> naive;
  size_t num_tuples = 0;

  DigestSchema MakeDigestSchema() const {
    return DigestSchema("benchdb", "t", schema);
  }

  VBTree::TupleFetcher Fetcher() const { return store->Fetcher(); }
};

inline std::unique_ptr<BenchTable> BuildBenchTable(size_t n,
                                                   size_t ncols = 10,
                                                   size_t attr_len = 20,
                                                   bool with_naive = true) {
  auto t = std::make_unique<BenchTable>();
  t->schema = PaperSchema(ncols);
  t->store = std::make_unique<RowStore>(t->schema);
  t->signer = std::make_unique<SimSigner>(2024);
  t->recoverer = std::make_unique<SimRecoverer>(t->signer->key_material());

  VBTreeOptions opts;
  // Fan-out from the paper's block formula: |B|=4KB, |K|=16, |P|=4, |s|=16.
  opts.config.max_internal = BTreeConfig::VBTreeFanOut(16, 4, 16, 4096);
  opts.config.max_leaf = opts.config.max_internal;
  DigestSchema ds("benchdb", "t", t->schema);
  t->tree = std::make_unique<VBTree>(std::move(ds), opts, t->signer.get());
  if (with_naive) {
    t->naive = std::make_unique<NaiveStore>(t->MakeDigestSchema(),
                                            t->signer.get());
  }

  Rng rng(42);
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(
        PaperTuple(t->schema, static_cast<int64_t>(i), &rng, attr_len));
    if (with_naive && !t->naive->Load(rows.back()).ok()) return nullptr;
  }
  if (!t->tree->BulkLoad(rows).ok()) return nullptr;
  for (const Tuple& row : rows) t->store->Put(row);
  t->num_tuples = n;
  return t;
}

/// Wall-clock helper.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double ElapsedMs() const {
    auto d = std::chrono::steady_clock::now() - start_;
    return std::chrono::duration<double, std::milli>(d).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

inline void PrintHeader(const std::string& title, const std::string& desc) {
  std::printf("==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", desc.c_str());
  std::printf("==============================================================\n");
}

}  // namespace bench
}  // namespace vbtree

#endif  // VBTREE_BENCH_BENCH_UTIL_H_
