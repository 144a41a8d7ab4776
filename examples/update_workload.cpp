// Update workload: the §3.4 story. All updates go through the central
// server (only it can sign); edge replicas reject them. Instead of §3.4's
// digest locks, each shard has one signing writer and edge readers run
// latch-free with optimistic validation, so verified reads proceed
// throughout the churn while deltas propagate in the background.
//
// Build & run:  ./build/examples/update_workload
#include <atomic>
#include <cstdio>
#include <thread>

#include "common/random.h"
#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/propagation/distribution_hub.h"

using namespace vbtree;

int main() {
  CentralServer::Options options;
  // A modest fan-out gives the 4096-row table real depth (the default
  // 4 KB fan-out of 114 would make it 2 levels deep), so the churn below
  // splits leaves and re-signs multi-level paths.
  options.tree_opts.config.max_internal = 16;
  options.tree_opts.config.max_leaf = 16;
  auto central_or = CentralServer::Create(options);
  if (!central_or.ok()) return 1;
  CentralServer& central = **central_or;

  Schema schema({{"id", TypeId::kInt64},
                 {"payload", TypeId::kString},
                 {"version", TypeId::kInt64}});
  if (!central.CreateTable("events", schema).ok()) return 1;
  Rng rng(1);
  std::vector<Tuple> rows;
  for (int64_t i = 0; i < 4096; ++i) {
    rows.push_back(Tuple(
        {Value::Int(i), Value::Str(rng.NextString(24)), Value::Int(0)}));
  }
  if (!central.LoadTable("events", rows).ok()) return 1;
  VBTree* tree = central.tree("events");
  std::printf("loaded 4096 events (height %d, %llu nodes)\n", tree->height(),
              static_cast<unsigned long long>(tree->node_count()));

  // --- 1. Edge replicas reject updates ---------------------------------
  SimulatedNetwork net;
  EdgeServer edge("edge-1");
  DistributionHub hub(&central, &net);  // background propagator running
  if (!hub.Subscribe(&edge).ok()) return 1;
  if (!hub.SyncAll().ok()) return 1;
  {
    ByteWriter w;
    tree->SerializeTo(&w);
    ByteReader r(Slice(w.buffer()));
    auto replica = VBTree::Deserialize(&r);  // no signing key
    if (!replica.ok()) return 1;
    Status s = (*replica)->Insert(rows[0]);
    std::printf("edge replica insert attempt: %s (updates must go to the\n"
                "central server, which holds the private key)\n\n",
                s.ToString().c_str());
    if (s.ok()) return 1;
  }

  // --- 2. Steady churn with concurrent verified reads ------------------
  std::printf("running 30 update batches with concurrent verified reads...\n");
  std::atomic<bool> stop{false};
  std::atomic<int> read_failures{0};
  std::thread reader([&] {
    Client client(central.db_name(), central.key_directory());
    client.RegisterTable("events", schema);
    Rng r(5);
    while (!stop.load()) {
      SelectQuery q;
      q.table = "events";
      int64_t lo = static_cast<int64_t>(r.Uniform(4000));
      q.range = KeyRange{lo, lo + 64};
      auto res = client.Query(&edge, q, 1, nullptr);
      if (!res.ok() || !res->verification.ok()) read_failures++;
    }
  });

  Rng wrng(9);
  for (int batch = 0; batch < 30; ++batch) {
    for (int i = 0; i < 20; ++i) {
      int64_t key = 10000 + batch * 20 + i;
      if (!central
               .InsertTuple("events",
                            Tuple({Value::Int(key),
                                   Value::Str(wrng.NextString(24)),
                                   Value::Int(batch)}))
               .ok()) {
        return 1;
      }
    }
    if (!central.DeleteRange("events", 64 + batch * 16, 64 + batch * 16 + 7)
             .ok()) {
      return 1;
    }
    // No manual propagation: the hub's background thread is batching the
    // logged ops and shipping deltas while the churn continues.
  }
  stop = true;
  reader.join();
  // Barrier: let the propagator drain the remaining ops, then compare.
  if (!hub.SyncAll().ok()) return 1;

  Status consistency = tree->CheckDigestConsistency();
  bool converged =
      edge.tree("events")->root_digest() == tree->root_digest();
  auto hub_stats = hub.stats();
  std::printf("after churn: %zu tuples, digests %s, reader failures: %d\n",
              tree->size(), consistency.ok() ? "consistent" : "BROKEN",
              read_failures.load());
  std::printf(
      "edge %s central after %llu background flushes (%llu deltas, %llu "
      "snapshots shipped)\n",
      converged ? "converged to" : "DIVERGED from",
      static_cast<unsigned long long>(hub_stats.flushes),
      static_cast<unsigned long long>(hub_stats.deltas_shipped),
      static_cast<unsigned long long>(hub_stats.snapshots_shipped));
  std::printf("(reads verify throughout: each delta applies atomically)\n");
  return consistency.ok() && converged && read_failures.load() == 0 ? 0 : 1;
}
