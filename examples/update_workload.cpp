// Update workload: the §3.4 story. All updates go through the central
// server (only it can sign). The paper's digest-locking protocol — a query
// S-locks its enveloping subtree, a delete X-locks the affected paths, so
// overlapping operations serialize while disjoint ones proceed — is shown
// on a standalone signed tree with its own LockManager; the live system
// needs no locks (one signing writer per shard, latch-free edge readers).
//
// Build & run:  ./build/examples/update_workload
#include <cstdio>
#include <thread>

#include "common/random.h"
#include "crypto/sim_signer.h"
#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/propagation/distribution_hub.h"
#include "storage/row_store.h"
#include "txn/lock_manager.h"

using namespace vbtree;

int main() {
  CentralServer::Options options;
  // A modest fan-out gives the 4096-row table real depth, so enveloping
  // subtrees of narrow queries sit well below the root and the digest
  // locks can demonstrate disjoint concurrency. (With the default 4 KB
  // fan-out of 114 this table would be 2 levels deep and every multi-leaf
  // query would envelope at the root — correctly conflicting with any
  // delete, per §3.4.)
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

  // --- 2. Digest-lock protocol (§3.4) ----------------------------------
  // A standalone signed tree over the same rows, wired to its own lock
  // manager: operations carrying a txn id take the §3.4 digest locks.
  RowStore store(schema);
  SimSigner signer(/*key_seed=*/7);
  LockManager locks;
  auto locked_tree = std::make_unique<VBTree>(
      DigestSchema(central.db_name(), "events", schema,
                   options.tree_opts.hash_algo, options.tree_opts.modulus_bits),
      options.tree_opts, &signer, &locks);
  if (!locked_tree->BulkLoad(rows).ok()) return 1;
  for (const Tuple& t : rows) store.Put(t);
  // A delete transaction (txn 1) acquires X locks on [0, 63] and holds
  // them (2PL growing phase).
  auto removed = locked_tree->DeleteRange(0, 63, /*txn=*/1);
  if (!removed.ok()) return 1;
  std::printf("txn1: deleted %zu tuples, still holding its X locks\n",
              *removed);

  SelectQuery disjoint;
  disjoint.table = "events";
  disjoint.range = KeyRange{2100, 2200};
  auto ok_query =
      locked_tree->ExecuteSelect(disjoint, store.Fetcher(), /*txn=*/2);
  std::printf("txn2: disjoint query [2100,2200]   -> %s\n",
              ok_query.ok() ? "proceeds concurrently" : "blocked");
  locks.ReleaseAll(2);

  SelectQuery overlapping;
  overlapping.table = "events";
  overlapping.range = KeyRange{32, 96};
  auto blocked =
      locked_tree->ExecuteSelect(overlapping, store.Fetcher(), /*txn=*/3);
  std::printf("txn3: overlapping query [32,96]    -> %s\n",
              blocked.ok() ? "proceeds (unexpected!)"
                           : blocked.status().ToString().c_str());
  locks.ReleaseAll(3);

  locks.ReleaseAll(1);  // txn1 commits
  auto after_commit =
      locked_tree->ExecuteSelect(overlapping, store.Fetcher(), /*txn=*/3);
  std::printf("txn3 retry after txn1 commit       -> %s\n\n",
              after_commit.ok() ? "proceeds" : "blocked");
  locks.ReleaseAll(3);
  if (ok_query.ok() != true || blocked.ok() != false ||
      after_commit.ok() != true) {
    return 1;
  }

  // --- 3. Steady churn with concurrent verified reads ------------------
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
