// vbtree_cli — interactive walkthrough of the authenticated-query stack.
//
// Drives a central server, one edge server and one client from a small
// command language (stdin or a script file):
//
//   load <n>                  create + load a demo table with n rows
//   insert <key> <text>       insert a row at the central server
//   delete <lo> <hi>          range-delete at the central server
//   split <key>               incremental shard split at <key>
//   publish                   ship a full snapshot to the edge
//   sync                      ship the pending update delta to the edge
//   tamper <key> <text>       corrupt one value in the edge's replica
//   query <lo> <hi>           authenticated range query via the edge
//   audit                     edge-side signature self-audit
//   rotate <now>              rotate the signing key at logical time <now>
//   stats                     table / tree / network statistics
//   help | quit
//
// Example:  ./build/tools/vbtree_cli <<'EOF'
//   load 1000
//   publish
//   query 10 20
//   tamper 15 boo
//   query 10 20
//   publish
//   query 10 20
//   quit
// EOF
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/random.h"
#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/propagation/distribution_hub.h"

using namespace vbtree;

namespace {

constexpr const char* kTable = "demo";

struct CliState {
  // Declaration order matters: the hub (declared last, destroyed first)
  // holds raw pointers to the central server, edge and transport.
  std::unique_ptr<CentralServer> central;
  std::unique_ptr<EdgeServer> edge;
  std::unique_ptr<Client> client;
  SimulatedNetwork net;
  /// Propagation hub in manual mode: `publish` / `sync` drive flushes so
  /// the walkthrough stays step-by-step.
  std::unique_ptr<DistributionHub> hub;
  Schema schema;
  /// Key-range shards for the demo table (--shards N; 1 = monolith).
  size_t shards = 1;
  /// Contention-driven auto-split policy (--auto-split [knobs]); applied
  /// to the central server created by the next `load`.
  bool auto_split = false;
  size_t split_min_ops = 64;
  double split_skew = 1.5;
  size_t split_max_shards = 16;
  bool loaded = false;
  uint64_t now = 1;
};

void PrintHelp() {
  std::printf(
      "commands: load <n> | insert <key> <text> | delete <lo> <hi> |\n"
      "          split <key> | publish | sync | tamper <key> <text> |\n"
      "          query <lo> <hi> | audit | rotate <now> | stats | help | "
      "quit\n");
}

bool RequireLoaded(const CliState& st) {
  if (!st.loaded) std::printf("error: run `load <n>` first\n");
  return st.loaded;
}

void DoLoad(CliState* st, size_t n) {
  // Re-loading replaces the central server: drop the hub (which points
  // at it) and the dependent pieces first.
  st->hub.reset();
  st->client.reset();
  st->edge.reset();
  st->loaded = false;
  CentralServer::Options options;
  options.db_name = "clidb";
  if (st->auto_split) {
    options.auto_split = true;
    options.auto_split_min_ops = st->split_min_ops;
    options.auto_split_skew = st->split_skew;
    options.auto_split_max_shards = st->split_max_shards;
  }
  auto central = CentralServer::Create(options);
  if (!central.ok()) {
    std::printf("error: %s\n", central.status().ToString().c_str());
    return;
  }
  st->central = central.MoveValueUnsafe();
  st->schema = Schema({{"id", TypeId::kInt64},
                       {"payload", TypeId::kString},
                       {"tag", TypeId::kString}});
  // --shards N pre-splits the demo table evenly over the loaded keys:
  // every shard is its own signed VB-tree, stitched by the signed
  // PartitionMap the client authenticates before scattering queries.
  auto created = st->central->CreateTable(
      kTable, st->schema, EvenSplitPoints(n, st->shards));
  if (!created.ok()) {
    std::printf("error: %s\n", created.status().ToString().c_str());
    return;
  }
  Rng rng(7);
  std::vector<Tuple> rows;
  rows.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(Tuple({Value::Int(static_cast<int64_t>(i)),
                          Value::Str(rng.NextString(16)),
                          Value::Str(i % 2 == 0 ? "even" : "odd")}));
  }
  Status s = st->central->LoadTable(kTable, std::move(rows));
  if (!s.ok()) {
    std::printf("error: %s\n", s.ToString().c_str());
    return;
  }
  st->edge = std::make_unique<EdgeServer>("edge-1");
  PropagationOptions popts;
  popts.auto_start = false;  // `publish` / `sync` flush explicitly
  st->hub = std::make_unique<DistributionHub>(st->central.get(), &st->net,
                                              popts);
  if (!st->hub->Subscribe(st->edge.get()).ok()) return;
  st->client =
      std::make_unique<Client>(st->central->db_name(),
                               st->central->key_directory());
  st->client->RegisterTable(kTable, st->schema);
  if (st->shards > 1 || st->auto_split) {
    std::printf("loaded %zu rows across %zu shards (map epoch %llu)\n", n,
                st->central->ShardCount(kTable).ValueOrDie(),
                static_cast<unsigned long long>(
                    st->central->TablePartitionMap(kTable)
                        .ValueOrDie()
                        .epoch));
  } else {
    std::printf("loaded %zu rows; root digest %s...\n", n,
                st->central->tree(kTable)->root_digest().ToHex().substr(0, 16)
                    .c_str());
  }
  st->loaded = true;
}

void DoQuery(CliState* st, int64_t lo, int64_t hi) {
  if (st->edge->MapEpoch(kTable) == 0) {
    std::printf("error: edge has no replica; run `publish`\n");
    return;
  }
  SelectQuery q;
  q.table = kTable;
  q.range = KeyRange{lo, hi};
  auto r = st->client->Query(st->edge.get(), q, st->now, &st->net);
  if (!r.ok()) {
    std::printf("error: %s\n", r.status().ToString().c_str());
    return;
  }
  std::printf("%zu rows | result %zu B + VO %zu B (%zu digests) | %s\n",
              r->rows.size(), r->result_bytes, r->vo_bytes, r->vo_digests,
              r->verification.ok()
                  ? "VERIFIED"
                  : r->verification.ToString().c_str());
  size_t shown = 0;
  for (const ResultRow& row : r->rows) {
    if (shown++ == 5) {
      std::printf("  ... (%zu more)\n", r->rows.size() - 5);
      break;
    }
    std::printf("  %lld | %s | %s\n", static_cast<long long>(row.key),
                row.values[1].AsString().c_str(),
                row.values[2].AsString().c_str());
  }
}

void Dispatch(CliState* st, const std::string& line) {
  std::istringstream in(line);
  std::string cmd;
  if (!(in >> cmd) || cmd[0] == '#') return;

  if (cmd == "help") {
    PrintHelp();
  } else if (cmd == "load") {
    size_t n = 1000;
    in >> n;
    DoLoad(st, n);
  } else if (cmd == "insert") {
    if (!RequireLoaded(*st)) return;
    int64_t key;
    std::string text;
    if (!(in >> key >> text)) {
      std::printf("usage: insert <key> <text>\n");
      return;
    }
    Status s = st->central->InsertTuple(
        kTable, Tuple({Value::Int(key), Value::Str(text),
                       Value::Str(key % 2 == 0 ? "even" : "odd")}));
    std::printf("%s\n", s.ok() ? "inserted (run `sync` or `publish` to "
                                 "propagate)"
                               : s.ToString().c_str());
  } else if (cmd == "delete") {
    if (!RequireLoaded(*st)) return;
    int64_t lo, hi;
    if (!(in >> lo >> hi)) {
      std::printf("usage: delete <lo> <hi>\n");
      return;
    }
    auto removed = st->central->DeleteRange(kTable, lo, hi);
    if (removed.ok()) {
      std::printf("deleted %zu rows\n", *removed);
    } else {
      std::printf("error: %s\n", removed.status().ToString().c_str());
    }
  } else if (cmd == "split") {
    if (!RequireLoaded(*st)) return;
    int64_t key;
    if (!(in >> key)) {
      std::printf("usage: split <key>\n");
      return;
    }
    Status s = st->central->SplitShard(kTable, key);
    if (s.ok()) {
      std::printf("split at %lld: now %zu shard(s), map epoch %llu "
                  "(run `sync` to propagate)\n",
                  static_cast<long long>(key),
                  st->central->ShardCount(kTable).ValueOrDie(),
                  static_cast<unsigned long long>(
                      st->central->TablePartitionMap(kTable)
                          .ValueOrDie()
                          .epoch));
    } else {
      std::printf("error: %s\n", s.ToString().c_str());
    }
  } else if (cmd == "publish") {
    if (!RequireLoaded(*st)) return;
    // Force a full snapshot re-ship (also heals a tampered replica).
    Status s = st->hub->ForceSnapshot(st->edge->name());
    if (s.ok()) s = st->hub->SyncAll();
    std::printf("%s\n", s.ok() ? "snapshot published" : s.ToString().c_str());
  } else if (cmd == "sync") {
    if (!RequireLoaded(*st)) return;
    Status s = st->hub->SyncAll();
    if (s.ok()) {
      if (st->central->ShardCount(kTable).ValueOrDie() > 1) {
        std::printf("hub flushed; edge at map epoch %llu\n",
                    static_cast<unsigned long long>(
                        st->edge->MapEpoch(kTable)));
      } else {
        std::printf("hub flushed; edge at version %llu\n",
                    static_cast<unsigned long long>(
                        st->edge->TableVersion(kTable)));
      }
    } else {
      std::printf("error: %s\n", s.ToString().c_str());
    }
  } else if (cmd == "tamper") {
    if (!RequireLoaded(*st)) return;
    int64_t key;
    std::string text;
    if (!(in >> key >> text)) {
      std::printf("usage: tamper <key> <text>\n");
      return;
    }
    Status s =
        st->edge->TamperValueByKey(kTable, key, 1, Value::Str(text));
    std::printf("%s\n", s.ok() ? "edge replica corrupted (silently...)"
                               : s.ToString().c_str());
  } else if (cmd == "query") {
    if (!RequireLoaded(*st)) return;
    int64_t lo, hi;
    if (!(in >> lo >> hi)) {
      std::printf("usage: query <lo> <hi>\n");
      return;
    }
    DoQuery(st, lo, hi);
  } else if (cmd == "audit") {
    if (!RequireLoaded(*st)) return;
    // Audits every shard replica (one shard, the plain name, when the
    // table was never split).
    auto map = st->central->TablePartitionMap(kTable);
    if (!map.ok()) {
      std::printf("error: %s\n", map.status().ToString().c_str());
      return;
    }
    size_t total = 0;
    for (size_t i = 0; i < map->shards.size(); ++i) {
      const std::string shard = map->shard_name(i);
      const VBTree* tree = st->edge->tree(shard);
      if (tree == nullptr) {
        std::printf("error: edge has no replica of %s; run `publish`\n",
                    shard.c_str());
        return;
      }
      auto rec = st->central->key_directory()->RecovererFor(
          tree->key_version(), st->now);
      if (!rec.ok()) {
        std::printf("audit failed: %s\n", rec.status().ToString().c_str());
        return;
      }
      auto audited = tree->AuditSignatures(rec->get());
      if (!audited.ok()) {
        std::printf("audit FAILED (%s): %s\n", shard.c_str(),
                    audited.status().ToString().c_str());
        return;
      }
      total += *audited;
    }
    std::printf("audit OK: %zu signatures verified across %zu shard(s)\n",
                total, map->shards.size());
  } else if (cmd == "rotate") {
    if (!RequireLoaded(*st)) return;
    uint64_t now = st->now;
    in >> now;
    st->now = now;
    Status s = st->central->RotateKey(now);
    std::printf("%s (key version now %u; stale edges will be rejected "
                "after expiry)\n",
                s.ok() ? "rotated" : s.ToString().c_str(),
                st->central->current_key_version());
  } else if (cmd == "stats") {
    if (!RequireLoaded(*st)) return;
    auto map = st->central->TablePartitionMap(kTable);
    if (!map.ok()) {
      std::printf("error: %s\n", map.status().ToString().c_str());
      return;
    }
    std::printf("central: key v%u, %zu shard(s), map epoch %llu\n",
                st->central->current_key_version(), map->shards.size(),
                static_cast<unsigned long long>(map->epoch));
    for (size_t i = 0; i < map->shards.size(); ++i) {
      const std::string shard = map->shard_name(i);
      VBTree* tree = st->central->tree(shard);
      if (tree == nullptr) continue;
      std::printf(
          "  %s: %zu rows, height %d, %llu nodes, v%llu | edge %s v%llu\n",
          shard.c_str(), tree->size(), tree->height(),
          static_cast<unsigned long long>(tree->node_count()),
          static_cast<unsigned long long>(tree->version()),
          st->edge->HasTable(shard) ? "installed" : "absent",
          static_cast<unsigned long long>(st->edge->TableVersion(shard)));
    }
    // Per-shard write domains: each shard's DML queue + signer worker.
    auto domains = st->central->TableDomainStats(kTable);
    if (domains.ok()) {
      for (const auto& d : *domains) {
        std::printf("  domain %s: ops %llu/%llu (enq/applied), queue "
                    "depth %zu (peak %zu, p99 %zu), %llu sign calls\n",
                    d.dist_name.c_str(),
                    static_cast<unsigned long long>(d.ops_enqueued),
                    static_cast<unsigned long long>(d.ops_applied),
                    d.queue_depth, d.queue_depth_peak, d.queue_depth_p99,
                    static_cast<unsigned long long>(d.sign_calls));
      }
    }
    std::printf("splits triggered by auto-split policy: %llu\n",
                static_cast<unsigned long long>(
                    st->central->splits_triggered()));
    std::printf("network: %llu bytes total\n",
                static_cast<unsigned long long>(st->net.total_bytes()));
    auto hub_stats = st->hub->stats();
    std::printf("propagation: %llu flushes, %llu deltas, %llu snapshots "
                "(%llu catch-up)\n",
                static_cast<unsigned long long>(hub_stats.flushes),
                static_cast<unsigned long long>(hub_stats.deltas_shipped),
                static_cast<unsigned long long>(hub_stats.snapshots_shipped),
                static_cast<unsigned long long>(hub_stats.catch_up_snapshots));
  } else if (cmd == "quit" || cmd == "exit") {
    std::exit(0);
  } else {
    std::printf("unknown command '%s' (try `help`)\n", cmd.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  CliState st;
  const char* script_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--shards" && i + 1 < argc) {
      long n = std::atol(argv[++i]);
      st.shards = n > 0 ? static_cast<size_t>(n) : 1;
    } else if (arg == "--auto-split") {
      st.auto_split = true;
    } else if (arg == "--split-min-ops" && i + 1 < argc) {
      st.split_min_ops = static_cast<size_t>(std::atol(argv[++i]));
    } else if (arg == "--split-skew" && i + 1 < argc) {
      st.split_skew = std::atof(argv[++i]);
    } else if (arg == "--max-shards" && i + 1 < argc) {
      st.split_max_shards = static_cast<size_t>(std::atol(argv[++i]));
    } else if (script_path == nullptr) {
      script_path = argv[i];
    } else {
      std::fprintf(stderr,
                   "usage: vbtree_cli [--shards N] [--auto-split]"
                   " [--split-min-ops N] [--split-skew X] [--max-shards N]"
                   " [script]\n");
      return 2;
    }
  }
  std::printf("vbtree_cli — authenticated query processing demo (try `help`)\n");

  if (script_path != nullptr) {
    std::ifstream script(script_path);
    if (!script) {
      std::fprintf(stderr, "cannot open script %s\n", script_path);
      return 1;
    }
    std::string line;
    while (std::getline(script, line)) {
      std::printf("> %s\n", line.c_str());
      Dispatch(&st, line);
    }
    return 0;
  }

  std::string line;
  std::printf("> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    Dispatch(&st, line);
    std::printf("> ");
    std::fflush(stdout);
  }
  return 0;
}
