// The repository benchmark. Builds a central server, its edges and the
// distribution hub through the public API, then drives one workload
// through a discarded warm-up, an open loop of seeded Poisson arrivals at
// a fixed offered rate, and a closed loop that measures peak throughput.
// Every read is authenticated by Client::QueryBatched and every answer is
// checked against an oracle derived from the generated inputs.
//
// Prints one `name value unit` line per metric and, as its last line, a
// JSON object {"correct", "attempted", "failed", "metrics"} holding the
// end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
// Metric glossary and workload rationale: benchmark/README.md.
//
//   vbt_bench --workload hot_read --seed 1 --seconds 18 --trace 0
#include <sys/resource.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "common/random.h"
#include "edge/central_server.h"
#include "edge/client.h"
#include "edge/edge_server.h"
#include "edge/partition_map.h"
#include "edge/propagation/distribution_hub.h"
#include "edge/propagation/transport.h"
#include "edge/query_service/query_service.h"

using namespace vbtree;

namespace {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr char kDb[] = "edgedb";
constexpr char kTable[] = "events";
constexpr size_t kColumns = 10;
constexpr size_t kProjectedColumns = 3;
/// Logical time handed to verification (inside every key's validity).
constexpr uint64_t kNow = 10;

/// write_heavy key layout: seed rows sit densely at the base of each of
/// kBuckets buckets, inserts land at random keys above kWriteOffset inside
/// a bucket, and the initial shards split on bucket boundaries, so a Zipf
/// draw over buckets skews writes across the shards' signing pipelines.
constexpr int64_t kBuckets = 64;
constexpr int64_t kBucketSpan = int64_t{1} << 40;
constexpr int64_t kWriteOffset = int64_t{1} << 20;
constexpr int64_t kDeleteSpan = 8;

enum class Layout {
  kDense,    ///< keys 0..rows-1
  kEven,     ///< keys 0, 2, ..., 2(rows-1); the writer inserts odd keys
  kBuckets,  ///< see kBuckets
};

struct Workload {
  const char* name;
  size_t rows;
  size_t shards;
  size_t edges;
  Layout layout;
  size_t readers;
  size_t batch;
  int64_t span;           ///< key units covered by one range query
  double zipf;            ///< exponent of the range-start draw; 0 = uniform
  bool project_odd;       ///< odd batch slots project columns {0, 1, 2}
  double read_qps;        ///< offered open-loop queries/s over all readers
  size_t writers;
  double write_rate;      ///< offered open-loop write ops/s over all writers
  bool writes_primary;    ///< inserts are the measured op (closed loop drives writers)
  uint32_t delete_every;  ///< one write op in this many is an 8-key DeleteRange
};

/// Offered rates are fixed constants, a third to a half of the closed-loop
/// peak measured when the benchmark was introduced (benchmark/baseline/):
/// low enough that a slow spell of a shared host builds no backlog. They
/// are never derived from the run, so two builds receive identical load.
constexpr Workload kWorkloads[] = {
    {"hot_read", 100'000, 1, 1, Layout::kDense, 2, 8, 16, 0.99, true, 3000,
     0, 0, false, 0},
    {"scan_sharded", 400'000, 16, 1, Layout::kDense, 2, 4, 128, 0, false, 500,
     0, 0, false, 0},
    {"read_write", 100'000, 4, 1, Layout::kEven, 2, 8, 32, 0.99, true, 1400,
     1, 1000, false, 0},
    {"write_heavy", 100'000, 4, 2, Layout::kBuckets, 1, 8, 16, 0, false, 200,
     2, 1500, true, 100},
};

enum Phase { kWarmup, kOpen, kClosed, kDrain, kPhases };

/// Phase the run is in; samples taken by the hub's threads are filed here.
std::atomic<int> g_phase{kWarmup};
const TimePoint g_epoch = Clock::now();

double Us(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double Ms(Clock::duration d) { return Us(d) / 1000.0; }
double Since(TimePoint t) { return Us(t - g_epoch); }

uint64_t Mix(uint64_t a, uint64_t b) {
  Rng r(a * 0x9E3779B97F4A7C15ULL ^ (b * 0xD1B54A32D192ED03ULL + 1));
  return r.Next();
}

/// Nearest-rank percentile; 0 for an empty sample.
double Pct(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double ThreadCpuUs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) / 1e3;
}

/// One recorded interval. Spans of one request share `trace`; `parent`
/// names the enclosing span of the same trace (nullptr for a root).
struct Span {
  uint64_t trace;
  const char* name;
  const char* parent;
  double start_us;  ///< since the run epoch
  double dur_us;
};

/// Times of the two legs of one client RPC, filled by the transport for
/// the request the calling thread is tracing.
struct RpcProbe {
  TimePoint up0, up1, down0, down1;
};
thread_local RpcProbe* tls_probe = nullptr;

/// The in-process transport with benchmark probes on its Deliver gate:
/// times the client RPC legs of traced requests, times every hub delta
/// delivery (the edge's ApplyUpdateBatch), and resolves insert freshness
/// (commit until every watched edge holds the insert's shard version).
class BenchTransport : public InProcessTransport {
 public:
  /// Hub-side samples filed under the phase they were taken in.
  struct Samples {
    std::vector<double> replay_us;  ///< delta delivery + apply
    std::vector<double> gap_ms;     ///< between deltas to one edge
    std::vector<double> lag_ms;     ///< insert commit -> on every edge
  };

  BenchTransport() : kinds_(new std::atomic<uint8_t>[kMaxChannels]()) {}

  void Watch(std::vector<EdgeServer*> edges, std::vector<std::string> shards,
             bool trace) {
    std::lock_guard<std::mutex> lock(mu_);
    edges_ = std::move(edges);
    shards_ = std::move(shards);
    trace_ = trace;
  }

  using InProcessTransport::Channel;
  channel_id_t Channel(const std::string& name) override {
    const channel_id_t id = InProcessTransport::Channel(name);
    if (id < kMaxChannels) {
      kinds_[id].store(static_cast<uint8_t>(Classify(name)),
                       std::memory_order_relaxed);
    }
    return id;
  }

  Status Deliver(channel_id_t channel, Slice payload,
                 const DeliverFn& deliver) override {
    const Kind kind = KindOf(channel);
    if (kind == Kind::kDelta) {
      const TimePoint t0 = Clock::now();
      Status s = deliver(payload);
      OnDelta(channel, t0, Clock::now());
      return s;
    }
    RpcProbe* probe = tls_probe;
    if (probe == nullptr || kind == Kind::kOther) return deliver(payload);
    const bool up = kind == Kind::kUp;
    (up ? probe->up0 : probe->down0) = Clock::now();
    Status s = deliver(payload);
    (up ? probe->up1 : probe->down1) = Clock::now();
    return s;
  }

  /// Registers an acknowledged insert: its freshness lag ends when every
  /// watched edge reports TableVersion(shard) >= `version`.
  void OnInsert(size_t shard, uint64_t version, TimePoint commit) {
    std::lock_guard<std::mutex> lock(mu_);
    Pending p{shard, version, commit, g_phase.load()};
    if (Reached(p)) {
      samples_[p.phase].lag_ms.push_back(Ms(Clock::now() - commit));
    } else {
      pending_.push_back(p);
    }
  }

  /// Client<->edge bytes (both RPC legs) recorded so far.
  uint64_t WireBytes() const {
    uint64_t bytes = 0;
    for (const std::string& name : ChannelNames()) {
      const Kind kind = Classify(name);
      if (kind == Kind::kUp || kind == Kind::kDown) bytes += stats(name).bytes;
    }
    return bytes;
  }

  Samples samples(int phase) const {
    std::lock_guard<std::mutex> lock(mu_);
    return samples_[phase];
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  enum class Kind : uint8_t { kOther, kUp, kDown, kDelta };

  struct Pending {
    size_t shard;
    uint64_t version;
    TimePoint commit;
    int phase;
  };

  static bool EndsWith(const std::string& s, const char* suffix) {
    const size_t n = std::strlen(suffix);
    return s.size() >= n && s.compare(s.size() - n, n, suffix) == 0;
  }

  /// Channel names as the client and the hub intern them.
  static Kind Classify(const std::string& name) {
    if (name.rfind("client->edge:", 0) == 0) return Kind::kUp;
    if (EndsWith(name, "->client")) return Kind::kDown;
    if (EndsWith(name, ":delta")) return Kind::kDelta;
    return Kind::kOther;
  }

  Kind KindOf(channel_id_t channel) const {
    if (channel >= kMaxChannels) return Kind::kOther;
    return static_cast<Kind>(kinds_[channel].load(std::memory_order_relaxed));
  }

  bool Reached(const Pending& p) const {
    for (const EdgeServer* edge : edges_) {
      if (edge->TableVersion(shards_[p.shard]) < p.version) return false;
    }
    return true;
  }

  void OnDelta(channel_id_t channel, TimePoint t0, TimePoint t1) {
    std::lock_guard<std::mutex> lock(mu_);
    const int phase = g_phase.load();
    Samples& s = samples_[phase];
    s.replay_us.push_back(Us(t1 - t0));
    auto [last, first] = last_delta_.emplace(channel, t1);
    if (!first) {
      s.gap_ms.push_back(Ms(t1 - last->second));
      last->second = t1;
    }
    if (trace_ && phase == kOpen) {
      spans_.push_back(
          Span{~uint64_t{0} - spans_.size(), "edge.replay", nullptr, Since(t0),
               Us(t1 - t0)});
    }
    for (size_t i = 0; i < pending_.size();) {
      if (Reached(pending_[i])) {
        samples_[pending_[i].phase].lag_ms.push_back(
            Ms(t1 - pending_[i].commit));
        pending_[i] = pending_.back();
        pending_.pop_back();
      } else {
        ++i;
      }
    }
  }

  std::unique_ptr<std::atomic<uint8_t>[]> kinds_;
  mutable std::mutex mu_;
  std::vector<EdgeServer*> edges_;
  std::vector<std::string> shards_;
  bool trace_ = false;
  std::vector<Pending> pending_;
  std::map<channel_id_t, TimePoint> last_delta_;
  std::array<Samples, kPhases> samples_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Inputs and the system under test.
// ---------------------------------------------------------------------------

Schema MakeSchema() {
  std::vector<Column> cols;
  cols.emplace_back("id", TypeId::kInt64);
  for (size_t i = 1; i < kColumns; ++i) {
    cols.emplace_back("a" + std::to_string(i), TypeId::kString);
  }
  return Schema(std::move(cols));
}

/// The paper's tuple shape: an INT64 key and nine ~20-byte attributes.
Tuple MakeTuple(int64_t key, Rng* rng) {
  std::vector<Value> values;
  values.reserve(kColumns);
  values.push_back(Value::Int(key));
  for (size_t c = 1; c < kColumns; ++c) {
    values.push_back(Value::Str(rng->NextString(19)));
  }
  return Tuple(std::move(values));
}

int64_t RowsInBucket(const Workload& w, int64_t b) {
  const auto rows = static_cast<int64_t>(w.rows);
  return rows / kBuckets + (b < rows % kBuckets ? 1 : 0);
}

std::vector<Tuple> MakeRows(const Workload& w, uint64_t seed) {
  Rng rng(Mix(seed, 1));
  std::vector<Tuple> rows;
  rows.reserve(w.rows);
  if (w.layout == Layout::kBuckets) {
    for (int64_t b = 0; b < kBuckets; ++b) {
      for (int64_t j = 0; j < RowsInBucket(w, b); ++j) {
        rows.push_back(MakeTuple(b * kBucketSpan + j, &rng));
      }
    }
    return rows;
  }
  const int64_t stride = w.layout == Layout::kEven ? 2 : 1;
  for (size_t i = 0; i < w.rows; ++i) {
    rows.push_back(MakeTuple(static_cast<int64_t>(i) * stride, &rng));
  }
  return rows;
}

std::vector<int64_t> SplitPoints(const Workload& w) {
  if (w.layout == Layout::kBuckets) {
    std::vector<int64_t> splits;
    for (size_t s = 1; s < w.shards; ++s) {
      splits.push_back(kBuckets * static_cast<int64_t>(s) /
                       static_cast<int64_t>(w.shards) * kBucketSpan);
    }
    return splits;
  }
  return EvenSplitPoints(w.layout == Layout::kEven ? 2 * w.rows : w.rows,
                         w.shards);
}

/// The system under test. Members are destroyed bottom-up: services, then
/// the hub (it holds the central server, the transport and the edges).
struct World {
  std::unique_ptr<CentralServer> central;
  std::unique_ptr<BenchTransport> net;
  std::vector<std::unique_ptr<EdgeServer>> edges;
  std::unique_ptr<DistributionHub> hub;
  std::vector<std::unique_ptr<QueryService>> services;
  /// The table's layout, fixed for the run (no splits are requested).
  PartitionMap map;
  std::vector<std::string> shard_names;
};

/// Creates the table, bulk-loads and signs it, and distributes it to every
/// edge; `*seconds` covers table creation until every replica converged.
Result<std::unique_ptr<World>> Setup(const Workload& w, std::vector<Tuple> rows,
                                     bool trace, double* seconds) {
  auto world = std::make_unique<World>();
  const TimePoint t0 = Clock::now();
  CentralServer::Options copts;
  copts.db_name = kDb;
  VBT_ASSIGN_OR_RETURN(world->central, CentralServer::Create(copts));
  CentralServer& central = *world->central;
  const Result<table_id_t> created =
      w.shards > 1 ? central.CreateTable(kTable, MakeSchema(), SplitPoints(w))
                   : central.CreateTable(kTable, MakeSchema());
  VBT_RETURN_NOT_OK(created.status());
  VBT_RETURN_NOT_OK(central.LoadTable(kTable, std::move(rows)));
  world->net = std::make_unique<BenchTransport>();
  for (size_t i = 0; i < w.edges; ++i) {
    world->edges.push_back(
        std::make_unique<EdgeServer>("edge-" + std::to_string(i)));
  }
  PropagationOptions popts;
  popts.flush_interval = std::chrono::milliseconds(2);
  world->hub = std::make_unique<DistributionHub>(&central, world->net.get(),
                                                 popts);
  for (auto& edge : world->edges) {
    VBT_RETURN_NOT_OK(world->hub->Subscribe(edge.get()));
  }
  VBT_RETURN_NOT_OK(world->hub->SyncAll());
  *seconds = Us(Clock::now() - t0) / 1e6;

  VBT_ASSIGN_OR_RETURN(world->map, central.TablePartitionMap(kTable));
  std::vector<EdgeServer*> edges;
  for (size_t i = 0; i < world->map.shards.size(); ++i) {
    world->shard_names.push_back(world->map.shard_name(i));
  }
  QueryServiceOptions sopts;
  sopts.num_workers = 2;
  sopts.modeled_io_stall_us = 0;
  for (auto& edge : world->edges) {
    edges.push_back(edge.get());
    world->services.push_back(std::make_unique<QueryService>(edge.get(), sopts));
  }
  world->net->Watch(std::move(edges), world->shard_names, trace);
  return world;
}

// ---------------------------------------------------------------------------
// Load generation.
// ---------------------------------------------------------------------------

/// What one generator thread observed in one phase.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t batches = 0;       ///< read batches the edge answered
  uint64_t queries = 0;       ///< queries of verified, oracle-clean batches
  uint64_t inserts = 0;       ///< acknowledged inserts
  uint64_t deleted_rows = 0;  ///< rows removed by DeleteRange
  std::vector<double> read_us;   ///< batch latency; kInf when failed
  std::vector<double> write_us;  ///< insert latency; kInf when failed
  /// --trace: latency of the measured op, traced and untraced requests.
  std::vector<double> traced_us, untraced_us;
  std::vector<double> late_us;   ///< generator lateness (open loop)
  std::vector<double> queue_us;  ///< edge-reported, per batch
  std::vector<double> exec_us;   ///< edge-reported, per batch
  std::vector<double> cpu_us;    ///< client thread CPU, traced batches
  CryptoCounters crypto;
  BatchExecStats exec;
  uint64_t top_memo_hits = 0;
  uint64_t verify_us = 0;
  uint64_t map_verify_us = 0;

  void Merge(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    batches += o.batches;
    queries += o.queries;
    inserts += o.inserts;
    deleted_rows += o.deleted_rows;
    for (auto [dst, src] :
         {std::pair{&read_us, &o.read_us}, {&write_us, &o.write_us},
          {&traced_us, &o.traced_us}, {&untraced_us, &o.untraced_us},
          {&late_us, &o.late_us}, {&queue_us, &o.queue_us},
          {&exec_us, &o.exec_us}, {&cpu_us, &o.cpu_us}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    crypto.Add(o.crypto);
    exec.Accumulate(o.exec);
    top_memo_hits += o.top_memo_hits;
    verify_us += o.verify_us;
    map_verify_us += o.map_verify_us;
  }
};

/// One generator thread's persistent state: its client (and with it the
/// client's caches) and its input streams survive across phases.
struct Generator {
  size_t index = 0;
  bool writer = false;
  std::unique_ptr<Client> client;
  QueryService* service = nullptr;
  std::unique_ptr<ZipfGenerator> zipf;
  Rng rng;
  /// Keys this writer inserted (write_heavy), so no insert collides.
  std::unordered_set<int64_t> used;
  uint64_t write_ops = 0;
  uint64_t traces = 0;
  std::array<Tally, kPhases> tally;
  std::vector<Span> spans;
};

struct Options {
  const Workload* w = nullptr;
  uint64_t seed = 1;
  double seconds = 18;
  bool trace = false;
  bool smoke = false;
  bool tamper = false;
  std::string out_dir = "benchmark/out";
};

/// System-wide counters read at phase boundaries.
struct Snapshot {
  TimePoint at;
  double cpu_s = 0;
  uint64_t qs_rejected = 0;
  uint64_t qs_errors = 0;
  EdgeServer::VOCacheStats vo;  ///< summed over edges and shards
  uint64_t sign_calls = 0;
  std::vector<uint64_t> shard_ops;
  size_t signer_queue_p99 = 0;  ///< max over shards, since start
  DistributionHub::HubStats hub;
  uint64_t wire_bytes = 0;
  uint64_t versions = 0;  ///< central version summed over shards
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Runner {
 public:
  Runner(const Options& opt, World* world) : opt_(opt), w_(*opt.w), world_(*world) {}

  /// Runs every phase; true when every operation succeeded and every
  /// answer passed its oracle.
  bool Run();
  void Report(double setup_s) const;
  bool correct() const { return oracle_ok_ && Total().failed == 0; }

 private:
  void MakeGenerators();
  QueryBatch MakeBatch(Generator& g);
  bool CheckAnswer(const SelectQuery& q, const Client::Verified& v) const;
  double ReadOp(Generator& g, Tally& t, TimePoint due, bool traced);
  double WriteOp(Generator& g, Tally& t, TimePoint due, bool traced);
  void Drive(Generator& g, int phase, TimePoint end, bool open);
  void RunPhase(int phase, double seconds);
  void SampleWindows(double seconds);
  bool Sweep();
  Snapshot Take() const;
  Tally Merged(int phase) const;
  Tally Total() const;
  void Fail(const std::string& why);
  std::vector<Metric> EndToEnd(double setup_s) const;
  std::vector<Metric> PerLayer() const;
  std::vector<Span> AllSpans() const;
  void WriteTrace(const std::vector<Span>& spans) const;

  const Options& opt_;
  const Workload& w_;
  World& world_;
  std::vector<std::unique_ptr<Generator>> gens_;
  /// read_write: odd keys the writer issued (1) and had acknowledged (2);
  /// slot z stands for key 2z+1.
  std::unique_ptr<std::atomic<uint8_t>[]> odd_;
  Tally sweep_;
  std::array<Snapshot, 3> snaps_;  ///< open start, closed start, closed end
  /// Measured operations completed (verified queries, or inserts on
  /// write_heavy), and the closed loop's per-window rate and CPU per op.
  std::atomic<uint64_t> done_ops_{0};
  std::vector<double> window_rate_;
  std::vector<double> window_cpu_us_;
  std::mutex fail_mu_;
  bool oracle_ok_ = true;
  std::string first_failure_;
};

void Runner::MakeGenerators() {
  const Schema schema = MakeSchema();
  for (size_t i = 0; i < w_.readers + w_.writers; ++i) {
    auto g = std::make_unique<Generator>();
    g->index = i;
    g->writer = i >= w_.readers;
    g->rng = Rng(Mix(opt_.seed, 100 + i));
    if (!g->writer) {
      g->client = std::make_unique<Client>(kDb, world_.central->key_directory());
      if (w_.shards > 1) {
        g->client->RegisterShardedTable(kTable, schema);
      } else {
        g->client->RegisterTable(kTable, schema);
      }
      g->service = world_.services[i % world_.services.size()].get();
      if (w_.zipf > 0) {
        g->zipf = std::make_unique<ZipfGenerator>(w_.rows, w_.zipf,
                                                  Mix(opt_.seed, 200 + i));
      }
    } else if (w_.layout == Layout::kEven) {
      // Odd keys from the readers' Zipf: writes land where reads are hot.
      g->zipf = std::make_unique<ZipfGenerator>(w_.rows, w_.zipf,
                                                Mix(opt_.seed, 200 + i));
    } else {
      g->zipf = std::make_unique<ZipfGenerator>(kBuckets, 0.99,
                                                Mix(opt_.seed, 200 + i));
    }
    gens_.push_back(std::move(g));
  }
  if (w_.layout == Layout::kEven) {
    odd_.reset(new std::atomic<uint8_t>[w_.rows]());
  }
}

QueryBatch Runner::MakeBatch(Generator& g) {
  QueryBatch batch;
  batch.table = kTable;
  const auto rows = static_cast<int64_t>(w_.rows);
  for (size_t i = 0; i < w_.batch; ++i) {
    int64_t lo = 0;
    switch (w_.layout) {
      case Layout::kDense:
        lo = g.zipf ? std::min<int64_t>(static_cast<int64_t>(g.zipf->Next()),
                                        rows - w_.span)
                    : static_cast<int64_t>(g.rng.Uniform(rows - w_.span + 1));
        break;
      case Layout::kEven:
        lo = 2 * std::min<int64_t>(static_cast<int64_t>(g.zipf->Next()),
                                   rows - w_.span / 2);
        break;
      case Layout::kBuckets: {
        const auto b = static_cast<int64_t>(g.rng.Uniform(kBuckets));
        lo = b * kBucketSpan +
             static_cast<int64_t>(g.rng.Uniform(RowsInBucket(w_, b)));
        break;
      }
    }
    SelectQuery q;
    q.range = KeyRange{lo, lo + w_.span - 1};
    if (w_.project_odd && i % 2 == 1) q.projection = {0, 1, 2};
    batch.queries.push_back(std::move(q));
  }
  return batch;
}

/// The oracle. Dense tables must return exactly the keys of the range;
/// read_write must return every loaded (even) key of the range and only
/// odd keys its writer issued; write_heavy's concurrent deletes leave
/// only ordering and range checks to the per-answer oracle (its final
/// sweep checks the row count).
bool Runner::CheckAnswer(const SelectQuery& q, const Client::Verified& v) const {
  if (!v.verification.ok() || v.pending_audit) return false;
  const size_t width = q.projection.empty() ? kColumns : kProjectedColumns;
  int64_t prev = q.range.lo - 1;
  int64_t loaded = 0;
  for (const ResultRow& row : v.rows) {
    if (row.key <= prev || row.key > q.range.hi || row.values.size() != width) {
      return false;
    }
    prev = row.key;
    if (w_.layout == Layout::kEven && row.key % 2 == 1) {
      const int64_t z = (row.key - 1) / 2;
      if (z >= static_cast<int64_t>(w_.rows) ||
          odd_[z].load(std::memory_order_acquire) == 0) {
        return false;
      }
    } else {
      loaded++;
    }
  }
  const auto rows = static_cast<int64_t>(w_.rows);
  switch (w_.layout) {
    case Layout::kDense:
      return loaded == std::min(q.range.hi, rows - 1) - q.range.lo + 1;
    case Layout::kEven: {
      const int64_t hi = std::min(q.range.hi, 2 * (rows - 1));
      const int64_t first = q.range.lo + (q.range.lo % 2);
      return loaded == (hi >= first ? (hi - first) / 2 + 1 : 0);
    }
    case Layout::kBuckets:
      return true;
  }
  return false;
}

void Runner::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(fail_mu_);
  if (first_failure_.empty()) {
    first_failure_ = why;
    std::fprintf(stderr, "vbt_bench: first failure: %s\n", why.c_str());
  }
}

double Runner::ReadOp(Generator& g, Tally& t, TimePoint due, bool traced) {
  QueryBatch batch = MakeBatch(g);
  RpcProbe probe;
  double cpu0 = 0;
  if (traced) {
    tls_probe = &probe;
    cpu0 = ThreadCpuUs();
  }
  const TimePoint t0 = Clock::now();
  auto res = g.client->QueryBatched(g.service, batch, kNow,
                                    /*verifier=*/nullptr, world_.net.get());
  const TimePoint t1 = Clock::now();
  const double cpu_us = traced ? ThreadCpuUs() - cpu0 : 0;
  tls_probe = nullptr;

  bool ok = res.ok() && res->results.size() == batch.queries.size();
  for (size_t i = 0; ok && i < batch.queries.size(); ++i) {
    ok = CheckAnswer(batch.queries[i], res->results[i]);
  }
  t.attempted++;
  const double us = ok ? Us(t1 - due) : kInf;
  t.read_us.push_back(us);
  if (ok) {
    t.queries += batch.queries.size();
    if (!w_.writes_primary) done_ops_.fetch_add(batch.queries.size());
  } else {
    t.failed++;
    Fail(!res.ok() ? res.status().ToString()
                   : "read batch failed verification or the oracle");
  }
  if (!res.ok()) return us;

  const Client::VerifiedBatch& vb = *res;
  t.batches++;
  t.crypto.Add(vb.crypto);
  t.exec.Accumulate(vb.stats);
  t.top_memo_hits += vb.top_memo_hits;
  t.verify_us += vb.verify_us;
  t.map_verify_us += vb.map_verify_us;
  t.queue_us.push_back(static_cast<double>(vb.stats.queue_wait_us));
  t.exec_us.push_back(static_cast<double>(vb.stats.exec_us));
  if (!traced) return us;

  // Spans, all taken outside the program: the client call, the two
  // transport legs, and the edge- and client-reported intervals inside
  // them. Decode is what remains of the call after the response arrived
  // once map authentication and verification are taken out.
  t.cpu_us.push_back(cpu_us);
  const uint64_t id = (uint64_t{g.index} << 40) | g.traces++;
  const double rpc = Us(probe.up1 - probe.up0);
  const double queue = std::min(rpc, static_cast<double>(vb.stats.queue_wait_us));
  const double exec = std::min(rpc - queue, static_cast<double>(vb.stats.exec_us));
  const auto map_verify = static_cast<double>(vb.map_verify_us);
  const auto verify = static_cast<double>(vb.verify_us);
  const double decode = std::max(0.0, Us(t1 - probe.down1) - map_verify - verify);
  const char* root = "client.query_batched";
  const double up0 = Since(probe.up0);
  const double down1 = Since(probe.down1);
  g.spans.push_back({id, root, nullptr, Since(t0), Us(t1 - t0)});
  g.spans.push_back({id, "client.encode", root, Since(t0), Us(probe.up0 - t0)});
  g.spans.push_back({id, "edge.rpc", root, up0, rpc});
  g.spans.push_back({id, "qs.queue_wait", "edge.rpc", up0, queue});
  g.spans.push_back({id, "edge.exec", "edge.rpc", up0 + queue, exec});
  g.spans.push_back({id, "transport.down", root, Since(probe.down0),
                     Us(probe.down1 - probe.down0)});
  g.spans.push_back({id, "client.decode", root, down1, decode});
  g.spans.push_back({id, "client.map_verify", root, down1 + decode, map_verify});
  g.spans.push_back(
      {id, "client.verify", root, down1 + decode + map_verify, verify});
  return us;
}

double Runner::WriteOp(Generator& g, Tally& t, TimePoint due, bool traced) {
  CentralServer& central = *world_.central;
  t.attempted++;
  if (w_.delete_every > 0 && ++g.write_ops % w_.delete_every == 0) {
    // Deletes hit seed rows only, so they never race this run's inserts.
    const auto b = static_cast<int64_t>(g.zipf->Next() % kBuckets);
    const int64_t lo =
        b * kBucketSpan + static_cast<int64_t>(g.rng.Uniform(
                              RowsInBucket(w_, b) - kDeleteSpan + 1));
    auto removed = central.DeleteRange(kTable, lo, lo + kDeleteSpan - 1);
    if (removed.ok()) {
      t.deleted_rows += *removed;
    } else {
      t.failed++;
      Fail(removed.status().ToString());
    }
    return kNaN;
  }

  int64_t key = 0;
  size_t slot = 0;
  if (w_.layout == Layout::kEven) {
    // A fresh odd key near a Zipf draw: redraw a few times, then probe up.
    slot = std::min<size_t>(g.zipf->Next(), w_.rows - 1);
    for (int tries = 0; tries < 8 && odd_[slot].load() != 0; ++tries) {
      slot = std::min<size_t>(g.zipf->Next(), w_.rows - 1);
    }
    for (size_t probes = 0; odd_[slot].load() != 0 && probes < w_.rows; ++probes) {
      slot = (slot + 1) % w_.rows;
    }
    odd_[slot].store(1, std::memory_order_release);
    key = 2 * static_cast<int64_t>(slot) + 1;
  } else {
    // Writers own disjoint residues, and each remembers its keys.
    const auto b = static_cast<int64_t>(g.zipf->Next() % kBuckets);
    const auto n = static_cast<uint64_t>(w_.writers);
    const uint64_t lanes = static_cast<uint64_t>(kBucketSpan - kWriteOffset) / n;
    do {
      key = b * kBucketSpan + kWriteOffset +
            static_cast<int64_t>(g.rng.Uniform(lanes) * n + (g.index - w_.readers));
    } while (!g.used.insert(key).second);
  }
  const Tuple tuple = MakeTuple(key, &g.rng);
  const TimePoint t0 = Clock::now();
  const Status s = central.InsertTuple(kTable, tuple);
  const TimePoint t1 = Clock::now();
  if (!s.ok()) {
    t.failed++;
    t.write_us.push_back(kInf);
    Fail(s.ToString());
    return kInf;
  }
  t.inserts++;
  if (w_.writes_primary) done_ops_.fetch_add(1);
  if (w_.layout == Layout::kEven) odd_[slot].store(2, std::memory_order_release);
  const size_t shard = world_.map.ShardIndexForKey(key);
  auto version = central.VersionOf(world_.shard_names[shard]);
  if (version.ok()) world_.net->OnInsert(shard, *version, t1);
  const double us = Us(t1 - due);
  t.write_us.push_back(us);
  if (traced) {
    g.spans.push_back({(uint64_t{g.index} << 40) | g.traces++, "central.insert",
                       nullptr, Since(t0), Us(t1 - t0)});
  }
  return us;
}

/// One generator thread for one phase. Open loop: Poisson arrivals at the
/// workload's fixed rate, each request timed from when it was due.
/// Closed loop: the next request leaves when the previous one returned.
void Runner::Drive(Generator& g, int phase, TimePoint end, bool open) {
  Tally& t = g.tally[phase];
  const double rate =
      g.writer ? w_.write_rate / static_cast<double>(w_.writers)
               : w_.read_qps / static_cast<double>(w_.batch * w_.readers);
  Rng arrivals(Mix(opt_.seed, 1000 + g.index * kPhases + phase));
  TimePoint due = Clock::now();
  TimePoint prev_done = due;
  const bool primary = g.writer == w_.writes_primary;
  for (uint64_t n = 0;; ++n) {
    if (open) {
      due += std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(
          -std::log(1.0 - arrivals.NextDouble()) / rate));
      if (due >= end) break;
      std::this_thread::sleep_until(due);
      t.late_us.push_back(Us(Clock::now() - std::max(due, prev_done)));
    } else {
      due = Clock::now();
      if (due >= end) break;
    }
    const bool traced = opt_.trace && phase == kOpen && n % 2 == 0;
    const double us = g.writer ? WriteOp(g, t, due, traced)
                               : ReadOp(g, t, due, traced);
    prev_done = Clock::now();
    if (primary && opt_.trace && phase == kOpen && !std::isnan(us)) {
      (traced ? t.traced_us : t.untraced_us).push_back(us);
    }
  }
}

void Runner::RunPhase(int phase, double seconds) {
  g_phase.store(phase);
  const TimePoint end =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (auto& g : gens_) {
    const bool drives_peak = g->writer == w_.writes_primary;
    const bool open = phase != kClosed || !drives_peak;
    threads.emplace_back([this, &g, phase, end, open] {
      Drive(*g, phase, end, open);
    });
  }
  if (phase == kClosed) SampleWindows(seconds);
  for (std::thread& t : threads) t.join();
}

/// Splits the closed loop into kWindows equal windows and records each
/// window's throughput and process CPU per operation: their medians shrug
/// off a short stall of the shared host that a whole-phase mean absorbs.
void Runner::SampleWindows(double seconds) {
  constexpr int kWindows = 8;
  const auto width = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(seconds / kWindows));
  TimePoint at = Clock::now();
  uint64_t ops = done_ops_.load();
  double cpu = ProcessCpuSeconds();
  for (int i = 0; i < kWindows; ++i) {
    std::this_thread::sleep_until(at + width);
    const TimePoint now = Clock::now();
    const uint64_t now_ops = done_ops_.load();
    const double now_cpu = ProcessCpuSeconds();
    const auto n = static_cast<double>(now_ops - ops);
    window_rate_.push_back(n / (Us(now - at) / 1e6));
    if (n > 0) window_cpu_us_.push_back((now_cpu - cpu) * 1e6 / n);
    at = now;
    ops = now_ops;
    cpu = now_cpu;
  }
}

Snapshot Runner::Take() const {
  Snapshot s;
  s.at = Clock::now();
  s.cpu_s = ProcessCpuSeconds();
  for (const auto& svc : world_.services) {
    const QueryService::Stats st = svc->stats();
    s.qs_rejected += st.rejected;
    s.qs_errors += st.errors;
  }
  for (const auto& edge : world_.edges) {
    for (const std::string& shard : world_.shard_names) {
      const EdgeServer::VOCacheStats vo = edge->vo_cache_stats(shard);
      s.vo.hits += vo.hits;
      s.vo.misses += vo.misses;
      s.vo.invalidations += vo.invalidations;
    }
  }
  auto domains = world_.central->TableDomainStats(kTable);
  if (domains.ok()) {
    for (const CentralServer::DomainStats& d : *domains) {
      s.sign_calls += d.sign_calls;
      s.shard_ops.push_back(d.ops_applied);
      s.signer_queue_p99 = std::max(s.signer_queue_p99, d.queue_depth_p99);
    }
  }
  for (const std::string& shard : world_.shard_names) {
    auto v = world_.central->VersionOf(shard);
    if (v.ok()) s.versions += *v;
  }
  s.hub = world_.hub->stats();
  s.wire_bytes = world_.net->WireBytes();
  return s;
}

/// write_heavy's closing check: once every edge converged, a verified
/// sweep of the whole table must count exactly the loaded rows plus the
/// acknowledged inserts minus the deleted rows, on every edge.
bool Runner::Sweep() {
  if (!world_.hub->SyncAll().ok()) return false;
  const Tally total = Total();
  const uint64_t expected = w_.rows + total.inserts - total.deleted_rows;
  std::vector<SelectQuery> queries;
  for (int64_t b = 0; b < kBuckets; ++b) {
    const int64_t base = b * kBucketSpan;
    for (const KeyRange& r : {KeyRange{base, base + kWriteOffset - 1},
                              KeyRange{base + kWriteOffset, base + kBucketSpan - 1}}) {
      SelectQuery q;
      q.range = r;
      queries.push_back(q);
    }
  }
  bool ok = true;
  for (const auto& service : world_.services) {
    Client client(kDb, world_.central->key_directory());
    client.RegisterShardedTable(kTable, MakeSchema());
    uint64_t rows = 0;
    for (size_t i = 0; i < queries.size(); i += w_.batch) {
      QueryBatch batch;
      batch.table = kTable;
      batch.queries.assign(queries.begin() + static_cast<std::ptrdiff_t>(i),
                           queries.begin() + static_cast<std::ptrdiff_t>(
                                                 std::min(i + w_.batch, queries.size())));
      sweep_.attempted++;
      auto res = client.QueryBatched(service.get(), batch, kNow, nullptr,
                                     world_.net.get());
      bool batch_ok = res.ok() && res->results.size() == batch.queries.size();
      for (size_t q = 0; batch_ok && q < batch.queries.size(); ++q) {
        batch_ok = CheckAnswer(batch.queries[q], res->results[q]);
        rows += res->results[q].rows.size();
      }
      if (!batch_ok) {
        sweep_.failed++;
        Fail("final sweep batch failed verification");
      }
    }
    if (rows != expected) {
      Fail("final sweep on " + service->edge()->name() + " counted " +
           std::to_string(rows) + " rows, expected " + std::to_string(expected));
      ok = false;
    }
  }
  return ok;
}

bool Runner::Run() {
  MakeGenerators();
  const double warmup = opt_.smoke ? 0.5 : 2.0;
  const double open = opt_.smoke ? 1.0 : opt_.seconds * 0.55;
  const double closed = opt_.smoke ? 1.0 : opt_.seconds - open;
  std::fprintf(stderr, "vbt_bench: %s warm-up %.1fs, open loop %.1fs, closed loop %.1fs\n",
               w_.name, warmup, open, closed);
  RunPhase(kWarmup, warmup);
  snaps_[0] = Take();
  RunPhase(kOpen, open);
  snaps_[1] = Take();
  RunPhase(kClosed, closed);
  snaps_[2] = Take();
  g_phase.store(kDrain);
  if (w_.layout == Layout::kBuckets && !Sweep()) oracle_ok_ = false;
  return correct();
}

Tally Runner::Merged(int phase) const {
  Tally t;
  for (const auto& g : gens_) t.Merge(g->tally[phase]);
  return t;
}

Tally Runner::Total() const {
  Tally t;
  for (int p = 0; p < kPhases; ++p) t.Merge(Merged(p));
  t.Merge(sweep_);
  return t;
}

// ---------------------------------------------------------------------------
// Metrics and output.
// ---------------------------------------------------------------------------

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Duration and self time (duration minus the children's durations) of
/// every span, by span name.
struct SpanStats {
  std::vector<double> dur, self;
};

std::map<std::string, SpanStats> SpanTable(std::vector<Span> spans) {
  std::stable_sort(spans.begin(), spans.end(),
                   [](const Span& a, const Span& b) { return a.trace < b.trace; });
  std::map<std::string, SpanStats> table;
  for (size_t i = 0; i < spans.size();) {
    size_t end = i;
    while (end < spans.size() && spans[end].trace == spans[i].trace) ++end;
    for (size_t k = i; k < end; ++k) {
      double children = 0;
      for (size_t c = i; c < end; ++c) {
        if (spans[c].parent != nullptr &&
            std::strcmp(spans[c].parent, spans[k].name) == 0) {
          children += spans[c].dur_us;
        }
      }
      SpanStats& s = table[spans[k].name];
      s.dur.push_back(spans[k].dur_us);
      s.self.push_back(spans[k].dur_us - children);
    }
    i = end;
  }
  return table;
}

std::vector<Metric> Runner::EndToEnd(double setup_s) const {
  const Tally open = Merged(kOpen);
  const Tally closed = Merged(kClosed);
  const std::vector<double>& lat = w_.writes_primary ? open.write_us : open.read_us;
  return {
      {"setup_s", setup_s, "s"},
      {"latency_p50_ms", Pct(lat, 0.50) / 1000, "ms"},
      {"peak_ops_per_s", Pct(window_rate_, 0.5), "ops/s"},
      {"cpu_us_per_op", Pct(window_cpu_us_, 0.5), "us"},
      {"wire_bytes_per_query",
       Ratio(static_cast<double>(snaps_[2].wire_bytes - snaps_[0].wire_bytes),
             static_cast<double>(open.queries + closed.queries)),
       "B"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
  };
}

/// Per-layer metrics of the open-loop phase (the traced one), named by
/// module. Metrics of a layer the workload leaves idle read 0.
std::vector<Span> Runner::AllSpans() const {
  std::vector<Span> spans = world_.net->spans();
  for (const auto& g : gens_) spans.insert(spans.end(), g->spans.begin(), g->spans.end());
  return spans;
}

std::vector<Metric> Runner::PerLayer() const {
  const Tally t = Merged(kOpen);
  const Snapshot& s0 = snaps_[0];
  const Snapshot& s1 = snaps_[1];
  const Snapshot& s2 = snaps_[2];
  const BenchTransport::Samples hub = world_.net->samples(kOpen);
  std::map<std::string, SpanStats> table = SpanTable(AllSpans());
  auto dur = [&](const char* name, double p) { return Pct(table[name].dur, p); };

  const auto q = static_cast<double>(t.queries);
  const auto b = static_cast<double>(t.batches);
  const auto inserts = static_cast<double>(t.inserts);
  auto n = [](const std::atomic<uint64_t>& c) {
    return static_cast<double>(c.load(std::memory_order_relaxed));
  };
  auto d = [](uint64_t after, uint64_t before) {
    return static_cast<double>(after - before);
  };
  const double open_s = Us(s1.at - s0.at) / 1e6;
  const double cache_hits = n(t.crypto.digest_cache_hits);
  const auto fetches = static_cast<double>(t.exec.tuple_fetches);
  const auto shared = static_cast<double>(t.exec.shared_fetch_hits);

  double skew = 0;
  if (s1.shard_ops.size() == s0.shard_ops.size() && !s1.shard_ops.empty()) {
    double total = 0, peak = 0;
    for (size_t i = 0; i < s1.shard_ops.size(); ++i) {
      const double ops = d(s1.shard_ops[i], s0.shard_ops[i]);
      total += ops;
      peak = std::max(peak, ops);
    }
    skew = Ratio(peak, total / static_cast<double>(s1.shard_ops.size()));
  }
  const double untraced_p50 = Pct(t.untraced_us, 0.5);

  return {
      {"client.encode_us_p50", dur("client.encode", 0.5), "us"},
      {"client.decode_us_p50", dur("client.decode", 0.5), "us"},
      {"client.decode_us_p99", dur("client.decode", 0.99), "us"},
      {"client.verify_us_per_query", Ratio(static_cast<double>(t.verify_us), q), "us"},
      {"client.map_verify_us_per_batch",
       Ratio(static_cast<double>(t.map_verify_us), b), "us"},
      {"client.cpu_us_per_batch",
       Ratio(std::accumulate(t.cpu_us.begin(), t.cpu_us.end(), 0.0),
             static_cast<double>(t.cpu_us.size())),
       "us"},
      {"crypto.cost_s_per_query", Ratio(n(t.crypto.recovers), q), "count"},
      {"crypto.cost_h_per_query", Ratio(n(t.crypto.attr_hashes), q), "count"},
      {"crypto.cost_k_per_query", Ratio(n(t.crypto.combine_ops), q), "count"},
      {"crypto.digest_cache_hit_rate",
       Ratio(cache_hits, cache_hits + n(t.crypto.digest_cache_misses)), "ratio"},
      {"crypto.digest_cache_evictions_per_query",
       Ratio(n(t.crypto.digest_cache_evictions), q), "count"},
      {"crypto.top_memo_hits_per_batch",
       Ratio(static_cast<double>(t.top_memo_hits), b), "count"},
      {"qs.queue_wait_us_p50", Pct(t.queue_us, 0.5), "us"},
      {"qs.queue_wait_us_p99", Pct(t.queue_us, 0.99), "us"},
      {"qs.rejected", d(s2.qs_rejected, s0.qs_rejected), "count"},
      {"qs.errors", d(s2.qs_errors, s0.qs_errors), "count"},
      {"edge.rpc_us_p50", dur("edge.rpc", 0.5), "us"},
      {"edge.exec_us_p50", Pct(t.exec_us, 0.5), "us"},
      {"edge.exec_us_p99", Pct(t.exec_us, 0.99), "us"},
      {"edge.other_us_p50", Pct(table["edge.rpc"].self, 0.5), "us"},
      {"edge.vo_cache_hit_rate",
       Ratio(d(s1.vo.hits, s0.vo.hits),
             d(s1.vo.hits, s0.vo.hits) + d(s1.vo.misses, s0.vo.misses)),
       "ratio"},
      {"edge.vo_cache_invalidations_per_s",
       Ratio(d(s1.vo.invalidations, s0.vo.invalidations), open_s), "1/s"},
      {"edge.vo_wire_bytes_per_query",
       Ratio(static_cast<double>(t.exec.vo_wire_bytes), q), "B"},
      {"edge.vo_raw_bytes_per_query",
       Ratio(static_cast<double>(t.exec.total_vo_bytes), q), "B"},
      {"edge.result_bytes_per_query",
       Ratio(static_cast<double>(t.exec.total_result_bytes), q), "B"},
      {"edge.replay_us_p50", Pct(hub.replay_us, 0.5), "us"},
      {"edge.replay_us_p99", Pct(hub.replay_us, 0.99), "us"},
      {"vbtree.nodes_visited_per_query",
       Ratio(static_cast<double>(t.exec.nodes_visited), q), "count"},
      {"vbtree.tuple_fetches_per_query", Ratio(fetches, q), "count"},
      {"vbtree.shared_fetch_hit_rate", Ratio(shared, shared + fetches), "ratio"},
      {"vbtree.olc_restarts_per_query",
       Ratio(static_cast<double>(t.exec.olc_restarts), q), "count"},
      {"vbtree.latch_wait_us_per_batch",
       Ratio(static_cast<double>(t.exec.latch_wait_us), b), "us"},
      {"central.insert_us_p50", dur("central.insert", 0.5), "us"},
      {"central.insert_us_p99", dur("central.insert", 0.99), "us"},
      {"central.sign_calls_per_insert", Ratio(d(s1.sign_calls, s0.sign_calls), inserts),
       "count"},
      {"central.signer_queue_depth_p99", static_cast<double>(s1.signer_queue_p99),
       "count"},
      {"central.shard_write_skew", skew, "ratio"},
      {"hub.bytes_per_insert",
       Ratio(d(s1.hub.bytes_shipped, s0.hub.bytes_shipped), inserts), "B"},
      {"hub.ops_per_delta",
       Ratio(d(s1.versions, s0.versions) * static_cast<double>(w_.edges),
             d(s1.hub.deltas_shipped, s0.hub.deltas_shipped)),
       "count"},
      {"hub.delta_gap_ms_p99", Pct(hub.gap_ms, 0.99), "ms"},
      {"hub.fresh_lag_ms_p50", Pct(hub.lag_ms, 0.5), "ms"},
      {"hub.fresh_lag_ms_p99", Pct(hub.lag_ms, 0.99), "ms"},
      {"hub.catch_up_snapshots",
       d(s2.hub.catch_up_snapshots, s0.hub.catch_up_snapshots), "count"},
      {"hub.ship_errors", d(s2.hub.ship_errors, s0.hub.ship_errors), "count"},
      {"gen.late_us_p99", Pct(t.late_us, 0.99), "us"},
      {"trace.overhead_pct",
       Ratio((Pct(t.traced_us, 0.5) - untraced_p50) * 100, untraced_p50), "%"},
  };
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void PrintMetric(const Metric& m, const std::string& note = "") {
  std::printf("%-40s %14.6g %s%s\n", m.name.c_str(), m.value, m.unit, note.c_str());
}

void Runner::WriteTrace(const std::vector<Span>& spans) const {
  std::error_code ec;
  std::filesystem::create_directories(opt_.out_dir, ec);
  const std::string path = opt_.out_dir + "/" + w_.name + ".trace.jsonl";
  std::ofstream out(path);
  for (const Span& s : spans) {
    out << "{\"trace\":" << s.trace << ",\"span\":\"" << s.name
        << "\",\"parent\":" << (s.parent ? "\"" + std::string(s.parent) + "\"" : "null")
        << ",\"start_us\":" << Num(s.start_us) << ",\"dur_us\":" << Num(s.dur_us)
        << "}\n";
  }
  std::fprintf(stderr, "vbt_bench: wrote %zu spans to %s\n", spans.size(),
               path.c_str());
}

void Runner::Report(double setup_s) const {
  const Tally open = Merged(kOpen);
  const Tally total = Total();
  std::printf("# workload %s seed %llu: %zu rows, %zu shards, %zu edges, "
              "%zu readers, %zu writers\n",
              w_.name, static_cast<unsigned long long>(opt_.seed), w_.rows,
              w_.shards, w_.edges, w_.readers, w_.writers);
  const std::vector<Metric> e2e = EndToEnd(setup_s);
  for (const Metric& m : e2e) PrintMetric(m);

  // Per-operation views the generic metrics fold together.
  const auto reads = std::to_string(open.read_us.size());
  const auto writes = std::to_string(open.write_us.size());
  const BenchTransport::Samples hub = world_.net->samples(kOpen);
  const auto lags = std::to_string(hub.lag_ms.size());
  if (w_.readers > 0) {
    PrintMetric({"read_p50_ms", Pct(open.read_us, 0.5) / 1000, "ms"}, "  n=" + reads);
    PrintMetric({"read_p99_ms", Pct(open.read_us, 0.99) / 1000, "ms"}, "  n=" + reads);
  }
  if (w_.writers > 0) {
    PrintMetric({"insert_p50_ms", Pct(open.write_us, 0.5) / 1000, "ms"}, "  n=" + writes);
    PrintMetric({"insert_p99_ms", Pct(open.write_us, 0.99) / 1000, "ms"}, "  n=" + writes);
    PrintMetric({"fresh_lag_p50_ms", Pct(hub.lag_ms, 0.5), "ms"}, "  n=" + lags);
    PrintMetric({"fresh_lag_p99_ms", Pct(hub.lag_ms, 0.99), "ms"}, "  n=" + lags);
  }
  PrintMetric({"fail_frac",
               Ratio(static_cast<double>(total.failed),
                     static_cast<double>(total.attempted)),
               "ratio"},
              "  attempted=" + std::to_string(total.attempted));

  std::vector<Metric> json = e2e;
  if (opt_.trace) {
    json = PerLayer();
    for (const Metric& m : json) PrintMetric(m);
    const std::vector<Span> spans = AllSpans();
    std::map<std::string, SpanStats> table = SpanTable(spans);
    for (const auto& [name, st] : table) {
      std::printf("# span %-22s n=%-6zu self_p50_us=%-10.1f self_p99_us=%.1f\n",
                  name.c_str(), st.self.size(), Pct(st.self, 0.5), Pct(st.self, 0.99));
    }
    if (!table["client.query_batched"].dur.empty()) {
      double parts = 0;
      for (const char* part : {"client.encode", "edge.rpc", "transport.down",
                               "client.decode", "client.map_verify", "client.verify"}) {
        parts += Pct(table[part].dur, 0.5);
      }
      // Medians do not add up exactly for skewed parts; the root's own
      // self time is the time no child span explains.
      const double root = Pct(table["client.query_batched"].dur, 0.5);
      std::printf("# reconcile: component p50 sum %.1f us vs batch p50 %.1f us (%+.1f%%); "
                  "unexplained p50 %.1f us\n",
                  parts, root, Ratio((parts - root) * 100, root),
                  Pct(table["client.query_batched"].self, 0.5));
    }
    WriteTrace(spans);
  }

  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(total.attempted);
  out += ", \"failed\": " + std::to_string(total.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < json.size(); ++i) {
    out += (i ? ", \"" : "\"") + json[i].name + "\": {\"value\": " +
           Num(json[i].value) + ", \"unit\": \"" + json[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Times one set-up in a forked child (the parent has no threads yet) and
/// waits for it to exit; -1 when it failed.
double TimeSetupInChild(const Options& opt) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    close(fds[0]);
    double seconds = -1;
    if (!Setup(*opt.w, MakeRows(*opt.w, opt.seed), false, &seconds).ok()) {
      seconds = -1;
    }
    const bool sent = write(fds[1], &seconds, sizeof(seconds)) == sizeof(seconds);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  double seconds = -1;
  if (read(fds[0], &seconds, sizeof(seconds)) != sizeof(seconds)) seconds = -1;
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (seconds < 0) std::fprintf(stderr, "vbt_bench: set-up failed in child\n");
  return seconds;
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "vbt_bench: %s\nusage: vbt_bench --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--tamper] [--out-dir DIR]\n"
               "workloads:",
               why);
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      const std::string name = argv[++i];
      for (const Workload& w : kWorkloads) {
        if (name == w.name) opt.w = &w;
      }
      if (opt.w == nullptr) return Usage(("unknown workload " + name).c_str());
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      // `--trace 0|1`, or a bare `--trace`.
      opt.trace = true;
      if (has_value && (std::strcmp(argv[i + 1], "0") == 0 ||
                        std::strcmp(argv[i + 1], "1") == 0)) {
        opt.trace = argv[++i][0] == '1';
      }
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--tamper") {
      opt.tamper = true;
    } else if (arg == "--out-dir" && has_value) {
      opt.out_dir = argv[++i];
    } else {
      return Usage(("bad argument " + arg).c_str());
    }
  }
  if (opt.w == nullptr) return Usage("--workload is required");
  if (!(opt.seconds >= 2)) return Usage("--seconds must be at least 2");

  // Set-up is timed several times and the median reported. The extra
  // timings run in child processes, each from a fresh heap like the
  // parent's, so the parent's peak RSS reflects the one world it loads.
  const int reps = opt.smoke ? 1 : 3;
  std::vector<double> setups;
  for (int r = 1; r < reps; ++r) {
    const double seconds = TimeSetupInChild(opt);
    if (seconds < 0) return 1;
    setups.push_back(seconds);
  }
  double seconds = 0;
  auto built = Setup(*opt.w, MakeRows(*opt.w, opt.seed), opt.trace, &seconds);
  if (!built.ok()) {
    std::fprintf(stderr, "vbt_bench: set-up failed: %s\n",
                 built.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<World> world = built.MoveValueUnsafe();
  setups.push_back(seconds);
  std::fprintf(stderr, "vbt_bench: %s set-up %.3fs (median of %d: %.3fs)\n",
               opt.w->name, seconds, reps, Pct(setups, 0.5));
  if (opt.tamper) {
    for (auto& edge : world->edges) edge->set_response_tamper(ResponseTamper::kModifyValue);
  }

  Runner runner(opt, world.get());
  const bool ok = runner.Run();
  runner.Report(Pct(setups, 0.5));
  std::fflush(stdout);
  return ok ? 0 : 1;
}
