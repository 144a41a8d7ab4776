#ifndef VBTREE_EDGE_QUERY_SERVICE_EDGE_DIRECTOR_H_
#define VBTREE_EDGE_QUERY_SERVICE_EDGE_DIRECTOR_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace vbtree {

class LazyAuditor;
class QueryService;

/// Per-edge health as the director sees it. Healthy edges take traffic;
/// a suspect edge still takes traffic but is one strike from
/// quarantine; a quarantined edge takes no traffic until its probation
/// expires, and then only a single probe at a time.
enum class EdgeHealth { kHealthy, kSuspect, kQuarantined };

/// Client-side routing brain for a fleet of edge replicas: tracks
/// per-edge health from three signal sources — RPC timeouts, synchronous
/// verification failures, and LazyAuditor alarms (wired via
/// WireAlarms(), which finally consumes the alarm's source identity) —
/// and hands Client::QueryBatched an ordered candidate list.
///
/// Quarantine is sticky with exponential probation: a quarantined edge
/// is eligible again only after its probation window, and then as a
/// single leading *probe* in the candidate list; a failed probe
/// doubles the window (capped), a verified success re-admits it. A
/// verification failure or alarm quarantines much faster than a timeout
/// does, because lying is a stronger signal than being slow — and
/// unlike timeouts, it is evidence, so ReportSuccess never clears alarm
/// strikes.
///
/// On quarantine the director expedites the offender's queued lazy
/// tickets (LazyAuditor::Expedite): the remaining exposure window is
/// shrunk exactly where the risk concentrates.
///
/// Thread-safe: client threads route and report while the auditor
/// thread delivers alarms.
class EdgeDirector {
 public:
  /// The first timeout turns an edge kSuspect, and the first synchronous
  /// verification failure quarantines it: a bad proof is never an
  /// accident of the network.
  struct Options {
    /// Consecutive timeout strikes before quarantine.
    size_t timeout_quarantine_after = 3;
    /// Deferred-audit alarms before quarantine.
    size_t alarm_quarantine_after = 2;
    /// First probation window after quarantine, microseconds.
    uint64_t probation_initial_us = 50'000;
    /// Window multiplier per failed probe.
    double probation_backoff = 2.0;
    uint64_t probation_max_us = 5'000'000;
  };

  struct Stats {
    uint64_t timeouts = 0;
    uint64_t verify_failures = 0;
    uint64_t alarms = 0;
    uint64_t quarantines = 0;   ///< transitions into kQuarantined
    uint64_t probes = 0;        ///< quarantined edges handed out on probation
    uint64_t readmissions = 0;  ///< probes that succeeded -> kHealthy
    uint64_t expedited_tickets = 0;  ///< lazy tickets re-prioritized
  };

  EdgeDirector();
  explicit EdgeDirector(Options options);

  /// Registers an edge replica (name taken from the service's edge).
  void AddEdge(QueryService* service);

  /// Ordered candidates for the next attempt: any quarantined edge
  /// whose probation has expired leads as a probe (otherwise it would
  /// never see traffic again — callers stop at the first success; a
  /// failed probe simply fails over to the healthy edges behind it),
  /// followed by healthy + suspect edges rotated round-robin (load
  /// spreading). Empty when every edge is quarantined and none is
  /// probe-eligible yet.
  std::vector<QueryService*> RouteCandidates();

  // --- signals ---
  /// The edge missed its per-attempt budget or errored at the RPC layer.
  void ReportTimeout(const std::string& edge_name);
  /// A synchronous (certified) verification failed against this edge.
  void ReportVerifyFailure(const std::string& edge_name);
  /// A deferred audit alarmed on this edge (normally wired by
  /// WireAlarms rather than called directly).
  void ReportAlarm(const std::string& edge_name);
  /// A fully verified answer came back from this edge.
  void ReportSuccess(const std::string& edge_name);

  /// Installs this director as `auditor`'s alarm sink (alarm.source ->
  /// ReportAlarm) and remembers the auditor so quarantines expedite the
  /// offender's queued tickets.
  void WireAlarms(LazyAuditor* auditor);

  EdgeHealth health(const std::string& edge_name) const;
  std::vector<std::string> QuarantinedEdges() const;
  size_t edge_count() const;
  Stats stats() const;

 private:
  using Clock = std::chrono::steady_clock;

  struct Edge {
    QueryService* service = nullptr;
    EdgeHealth state = EdgeHealth::kHealthy;
    size_t timeout_strikes = 0;
    size_t verify_strikes = 0;
    size_t alarm_strikes = 0;
    uint64_t probation_us = 0;
    Clock::time_point quarantined_at{};
    bool probe_outstanding = false;
    Clock::time_point probe_at{};  ///< when the outstanding probe was issued
  };

  /// Moves `e` to kQuarantined (idempotent), arms/backs off probation,
  /// and returns whether this call performed the transition. The caller
  /// expedites outside the lock.
  bool QuarantineLocked(Edge* e);

  const Options options_;

  mutable std::mutex mu_;
  std::map<std::string, Edge> edges_;
  std::vector<std::string> order_;  ///< registration order, for rotation
  size_t rr_next_ = 0;
  LazyAuditor* auditor_ = nullptr;
  Stats stats_;
};

}  // namespace vbtree

#endif  // VBTREE_EDGE_QUERY_SERVICE_EDGE_DIRECTOR_H_
