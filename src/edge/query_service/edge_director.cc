#include "edge/query_service/edge_director.h"

#include <algorithm>

#include "edge/query_service/lazy_auditor.h"
#include "edge/query_service/query_service.h"

namespace vbtree {

EdgeDirector::EdgeDirector() : EdgeDirector(Options()) {}

EdgeDirector::EdgeDirector(Options options) : options_(options) {}

void EdgeDirector::AddEdge(QueryService* service) {
  if (service == nullptr || service->edge() == nullptr) return;
  const std::string name = service->edge()->name();
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = edges_.emplace(name, Edge{});
  it->second.service = service;
  if (inserted) order_.push_back(name);
}

std::vector<QueryService*> EdgeDirector::RouteCandidates() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<QueryService*> active;
  std::vector<QueryService*> probes;
  const auto now = Clock::now();
  const size_t n = order_.size();
  for (size_t i = 0; i < n; ++i) {
    Edge& e = edges_.at(order_[(rr_next_ + i) % n]);
    if (e.state != EdgeHealth::kQuarantined) {
      active.push_back(e.service);
      continue;
    }
    // One probe at a time: a quarantined edge re-earns trust with a
    // single verified answer, not a burst of traffic. A probe whose
    // outcome never came back (the caller routed elsewhere) expires
    // after one probation window so the edge isn't stranded.
    if (e.probe_outstanding) {
      const auto since_probe =
          std::chrono::duration_cast<std::chrono::microseconds>(now -
                                                                e.probe_at);
      if (static_cast<uint64_t>(since_probe.count()) < e.probation_us) {
        continue;
      }
      e.probe_outstanding = false;
    }
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        now - e.quarantined_at);
    if (static_cast<uint64_t>(elapsed.count()) >= e.probation_us) {
      e.probe_outstanding = true;
      e.probe_at = now;
      probes.push_back(e.service);
      stats_.probes++;
    }
  }
  if (n > 0) rr_next_ = (rr_next_ + 1) % n;
  // Probes lead the list: appended after healthy edges they would never
  // see traffic (the caller stops at the first success), so a
  // quarantined edge could never re-earn admission. Leading costs the
  // caller at most one extra attempt — a failed probe just fails over
  // to the healthy candidates behind it.
  probes.insert(probes.end(), active.begin(), active.end());
  return probes;
}

bool EdgeDirector::QuarantineLocked(Edge* e) {
  if (e->state == EdgeHealth::kQuarantined) {
    // Strike while quarantined (a failed probe): back the window off.
    e->probation_us = std::min(
        static_cast<uint64_t>(static_cast<double>(e->probation_us) *
                              options_.probation_backoff),
        options_.probation_max_us);
    e->quarantined_at = Clock::now();
    e->probe_outstanding = false;
    return false;
  }
  e->state = EdgeHealth::kQuarantined;
  e->probation_us =
      e->probation_us == 0
          ? options_.probation_initial_us
          : std::min(static_cast<uint64_t>(
                         static_cast<double>(e->probation_us) *
                         options_.probation_backoff),
                     options_.probation_max_us);
  e->quarantined_at = Clock::now();
  e->probe_outstanding = false;
  e->timeout_strikes = 0;
  stats_.quarantines++;
  return true;
}

void EdgeDirector::ReportTimeout(const std::string& edge_name) {
  bool quarantined = false;
  LazyAuditor* auditor = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auditor = auditor_;
    auto it = edges_.find(edge_name);
    if (it == edges_.end()) return;
    Edge& e = it->second;
    stats_.timeouts++;
    if (e.state == EdgeHealth::kQuarantined) {
      QuarantineLocked(&e);  // failed probe: back off
      return;
    }
    e.timeout_strikes++;
    if (e.timeout_strikes >= options_.timeout_quarantine_after) {
      quarantined = QuarantineLocked(&e);
    } else {
      e.state = EdgeHealth::kSuspect;
    }
  }
  if (quarantined && auditor != nullptr) {
    size_t moved = auditor->Expedite(edge_name);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.expedited_tickets += moved;
  }
}

void EdgeDirector::ReportVerifyFailure(const std::string& edge_name) {
  bool quarantined = false;
  LazyAuditor* auditor = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auditor = auditor_;
    auto it = edges_.find(edge_name);
    if (it == edges_.end()) return;
    Edge& e = it->second;
    stats_.verify_failures++;
    e.verify_strikes++;
    // The first bad proof quarantines; one from an edge already in
    // quarantine (a failed probe) backs its probation off.
    quarantined = QuarantineLocked(&e);
  }
  if (quarantined && auditor != nullptr) {
    size_t moved = auditor->Expedite(edge_name);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.expedited_tickets += moved;
  }
}

void EdgeDirector::ReportAlarm(const std::string& edge_name) {
  bool quarantined = false;
  LazyAuditor* auditor = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auditor = auditor_;
    auto it = edges_.find(edge_name);
    if (it == edges_.end()) return;
    Edge& e = it->second;
    stats_.alarms++;
    e.alarm_strikes++;
    if (e.state == EdgeHealth::kQuarantined) return;  // already out
    if (e.alarm_strikes >= options_.alarm_quarantine_after) {
      quarantined = QuarantineLocked(&e);
    } else {
      e.state = EdgeHealth::kSuspect;
    }
  }
  if (quarantined && auditor != nullptr) {
    size_t moved = auditor->Expedite(edge_name);
    std::lock_guard<std::mutex> lock(mu_);
    stats_.expedited_tickets += moved;
  }
}

void EdgeDirector::ReportSuccess(const std::string& edge_name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = edges_.find(edge_name);
  if (it == edges_.end()) return;
  Edge& e = it->second;
  e.timeout_strikes = 0;
  // Alarm and verify strikes persist: evidence of lying doesn't expire
  // just because the next answer checked out.
  if (e.state == EdgeHealth::kQuarantined) {
    // A verified probe answer re-admits the edge; the probation window
    // keeps its backed-off width in case it flaps again.
    e.state = EdgeHealth::kHealthy;
    e.probe_outstanding = false;
    // Re-admission wipes the strike that quarantined it, or the very
    // next alarm/verify report would instantly re-quarantine on stale
    // evidence. Fresh misbehavior re-accumulates from zero.
    e.verify_strikes = 0;
    e.alarm_strikes = 0;
    stats_.readmissions++;
  } else if (e.state == EdgeHealth::kSuspect && e.verify_strikes == 0 &&
             e.alarm_strikes == 0) {
    e.state = EdgeHealth::kHealthy;
  }
}

void EdgeDirector::WireAlarms(LazyAuditor* auditor) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    auditor_ = auditor;
  }
  if (auditor != nullptr) {
    auditor->SetAlarmSink([this](const LazyAuditor::Alarm& alarm) {
      if (!alarm.source.empty()) ReportAlarm(alarm.source);
    });
  }
}

EdgeHealth EdgeDirector::health(const std::string& edge_name) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = edges_.find(edge_name);
  return it == edges_.end() ? EdgeHealth::kHealthy : it->second.state;
}

std::vector<std::string> EdgeDirector::QuarantinedEdges() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  for (const auto& [name, e] : edges_) {
    if (e.state == EdgeHealth::kQuarantined) names.push_back(name);
  }
  return names;
}

size_t EdgeDirector::edge_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return edges_.size();
}

EdgeDirector::Stats EdgeDirector::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace vbtree
