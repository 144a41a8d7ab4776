#ifndef VBTREE_EDGE_QUERY_SERVICE_LAZY_AUDITOR_H_
#define VBTREE_EDGE_QUERY_SERVICE_LAZY_AUDITOR_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "crypto/counters.h"
#include "crypto/key_manager.h"
#include "crypto/recovered_digest_cache.h"
#include "edge/edge_server.h"
#include "edge/query_service/batch_verifier.h"
#include "query/trust.h"

namespace vbtree {

/// One deferred-verification ticket: the shard group the certified
/// check would have verified at delivery (BatchVerifier::Group — digest
/// schema, lineage binding, normalized queries, the response with its
/// delivered rows, VOs and signature pool, and the delivery-time `now`),
/// plus who answered it and when. Built by Client::QueryBatched under
/// TrustMode::kLazy/kSampled, one per shard group of a response.
struct AuditTicket {
  uint64_t id = 0;
  /// The shard's name: alarm label and audited-watermark key.
  std::string schema_table;
  BatchVerifier::Group group;
  /// The edge server that produced this answer — alarm attribution, so
  /// an alarm sink (e.g. the EdgeDirector) can quarantine the offender
  /// and Expedite() can re-prioritize a suspect edge's pending tickets.
  std::string source;
  std::chrono::steady_clock::time_point issued_at;
};

/// Client-side background auditor for lazy-trust reads: runs each
/// deferred ticket's group through BatchVerifier::VerifyGroup — the check
/// a certified read runs synchronously — and raises a tamper alarm,
/// carrying the offending query and its serialized VO, for every slot
/// that fails. The detection window is the audit lag (docs/TRUST_MODEL.md).
///
/// The ticket queue is bounded: Submit blocks when it is full, so a slow
/// auditor backpressures the issuing client instead of growing memory
/// without bound. One background thread drains the queue and verifies
/// each ticket inline.
///
/// Thread safety: Submit and every accessor are safe from any thread
/// (Clients are single-threaded but many Clients may share one auditor).
/// The RecoveredDigestCache is internally sharded and thread-safe, so it
/// may be shared with the issuing Clients.
class LazyAuditor {
 public:
  struct Options {
    /// Bounded ticket queue; Submit blocks (backpressure) at capacity.
    size_t queue_capacity = 256;
    /// Fraction of kSampled tickets audited, drawn per ticket in submit
    /// order from a deterministic seeded RNG (common/random.h) — the
    /// audited subset is exactly reproducible from the seed.
    double sample_fraction = 1.0;
    uint64_t sample_seed = 0x5eed;
    /// Tests: hold queued tickets until ResumeForTest().
    bool start_paused = false;
  };

  /// A deferred check that failed: what a certified read would have
  /// rejected synchronously. Carries the evidence — the offending query,
  /// the serialized VO the edge shipped for it, and the replica version
  /// the answer claimed — so the alarm is actionable (replayable against
  /// the central server's public key by any third party).
  struct Alarm {
    uint64_t ticket_id = 0;
    std::string schema_table;
    /// The edge server whose answer failed the deferred check (the
    /// ticket's source) — who to quarantine.
    std::string source;
    SelectQuery query;
    std::vector<uint8_t> vo_bytes;
    uint64_t replica_version = 0;
    Status verification;
  };

  struct Stats {
    uint64_t tickets_enqueued = 0;
    uint64_t tickets_sampled_out = 0;  ///< kSampled tickets not audited
    uint64_t tickets_audited = 0;
    uint64_t queries_enqueued = 0;
    uint64_t queries_sampled_out = 0;
    uint64_t queries_audited = 0;
    uint64_t alarms = 0;
    /// Tickets moved to the queue front by Expedite().
    uint64_t expedited_tickets = 0;
    /// Submit-to-audited wall lag (the lazy-trust exposure window).
    uint64_t audit_lag_us_total = 0;
    uint64_t audit_lag_us_max = 0;
    /// Wall time spent inside deferred verification.
    uint64_t audit_us_total = 0;
    /// Auditor-side crypto work; add to the client's for whole-system
    /// recover-call accounting (same work as certified, later schedule).
    CryptoCounters crypto;
  };

  LazyAuditor(KeyDirectory* keys, Options options);
  explicit LazyAuditor(KeyDirectory* keys) : LazyAuditor(keys, Options()) {}
  ~LazyAuditor();

  LazyAuditor(const LazyAuditor&) = delete;
  LazyAuditor& operator=(const LazyAuditor&) = delete;

  /// Replaces the auditor's own cross-batch recovered-digest cache, e.g.
  /// with the issuing Client's: the cache is internally sharded and
  /// thread-safe, so the auditor's deferred recoveries then warm the same
  /// entries the synchronous path reads. Like a Client, the auditor is
  /// built with a cache of its own, so a deferred check costs what the
  /// certified check would.
  void set_digest_cache(std::shared_ptr<RecoveredDigestCache> cache);

  /// Enqueues one ticket. kSampled draws the seeded RNG (in submit order)
  /// and may drop the ticket after counting it; kLazy always audits.
  /// Blocks while the queue is full. Returns false after Shutdown (the
  /// ticket is dropped — the caller's answer was already delivered, so
  /// this only widens the exposure window, it never blocks delivery).
  bool Submit(AuditTicket ticket, TrustMode mode);

  /// Blocks until every accepted ticket has been audited. Call
  /// ResumeForTest() first if the auditor is paused.
  void Drain();

  /// Drains, then stops the worker. Idempotent; the destructor calls it.
  void Shutdown();

  void PauseForTest();
  void ResumeForTest();

  /// Highest replica version that has fully passed a deferred audit for
  /// this (shard-qualified) table — the lazy-mode monotonic-read
  /// watermark. Provisional answers never advance it; the issuing Client
  /// reads it to flag stale replicas on later provisional reads.
  uint64_t audited_watermark(const std::string& schema_table) const;

  /// Installs a push callback invoked (on the auditor thread, no auditor
  /// lock held) for every alarm as it is raised — the wiring that lets
  /// an EdgeDirector quarantine a lying edge without polling. Alarms are
  /// still retained for TakeAlarms(). The sink must be thread-safe and
  /// must not call back into the auditor except Expedite().
  void SetAlarmSink(std::function<void(const Alarm&)> sink);

  /// Moves every queued ticket from `source` to the front of the queue
  /// (stable among themselves): when an edge turns suspect, its
  /// remaining in-flight lazy answers are re-audited first, shrinking
  /// the exposure window exactly where the risk concentrates. Returns
  /// the number of tickets moved.
  size_t Expedite(const std::string& source);

  /// Removes and returns the alarms raised so far.
  std::vector<Alarm> TakeAlarms();
  size_t alarm_count() const;

  Stats stats() const;
  size_t backlog() const;

 private:
  void WorkerLoop();
  void AuditOne(AuditTicket ticket);  // runs on the worker thread, no lock

  KeyDirectory* const keys_;
  const Options options_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::condition_variable drained_;
  std::deque<AuditTicket> queue_;
  bool stopping_ = false;
  bool paused_ = false;
  bool busy_ = false;  ///< worker is auditing a popped ticket
  uint64_t next_ticket_id_ = 1;
  Rng sample_rng_;
  Stats stats_;
  std::vector<Alarm> alarms_;
  std::function<void(const Alarm&)> alarm_sink_;
  std::map<std::string, uint64_t> audited_watermark_;
  std::shared_ptr<RecoveredDigestCache> digest_cache_;

  /// Auditor-thread-private (never touched under mu_).
  BatchVerifier verifier_;

  std::thread worker_;
};

}  // namespace vbtree

#endif  // VBTREE_EDGE_QUERY_SERVICE_LAZY_AUDITOR_H_
