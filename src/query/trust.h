#ifndef VBTREE_QUERY_TRUST_H_
#define VBTREE_QUERY_TRUST_H_

#include <cstdint>

namespace vbtree {

/// Per-query trust mode (docs/TRUST_MODEL.md): how the client schedules
/// authentication relative to answer delivery. The verification work and
/// its soundness are identical in every mode — WedgeChain-style lazy
/// certification is a scheduling change, not a trust change.
enum class TrustMode : uint8_t {
  /// Synchronous verify: the answer is authenticated before the caller
  /// sees it (the paper's client contract; the default).
  kCertified = 0,
  /// Answer delivered immediately with `pending_audit` set; a deferred
  /// ticket (rows + VO bytes + signature-pool refs + replica version) is
  /// drained by a background auditor, which raises a tamper alarm
  /// carrying the offending VO if the deferred check fails. Detection
  /// window = audit lag.
  kLazy = 1,
  /// Like kLazy, but the auditor verifies only a configured fraction of
  /// tickets, drawn from a seeded deterministic RNG — telemetry-grade
  /// reads where statistical detection suffices.
  kSampled = 2,
};

inline const char* TrustModeName(TrustMode m) {
  switch (m) {
    case TrustMode::kCertified:
      return "certified";
    case TrustMode::kLazy:
      return "lazy";
    case TrustMode::kSampled:
      return "sampled";
  }
  return "unknown";
}

}  // namespace vbtree

#endif  // VBTREE_QUERY_TRUST_H_
