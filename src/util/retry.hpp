// Bounded exponential backoff for transient failures.
//
// The distributed tier treats IO failures in two classes: TRANSIENT
// (a connect or read that may succeed if repeated — a coordinator
// restart, a dropped connection, an injected fault) and PERSISTENT
// (still failing after the bounded schedule). retry_bool() drives the
// schedule; what persistence MEANS is the caller's policy — a worker's
// reconnect loop gives up and reports the coordinator unreachable.
//
// The schedule is deterministic: attempt k (1-based) sleeps
// base_delay * 2^(k-1), capped at max_delay, before retrying — no
// jitter, so a seeded fault scenario replays the same schedule and the
// unit tests can assert the exact delays. Sleeping is injectable for
// tests (and for the zero-delay policies the in-process drills use).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>

namespace rvt::util {

struct RetryPolicy {
  unsigned max_attempts = 3;  ///< total tries, >= 1
  std::chrono::microseconds base_delay{500};
  std::chrono::microseconds max_delay{50000};
  /// Called with the backoff delay before each re-attempt; defaults to
  /// std::this_thread::sleep_for. Tests substitute a recorder; callers
  /// that must not block substitute a no-op.
  std::function<void(std::chrono::microseconds)> sleep;

  /// The deterministic schedule: delay slept before re-attempt k
  /// (k >= 2; the first attempt never waits).
  std::chrono::microseconds delay_before(unsigned attempt) const;
};

/// A zero-delay policy — same attempt count, no sleeping. The chaos
/// drills use this so seeded fault storms don't serialize on backoff.
RetryPolicy no_delay_policy(unsigned max_attempts);

struct RetryStats {
  std::uint64_t retries = 0;    ///< re-attempts made (attempt 1 is free)
  std::uint64_t exhausted = 0;  ///< operations that failed every attempt
};

/// Runs op() up to policy.max_attempts times, sleeping the backoff
/// schedule between attempts, until it returns true. Returns whether it
/// ever succeeded. Each re-attempt bumps stats->retries; a final failure
/// bumps stats->exhausted (stats may be null).
bool retry_bool(const RetryPolicy& policy, RetryStats* stats,
                const std::function<bool()>& op);

}  // namespace rvt::util
