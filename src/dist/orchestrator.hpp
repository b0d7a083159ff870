// Self-healing supervision of shard-runner processes.
//
// orchestrate() drives every shard of a plan to a sealed journal by
// launching child runner processes (via a caller-supplied ShardLauncher
// — the CLI forks `rvt_cli shard run`, tests fork in-process lambdas)
// and supervising them with a LEASE: a running child holds its shard's
// lease for as long as its journal keeps growing (the journal file size
// is the heartbeat — every committed index appends 32 bytes, so a live
// runner is indistinguishable from its own durable progress). A child
// that exits without sealing, or whose lease expires (no journal growth
// for lease_timeout), loses the shard: the child is reaped (SIGKILLed
// first on expiry) and the shard REQUEUES for another attempt. Requeue
// is safe because shard runs are index-deterministic and resumable —
// the next attempt recomputes only past the journal's valid prefix, so
// a shard can die any number of times and the sealed aggregate is still
// bit-identical (bench E14 asserts this under seeded fault scenarios).
//
// Attempts are bounded: a shard that fails max_attempts times is
// QUARANTINED with per-attempt diagnostics instead of looping forever.
// quarantine_manifest() turns the report into the framed artifact
// merge_journals() accepts, so partial coverage surfaces as explicit
// missing index ranges — never as a wrong total.
//
// Fault injection composes through the environment: extra_env entries
// (e.g. RVT_FAILPOINTS) are passed to attempt 1 only by default — an
// injected crash happens once and the clean retry converges — or to
// every attempt (env_every_attempt) to force the quarantine path.
//
// The loop is single-threaded (poll + waitpid(WNOHANG)); concurrency
// lives entirely in the children.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "dist/merge.hpp"
#include "dist/shard_plan.hpp"

namespace rvt::dist {

/// Starts one attempt of one shard as a child process and returns its
/// pid (or -1 when the child cannot even be forked — counted as a
/// failed attempt). `extra_env` must be set in the CHILD only.
using ShardLauncher = std::function<pid_t(
    std::size_t shard_index, unsigned attempt,
    const std::vector<std::pair<std::string, std::string>>& extra_env)>;

struct OrchestratorConfig {
  std::string journal_dir;
  unsigned max_concurrent = 2;  ///< children running at once
  unsigned max_attempts = 3;    ///< attempts before quarantine
  /// Lease: a child whose journal has not grown for this long is
  /// presumed dead/hung, SIGKILLed, and its shard requeued.
  std::chrono::milliseconds lease_timeout{10000};
  std::chrono::milliseconds poll_interval{20};
  /// Environment injected into children (e.g. {"RVT_FAILPOINTS", ...}).
  /// By default only attempt 1 sees it — the injected fault fires once
  /// and recovery runs clean; env_every_attempt forces it on every
  /// attempt (the quarantine drill).
  std::vector<std::pair<std::string, std::string>> first_attempt_env;
  bool env_every_attempt = false;
};

/// One failed attempt's post-mortem.
struct ShardAttempt {
  unsigned attempt = 0;
  pid_t pid = -1;
  int exit_code = -1;       ///< child's exit status, -1 if signaled
  int term_signal = 0;      ///< terminating signal, 0 if exited
  bool lease_expired = false;
  std::string summary() const;
};

struct ShardOutcome {
  std::size_t shard_index = 0;
  bool completed = false;         ///< journal sealed
  bool already_complete = false;  ///< sealed before any launch
  std::vector<ShardAttempt> failures;  ///< attempts that did NOT seal
  /// Human-readable per-attempt history — the quarantine diagnostics.
  std::string diagnostics() const;
};

struct OrchestratorReport {
  std::vector<ShardOutcome> shards;  ///< one per plan shard, in order
  std::uint64_t launches = 0;        ///< children forked
  std::uint64_t requeues = 0;        ///< failed attempts retried
  std::uint64_t lease_expiries = 0;  ///< children killed for stalling
  std::uint64_t quarantined = 0;     ///< shards given up on
  bool all_complete() const { return quarantined == 0; }
};

/// Runs every shard of `plan` to a sealed journal (or quarantine).
/// Sealed journals found up front are honored without a launch. Throws
/// std::invalid_argument on a config without journal_dir or with zero
/// max_concurrent/max_attempts.
OrchestratorReport orchestrate(const ShardPlan& plan,
                               const OrchestratorConfig& cfg,
                               const ShardLauncher& launch);

/// The framed-manifest form of a report's quarantined shards (empty
/// entries when all_complete()).
QuarantineManifest quarantine_manifest(const ShardPlan& plan,
                                       const OrchestratorReport& report);

/// fork/exec launcher for the real CLI: `cli shard run <plan_path> <i>
/// --journal-dir <journal_dir>`, stdout+stderr redirected to
/// <journal_dir>/shard-<i>.attempt-<k>.log, extra_env exported. The
/// child _exit(127)s if exec fails.
ShardLauncher cli_shard_launcher(std::string cli, std::string plan_path,
                                 std::string journal_dir);

// ---- chaos scenarios (bench E14 + `shard chaos`) --------------------------

/// The seeded fault classes the chaos battery drills. Each maps to an
/// RVT_FAILPOINTS config via chaos_failpoint_config():
///  * "none"          — control run, no faults armed;
///  * "child-kill"    — a runner dies mid-shard (run_shard.index crash);
///  * "torn-journal"  — a runner dies mid-append, leaving a torn record
///                      tail (journal.append crash).
std::vector<std::string> chaos_scenarios();

/// The RVT_FAILPOINTS config string for `scenario`. `seed` makes the
/// probabilistic scenarios deterministic and offsets the crash index of
/// the kill scenarios (crash at hit seed % shard_width, so different
/// seeds die at different depths). Throws std::invalid_argument on an
/// unknown scenario. "none" returns "".
std::string chaos_failpoint_config(const std::string& scenario,
                                   std::uint64_t seed,
                                   std::uint64_t shard_width);

}  // namespace rvt::dist
