// One shard's worth of enumeration, journaled and resumable.
//
// run_shard() drives the workload's indices [begin, end) through a fused
// EnumerationContext (optionally over an in-memory OrbitCache, which
// memoizes each (grid, trajectory class) defeat count once) and
// appends one verdict-summary record per index to the shard's journal:
//
//  * fresh shard  -> journal created, every index computed;
//  * killed shard -> the journal's valid prefix is kept, the torn tail
//    truncated, and ONLY the uncommitted indices recompute (resumability
//    is exact because sweep results are index-deterministic);
//  * sealed shard -> detected double completion: nothing recomputes,
//    nothing is appended, the caller sees already_complete.
#pragma once

#include <cstdint>
#include <string>

#include "dist/journal.hpp"
#include "dist/workload.hpp"
#include "obs/enum_stats.hpp"
#include "sim/orbit_cache.hpp"

namespace rvt::dist {

struct ShardRunStats {
  std::uint64_t committed_before = 0;  ///< indices resumed past
  std::uint64_t computed = 0;          ///< indices computed this run
  bool already_complete = false;       ///< double completion detected
  std::uint64_t sum = 0;               ///< shard aggregate after the run
  sim::EnumTelemetry telemetry;        ///< this run's pipeline telemetry
  obs::EnumDelayStats delay;           ///< enumeration-complexity stats
};

struct ShardRunOptions {
  /// When > 0, emit a one-line structured progress report to stderr
  /// every this-many milliseconds of shard compute:
  ///   progress shard=<i> committed=<n> survivors=<n>
  ///            inter_result_delay_p50_ms=<x> inter_result_delay_p99_ms=<y>
  /// Off (0) by default — progress is an operator aid, not telemetry.
  std::uint64_t progress_interval_ms = 0;
};

/// Runs shard `shard_index` of `plan` for workload `w`, journaling under
/// `journal_dir` (created if missing). `cache` may be null (every count
/// computed); pass one cache to several shards of this process to share
/// their memoized counts. Throws std::invalid_argument if the
/// plan does not match the workload (fingerprint or shard index), and
/// SerializeError on unusable journal IO.
ShardRunStats run_shard(const EnumWorkload& w, const ShardPlan& plan,
                        std::size_t shard_index,
                        const std::string& journal_dir,
                        sim::OrbitCache* cache = nullptr,
                        const ShardRunOptions& options = {});

}  // namespace rvt::dist
