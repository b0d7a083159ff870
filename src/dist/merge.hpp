// Merging shard journals into one battery report.
//
// merge_journals() reads every shard's sealed journal under one
// directory, re-validates the binding end to end — journal preamble
// matches the plan's shard id / fingerprint / index range, the shard set
// partitions [0, count) (the plan codec enforces it), every journal is
// sealed with a self-consistent aggregate — and sums the per-index
// verdict summaries. Because sweep results are index-deterministic, the
// merged totals are BIT-IDENTICAL to a single-process run of the same
// workload, however the index space was partitioned and however many
// processes (or machines) ran the shards; bench E13 asserts exactly
// that against the committed single-process E10 count.
//
// Partial coverage is an EXPLICIT state, never a silent one. When the
// coordinator (svc/coordinator.hpp) gives up on a shard it writes the
// shard into a QUARANTINE MANIFEST — a framed artifact binding the
// plan's fingerprint to the quarantined index ranges plus per-attempt
// diagnostics. merge_journals() accepts the manifest and then tolerates
// exactly those shards being absent or unsealed: their ranges land in
// MergeResult::missing and the total covers MergeResult::covered indices
// only. A sealed journal still wins over its quarantine entry (the shard
// may have been completed out-of-band), and a shard that is neither
// sealed nor quarantined still throws — the manifest narrows the failure
// mode, it never widens what a merge will silently accept.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dist/journal.hpp"

namespace rvt::dist {

struct ShardSummary {
  ShardSpec spec;
  std::uint64_t sum = 0;      ///< shard aggregate (defeats)
  std::uint64_t indices = 0;  ///< committed indices (== end - begin)
  std::string path;           ///< journal file merged from
};

/// One shard a run gave up on: its index range plus the human-readable
/// diagnostics of every failed attempt.
struct QuarantineEntry {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  ShardId shard_id;
  std::string diagnostics;  ///< per-attempt exit/expiry summary
};

/// The framed (WireKind::kQuarantine) record of every shard a run could
/// not complete, bound to the plan it belongs to by fingerprint.
struct QuarantineManifest {
  ShardId fingerprint;  ///< must equal the plan's fingerprint
  std::vector<QuarantineEntry> entries;
};

/// Framed-file codec. write throws SerializeError on IO failure; load
/// throws SerializeError on any frame or structural violation
/// (overlapping/unsorted ranges, begin >= end).
void write_quarantine_manifest(const std::string& path,
                               const QuarantineManifest& m);
QuarantineManifest load_quarantine_manifest(const std::string& path);

struct MergeResult {
  std::uint64_t total = 0;    ///< summed verdict summaries (defeats)
  std::uint64_t indices = 0;  ///< == plan.count
  std::uint64_t covered = 0;  ///< indices the total actually sums
  /// Quarantined [begin, end) ranges NOT in the total, ascending.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> missing;
  std::vector<ShardSummary> shards;
  bool complete() const { return covered == indices; }
};

/// Merges every shard of `plan` from journals under `journal_dir`.
/// Throws SerializeError when any journal is missing, unsealed, corrupt,
/// or bound to a different shard/fingerprint — a merge must never
/// silently total a partial or foreign battery. With `quarantine`
/// non-null (fingerprint must match the plan, entries must name plan
/// shards), the named shards MAY instead be absent/unsealed and are
/// reported in MergeResult::missing.
MergeResult merge_journals(const ShardPlan& plan,
                           const std::string& journal_dir,
                           const QuarantineManifest* quarantine = nullptr);

}  // namespace rvt::dist
