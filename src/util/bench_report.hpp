// Machine-readable bench reports (BENCH_<ID>.json) with a validated
// schema.
//
// Every experiment harness dumps one JSON report so perf can be tracked
// PR over PR. Historically each bench appended ad-hoc keys, so the
// reports drifted apart and a malformed row (wrong arity, duplicate key)
// vanished silently into the artifact. This module makes the report a
// library type with WRITE-TIME VALIDATION — a malformed report throws,
// which fails the bench — and factors the shared engine-comparison
// schema so E1/E10/E11 emit the same keys:
//
//   schema_version                                 report format version
//                                                  (emitted always; see
//                                                  kBenchReportSchemaVersion)
//   workload, agents                               measured predicate + k
//                                                  (required, see below)
//   shards                                         optional: shard count of
//                                                  a distributed run (>= 1)
//   compiled_seconds, reference_seconds, speedup   the shoot-out
//   compiled_repeats, reference_repeats            min-of-N settings
//   engine                                         engine asserted on
//   threads                                        sweep worker count
//   orbit_cache_hits / _misses / _hit_rate         count-memo telemetry
//                                                  (only with a memo)
//
// Lives in util (not bench/) so the validation rules are unit-testable
// like any library code.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "util/table.hpp"

namespace rvt::util {

/// `s` as a quoted JSON string literal — the one JSON string escaper
/// (bench reports, the coordinator's metrics document, trace export).
std::string json_quote(const std::string& s);

/// Version of the report schema this library writes, emitted as every
/// report's "schema_version" field. History: 1 = the PR 3/4 schema
/// (workload/agents required, engine-comparison keys); 2 = adds the
/// always-on schema_version field itself and the optional validated
/// "shards" field of distributed runs; 3 = adds the optional validated
/// "faults" block of chaos runs (scenario seed + injected/retried/
/// degraded/requeued/quarantined counters); 4 = adds the optional
/// validated "service" block of network-dispatched runs (runner count,
/// lease churn, journal bytes streamed, time-to-first-sealed-shard);
/// 5 = adds the optional validated "recovery" block of crash-recovery
/// runs (coordinator resumes, ledger records replayed, re-granted
/// leases, fenced stale tokens, worker reconnects);
/// 6 = adds the optional validated "observability" block (time to first
/// survivor, inter-result delay quantiles, trace bytes flushed, events
/// dropped by the trace rings);
/// 7 = the engine comparison's orbit_cache_* keys are present only when
/// the bench attached a count memo;
/// 8 = drops the "simd" key (orbits have one extraction path).
/// Reports WITHOUT a given field remain valid documents of the version
/// that lacked it — consumers treat missing optional fields as "not a
/// run of that kind", so no committed BENCH_E*.json artifact needs
/// regeneration.
inline constexpr std::uint64_t kBenchReportSchemaVersion = 8;

/// The optional "faults" block of a chaos run (bench E14): which seeded
/// fault scenario was injected and what the recovery machinery did
/// about it. A fault-free report simply omits the block.
struct FaultSummary {
  std::string scenario;           ///< chaos scenario name ("none", ...)
  std::uint64_t seed = 0;         ///< scenario seed (reproducibility)
  std::uint64_t injected = 0;     ///< faults fired (failpoint registry)
  std::uint64_t retried = 0;      ///< transient IO re-attempts
  std::uint64_t degraded = 0;     ///< stores that entered compute-through
  std::uint64_t requeued = 0;     ///< shard attempts retried
  std::uint64_t quarantined = 0;  ///< shards given up on
};

/// The optional "service" block of a network-dispatched run (bench E15):
/// what the coordinator's lease machinery did across the fleet. A
/// non-service run simply omits the block.
struct ServiceSummary {
  std::uint64_t runners = 0;  ///< worker sessions the coordinator saw
  std::uint64_t leases_granted = 0;
  std::uint64_t leases_expired = 0;
  std::uint64_t requeues = 0;     ///< shard ranges sent back to pending
  std::uint64_t quarantined = 0;  ///< shards given up on
  std::uint64_t journal_bytes_streamed = 0;
  double time_to_first_sealed_shard_seconds = 0;
};

/// The optional "recovery" block of a crash-recovery run (bench E16):
/// what `serve --resume` reconstructed and what the fleet did to heal
/// around the coordinator restarts. A run without restarts simply omits
/// the block.
struct RecoverySummary {
  std::uint64_t resumes = 0;  ///< coordinator --resume restarts observed
  std::uint64_t ledger_records_replayed = 0;
  std::uint64_t ledger_torn_bytes_truncated = 0;
  std::uint64_t leases_regranted = 0;     ///< pre-crash leases re-granted
  std::uint64_t stale_tokens_fenced = 0;  ///< pre-crash tokens refused
  std::uint64_t worker_reconnects = 0;    ///< sessions re-established
};

/// The optional "observability" block: enumeration-complexity metrics
/// (the paper's result-delay lens) plus trace-recorder accounting. A
/// run that recorded no results simply omits the block.
struct ObservabilitySummary {
  /// Milliseconds to the first survivor (value == 0 result); -1 when
  /// the workload produced none — for the zero-defeat batteries every
  /// instance is defeated, and that absence is the measured fact.
  double time_to_first_survivor_ms = -1;
  double inter_result_delay_p50_ms = 0;  ///< bucket-resolution quantile
  double inter_result_delay_p99_ms = 0;
  std::uint64_t results = 0;    ///< enumeration results observed
  std::uint64_t survivors = 0;  ///< results with value == 0
  std::uint64_t trace_bytes = 0;     ///< bytes flushed to the trace file
  std::uint64_t dropped_events = 0;  ///< ring overwrites before flush
};

class BenchReport {
 public:
  /// `seed` is recorded as the report's "seed" field.
  BenchReport(std::string id, std::uint64_t seed);

  /// REQUIRED schema fields: the certified predicate the report measures
  /// ("rendezvous", "gathering", ...) and the number of agents per query
  /// (k; for a report spanning several arities, the largest one — rows
  /// carry the per-battery k). Emitted as the "workload" and "agents"
  /// keys; validate() rejects a report that never declared them, so every
  /// BENCH_E*.json artifact records what workload its numbers price.
  void workload(const std::string& name, std::uint64_t agents);

  /// OPTIONAL schema field: how many shards a distributed run was
  /// partitioned into (>= 1; validate() rejects a declared 0 — an
  /// undeclared report simply omits the key, so every pre-distribution
  /// BENCH_E*.json stays valid).
  void shards(std::uint64_t count);

  /// OPTIONAL schema field: the "faults" block of a chaos run.
  /// validate() rejects an empty scenario name — an undeclared report
  /// omits the block entirely.
  void faults(const FaultSummary& f);

  /// OPTIONAL schema field: the "service" block of a network-dispatched
  /// run. validate() rejects a declared block with zero runners (a
  /// service run that saw no workers measured nothing) — an undeclared
  /// report omits the block entirely.
  void service(const ServiceSummary& s);

  /// OPTIONAL schema field: the "recovery" block of a crash-recovery
  /// run. validate() rejects a declared block with zero resumes (a
  /// recovery run that never resumed a coordinator measured nothing) —
  /// an undeclared report omits the block entirely.
  void recovery(const RecoverySummary& r);

  /// OPTIONAL schema field: the "observability" block. validate()
  /// rejects a declared block with zero results (an enumeration that
  /// observed nothing measured nothing) or non-finite delay fields —
  /// an undeclared report omits the block entirely.
  void observability(const ObservabilitySummary& o);

  /// Scalar metric. Keys must be unique across metric() and note().
  void metric(const std::string& key, double value);
  /// String annotation. Keys must be unique across metric() and note().
  void note(const std::string& key, const std::string& value);
  /// Attaches the printed table; rows are validated against its header.
  void table(const util::Table& t) { table_ = &t; }

  /// Writes BENCH_<ID>.json in the working directory; returns the path.
  /// Validates first and throws std::runtime_error on a malformed report
  /// — empty id, empty or duplicate key, non-finite metric, or a table
  /// row whose arity differs from the header — and if the file cannot be
  /// written: a missing or malformed perf artifact must fail the bench,
  /// not vanish silently.
  std::string write() const;

  /// The validation half of write(), exposed for tests and for benches
  /// that want to fail fast before the timed phases.
  void validate() const;

 private:
  std::string id_;
  std::uint64_t seed_;
  std::string workload_;       ///< empty until workload() declares it
  std::uint64_t agents_ = 0;   ///< 0 until workload() declares it
  bool has_shards_ = false;    ///< shards() declared
  std::uint64_t shards_ = 0;
  bool has_faults_ = false;    ///< faults() declared
  FaultSummary faults_;
  bool has_service_ = false;   ///< service() declared
  ServiceSummary service_;
  bool has_recovery_ = false;  ///< recovery() declared
  RecoverySummary recovery_;
  bool has_observability_ = false;  ///< observability() declared
  ObservabilitySummary observability_;
  std::vector<std::pair<std::string, std::string>> strings_;
  std::vector<std::pair<std::string, double>> numbers_;
  const util::Table* table_ = nullptr;
};

/// The shared engine-shoot-out schema. Benches fill one of these and call
/// add_engine_comparison() so every report lands the same keys.
struct EngineComparison {
  double compiled_seconds = 0;
  double reference_seconds = 0;
  int compiled_repeats = 1;   ///< min-of-N repeats of the compiled side
  int reference_repeats = 1;  ///< min-of-N repeats of the reference side
  std::string engine;         ///< engine the bench asserted on
  unsigned threads = 1;       ///< sweep worker count of the timed phase
  /// Count-memo telemetry of the timed phase. Only a bench that attaches
  /// a count memo sets it; the orbit_cache_* keys are emitted only then
  /// (zeros from a memo-less bench would read as a memo that never hit).
  struct MemoCounts {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
  };
  std::optional<MemoCounts> orbit_cache;
};

/// Emits the standardized keys (speedup and hit rate are derived here so
/// every bench computes them identically).
void add_engine_comparison(BenchReport& report, const EngineComparison& c);

}  // namespace rvt::util
