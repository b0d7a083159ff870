// The runner daemon: connects to a coordinator, leases shard ranges,
// computes them index by index and streams committed records back.
//
// The loop is dist/runner.cpp's run_shard turned inside out: the same
// fingerprint refusal, the same index-deterministic defeats() calls,
// the same bounded-state-per-record discipline — but the journal lives
// with the COORDINATOR, so the worker buffers at most one chunk of
// records and every flush is both the commit and the heartbeat. A
// refused chunk or seal (accepted=false) means the lease was revoked
// (the worker stalled past the lease timeout and the shard was
// re-granted); the worker abandons the shard and asks for a fresh
// lease — the coordinator's committed prefix is not lost.
//
// The TRANSPORT is expendable: every connect — the first one included —
// rides one bounded-exponential-backoff loop (util/retry), so a worker
// started before its coordinator, or running through a coordinator
// restart or a transient partition, keeps retrying instead of dying.
// After a reconnect the worker re-hellos carrying the workload
// fingerprint it is bound to (a coordinator serving a different
// campaign refuses) and, if it held a lease, probes it with an empty
// chunk: an accepted probe resumes the lease mid-shard (dropping any
// buffered records the coordinator already committed), a refused probe
// is a token fence — the lease died with the old coordinator
// incarnation, the committed prefix survives, and the worker asks for
// a fresh grant.
//
// run_worker drains the coordinator: it returns when a lease request
// answers kDrained (every shard sealed or quarantined). It is the one
// entry point behind `rvt_cli worker`, the loopback tests and benches
// E15/E16.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

#include "obs/enum_stats.hpp"
#include "sim/enumeration.hpp"
#include "util/retry.hpp"

namespace rvt::svc {

struct WorkerOptions {
  std::string name = "worker";
  /// Records per journal chunk; a flush also happens after
  /// flush_interval_ms regardless of fill, so slow indices still
  /// heartbeat.
  std::size_t chunk_records = 64;
  std::uint64_t flush_interval_ms = 250;
  /// Artificial per-index delay — makes "SIGKILL it mid-run" scenarios
  /// (CI, benches E15/E16) deterministic instead of racy.
  std::uint64_t throttle_ms = 0;
  /// Stream read timeout; with the framing stall limit this bounds how
  /// long a vanished coordinator can hold the worker (~50x this).
  std::uint64_t io_timeout_ms = 250;
  /// Backoff schedule every connect rides — initial connect and mid-run
  /// reconnect alike. The default (12 attempts, 250ms doubling into a
  /// 2s cap) gives a coordinator restart a ~17s window to come back.
  /// The sleep hook is injectable for tests.
  util::RetryPolicy reconnect{12, std::chrono::microseconds{250000},
                              std::chrono::microseconds{2000000}, {}};
  /// When non-zero, a one-line structured progress report goes to
  /// stderr at most once per interval:
  ///   progress worker=<name> shard=<i> computed=<n> survivors=<s>
  ///       inter_result_delay_p50_ms=<q> inter_result_delay_p99_ms=<q>
  /// Off by default — progress is an operator aid, not output.
  std::uint64_t progress_interval_ms = 0;
};

struct WorkerReport {
  std::uint64_t leases = 0;   ///< granted leases worked on
  std::uint64_t sealed = 0;   ///< shards this worker sealed
  std::uint64_t revoked = 0;  ///< leases lost to revocation
  std::uint64_t indices = 0;  ///< indices computed (incl. revoked work)
  std::uint64_t defeats = 0;  ///< values summed over computed indices
  std::uint64_t chunks = 0;   ///< journal chunks streamed
  std::uint64_t reconnects = 0;        ///< sessions re-established
  std::uint64_t connect_retries = 0;   ///< backoff re-attempts, all connects
  std::uint64_t fenced = 0;            ///< leases lost to a token fence
  sim::EnumTelemetry telemetry;
  /// Enumeration-delay stats over every index this worker computed
  /// (revoked work included — it was still enumeration). Unlike the
  /// coordinator's chunk-gap approximation, these inter-result delays
  /// are exact per-index measurements.
  obs::EnumDelayStats delay;
};

/// Runs the daemon loop against host:port until the coordinator drains.
/// Throws net::NetError (coordinator unreachable past the reconnect
/// budget, or an incompatible/foreign coordinator — protocol or
/// fingerprint mismatch is never retried) or dist::SerializeError
/// (protocol violation). Failpoint site "worker.index" (error/crash)
/// fires per computed index for chaos drills.
WorkerReport run_worker(const std::string& host, std::uint16_t port,
                        const WorkerOptions& opt = {});

}  // namespace rvt::svc
