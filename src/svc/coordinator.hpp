// The shard-dispatch coordinator: leases a shard plan's index ranges to
// remote runner daemons over TCP and owns every journal.
//
// A lease is one runner's exclusive claim on one shard's index range.
// Runners STREAM their committed records back (kJournalChunk) and the
// coordinator appends them to the shard's journal locally, which makes
// incremental merge fall out for free. Journal growth is the one
// heartbeat that counts — durable progress is the only liveness signal
// worth trusting, so a runner that chats but commits nothing is
// indistinguishable from a dead one and its lease expires — and the
// durable resume point always lives with the coordinator: a requeued
// shard is re-granted from the committed prefix
// (LeaseGrant::next_index), never from scratch. Requeue is safe because
// shard results are index-deterministic: however often a shard dies,
// its sealed aggregate is bit-identical.
//
// Failure handling:
//  * lease expiry (no journal growth for lease_timeout) or an unsealed
//    disconnect requeues the range, attempts capped at max_attempts;
//  * exhausted attempts quarantine the shard with per-attempt
//    diagnostics — partial coverage stays an explicit state
//    (quarantine_manifest() slots into merge_journals unchanged);
//  * stale leaseholders (expired, then superseded) are fenced by a
//    per-grant token: their chunks/seals get accepted=false and they
//    abandon the shard. Their records are NOT lost wholesale — the
//    prefix the coordinator already journaled stays committed.
//
// Every one of those decisions is made by svc::LeaseTable, the pure
// lease state machine (svc/lease_table.hpp). The coordinator is its IO
// shell: sessions decode a frame, ask the table under mu_, write what
// it decided to the journals and the run ledger, and send the reply;
// `--resume` folds the ledger through the same table.
//
// A lease request that finds nothing pending while shards are still out
// is HELD (long-polled) on the coordinator's condition variable: every
// grant, seal, requeue and quarantine wakes it (the reaper waits on it
// too, until the earliest lease deadline), so an idle worker learns of a
// requeued shard or of the drained campaign at once. The hold is bounded
// by session_read_timeout, after which the reply is kWait and the worker
// asks again. A coordinator stopping during a hold sends no reply.
//
// The coordinator still answers the remote orbit-store messages
// (kOrbitGet / kOrbitPut) so older clients and NetOrbitStore probes get
// a well-formed reply, but it stores nothing: every get is answered
// absent and every put not stored. Workers memoize defeat counts in
// their own in-memory cache instead of sharing orbit sets.
//
// A separate metrics listener answers plain HTTP/1.0 GETs with a
// bench-report-style JSON document (service_json): live progress for a
// fleet run — shards completed/leased/requeued/quarantined, shards/s,
// per-runner health with last-heartbeat age, orbit-store requests,
// time-to-first-sealed-shard. The telemetry export is deliberately a
// separate listener from the dispatch protocol (the bnet/telemetry
// plugin split): scraping metrics can never head-of-line-block a lease.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "dist/journal.hpp"
#include "dist/ledger.hpp"
#include "dist/merge.hpp"
#include "dist/serialize.hpp"
#include "dist/shard_plan.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "obs/enum_stats.hpp"
#include "sim/orbit_cache.hpp"
#include "svc/lease_table.hpp"
#include "svc/protocol.hpp"

namespace rvt::svc {

struct CoordinatorConfig {
  std::string journal_dir;  ///< required; created on construction
  std::uint16_t port = 0;          ///< dispatch listener; 0 = ephemeral
  std::uint16_t metrics_port = 0;  ///< metrics listener; 0 = ephemeral
  unsigned max_attempts = 3;
  /// Lease expires after this long without journal growth.
  std::chrono::milliseconds lease_timeout{10000};
  /// Session read timeout: the granularity at which session threads
  /// notice stop() and stalled peers. It also bounds how long a lease
  /// request with nothing grantable is held before it answers kWait;
  /// keep it below the worker's io_timeout_ms x kFrameStallLimit.
  std::chrono::milliseconds session_read_timeout{200};
  /// false: a fresh campaign — the run ledger is (re)created. true:
  /// `serve --resume` — the existing ledger is REQUIRED, replayed
  /// against the on-disk journals, and the coordinator restarts from
  /// the reconstructed lease/attempt/merge state (construction throws
  /// SerializeError if the ledger is missing, foreign, or disagrees
  /// with the journals).
  bool resume = false;
};

/// Health of one connected (or recently connected) runner session.
struct RunnerHealth {
  std::string name;
  std::string role;
  double last_heartbeat_age_seconds = 0;  ///< since last frame received
  std::uint64_t shards_sealed = 0;
  std::uint64_t records_streamed = 0;
  bool connected = false;
};

/// Snapshot of the coordinator's counters; also the source of the
/// metrics document and the bench-report service block.
struct ServiceReport {
  std::uint64_t shards_total = 0;
  std::uint64_t shards_completed = 0;  ///< sealed (incl. pre-existing)
  std::uint64_t shards_leased = 0;     ///< currently out on lease
  std::uint64_t shards_pending = 0;
  std::uint64_t shards_requeued = 0;
  std::uint64_t shards_quarantined = 0;
  std::uint64_t leases_granted = 0;
  std::uint64_t lease_expiries = 0;
  std::uint64_t runners_seen = 0;  ///< worker-role sessions ever accepted
  // Incremental merge: validated progress so far. committed_* cover the
  // durably journaled prefix of every shard, sealed or not — a partial
  // fleet run already reports real counts.
  std::uint64_t total_indices = 0;
  std::uint64_t committed_indices = 0;
  std::uint64_t committed_defeats = 0;
  std::uint64_t journal_bytes_streamed = 0;  ///< chunk payload bytes
  // Remote orbit-store requests answered (hits stay 0: nothing is
  // stored).
  std::uint64_t tier_gets = 0;
  std::uint64_t tier_hits = 0;
  double uptime_seconds = 0;
  double shards_per_second = 0;  ///< sealed THIS run / uptime
  /// Negative until the first record / first seal of this run.
  double time_to_first_record_seconds = -1;
  double time_to_first_sealed_shard_seconds = -1;
  // Recovery counters (the "recovery_*" metrics keys): what a resumed
  // coordinator reconstructed and what the fleet did to heal around the
  // restart. All zero on a fresh, uninterrupted campaign.
  std::uint64_t resumed = 0;  ///< 1 if this coordinator was --resume'd
  std::uint64_t ledger_epoch = 0;
  std::uint64_t ledger_records_replayed = 0;
  std::uint64_t ledger_records_appended = 0;
  std::uint64_t ledger_torn_bytes_truncated = 0;
  std::uint64_t leases_regranted = 0;      ///< re-grants of pre-crash leases
  std::uint64_t stale_tokens_fenced = 0;   ///< pre-crash/expired tokens refused
  std::uint64_t worker_reconnects = 0;     ///< per-name max, summed
  // Observability (PR 9): the campaign identity and the enumeration-
  // delay stats the coordinator observes from the record stream.
  std::uint64_t uptime_ms = 0;    ///< uptime_seconds, integer ms
  std::uint64_t campaign_id = 0;  ///< minted from the plan fingerprint
  /// Enumeration-delay observations merged across every shard: results/
  /// survivors are exact (the coordinator sees every committed value);
  /// inter-result delays are chunk-arrival gaps spread evenly over each
  /// chunk's records (batching quantizes worker-side delays — see
  /// DESIGN.md "Observability").
  obs::EnumDelayStats delay;
  /// Per-shard ms since the shard's journal last grew under its current
  /// lease; -1 for shards not out on lease. Plan order. A stalled lease
  /// shows a growing age here well before its expiry fires.
  std::vector<std::int64_t> last_journal_growth_ms;
  std::vector<RunnerHealth> runners;

  bool all_complete() const {
    return shards_quarantined == 0 && shards_completed == shards_total;
  }
};

/// Renders the report as the metrics endpoint's JSON document.
std::string service_json(const ServiceReport& r,
                         const std::string& workload_spec);

/// Renders the report in Prometheus text exposition format — the
/// `/metrics` path of the metrics listener. Counter names are stable
/// scrape API (CI asserts rvt_recovery_resumes and rvt_leases_granted
/// parse).
std::string service_prometheus(const ServiceReport& r);

class Coordinator {
 public:
  using ShardPhase = svc::ShardPhase;
  /// One shard's control state, exposed for the replay-vs-live
  /// equivalence tests: a resumed coordinator must reconstruct it field
  /// for field (a pre-crash lease maps to kPending with token 0 and
  /// interrupted=true — the lease itself died with the process; the
  /// diagnostics' reasons are not durable).
  using ShardSnapshot = LeaseTable::Shard;

  /// Binds both listeners and starts serving immediately. Existing
  /// journals under journal_dir are adopted: sealed shards need no
  /// lease, partial ones resume from their committed prefix. With
  /// cfg.resume, the run ledger is replayed first (see CoordinatorConfig).
  /// Throws net::NetError (bind failure) or dist::SerializeError
  /// (unusable journal dir, missing/foreign ledger, ledger/journal
  /// disagreement).
  Coordinator(dist::ShardPlan plan, CoordinatorConfig cfg);
  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  std::uint16_t port() const { return listener_->port(); }
  std::uint16_t metrics_port() const { return metrics_listener_->port(); }

  /// Blocks until every shard is sealed or quarantined (true), or the
  /// timeout elapses (false). stop() also wakes it (returns current
  /// completion state).
  bool wait_complete(
      std::chrono::milliseconds timeout = std::chrono::milliseconds::max());

  /// Also served by the metrics listener: the service_json document at
  /// any path, and at /metrics its Prometheus exposition plus the
  /// process's own obs registry (enumeration histograms, if any).
  ServiceReport report() const;

  /// Campaign/trace id propagated in every lease grant. Minted
  /// deterministically from the plan fingerprint, so a resumed
  /// coordinator keeps the id and pre/post-restart spans stitch.
  std::uint64_t campaign_id() const { return campaign_id_; }

  /// Per-shard control state, plan order (see ShardSnapshot).
  std::vector<ShardSnapshot> shard_snapshots() const;

  /// Quarantine manifest for the shards given up on (empty entries when
  /// none) — feed to merge_journals for an explicit partial merge.
  dist::QuarantineManifest quarantine_manifest() const;

  /// Shuts both listeners down and joins every thread. Idempotent;
  /// called by the destructor.
  void stop();

 private:
  /// What the coordinator keeps per shard beside the lease table: the
  /// journal it appends to and the enumeration-delay observations (see
  /// ServiceReport::delay for the measurement semantics).
  struct ShardIo {
    std::optional<dist::JournalWriter> writer;
    obs::EnumDelayStats delay;
    /// Steady-clock offset (ns since start_) of the last accepted
    /// chunk; 0 = none yet. Basis of the chunk-gap delay spread.
    std::uint64_t last_chunk_off_ns = 0;
  };

  struct RunnerInfo {
    std::string name;
    std::string role;
    std::chrono::steady_clock::time_point last_seen{};
    std::uint64_t shards_sealed = 0;
    std::uint64_t records_streamed = 0;
    std::uint64_t reconnects = 0;  ///< self-reported in the hello
    bool connected = true;
  };

  void accept_loop();
  void metrics_loop();
  void reaper_loop();
  void handle_session(std::unique_ptr<net::TcpStream> stream,
                      std::uint64_t session_id);
  /// The shard's journal on disk, if it parses and is bound to this
  /// plan's shard (id, fingerprint and range); nullopt otherwise.
  std::optional<dist::JournalState> bound_journal(std::size_t shard) const;
  // All lock-held helpers assume mu_ is held.
  /// Opens the granted shard's journal, makes the grant durable, applies
  /// it and encodes the reply. Throws SerializeError (journal or ledger
  /// IO) with nothing applied: the shard stays pending.
  std::vector<std::uint8_t> grant_locked(const LeaseTable::Step& step);
  /// Appends an admitted chunk to its journal and records the progress.
  ChunkReply append_chunk_locked(const JournalChunk& chunk,
                                 std::size_t payload_bytes,
                                 std::uint64_t session_id);
  /// Finishes an admitted seal's journal and commits the seal.
  SealReply seal_locked(const Seal& seal, std::uint64_t session_id);
  /// Ledger append, then apply. Best-effort by default, for paths where
  /// the durable fact already lives in a journal (seal) or where failing
  /// the append must not wedge the shard (requeue/quarantine).
  /// write_ahead (grants, epochs) rethrows instead: a grant that cannot
  /// be made durable must not be sent.
  void commit_locked(const LeaseTable::Step& step, bool write_ahead = false);
  ServiceReport report_locked() const;

  dist::ShardPlan plan_;
  CoordinatorConfig cfg_;
  std::unique_ptr<net::TcpListener> listener_;
  std::unique_ptr<net::TcpListener> metrics_listener_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  LeaseTable table_;
  std::vector<ShardIo> io_;          // plan order
  std::vector<RunnerInfo> runners_;  // indexed by session id
  std::optional<dist::LedgerWriter> ledger_;
  std::uint64_t ledger_records_replayed_ = 0;
  std::uint64_t ledger_records_appended_ = 0;
  std::uint64_t ledger_torn_bytes_ = 0;
  std::uint64_t journal_bytes_streamed_ = 0;
  std::uint64_t tier_gets_ = 0;
  std::uint64_t campaign_id_ = 0;
  std::chrono::steady_clock::time_point start_;
  std::optional<std::chrono::steady_clock::time_point> first_record_at_;
  std::optional<std::chrono::steady_clock::time_point> first_seal_at_;

  std::atomic<bool> stop_{false};
  std::thread accept_thread_;
  std::thread metrics_thread_;
  std::thread reaper_thread_;
  std::vector<std::thread> sessions_;
  std::mutex sessions_mu_;  ///< guards sessions_ (joined in stop())
};

}  // namespace rvt::svc
