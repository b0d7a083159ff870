// The coordinator's lease state machine, with no IO in it.
//
// LeaseTable owns the dispatch service's control state: per shard the
// phase, attempts, fencing token, holder, last progress, committed
// prefix, interrupted flag and diagnostics; plus the pending queue, the
// token counter, the epoch and the per-run counters. It is pure and
// single-threaded — no sockets, files, locks or clock reads (every
// `now` is passed in), so a test can drive it on virtual time.
//
// Durable transitions have ONE entry point, apply(), fed the run-ledger
// record that describes them. Live inputs only DECIDE: they return the
// Step(s) that the coordinator appends to the ledger and then applies.
// `serve --resume` folds the ledger through the same apply(), so replay
// equals live by construction. An epoch record opens a new incarnation:
// every lease still open turns pending, token 0, interrupted.
//
// admit() and progress() are the volatile inputs that never reach the
// ledger. Journal growth is the only renewal: a chunk that appends
// nothing is admitted but leaves the deadline where it was.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "dist/ledger.hpp"
#include "dist/shard_plan.hpp"

namespace rvt::svc {

enum class ShardPhase : std::uint8_t { kPending, kLeased, kSealed,
                                       kQuarantined };

class LeaseTable {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  struct Shard {
    std::uint64_t begin = 0, end = 0;
    ShardPhase phase{};  ///< starts kPending
    unsigned attempts = 0;
    std::uint64_t token = 0;    ///< current lease's fence; 0 = none
    std::string holder;         ///< runner name of the current lease
    std::uint64_t session = 0;  ///< session id of the current lease
    TimePoint last_progress{};  ///< current lease's last journal growth
    std::uint64_t next_index = 0;  ///< first uncommitted index
    std::uint64_t sum = 0;         ///< committed defeats so far
    bool interrupted = false;  ///< leased when the previous run crashed
    std::vector<std::string> diagnostics;  ///< one line per failed attempt
  };

  /// What this incarnation did; an epoch resets them.
  struct Counters {
    std::uint64_t granted = 0, requeued = 0, expired = 0;
    std::uint64_t regranted = 0;  ///< grants of interrupted shards
    std::uint64_t fenced = 0;     ///< chunks/seals refused a stale token
    std::uint64_t sealed = 0;
  };

  /// What a live transition knows beyond its ledger record. Replay has
  /// none of it: the next epoch closes a replayed grant anyway, and the
  /// ledger records that an attempt failed, not why.
  struct Context {
    std::string holder;         ///< grant: the runner taking the lease
    std::uint64_t session = 0;  ///< grant: its session
    TimePoint now{};            ///< grant: the lease's first progress stamp
    std::string reason;         ///< fail/quarantine: the diagnostic
    bool expired = false;       ///< fail/quarantine: decided by expire()
  };

  /// A decided transition: append `record` to the ledger, then apply it.
  struct Step {
    dist::LedgerRecord record;
    Context context;
  };

  enum class Answer : std::uint8_t {
    kGrant,    ///< `step` is the grant to make durable, then apply
    kHold,     ///< nothing grantable yet: hold the request
    kDrained,  ///< every shard sealed or quarantined
    kSilent,   ///< stopping: send no reply, as after a crash
  };
  struct Request {
    Answer answer = Answer::kHold;
    Step step;
  };

  LeaseTable(const std::vector<dist::ShardSpec>& shards, unsigned max_attempts,
             std::chrono::milliseconds lease_timeout);

  /// The one durable transition. Throws dist::SerializeError if a shard
  /// event names a shard outside the plan (a foreign or damaged ledger).
  void apply(const dist::LedgerRecord& rec, const Context& ctx);
  void apply(const dist::LedgerRecord& rec) { apply(rec, Context()); }
  /// The next incarnation's epoch: epoch + 1, and the first token no
  /// earlier incarnation can have granted.
  dist::LedgerRecord next_epoch() const;
  /// The committed totals as they stand, as a checkpoint record:
  /// {indices, defeats} over every shard's committed prefix.
  dist::LedgerRecord next_checkpoint() const;
  /// A shard's journal (the data authority): its committed prefix, and
  /// whether it is sealed — which seals the shard whatever the ledger
  /// said.
  void adopt(std::size_t shard, std::uint64_t next_index, std::uint64_t sum,
             bool sealed);

  // ---- live inputs ----------------------------------------------------
  Request request(const std::string& holder, std::uint64_t session,
                  TimePoint now) const;
  bool holds_requests() const;  ///< request() would answer kHold
  /// A chunk or seal for (shard, token) arrived on `session`: true iff
  /// the token holds the live lease, which then moves into this session
  /// (a worker that reconnected mid-lease keeps it). A refused nonzero
  /// token counts as fenced.
  bool admit(std::size_t shard, std::uint64_t token, std::uint64_t session,
             const std::string& holder);
  /// The leased shard's journal now ends at next_index with `sum`.
  void progress(std::size_t shard, std::uint64_t next_index,
                std::uint64_t sum, TimePoint now);
  /// Fails the current attempt: a requeue, or a quarantine once
  /// max_attempts are spent.
  Step fail(std::size_t shard, const std::string& reason) const;
  /// An admitted seal: [seal, checkpoint], or a fail step when `total`
  /// is not the journaled sum.
  std::vector<Step> seal(std::size_t shard, std::uint64_t total) const;
  /// Fail steps for every lease whose deadline is at or before `now`.
  std::vector<Step> expire(TimePoint now) const;
  /// Fail steps for the leases `session` held when it ended.
  std::vector<Step> disconnect(std::uint64_t session) const;
  /// Stopping: requests go unanswered and neither expiry nor disconnect
  /// fails a lease, so open leases stay open for the next epoch to
  /// interrupt.
  void stop() { stopped_ = true; }

  // ---- queries --------------------------------------------------------
  /// Earliest lease deadline (last progress + lease_timeout), if any.
  std::optional<TimePoint> next_deadline() const;
  bool done() const;
  bool stopped() const { return stopped_; }
  const std::vector<Shard>& shards() const { return shards_; }
  const Shard& shard(std::size_t i) const { return shards_[i]; }
  const std::deque<std::size_t>& pending() const { return pending_; }
  std::uint64_t next_token() const { return next_token_; }
  std::uint64_t epoch() const { return epoch_; }
  const Counters& counters() const { return counters_; }
  /// The last checkpoint applied.
  const std::optional<dist::LedgerRecord>& checkpoint() const {
    return checkpoint_;
  }

 private:
  std::vector<Shard> shards_;
  std::deque<std::size_t> pending_;
  unsigned max_attempts_;
  std::chrono::milliseconds lease_timeout_;
  std::uint64_t next_token_ = 1;
  std::uint64_t epoch_ = 0;
  Counters counters_;
  std::optional<dist::LedgerRecord> checkpoint_;
  bool stopped_ = false;
};

}  // namespace rvt::svc
