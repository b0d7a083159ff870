#include "svc/lease_table.hpp"

#include <algorithm>

#include "dist/serialize.hpp"

namespace rvt::svc {

namespace {

void close_lease(LeaseTable::Shard& s) {
  s.token = 0;  // fence: the old holder's chunks/seals now refuse
  s.holder.clear();
  s.session = 0;
  s.last_progress = {};
}

}  // namespace

LeaseTable::LeaseTable(const std::vector<dist::ShardSpec>& shards,
                       unsigned max_attempts,
                       std::chrono::milliseconds lease_timeout)
    : shards_(shards.size()),
      max_attempts_(max_attempts),
      lease_timeout_(lease_timeout) {
  for (std::size_t i = 0; i < shards.size(); ++i) {
    shards_[i].begin = shards_[i].next_index = shards[i].begin;
    shards_[i].end = shards[i].end;
    pending_.push_back(i);
  }
}

void LeaseTable::apply(const dist::LedgerRecord& rec, const Context& ctx) {
  using dist::LedgerEvent;
  if (rec.event == LedgerEvent::kEpoch) {
    epoch_ = std::max(epoch_, rec.a);
    next_token_ = std::max(next_token_, rec.b);
    counters_ = {};
    // The previous incarnation died with these leases out: pending
    // again, re-granted from the journal's committed prefix without
    // burning an attempt — a coordinator crash is not the shard's fault.
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      if (shards_[i].phase != ShardPhase::kLeased) continue;
      close_lease(shards_[i]);
      shards_[i].phase = ShardPhase::kPending;
      shards_[i].interrupted = true;
      pending_.push_back(i);
    }
    return;
  }
  if (rec.event == LedgerEvent::kCheckpoint) {
    checkpoint_ = rec;
    return;
  }
  if (rec.a >= shards_.size()) {
    throw dist::SerializeError("lease table: ledger names shard " +
                               std::to_string(rec.a) + " of a " +
                               std::to_string(shards_.size()) + "-shard plan");
  }
  const std::size_t i = static_cast<std::size_t>(rec.a);
  Shard& s = shards_[i];
  if (rec.event == LedgerEvent::kGrant) {
    std::erase(pending_, i);
    ++s.attempts;
    s.phase = ShardPhase::kLeased;
    s.token = rec.b;
    s.holder = ctx.holder;
    s.session = ctx.session;
    s.last_progress = ctx.now;
    next_token_ = std::max(next_token_, rec.b + 1);
    ++counters_.granted;
    if (s.interrupted) ++counters_.regranted;
    s.interrupted = false;
  } else if (rec.event == LedgerEvent::kSeal) {
    close_lease(s);
    s.phase = ShardPhase::kSealed;
    s.next_index = s.end;
    s.sum = rec.b;
    ++counters_.sealed;
  } else {  // kFail or kQuarantine
    s.attempts = std::max(s.attempts, static_cast<unsigned>(rec.b));
    if (!ctx.reason.empty()) {
      s.diagnostics.push_back("attempt " + std::to_string(s.attempts) + " (" +
                              (s.holder.empty() ? "?" : s.holder) +
                              "): " + ctx.reason);
    } else if (rec.event == LedgerEvent::kQuarantine) {
      s.diagnostics.push_back("quarantined before restart (run ledger, " +
                              std::to_string(s.attempts) + " attempts)");
    }
    if (ctx.expired) ++counters_.expired;
    close_lease(s);
    if (rec.event == LedgerEvent::kQuarantine) {
      s.phase = ShardPhase::kQuarantined;
    } else {
      s.phase = ShardPhase::kPending;
      pending_.push_back(i);
      ++counters_.requeued;
    }
  }
}

dist::LedgerRecord LeaseTable::next_epoch() const {
  return {dist::LedgerEvent::kEpoch, epoch_ + 1, next_token_};
}

dist::LedgerRecord LeaseTable::next_checkpoint() const {
  dist::LedgerRecord ck{dist::LedgerEvent::kCheckpoint, 0, 0};
  for (const Shard& s : shards_) {
    ck.a += s.next_index - s.begin;
    ck.b += s.sum;
  }
  return ck;
}

void LeaseTable::adopt(std::size_t shard, std::uint64_t next_index,
                       std::uint64_t sum, bool sealed) {
  Shard& s = shards_[shard];
  s.next_index = next_index;
  s.sum = sum;
  if (!sealed || s.phase == ShardPhase::kSealed) return;
  // A sealed journal without a ledger seal is the crash window between
  // the journal's DONE record and the ledger append (or a shard sealed
  // out of band): the journal is the data authority, adopt it.
  close_lease(s);
  s.phase = ShardPhase::kSealed;
  std::erase(pending_, shard);
}

LeaseTable::Request LeaseTable::request(const std::string& holder,
                                        std::uint64_t session,
                                        TimePoint now) const {
  if (stopped_) return {Answer::kSilent, {}};
  if (done()) return {Answer::kDrained, {}};
  if (pending_.empty()) return {Answer::kHold, {}};
  return {Answer::kGrant,
          {{dist::LedgerEvent::kGrant, pending_.front(), next_token_},
           {holder, session, now, {}, false}}};
}

bool LeaseTable::holds_requests() const {
  return request({}, 0, {}).answer == Answer::kHold;
}

bool LeaseTable::admit(std::size_t shard, std::uint64_t token,
                       std::uint64_t session, const std::string& holder) {
  if (shard >= shards_.size() || token == 0 || shards_[shard].token != token ||
      shards_[shard].phase != ShardPhase::kLeased) {
    if (token != 0) ++counters_.fenced;
    return false;
  }
  // A valid token identifies the lease, not the TCP session: a worker
  // that reconnected mid-lease (coordinator restart healed, partition
  // cleared) adopts the lease into its new session, so the OLD
  // session's teardown no longer requeues the shard out from under it.
  shards_[shard].session = session;
  shards_[shard].holder = holder;
  return true;
}

void LeaseTable::progress(std::size_t shard, std::uint64_t next_index,
                          std::uint64_t sum, TimePoint now) {
  Shard& s = shards_[shard];
  if (next_index > s.next_index) s.last_progress = now;  // the renewal
  s.next_index = next_index;
  s.sum = sum;
}

LeaseTable::Step LeaseTable::fail(std::size_t shard,
                                  const std::string& reason) const {
  const unsigned attempts = shards_[shard].attempts;
  return {{attempts >= max_attempts_ ? dist::LedgerEvent::kQuarantine
                                     : dist::LedgerEvent::kFail,
           shard, attempts},
          {{}, 0, {}, reason, false}};
}

std::vector<LeaseTable::Step> LeaseTable::seal(std::size_t shard,
                                               std::uint64_t total) const {
  const std::uint64_t sum = shards_[shard].sum;
  if (total != sum) {
    return {fail(shard, "seal total " + std::to_string(total) +
                            " != journaled sum " + std::to_string(sum))};
  }
  // A seal needs every index committed, so the checkpoint after it is
  // the committed totals as they stand.
  return {{{dist::LedgerEvent::kSeal, shard, total}, {}},
          {next_checkpoint(), {}}};
}

std::vector<LeaseTable::Step> LeaseTable::expire(TimePoint now) const {
  std::vector<Step> steps;
  for (std::size_t i = 0; i < shards_.size() && !stopped_; ++i) {
    const Shard& s = shards_[i];
    if (s.phase == ShardPhase::kLeased &&
        now >= s.last_progress + lease_timeout_) {
      steps.push_back(fail(i, "lease expired (no journal growth for " +
                                  std::to_string(lease_timeout_.count()) +
                                  "ms)"));
      steps.back().context.expired = true;
    }
  }
  return steps;
}

std::vector<LeaseTable::Step> LeaseTable::disconnect(
    std::uint64_t session) const {
  std::vector<Step> steps;
  // A session ending because the COORDINATOR is stopping is not a
  // runner failure: the lease stays open, so the run ledger records it
  // the way a crash would and a --resume re-grants it as interrupted
  // (requeueing into a dying process would burn an attempt for nothing).
  for (std::size_t i = 0; i < shards_.size() && !stopped_; ++i) {
    if (shards_[i].phase == ShardPhase::kLeased &&
        shards_[i].session == session) {
      steps.push_back(fail(i, "runner disconnected unsealed"));
    }
  }
  return steps;
}

std::optional<LeaseTable::TimePoint> LeaseTable::next_deadline() const {
  std::optional<TimePoint> next;
  for (const Shard& s : shards_) {
    if (s.phase == ShardPhase::kLeased &&
        (!next || s.last_progress + lease_timeout_ < *next)) {
      next = s.last_progress + lease_timeout_;
    }
  }
  return next;
}

bool LeaseTable::done() const {
  return std::all_of(shards_.begin(), shards_.end(), [](const Shard& s) {
    return s.phase == ShardPhase::kSealed ||
           s.phase == ShardPhase::kQuarantined;
  });
}

}  // namespace rvt::svc
