// The lease state machine on virtual time: no sockets, no threads, no
// clock. Every `now` is a TimePoint the test picks.
//
// The harness plays the coordinator's part: each decided Step is
// appended to an in-memory ledger and then applied. The central check
// is the replay contract: folding that ledger into a fresh table through
// the same apply(), adopting the journals' committed prefixes, and
// applying the next epoch reproduces the live table field for field.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "dist/ledger.hpp"
#include "dist/shard_plan.hpp"
#include "svc/lease_table.hpp"
#include "util/rng.hpp"

namespace rvt {
namespace {

using svc::LeaseTable;
using svc::ShardPhase;
using Answer = LeaseTable::Answer;
using dist::LedgerEvent;

constexpr std::chrono::milliseconds kTimeout{100};

LeaseTable::TimePoint at_ms(std::int64_t ms) {
  return LeaseTable::TimePoint{} + std::chrono::milliseconds(ms);
}

/// `n` contiguous shards of `width` indices each.
std::vector<dist::ShardSpec> shards(std::size_t n, std::uint64_t width) {
  std::vector<dist::ShardSpec> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i].begin = i * width;
    out[i].end = (i + 1) * width;
  }
  return out;
}

/// A table plus the ledger its decisions were written to.
struct Harness {
  Harness(const std::vector<dist::ShardSpec>& specs, unsigned max_attempts,
          std::chrono::milliseconds timeout)
      : table(specs, max_attempts, timeout) {
    commit({table.next_epoch(), {}});
  }

  void commit(const LeaseTable::Step& step) {
    ledger.push_back(step.record);
    table.apply(step.record, step.context);
  }
  void commit(const std::vector<LeaseTable::Step>& steps) {
    for (const LeaseTable::Step& s : steps) commit(s);
  }
  /// Requests a lease; a decided grant is committed. Returns the answer.
  Answer request(const std::string& holder, std::uint64_t session,
                 LeaseTable::TimePoint now) {
    const LeaseTable::Request r = table.request(holder, session, now);
    if (r.answer == Answer::kGrant) commit(r.step);
    return r.answer;
  }

  LeaseTable table;
  std::vector<dist::LedgerRecord> ledger;
};

TEST(LeaseTable, LeaseExpiresAtItsDeadlineAndNotANanosecondBefore) {
  Harness h(shards(1, 8), 3, kTimeout);
  ASSERT_EQ(h.request("a", 1, at_ms(1000)), Answer::kGrant);
  ASSERT_EQ(h.table.next_deadline(), at_ms(1100));
  EXPECT_TRUE(
      h.table.expire(at_ms(1100) - std::chrono::nanoseconds(1)).empty());

  // Appended records renew; an empty chunk's progress does not.
  h.table.progress(0, 3, 5, at_ms(1050));
  EXPECT_EQ(h.table.next_deadline(), at_ms(1150));
  h.table.progress(0, 3, 5, at_ms(1120));
  EXPECT_EQ(h.table.next_deadline(), at_ms(1150));
  EXPECT_TRUE(
      h.table.expire(at_ms(1150) - std::chrono::nanoseconds(1)).empty());

  const auto steps = h.table.expire(at_ms(1150));
  ASSERT_EQ(steps.size(), 1u);
  EXPECT_EQ(steps[0].record.event, LedgerEvent::kFail);
  EXPECT_TRUE(steps[0].context.expired);
  h.commit(steps);
  EXPECT_EQ(h.table.shard(0).phase, ShardPhase::kPending);
  EXPECT_EQ(h.table.shard(0).token, 0u);
  EXPECT_EQ(h.table.shard(0).next_index, 3u);  // the prefix survives
  EXPECT_EQ(h.table.counters().expired, 1u);
  EXPECT_EQ(h.table.counters().requeued, 1u);
  EXPECT_FALSE(h.table.next_deadline());
}

TEST(LeaseTable, StaleTokenIsRefusedOnChunkAndSeal) {
  Harness h(shards(1, 8), 3, kTimeout);
  ASSERT_EQ(h.request("a", 1, at_ms(0)), Answer::kGrant);
  const std::uint64_t stale = h.table.shard(0).token;
  h.commit(h.table.disconnect(1));
  ASSERT_EQ(h.request("b", 2, at_ms(10)), Answer::kGrant);
  const std::uint64_t fresh = h.table.shard(0).token;
  ASSERT_GT(fresh, stale);

  // Chunks and seals pass the same admission: the old holder is fenced
  // on both, and neither moves the lease out of b's session.
  EXPECT_FALSE(h.table.admit(0, stale, 1, "a"));  // a chunk
  EXPECT_FALSE(h.table.admit(0, stale, 1, "a"));  // a seal
  EXPECT_FALSE(h.table.admit(0, 0, 1, "a"));      // no token: not fenced
  EXPECT_FALSE(h.table.admit(7, fresh, 1, "a"));  // no such shard
  EXPECT_EQ(h.table.counters().fenced, 3u);
  EXPECT_EQ(h.table.shard(0).session, 2u);

  // The holder's token is admitted, and adopts the sender's session.
  EXPECT_TRUE(h.table.admit(0, fresh, 3, "b"));
  EXPECT_EQ(h.table.shard(0).session, 3u);
  EXPECT_TRUE(h.table.disconnect(2).empty());
  EXPECT_EQ(h.table.disconnect(3).size(), 1u);
}

TEST(LeaseTable, MaxAttemptsFailuresQuarantineTheShard) {
  Harness h(shards(1, 8), 3, kTimeout);
  for (unsigned attempt = 1; attempt <= 3; ++attempt) {
    ASSERT_EQ(h.request("w", attempt, at_ms(attempt)), Answer::kGrant);
    const LeaseTable::Step step = h.table.fail(0, "boom");
    EXPECT_EQ(step.record.event, attempt < 3 ? LedgerEvent::kFail
                                             : LedgerEvent::kQuarantine);
    EXPECT_EQ(step.record.b, attempt);
    h.commit(step);
  }
  const LeaseTable::Shard& s = h.table.shard(0);
  EXPECT_EQ(s.phase, ShardPhase::kQuarantined);
  EXPECT_EQ(s.attempts, 3u);
  ASSERT_EQ(s.diagnostics.size(), 3u);
  EXPECT_EQ(s.diagnostics[2], "attempt 3 (w): boom");
  EXPECT_TRUE(h.table.done());
  EXPECT_EQ(h.request("late", 9, at_ms(10)), Answer::kDrained);
}

TEST(LeaseTable, HeldRequestBecomesAGrantOnRequeueAndDrainedOnTheLastSeal) {
  Harness h(shards(2, 4), 3, kTimeout);
  ASSERT_EQ(h.request("a", 1, at_ms(0)), Answer::kGrant);
  ASSERT_EQ(h.request("b", 2, at_ms(0)), Answer::kGrant);
  // Nothing pending, shards out: c's request is held.
  EXPECT_EQ(h.request("c", 3, at_ms(1)), Answer::kHold);
  EXPECT_TRUE(h.table.holds_requests());

  // a drops unsealed: the requeue makes c's held request a grant.
  h.commit(h.table.disconnect(1));
  EXPECT_FALSE(h.table.holds_requests());
  ASSERT_EQ(h.request("c", 3, at_ms(2)), Answer::kGrant);
  EXPECT_EQ(h.table.shard(0).holder, "c");

  // b seals shard 1; c's shard 0 is still out, so a request holds.
  ASSERT_TRUE(h.table.admit(1, h.table.shard(1).token, 2, "b"));
  h.table.progress(1, 8, 11, at_ms(3));
  const auto seal_b = h.table.seal(1, 11);
  ASSERT_EQ(seal_b.size(), 2u);
  EXPECT_EQ(seal_b[1].record.event, LedgerEvent::kCheckpoint);
  EXPECT_EQ(seal_b[1].record.a, 4u);
  EXPECT_EQ(seal_b[1].record.b, 11u);
  h.commit(seal_b);
  EXPECT_EQ(h.request("b", 2, at_ms(4)), Answer::kHold);

  // A wrong total is a failed attempt, not a seal.
  h.table.progress(0, 4, 2, at_ms(5));
  const auto wrong = h.table.seal(0, 3);
  ASSERT_EQ(wrong.size(), 1u);
  EXPECT_EQ(wrong[0].record.event, LedgerEvent::kFail);

  // The last seal drains the campaign: the held request hears kDrained.
  h.commit(h.table.seal(0, 2));
  EXPECT_FALSE(h.table.holds_requests());
  EXPECT_EQ(h.request("b", 2, at_ms(6)), Answer::kDrained);
  EXPECT_EQ(h.table.counters().sealed, 2u);

  // Once stopping, requests go unanswered and disconnects fail nothing.
  h.table.stop();
  EXPECT_EQ(h.request("b", 2, at_ms(7)), Answer::kSilent);
}

TEST(LeaseTable, StopLeavesLeasesOpenForTheNextEpochToInterrupt) {
  Harness h(shards(2, 4), 3, kTimeout);
  ASSERT_EQ(h.request("a", 1, at_ms(0)), Answer::kGrant);
  h.table.stop();
  EXPECT_TRUE(h.table.disconnect(1).empty());
  EXPECT_TRUE(h.table.expire(at_ms(60000)).empty());
  EXPECT_EQ(h.request("b", 2, at_ms(1)), Answer::kSilent);

  const dist::LedgerRecord epoch = h.table.next_epoch();
  EXPECT_EQ(epoch.a, 2u);
  EXPECT_EQ(epoch.b, 2u);  // above every token granted so far
  h.commit({epoch, {}});
  EXPECT_EQ(h.table.shard(0).phase, ShardPhase::kPending);
  EXPECT_TRUE(h.table.shard(0).interrupted);
  EXPECT_EQ(h.table.shard(0).attempts, 1u);
  EXPECT_EQ(h.table.pending(), (std::deque<std::size_t>{1, 0}));
}

/// Every field a replay must reproduce. Diagnostics are left out: the
/// ledger records that an attempt failed, not why.
void expect_same(const LeaseTable& live, const LeaseTable& replay) {
  ASSERT_EQ(live.shards().size(), replay.shards().size());
  for (std::size_t i = 0; i < live.shards().size(); ++i) {
    const LeaseTable::Shard& l = live.shard(i);
    const LeaseTable::Shard& r = replay.shard(i);
    EXPECT_EQ(l.phase, r.phase) << "shard " << i;
    EXPECT_EQ(l.attempts, r.attempts) << "shard " << i;
    EXPECT_EQ(l.token, r.token) << "shard " << i;
    EXPECT_EQ(l.holder, r.holder) << "shard " << i;
    EXPECT_EQ(l.session, r.session) << "shard " << i;
    EXPECT_EQ(l.last_progress, r.last_progress) << "shard " << i;
    EXPECT_EQ(l.next_index, r.next_index) << "shard " << i;
    EXPECT_EQ(l.sum, r.sum) << "shard " << i;
    EXPECT_EQ(l.interrupted, r.interrupted) << "shard " << i;
  }
  EXPECT_EQ(live.pending(), replay.pending());
  EXPECT_EQ(live.next_token(), replay.next_token());
  EXPECT_EQ(live.epoch(), replay.epoch());
  EXPECT_EQ(live.next_checkpoint().a, replay.next_checkpoint().a);
  EXPECT_EQ(live.next_checkpoint().b, replay.next_checkpoint().b);
  ASSERT_EQ(live.checkpoint().has_value(), replay.checkpoint().has_value());
  if (live.checkpoint()) {
    EXPECT_EQ(live.checkpoint()->a, replay.checkpoint()->a);
    EXPECT_EQ(live.checkpoint()->b, replay.checkpoint()->b);
  }
  const LeaseTable::Counters& lc = live.counters();
  const LeaseTable::Counters& rc = replay.counters();
  EXPECT_EQ(lc.granted + lc.requeued + lc.expired + lc.regranted + lc.fenced +
                lc.sealed,
            0u);  // an epoch restarts the per-run counters
  EXPECT_EQ(rc.granted + rc.requeued + rc.expired + rc.regranted + rc.fenced +
                rc.sealed,
            0u);
}

/// Invariants that hold after every step.
void check_invariants(const LeaseTable& t, std::uint64_t max_token_issued) {
  std::size_t pending = 0;
  for (std::size_t i = 0; i < t.shards().size(); ++i) {
    const LeaseTable::Shard& s = t.shard(i);
    ASSERT_LE(s.begin, s.next_index);
    ASSERT_LE(s.next_index, s.end);
    if (s.phase == ShardPhase::kSealed) ASSERT_EQ(s.next_index, s.end);
    ASSERT_EQ(s.token != 0, s.phase == ShardPhase::kLeased) << "shard " << i;
    if (s.phase == ShardPhase::kPending) ++pending;
  }
  ASSERT_EQ(t.pending().size(), pending);
  ASSERT_GT(t.next_token(), max_token_issued);
  ASSERT_GT(t.next_epoch().b, max_token_issued);
}

/// Crash and `--resume`: fold the ledger into a fresh table, adopt the
/// journals (whose committed prefixes the live table mirrors), open
/// the next epoch on both and compare. The replayed table then carries
/// on as the live one.
void crash_and_resume(Harness& live,
                      const std::vector<dist::ShardSpec>& specs,
                      unsigned max_attempts) {
  LeaseTable replay(specs, max_attempts, kTimeout);
  for (const dist::LedgerRecord& rec : live.ledger) replay.apply(rec);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const LeaseTable::Shard& s = live.table.shard(i);
    replay.adopt(i, s.next_index, s.sum, s.phase == ShardPhase::kSealed);
  }
  const dist::LedgerRecord epoch = replay.next_epoch();
  EXPECT_EQ(epoch.a, live.table.next_epoch().a);
  EXPECT_EQ(epoch.b, live.table.next_epoch().b);
  live.commit({epoch, {}});
  replay.apply(epoch);
  expect_same(live.table, replay);
  live.table = replay;
}

TEST(LeaseTable, SeededRandomInputsReplayToTheLiveTable) {
  // Over every seed: how often each kind of transition was exercised.
  std::size_t seals = 0, fails = 0, quarantines = 0, regrants = 0;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    util::Rng rng(seed);
    const auto specs = shards(rng.uniform(1, 6), rng.uniform(1, 8));
    const unsigned max_attempts = static_cast<unsigned>(rng.uniform(1, 5));
    Harness h(specs, max_attempts, kTimeout);
    std::int64_t now_ms = 0;
    std::uint64_t max_token = 0;
    std::size_t resumes = 0;
    for (int step = 0; step < 3000; ++step) {
      now_ms += static_cast<std::int64_t>(rng.uniform(0, 8));
      const LeaseTable::TimePoint now = at_ms(now_ms);
      const std::uint64_t session = rng.uniform(1, 4);
      const std::string holder = "w" + std::to_string(session);
      // Mostly a leased shard with its live token; sometimes any shard
      // (or none) with a stale or absent token.
      std::vector<std::size_t> leased;
      for (std::size_t i = 0; i < specs.size(); ++i) {
        if (h.table.shard(i).phase == ShardPhase::kLeased) leased.push_back(i);
      }
      const bool live_token = !leased.empty() && rng.uniform(0, 9) < 8;
      const std::size_t shard = live_token ? leased[rng.index(leased.size())]
                                           : rng.index(specs.size() + 1);
      const std::uint64_t token = live_token ? h.table.shard(shard).token
                                             : rng.uniform(0, max_token + 1);
      switch (rng.uniform(0, 17)) {
        case 0:
        case 1:
        case 2:
        case 3:
          h.request(holder, session, now);
          break;
        case 4:
        case 5:
        case 6:
        case 7:
        case 8:
        case 9: {  // a chunk of 0..3 records, sometimes out of order
          if (!h.table.admit(shard, token, session, holder)) break;
          if (rng.uniform(0, 19) == 0) {
            h.commit(h.table.fail(shard, "bad chunk"));
            break;
          }
          const LeaseTable::Shard& s = h.table.shard(shard);
          const std::uint64_t n = std::min<std::uint64_t>(
              rng.uniform(0, 3), s.end - s.next_index);
          std::uint64_t sum = s.sum;
          for (std::uint64_t k = 0; k < n; ++k) sum += rng.uniform(0, 5);
          h.table.progress(shard, s.next_index + n, sum, now);
          break;
        }
        case 10:
        case 11:
        case 12:
        case 13: {  // a seal, sometimes with a wrong total or too early
          if (shard < specs.size() &&
              h.table.shard(shard).next_index != h.table.shard(shard).end &&
              rng.uniform(0, 9) != 0) {
            break;  // workers seal after their last chunk
          }
          if (!h.table.admit(shard, token, session, holder)) break;
          const LeaseTable::Shard& s = h.table.shard(shard);
          const std::uint64_t total = s.sum + (rng.uniform(0, 9) == 0 ? 1 : 0);
          std::vector<LeaseTable::Step> steps = h.table.seal(shard, total);
          // The journal refuses a seal before every index is committed.
          if (steps.front().record.event == LedgerEvent::kSeal &&
              s.next_index != s.end) {
            steps = {h.table.fail(shard, "seal refused")};
          }
          h.commit(steps);
          break;
        }
        case 14:
        case 15:
          h.commit(h.table.expire(now));
          break;
        case 16:
          h.commit(h.table.disconnect(session));
          break;
        case 17:
          if (rng.uniform(0, 4) == 0) {
            regrants += h.table.counters().regranted;
            crash_and_resume(h, specs, max_attempts);
            ++resumes;
          }
          break;
      }
      for (std::size_t i = 0; i < specs.size(); ++i) {
        max_token = std::max(max_token, h.table.shard(i).token);
      }
      check_invariants(h.table, max_token);
      if (::testing::Test::HasFailure()) FAIL() << "at step " << step;
    }
    regrants += h.table.counters().regranted;
    crash_and_resume(h, specs, max_attempts);
    EXPECT_GT(resumes, 0u);
    for (const dist::LedgerRecord& rec : h.ledger) {
      seals += rec.event == LedgerEvent::kSeal;
      fails += rec.event == LedgerEvent::kFail;
      quarantines += rec.event == LedgerEvent::kQuarantine;
    }
  }
  EXPECT_GT(seals, 0u);
  EXPECT_GT(fails, 0u);
  EXPECT_GT(quarantines, 0u);
  EXPECT_GT(regrants, 0u);
}

}  // namespace
}  // namespace rvt
