// The per-query verdict core of the compiled engine, inlinable into batch
// loops.
//
// The verdict reconstruction (see sim/compiled.hpp for the math) splits
// three ways, matching how the battery loops consume it:
//
//   make_pair_state()    pair-invariant work, read off the two orbits
//                        alone: orbit headers, the cycle relationship
//                        (gcd/lcm) and the two first-visit steps, found by
//                        scanning each orbit for the other's start. Given
//                        an engine it also attaches the cycle-pair
//                        collision table; only the full-verdict callers
//                        give one, and verify() refreshes the state once
//                        per run of queries sharing a start pair.
//   scan_meeting()       delay-dependent search for the earliest meeting
//                        (one-walker phase, transient scan, in-cycle
//                        collision decision + first-round scan).
//   verify_with_state()  the full five-field verdict (Brent detection
//                        round, certificate cycle length) — what
//                        verify()/verify_grid return.
//
// Every met/unmet answer of the enumeration context is a function of the
// query's two orbits. walk_met() walks them in lockstep over the pair's
// own bound, the one-pair form of the occupancy unit's, with no PairState
// at all; orbits_met() asks it first and, when it declines (joint period
// lcm(lambda_a, lambda_b) > 4 (lambda_a + lambda_b)), takes the full
// verdict's met over a table-less pair state, whose residue intersection
// does not grow with the joint period. first_unmet and the count fallback
// for grids the occupancy unit (sim/occupancy.hpp) declines both call it,
// so neither builds a collision table.
//
// The k-tuple half below (make_tuple_state / scan_gather /
// gather_with_state) answers gathering verdicts only: the one count kind
// is the pair count above.
//
// Everything assumes validated inputs (distinct in-range starts,
// max_rounds > 0, orbits fetched from the right engines):
// sim::verify_never_meet_compiled wraps the checks for single calls,
// while the grid/enumeration paths validate a whole batch once.
//
// Micro-structure tuned for the exhaustive-battery workloads (millions of
// queries against tiny orbits): the Brent detection window is a bit_ceil
// instead of a shift loop, and every modulo whose numerator is almost
// always within a couple of periods goes through wrap_mod's subtract-first
// path — integer division only on the rare large-delay query.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <numeric>
#include <utility>
#include <vector>

#include "sim/compiled.hpp"
#include "sim/verdict.hpp"

namespace rvt::sim::detail {

/// x mod m for x that is usually < 2m (orbit tails and battery delays are
/// small next to the cycle): two conditional subtracts cover the common
/// cases before paying for a division.
inline std::uint64_t wrap_mod(std::uint64_t x, std::uint64_t m) {
  if (x < m) return x;
  x -= m;
  if (x < m) return x;
  x -= m;
  if (x < m) return x;
  return x % m;
}

/// Pair-invariant half of the verdict: everything about (A, B) that does
/// not depend on the delays. Valid as long as the two orbits are (i.e.
/// until the owning engine rebinds).
struct PairState {
  const CompiledConfigEngine::Orbit* A = nullptr;
  const CompiledConfigEngine::Orbit* B = nullptr;
  std::uint64_t lam_a = 0, lam_b = 0;
  std::uint64_t gcd_l = 0, lam_joint = 0;
  /// Cached orbit headers: the delay loop reads these from the (hot)
  /// state instead of re-chasing the Orbit structs per query.
  std::uint64_t mu_a = 0, mu_b = 0;
  std::size_t size_a = 0, size_b = 0;
  const tree::NodeId* na = nullptr;  ///< A.node.data()
  const tree::NodeId* nb = nullptr;  ///< B.node.data()
  /// First-visit steps for the one-walker phase: B's orbit onto A's
  /// parked start (used when delay_a > delay_b) and vice versa; kNever
  /// when the orbit never visits that start.
  std::uint32_t fv_b_at_a = 0;
  std::uint32_t fv_a_at_b = 0;
  /// Cycle-pair collision table (gcd_l entries), or nullptr when
  /// unavailable (no engine given, cycles past kCollisionLimit, build
  /// gave up) — the fallbacks scan or intersect residues instead.
  const std::uint8_t* collisions = nullptr;
  /// Alignment bases: the collision class for delays (da, db) is
  /// (lhs0 + db) - (rhs0 + da) mod gcd_l.
  std::uint64_t lhs0 = 0, rhs0 = 0;
};

/// Pair state of orbits A and B, whose starts are A.node[0] and B.node[0].
/// `engine` (nullptr: no table) is the engine both orbits came from; only
/// then is the cycle-pair collision table attached.
inline PairState make_pair_state(const CompiledConfigEngine* engine,
                                 const CompiledConfigEngine::Orbit& A,
                                 const CompiledConfigEngine::Orbit& B) {
  PairState st;
  st.A = &A;
  st.B = &B;
  st.lam_a = A.lambda;
  st.lam_b = B.lambda;
  // Orbits that merged share a cycle, so the equal-lambda case is the
  // common one — take it without any division.
  if (st.lam_a == st.lam_b) {
    st.gcd_l = st.lam_a;
    st.lam_joint = st.lam_a;
  } else {
    st.gcd_l = std::gcd(st.lam_a, st.lam_b);
    st.lam_joint = st.lam_a / st.gcd_l * st.lam_b;
  }
  st.mu_a = A.mu;
  st.mu_b = B.mu;
  st.size_a = A.node.size();
  st.size_b = B.node.size();
  st.na = A.node.data();
  st.nb = B.node.data();
  st.fv_b_at_a = B.first_step_at(A.node[0]);
  st.fv_a_at_b = A.first_step_at(B.node[0]);
  if (engine != nullptr &&
      st.lam_a <= CompiledConfigEngine::kCollisionLimit &&
      st.lam_b <= CompiledConfigEngine::kCollisionLimit) {
    const auto table = engine->cycle_pair_lookup(A.cycle_root, B.cycle_root);
    if (!table.empty()) {  // empty: build gave up, fall back to scanning
      st.collisions = table.data();
      st.lhs0 = A.cycle_phase + B.sn_mu;
      st.rhs0 = B.cycle_phase + A.sn_mu;
    }
  }
  return st;
}

/// Delay-dependent meeting search. Returns whether the later agent acts
/// within the horizon at all (`late` = it does not), whether a meeting
/// was found, and its round (<= M by construction).
struct MeetScan {
  bool late = false;
  bool meet = false;
  std::uint64_t t_meet = 0;
};

inline MeetScan scan_meeting(const PairState& st, std::uint64_t da,
                             std::uint64_t db, std::uint64_t M) {
  MeetScan s;

  // While exactly one agent walks (the other still parked), a meeting
  // means the walker's orbit visits the parked agent's start: an O(1)
  // first-visit lookup, independent of the delays.
  const std::uint64_t d_early = std::min(da, db);
  const std::uint64_t d_late = std::max(da, db);
  if (d_late > d_early && d_early < M) {
    const std::uint32_t fv = da > db ? st.fv_b_at_a : st.fv_a_at_b;
    const std::uint64_t limit = std::min(d_late, M) - d_early;
    if (fv != CompiledConfigEngine::Orbit::kNever && fv <= limit) {
      s.meet = true;
      s.t_meet = d_early + fv;
    }
  }
  if (d_late >= M) {
    // The later agent never acts within the horizon: the legacy loop
    // never snapshots a joint configuration, so no certificate is
    // possible and the walker-onto-parked meeting above is the only
    // observable event. (Also keeps the joint arithmetic below
    // overflow-free: from here on da, db < M.)
    s.late = true;
    return s;
  }

  const std::uint64_t Tc = std::max(da + st.mu_a, db + st.mu_b);

  // Earliest meeting, if any, over the remaining transient (rounds where
  // both agents are still parked cannot meet — distinct starts; the
  // one-walker phase was answered above): the few pre-cycle rounds once
  // both walk are scanned with rolling (division-free) array indices.
  if (!s.meet && Tc > d_late + 1) {
    // Both active from round d_late + 1 <= M on; seed the rolling array
    // indices at round d_late (wrap_mod each, loop-free after).
    const std::uint64_t sa = d_late - da;  // steps taken by round d_late
    const std::uint64_t sb = d_late - db;
    std::uint64_t ia =
        sa < st.size_a ? sa : st.mu_a + wrap_mod(sa - st.mu_a, st.lam_a);
    std::uint64_t ib =
        sb < st.size_b ? sb : st.mu_b + wrap_mod(sb - st.mu_b, st.lam_b);
    for (std::uint64_t t = d_late + 1, hi = std::min(Tc - 1, M); t <= hi;
         ++t) {
      if (++ia == st.size_a) ia = st.mu_a;
      if (++ib == st.size_b) ib = st.mu_b;
      if (st.na[ia] == st.nb[ib]) {
        s.meet = true;
        s.t_meet = t;
        break;
      }
    }
  }
  if (!s.meet && Tc <= M) {
    // Both in-cycle: the joint node-pair sequence from round Tc is purely
    // periodic with period lam_joint, and a meeting within it must be
    // proven absent (certification) or located (first round). Three
    // strategies, cheapest first:
    //  1. Cycle-pair collision table: once both agents are in-cycle their
    //     position pair sweeps exactly one alignment class i - j mod
    //     gcd(lambda_a, lambda_b), so existence is one table lookup —
    //     the common case of an exhaustive battery, whatever cycles the
    //     two starts landed in.
    //  2. Commensurate cycles (lam_joint comparable to the cycles): scan
    //     one period directly with rolling indices.
    //  3. Near-coprime cycles (lam_joint blown up): decide existence by
    //     residue intersection — a meeting at round r >= Tc needs cycle
    //     indices i, j with equal nodes and
    //         r == da + A.mu + i (mod A.lambda)
    //           == db + B.mu + j (mod B.lambda),
    //     solvable iff both sides agree modulo gcd — sorted intersection
    //     in O((la + lb) log la).
    // Only if a meeting exists at all is the period scanned for its first
    // round (that scan is bounded by the meeting round itself, i.e. never
    // more work than the legacy stepper).
    bool scan_cycle;
    if (st.collisions != nullptr) {
      const std::uint64_t lhs = st.lhs0 + db;
      const std::uint64_t rhs = st.rhs0 + da;
      std::uint64_t c;
      if (lhs >= rhs) {
        c = wrap_mod(lhs - rhs, st.gcd_l);
      } else {
        const std::uint64_t x = wrap_mod(rhs - lhs, st.gcd_l);
        c = x == 0 ? 0 : st.gcd_l - x;
      }
      scan_cycle = st.collisions[c] != 0;
    } else if (st.lam_joint <= 4 * (st.lam_a + st.lam_b)) {
      scan_cycle = true;
    } else {
      const std::uint64_t g = st.gcd_l;
      std::vector<std::uint64_t> occ_a;
      occ_a.reserve(st.lam_a);
      for (std::uint64_t i = 0; i < st.lam_a; ++i) {
        const std::uint64_t w =
            static_cast<std::uint64_t>(st.na[st.mu_a + i]);
        occ_a.push_back((w << 32) | ((da + st.mu_a + i) % g));
      }
      std::sort(occ_a.begin(), occ_a.end());
      scan_cycle = false;
      for (std::uint64_t j = 0; j < st.lam_b && !scan_cycle; ++j) {
        const std::uint64_t w =
            static_cast<std::uint64_t>(st.nb[st.mu_b + j]);
        scan_cycle = std::binary_search(occ_a.begin(), occ_a.end(),
                                        (w << 32) | ((db + st.mu_b + j) % g));
      }
    }
    if (scan_cycle) {
      const tree::NodeId* cyc_a = st.na + st.mu_a;
      const tree::NodeId* cyc_b = st.nb + st.mu_b;
      std::uint64_t ia = wrap_mod(Tc - da - st.mu_a, st.lam_a);
      std::uint64_t ib = wrap_mod(Tc - db - st.mu_b, st.lam_b);
      for (std::uint64_t t = Tc, hi = std::min(Tc + st.lam_joint - 1, M);
           t <= hi; ++t) {
        if (cyc_a[ia] == cyc_b[ib]) {
          s.meet = true;
          s.t_meet = t;
          break;
        }
        if (++ia == st.lam_a) ia = 0;
        if (++ib == st.lam_b) ib = 0;
      }
    }
  }
  return s;
}

/// The round at which Brent's algorithm in the legacy stepper certifies:
/// it re-anchors at snapshot indices 2^k - 1 with window 2^k and
/// certifies from the first anchor in the cycle with a window spanning
/// one period, exactly lam_joint snapshots later. (Tail configurations
/// never recur — the joint orbit is rho-shaped — so no earlier anchor
/// can match.) Requires da, db < M.
inline std::uint64_t detect_round(const PairState& st, std::uint64_t da,
                                  std::uint64_t db) {
  const std::uint64_t t0 = std::max({da, db, std::uint64_t{1}});
  const std::uint64_t Tc = std::max(da + st.mu_a, db + st.mu_b);
  const std::uint64_t mu_joint = Tc > t0 ? Tc - t0 : 0;
  const std::uint64_t window =
      std::bit_ceil(std::max(st.lam_joint, mu_joint + 1));
  return t0 + (window - 1) + st.lam_joint;
}

/// Delay-dependent half of the full verdict for delays (da, db) under
/// horizon M — field-for-field what the legacy stepper reports: a meeting
/// is checked before the cycle certificate within each round, and nothing
/// past max_rounds is observed.
inline Verdict verify_with_state(const PairState& st, std::uint64_t da,
                                 std::uint64_t db, std::uint64_t M) {
  const MeetScan s = scan_meeting(st, da, db, M);
  Verdict r;
  r.engine = VerifyEngine::kCompiled;
  if (s.late) {
    if (s.meet) {  // t_meet <= M by the one-walker phase limit
      r.met = true;
      r.meeting_round = s.t_meet - 1;  // legacy reports round() - 1
      r.rounds_checked = s.t_meet;
    } else {
      r.rounds_checked = M;
    }
    return r;
  }
  const std::uint64_t t_detect = detect_round(st, da, db);
  if (s.meet && s.t_meet <= t_detect) {
    r.met = true;
    r.meeting_round = s.t_meet - 1;  // legacy reports round() - 1
    r.rounds_checked = s.t_meet;
  } else if (t_detect <= M) {
    r.certified_forever = true;
    r.cycle_length = st.lam_joint;
    r.rounds_checked = t_detect;
  } else {
    r.rounds_checked = M;
  }
  return r;
}

/// walk_met's answer for one query.
enum class Walk : std::uint8_t { kUnmet, kMet, kDeclined };

/// met/unmet of one query — exactly verify_with_state().met — by walking
/// the two orbits in lockstep, with no PairState and no collision table.
/// `A`/`B` are the orbits of distinct starts, `da`/`db` their delays, M
/// the horizon. It is the one-pair form of the bound sim/occupancy.hpp
/// proves for a grid:
///  - roles are swapped so b moves no later than a; a is delayed by
///    gap = da - db, and time runs from round db (both agents sit on
///    their distinct starts until then), leaving horizon M - db. A query
///    nobody moves in within the horizon is unmet.
///  - reach = max(mu_a, mu_b) + lcm(lambda_a, lambda_b) - 1 is the pair's
///    own bound: b's first visit to a's parked start, if any, falls at a
///    step <= mu_b + lambda_b - 1 <= reach, and once both walk (from
///    round gap + 1) both are in-cycle by Tc <= gap + max(mu_a, mu_b),
///    so their first meeting, if any, falls at or before
///    Tc + lcm - 1 <= gap + reach — before the Brent detection round.
///  - parked rounds t <= min(gap, reach, horizon): b's orbit against a's
///    start; walking rounds gap < t <= min(gap + reach, horizon): the two
///    orbits, b at step t and a at step t - gap.
/// Declines (kDeclined) when lcm > 4 (lambda_a + lambda_b): orbits_met
/// answers such a query with the pair core, whose residue intersection
/// does not grow with the joint period.
inline Walk walk_met(const CompiledConfigEngine::Orbit* A,
                     const CompiledConfigEngine::Orbit* B, std::uint64_t da,
                     std::uint64_t db, std::uint64_t M) {
  if (da < db) {
    std::swap(A, B);
    std::swap(da, db);
  }
  if (db >= M) return Walk::kUnmet;
  const std::uint64_t horizon = M - db;
  const std::uint64_t gap = da - db;
  const std::uint64_t la = A->lambda, lb = B->lambda;
  std::uint64_t lcm = la;
  if (la != lb) {
    lcm = la / std::gcd(la, lb) * lb;
    if (lcm > 4 * (la + lb)) return Walk::kDeclined;
  }
  const std::uint64_t reach = std::max(A->mu, B->mu) + lcm - 1;
  const tree::NodeId* na = A->node.data();
  const tree::NodeId* nb = B->node.data();
  const std::size_t size_a = A->node.size(), size_b = B->node.size();
  std::size_t ib = 0;  // b's orbit index: its step, wrapped into the cycle
  for (std::uint64_t t = 1, end = std::min({gap, reach, horizon}); t <= end;
       ++t) {
    if (++ib == size_b) ib = B->mu;
    if (nb[ib] == na[0]) return Walk::kMet;
  }
  if (gap >= horizon) return Walk::kUnmet;
  ib = gap < size_b ? gap : B->mu + wrap_mod(gap - B->mu, lb);
  std::size_t ia = 0;
  for (std::uint64_t k = 0, steps = std::min(reach, horizon - gap);
       k < steps; ++k) {
    if (++ia == size_a) ia = A->mu;
    if (++ib == size_b) ib = B->mu;
    if (na[ia] == nb[ib]) return Walk::kMet;
  }
  return Walk::kUnmet;
}

/// The pair core's met for a query walk_met declined, over a table-less
/// pair state. Out of line: it runs for a few queries in a million, and
/// the walk's loop stays tight in its callers.
[[gnu::noinline]] inline bool pair_core_met(
    const CompiledConfigEngine::Orbit& A,
    const CompiledConfigEngine::Orbit& B, std::uint64_t da,
    std::uint64_t db, std::uint64_t M) {
  return verify_with_state(make_pair_state(nullptr, A, B), da, db, M).met;
}

/// met/unmet of one query from its two orbits alone: walk_met, or the
/// pair core when the walk declines, counted in `declines`. Builds no
/// collision table. Same preconditions as walk_met.
inline bool orbits_met(const CompiledConfigEngine::Orbit& A,
                       const CompiledConfigEngine::Orbit& B, std::uint64_t da,
                       std::uint64_t db, std::uint64_t M,
                       std::uint64_t& declines) {
  const Walk walk = walk_met(&A, &B, da, db, M);
  if (walk != Walk::kDeclined) [[likely]] return walk == Walk::kMet;
  ++declines;
  return pair_core_met(A, B, da, db, M);
}

/// Core of verify_never_meet_compiled over pre-fetched orbits, for
/// one-off calls. `A`/`B` must come from `engine_a` / `engine_b` and
/// `same_engine` must be (&engine_a == &engine_b): only then is the
/// collision table attached. The caller guarantees distinct in-range
/// starts and M > 0.
inline Verdict verify_pair_core(const CompiledConfigEngine& engine_a,
                                const CompiledConfigEngine::Orbit& A,
                                const CompiledConfigEngine::Orbit& B,
                                bool same_engine, std::uint64_t da,
                                std::uint64_t db, std::uint64_t M) {
  return verify_with_state(
      make_pair_state(same_engine ? &engine_a : nullptr, A, B), da, db, M);
}

// ---- k-tuple gathering composition (paper §1.3) ---------------------------
//
// k identical agents evolve independently, so the joint configuration is
// the componentwise k-tuple of rho orbits: pre-period max_i(d_i + mu_i)
// and period lcm(lambda_1, ..., lambda_k) once every agent is in-cycle.
// The verdict splits exactly like the pair case:
//
//   make_tuple_state()  tuple-invariant work — per-agent orbit headers,
//                       the saturating lcm of the k cycle lengths, and one
//                       cycle-PAIR collision filter per unordered agent
//                       pair (the existing tables, indexed mod the
//                       pairwise gcds — nothing k-specific is built).
//   scan_gather()       delay-dependent search for the earliest round all
//                       k positions coincide: the all-parked window, the
//                       transient scan with k rolling indices, and the
//                       in-cycle phase gated by the pairwise filter — a
//                       gathering at t >= Tc co-locates EVERY pair, so one
//                       zero table entry refutes the whole period without
//                       scanning it (the common exit of exhaustive
//                       batteries); only tuples every pair of which can
//                       collide pay the lcm-bounded scan.
//   gather_with_state() the full GatherVerdict, field-for-field what
//                       sim::run_gathering reports (the k = 2
//                       instantiation agrees verdict-for-verdict with the
//                       pair core above — differential-tested).
//
// Inputs are validated by sim::verify_never_gather_compiled or the
// enumeration context: 2 <= k <= kMaxGatherAgents, in-range starts (equal
// starts ALLOWED — co-located identical agents with equal delays stay
// merged), M > 0, all orbits from ONE engine.

/// lcm(a, b) saturating at 2^63 (any value above every reachable horizon):
/// joint periods past the horizon are never scanned nor certified against,
/// so the exact value stops mattering once it cannot fit.
inline constexpr std::uint64_t kLcmSaturated = std::uint64_t{1} << 63;

inline std::uint64_t saturating_lcm(std::uint64_t a, std::uint64_t b) {
  if (a >= kLcmSaturated || b >= kLcmSaturated) return kLcmSaturated;
  const std::uint64_t q = a / std::gcd(a, b);
  if (q > kLcmSaturated / b) return kLcmSaturated;
  return q * b;
}

/// Tuple-invariant half of the gathering verdict: everything about the k
/// start nodes that does not depend on the delays. Valid as long as the
/// orbits are (until the owning engine rebinds).
struct TupleState {
  std::size_t k = 0;
  const CompiledConfigEngine::Orbit* orb[kMaxGatherAgents] = {};
  tree::NodeId start[kMaxGatherAgents] = {};
  /// Cached orbit headers, hot across a tuple-major run of delays.
  std::uint64_t mu[kMaxGatherAgents] = {};
  std::uint64_t lam[kMaxGatherAgents] = {};
  std::size_t size[kMaxGatherAgents] = {};
  const tree::NodeId* nodes[kMaxGatherAgents] = {};
  /// lcm of the k cycle lengths (the joint period once all are in-cycle),
  /// saturated at kLcmSaturated — certification requires the exact value.
  std::uint64_t lam_joint = 1;
  bool lam_joint_exact = true;
  /// One collision filter per unordered pair (i < j), in nested-loop
  /// order: the pair's cycle-PAIR table (nullptr when unavailable — no
  /// table means no prefilter, never a wrong answer), its gcd, and the
  /// alignment bases such that the class swept by delays (d_i, d_j) is
  /// (lhs0 + d_j) - (rhs0 + d_i) mod g — exactly PairState's convention.
  struct PairFilter {
    const std::uint8_t* table = nullptr;
    std::uint64_t g = 1;
    std::uint64_t lhs0 = 0, rhs0 = 0;
  };
  PairFilter pair[kMaxGatherAgents * (kMaxGatherAgents - 1) / 2] = {};
};

inline TupleState make_tuple_state(
    const CompiledConfigEngine& engine,
    const CompiledConfigEngine::Orbit* const* orbs,
    const tree::NodeId* starts, std::size_t k) {
  TupleState st;
  st.k = k;
  for (std::size_t i = 0; i < k; ++i) {
    const CompiledConfigEngine::Orbit& o = *orbs[i];
    st.orb[i] = &o;
    st.start[i] = starts[i];
    st.mu[i] = o.mu;
    st.lam[i] = o.lambda;
    st.size[i] = o.node.size();
    st.nodes[i] = o.node.data();
    st.lam_joint = saturating_lcm(st.lam_joint, o.lambda);
  }
  st.lam_joint_exact = st.lam_joint < kLcmSaturated;
  std::size_t p = 0;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j, ++p) {
      TupleState::PairFilter& pf = st.pair[p];
      const CompiledConfigEngine::Orbit& A = *orbs[i];
      const CompiledConfigEngine::Orbit& B = *orbs[j];
      pf.g = A.lambda == B.lambda ? A.lambda : std::gcd(A.lambda, B.lambda);
      if (A.lambda <= CompiledConfigEngine::kCollisionLimit &&
          B.lambda <= CompiledConfigEngine::kCollisionLimit) {
        const auto table =
            engine.cycle_pair_lookup(A.cycle_root, B.cycle_root);
        if (!table.empty()) {
          pf.table = table.data();
          pf.lhs0 = A.cycle_phase + B.sn_mu;
          pf.rhs0 = B.cycle_phase + A.sn_mu;
        }
      }
    }
  }
  return st;
}

/// Delay-dependent gathering search. `certified` means no gathering can
/// ever occur (at ANY round, not just within the horizon): the transient
/// was fully scanned and the in-cycle phase either refuted by a pairwise
/// collision table or scanned over one full joint period inside M.
struct GatherScan {
  bool gathered = false;
  bool certified = false;
  std::uint64_t t_gather = 0;  ///< 1-based tick count, <= M when gathered
  tree::NodeId node = -1;
};

inline GatherScan scan_gather(const TupleState& st, const std::uint64_t* d,
                              std::uint64_t M) {
  GatherScan s;
  const std::size_t k = st.k;
  // Position of agent i after t ticks: node_i[min_cycle(t - d_i)] once
  // t > d_i, its start before. Tc is the first tick with every agent
  // in-cycle.
  std::uint64_t d_min = d[0];
  std::uint64_t Tc = 0;
  for (std::size_t i = 0; i < k; ++i) {
    d_min = std::min(d_min, d[i]);
    Tc = std::max(Tc, d[i] + st.mu[i]);
  }

  // All-parked window [1, d_min]: every position is still its start, so
  // the whole window collapses to one all-starts-equal check (identical
  // co-located agents gather before anyone moves).
  if (d_min >= 1) {
    bool all = true;
    for (std::size_t i = 1; i < k; ++i) all = all && st.start[i] == st.start[0];
    if (all) {  // M >= 1, so tick 1 is always inside the horizon
      s.gathered = true;
      s.t_gather = 1;
      s.node = st.start[0];
      return s;
    }
  }

  // Transient scan over [d_min + 1, min(Tc - 1, M)] with k rolling
  // indices: each index holds steps-taken (0 while parked), wrapping into
  // its cycle at the array end. Covers the one-walker phases and the
  // pre-cycle rounds in one loop.
  std::uint64_t idx[kMaxGatherAgents] = {};
  const std::uint64_t hi1 = std::min(Tc - 1, M);  // Tc >= 1 (mu >= 1)
  for (std::uint64_t t = d_min + 1; t <= hi1; ++t) {
    bool all = true;
    tree::NodeId at = -1;
    for (std::size_t i = 0; i < k; ++i) {
      if (t > d[i] && ++idx[i] == st.size[i]) idx[i] = st.mu[i];
      const tree::NodeId w = st.nodes[i][idx[i]];
      if (i == 0) {
        at = w;
      } else {
        all = all && w == at;
      }
    }
    if (all) {
      s.gathered = true;
      s.t_gather = t;
      s.node = at;
      return s;
    }
  }
  if (Tc > M) return s;  // horizon ends before the joint cycle starts

  // In-cycle phase: from tick Tc the joint tuple is periodic with period
  // lam_joint. A gathering at t >= Tc puts EVERY pair (i, j) on one node
  // at a round compatible with its alignment class (d_j - d_i shifted by
  // the cycle phases, mod gcd(lambda_i, lambda_j)) — so one zero table
  // entry certifies the whole period gathering-free without scanning it.
  std::size_t p = 0;
  for (std::size_t i = 0; i < k; ++i) {
    for (std::size_t j = i + 1; j < k; ++j, ++p) {
      const TupleState::PairFilter& pf = st.pair[p];
      if (pf.table == nullptr) continue;  // no table: cannot prefilter
      const std::uint64_t lhs = pf.lhs0 + d[j];
      const std::uint64_t rhs = pf.rhs0 + d[i];
      std::uint64_t c;
      if (lhs >= rhs) {
        c = wrap_mod(lhs - rhs, pf.g);
      } else {
        const std::uint64_t x = wrap_mod(rhs - lhs, pf.g);
        c = x == 0 ? 0 : pf.g - x;
      }
      if (pf.table[c] == 0) {
        // Pair (i, j) never co-locates at any t >= Tc; the transient was
        // scanned above (Tc <= M), so no gathering ever happens — a
        // certificate independent of the joint period's size.
        s.certified = true;
        return s;
      }
    }
  }
  // Every pair can collide somewhere: scan the joint period (capped by
  // the horizon). Certification requires the full period inside M.
  const bool full_period =
      st.lam_joint_exact && st.lam_joint <= M - Tc + 1;
  const std::uint64_t hi2 = full_period ? Tc + st.lam_joint - 1 : M;
  for (std::size_t i = 0; i < k; ++i) {
    idx[i] = st.mu[i] + wrap_mod(Tc - d[i] - st.mu[i], st.lam[i]);
  }
  for (std::uint64_t t = Tc; t <= hi2; ++t) {
    bool all = true;
    const tree::NodeId at = st.nodes[0][idx[0]];
    for (std::size_t i = 1; i < k && all; ++i) {
      all = st.nodes[i][idx[i]] == at;
    }
    if (all) {
      s.gathered = true;
      s.t_gather = t;
      s.node = at;
      return s;
    }
    for (std::size_t i = 0; i < k; ++i) {
      if (++idx[i] == st.size[i]) idx[i] = st.mu[i];
    }
  }
  s.certified = full_period;
  return s;
}

/// Delay-dependent half of the full gathering verdict under horizon M —
/// field-for-field what sim::run_gathering reports (gather_round is its
/// 0-based round, rounds_checked its rounds_executed), plus the
/// compiled-only never-gather certificate.
inline GatherVerdict gather_with_state(const TupleState& st,
                                       const std::uint64_t* d,
                                       std::uint64_t M) {
  const GatherScan s = scan_gather(st, d, M);
  GatherVerdict r;
  r.engine = VerifyEngine::kCompiled;
  if (s.gathered) {
    r.gathered = true;
    r.gather_round = s.t_gather - 1;  // reference reports the round index
    r.gather_node = s.node;
    r.rounds_checked = s.t_gather;
  } else {
    r.certified_forever = s.certified;
    // A pairwise-table certificate needs no period; report it only when
    // the joint period actually backed the scan (and is exact).
    if (s.certified && st.lam_joint_exact) r.cycle_length = st.lam_joint;
    r.rounds_checked = M;  // the reference executes every round
  }
  return r;
}

}  // namespace rvt::sim::detail
