// Occupancy-table defeat counts: the unmet count of one pair grid from
// its distinct starts' orbits, with no engine, cache or binding.
//
// A count needs met/unmet alone, and a query meets iff its two agents
// stand on one node at some round <= the horizon: its first meeting, if
// any, falls before Tc + lcm(lambda_a, lambda_b), where the joint run
// turns periodic — which is before the Brent detection round the verdict
// certifies at. So a grid is answered from one table: occ[t][w] = the
// bitmask of starts whose undelayed agent stands on node w at round t.
// Let reach = H + L - 1, H the longest tail and L the largest lcm of two
// cycle lengths among the grid's starts. A query with a delayed by gap
// over b meets iff bit b is set in the OR of occ[t][a] over the parked
// rounds t <= min(gap, reach) and of occ[t][pos_a(t)] over the walking
// rounds gap < t <= gap + reach (both capped at the horizon), so the
// table needs the largest moving gap + reach rows. Each OR is computed
// once per distinct (delayed start, gap, horizon). detail::walk_met
// (sim/verify_core.hpp) is the same bound for one pair, with H and L
// taken from that pair alone: first_unmet and the declined-grid count
// walk it query by query.
//
//   plan_counts(...)      a grid's queries in that canonical form (roles
//                         swapped so b starts no later, time shifted by
//                         the smaller delay), once per grid: it reads
//                         starts and delays only.
//   OccupancyCounter      answers one plan from the grid's distinct-start
//     ::count_unmet(...)  orbits in bit order, reusing its scratch — the
//                         steady state allocates nothing.
//
// The counter DECLINES (nullopt) a grid with more than kOccupancyStarts
// distinct starts (one bit each in a u64) or whose table would pass
// kOccupancyWords words for the orbits given; the caller then counts the
// grid another way (EnumerationContext: query by query with
// detail::orbits_met of sim/verify_core.hpp: walk_met above or, where it
// declines, the table-less pair core).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "sim/compiled.hpp"
#include "tree/tree.hpp"

namespace rvt::sim {

/// Most distinct starts one table answers: one bit each in a u64.
inline constexpr std::size_t kOccupancyStarts = 64;
/// Words (u64) one occupancy table may hold: rounds x nodes.
inline constexpr std::size_t kOccupancyWords = std::size_t{1} << 14;

/// A pair grid's queries in occupancy form. Bit i names the grid's i-th
/// distinct start.
struct CountPlan {
  /// One distinct (delayed start, delay gap, shifted horizon): its
  /// queries meet iff the partner's bit is in the OR of the occupancy
  /// rows a's rounds read.
  struct Mask {
    std::uint8_t a = 0;         ///< bit of the later start (gap 0: first)
    std::uint64_t gap = 0;      ///< delay of a over its partner
    std::uint64_t horizon = 0;  ///< max_rounds - the partner's delay
    std::uint64_t want = 0;     ///< bits of the partners asked once
  };
  std::vector<Mask> masks;  ///< sorted by (a, gap, horizon)
  /// Repeats of a (mask, partner bit) already in `want`: mask index
  /// << 6 | bit.
  std::vector<std::uint64_t> repeats;
  std::uint64_t never = 0;  ///< queries nobody moves in
  /// Largest gap of a mask whose a moves within its horizon.
  std::uint64_t max_gap = 0;
  std::uint64_t max_horizon = 0;
};

/// Canonicalizes a pair grid's queries (flat k = 2 storage: two starts
/// and two delays per query, starts distinct within a query) into a
/// CountPlan whose bit i is `distinct[i]`, which must list every start
/// the queries use. Past kOccupancyStarts distinct starts the plan is
/// empty: the counter declines it unread.
CountPlan plan_counts(std::span<const tree::NodeId> starts,
                      std::span<const std::uint64_t> delays,
                      std::span<const tree::NodeId> distinct,
                      std::uint64_t max_rounds);

/// Answers CountPlans from occupancy tables. Holds only scratch; one per
/// thread.
class OccupancyCounter {
 public:
  using Orbit = CompiledConfigEngine::Orbit;

  /// The plan's unmet count, given the orbit of each distinct start in
  /// bit order (`orbits[i]` starts at the plan's distinct[i]) on a tree
  /// of `nodes` nodes. nullopt when more than kOccupancyStarts orbits
  /// are given or the table would pass kOccupancyWords words.
  std::optional<std::uint64_t> count_unmet(
      std::span<const Orbit* const> orbits, const CountPlan& plan,
      std::size_t nodes);

 private:
  std::vector<std::uint64_t> occ_;    ///< the occupancy rows
  std::vector<std::uint64_t> masks_;  ///< per-mask ORs
};

}  // namespace rvt::sim
