// The enumeration workloads the distributed subsystem shards.
//
// A shard runner in another process must reproduce EXACTLY the battery a
// single-process bench enumerates — same trees, same query order, same
// automaton enumeration — or the merged counts drift. This module is
// therefore the single source of truth for the E10 exhaustive-line
// battery: bench/bench_e10_exhaustive_small.cpp, the E13 distributed
// bench and the `rvt_cli shard` subcommands all build the workload from
// here, and the shard plan fingerprints its content
// (dist/shard_plan.hpp) so a runner fed a plan from a different battery
// (or a different code schema) refuses to run.
//
// The distributable unit is EnumWorkload: an index-deterministic map
// from enumeration index to a uint64 verdict summary (total defeats of
// that automaton over the whole battery) — exactly the
// incremental-delay shape a shard journal streams.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "sim/automaton.hpp"
#include "sim/enumeration.hpp"
#include "tree/tree.hpp"

namespace rvt::dist {

/// One battery tree plus every feasible (non-perfectly-symmetrizable)
/// start pair, in battery order.
struct BatteryTree {
  tree::Tree t = tree::Tree::single_node();
  std::vector<std::pair<tree::NodeId, tree::NodeId>> pairs;
};

/// The E10 battery: lines n = 3..max_n, three labelings each (plus the
/// Thm 3.1 mirror coloring on even n), every pair that is not perfectly
/// symmetrizable. Ordered by n, so the first defeated grid IS the
/// defeat frontier.
std::vector<BatteryTree> make_line_battery(int max_n);

std::size_t battery_instances(const std::vector<BatteryTree>& battery);

/// The idx-th K-state line automaton under the enumeration order
/// delta-combo-major, then lambda-combo, then initial state.
sim::LineAutomaton line_automaton_at(int K, std::uint64_t idx);

/// Number of K-state line automata under that order.
std::uint64_t line_automaton_count(int K);

/// Battery trees as fused-enumeration grids; with_delays crosses every
/// pair with the profile delay grid (the Thm 3.1 adversary's weapon is
/// exactly the start delay).
std::vector<sim::EnumGrid> make_battery_grids(
    const std::vector<BatteryTree>& battery, bool with_delays);

/// The E10 defeat-density profile sample: every K <= 2 automaton, every
/// 64th at K = 3.
std::vector<std::pair<int, std::uint64_t>> make_profile_sample();

inline constexpr std::uint64_t kE10Horizon = 300000;
inline constexpr std::uint64_t kE10ProfileDelays[] = {0, 1, 7, 31};

/// An index-deterministic enumeration workload: `count()` indices, each
/// mapping to one automaton run against every grid, summarized as its
/// total defeat count. Owns its battery trees (grids point into them),
/// so it is neither copyable nor movable — build via parse().
class EnumWorkload {
 public:
  /// Spec format: "e10:<max_n>" — the E10 defeat-density profile over
  /// lines n = 3..max_n at the E10 horizon ("e10" alone means max_n 14,
  /// the committed BENCH_E10.json battery whose profile counts 5426593
  /// defeats). Throws std::invalid_argument on junk.
  static std::unique_ptr<EnumWorkload> parse(const std::string& spec);

  EnumWorkload(const EnumWorkload&) = delete;
  EnumWorkload& operator=(const EnumWorkload&) = delete;

  /// Canonical spec string (fingerprinted into shard plans).
  const std::string& spec() const { return spec_; }
  std::uint64_t count() const { return sample_.size(); }
  std::uint64_t max_rounds() const { return kE10Horizon; }
  std::span<const sim::EnumGrid> grids() const { return grids_; }

  sim::TabularAutomaton automaton_at(std::uint64_t index) const;

  /// The index's verdict summary: total defeats (met == false verdicts)
  /// of automaton `index` over every grid — the value a shard journal
  /// records. ctx must have been built over grids().
  std::uint64_t defeats(sim::EnumerationContext& ctx,
                        std::uint64_t index) const;

 private:
  EnumWorkload() = default;

  std::string spec_;
  std::vector<BatteryTree> battery_;
  std::vector<sim::EnumGrid> grids_;
  std::vector<std::pair<int, std::uint64_t>> sample_;
};

/// Slot capacity (OrbitCache's `capacity`) for a cache that memoizes the
/// counts of `w`: room for count() rows — one per enumeration index, the
/// most distinct row keys the workload can have — at the cache's 7/8 load
/// limit. Processes that give each campaign a fresh cache
/// (svc::run_worker, `rvt_cli shard run`) size it with this instead of
/// the 2^19-slot default, whose 16 MiB table a small workload would
/// still touch throughout (e10:14 -> 2048 slots, 64 KiB).
std::size_t memo_cache_capacity(const EnumWorkload& w);

}  // namespace rvt::dist
