// The three benchmark workloads and the predicates that check their
// outputs. Each run_* measures for opt.seconds, fills the end-to-end
// metrics (untraced) or the per-layer metrics (traced) and records its
// correctness checks.
#pragma once

#include <cstdint>
#include <string>

#include "harness.hpp"

namespace rvtbench {

/// attempted/failed operations of a run (the JSON counts): automaton
/// verdicts on the engine workloads, leases on the fleet; failed
/// correctness checks count as failed operations too.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

Outcome run_campaign_k3(const Options& opt, Report& r, Checks& checks);
Outcome run_frontier_k4(const Options& opt, Report& r, Checks& checks);
Outcome run_fleet_e10(const Options& opt, Report& r, Checks& checks);

// ---- output predicates (exercised at small sizes by self_check) -------

/// campaign-k3: every K = 3 line automaton against the E10 profile
/// grids (lines n = 3..14, delays {0, 1, 7, 31}) totals this many
/// defeats.
inline constexpr std::uint64_t kCampaignK3Defeats = 260170302;
bool campaign_total_ok(std::uint64_t defeats);

/// frontier-k4 over a uniform sample of the K = 4 line automata.
struct FrontierSummary {
  std::uint64_t sampled = 0;
  std::uint64_t survivors = 0;
  int frontier = 0;            ///< largest first-defeat line size
  std::uint64_t first_n3 = 0;  ///< automata first defeated at n = 3
};
/// Empty when the summary is consistent with the exhaustive K = 4
/// census (no survivor, frontier n = 6, 52.0% first defeated at n = 3);
/// otherwise what is wrong.
std::string frontier_violation(const FrontierSummary& s);

/// fleet-e10: the merged E10 profile over e10:14.
inline constexpr std::uint64_t kFleetE10Defeats = 5426593;
bool fleet_total_ok(std::uint64_t merged, bool all_complete,
                    std::uint64_t expected = kFleetE10Defeats);

/// Each workload's pipeline at small size (e10:6 fleet, a few hundred
/// automata on short lines) against an independent oracle, plus
/// known-bad inputs its predicate must refuse.
void self_check_campaign(Checks& checks);
void self_check_frontier(Checks& checks);
void self_check_fleet(const std::string& scratch, Checks& checks);

}  // namespace rvtbench
