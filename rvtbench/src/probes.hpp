// What the workloads share: the battery set-up, layer probes, and
// reference re-certification.
//
// A probe drives one layer's public functions directly on a seeded
// subsample, outside the measured region, so its per-call latency is
// attributed to that layer alone:
//  * replay_engine: CompiledConfigEngine (rebind, warm_orbits, orbit,
//    cycle_pair_collisions, snapshot_orbits), verify_never_meet_compiled
//    and the OrbitCache key/claim/publish path;
//  * probe_dist: LedgerWriter::append and JournalWriter::record in a
//    scratch directory;
//  * probe_net_load: NetOrbitStore::load round trips against a live
//    coordinator.
// The reference_* functions re-derive verdicts with
// lowerbound::verify_never_meet_reference, the interpreting stepper the
// compiled engine is differentially tested against.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dist/workload.hpp"
#include "harness.hpp"
#include "sim/automaton.hpp"
#include "sim/enumeration.hpp"

namespace rvtbench {

/// The E10 line battery (n = 3..14) and its enumeration grids.
struct Battery {
  std::vector<rvt::dist::BatteryTree> trees;
  std::vector<rvt::sim::EnumGrid> grids;
};

/// The set-up a campaign pays before its first automaton: builds the
/// battery and grids (profile delays or none), an OrbitCache when
/// `with_cache`, and one EnumerationContext over them. Returns seconds.
/// It takes milliseconds, so the workloads repeat it between their
/// measurement windows (see kFastTail).
double build_battery(Battery& b, bool with_delays, bool with_cache);

/// Fills the sim.enum counters from a sweep's telemetry over `automata`.
void report_enum_telemetry(Report& r, const rvt::sim::EnumTelemetry& t,
                           std::uint64_t automata);

void replay_engine(std::span<const rvt::sim::EnumGrid> grids,
                   const std::vector<rvt::sim::TabularAutomaton>& automata,
                   std::uint64_t max_rounds, Report& r);

void probe_dist(const std::string& dir, Report& r);

void probe_net_load(std::uint16_t port, std::uint64_t seed, Report& r);

/// Starts an idle coordinator over a one-shard e10:3 plan under `dir`
/// and runs probe_net_load against it — the transport probe for
/// workloads that do not run a fleet themselves.
void probe_net_idle_coordinator(const std::string& dir, std::uint64_t seed,
                                Report& r);

/// Defeats (met == false) of `a` over every query of every grid.
std::uint64_t reference_defeats(std::span<const rvt::sim::EnumGrid> grids,
                                const rvt::sim::TabularAutomaton& a,
                                std::uint64_t max_rounds);

/// Index of the first grid holding a defeat of `a`, or -1.
int reference_first_defeat(std::span<const rvt::sim::EnumGrid> grids,
                           const rvt::sim::TabularAutomaton& a,
                           std::uint64_t max_rounds);

}  // namespace rvtbench
