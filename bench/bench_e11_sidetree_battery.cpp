// E11 — Theorem 4.3 sidetree battery on the generalized configuration
// engine.
//
// The Theorem 4.3 adversary defeats K-state agents on max-degree-3 trees:
// two side trees with colliding behavior functions, joined by a symmetric
// path. Those victims are TreeAutomata — outside the line-only model the
// original compiled engine accepted — so until the engine was generalized
// every sidetree certification crawled through the per-round reference
// stepper. This bench certifies the constructions on the generalized
// CompiledConfigEngine (asserting, per verdict, that the dispatcher really
// picked it) and then runs a (start-pair x delay) battery over every built
// instance on BOTH engines, comparing the verdicts field for field and
// recording the two wall-clocks in BENCH_E11.json.
//
// The battery runs on the fused enumeration pipeline: one
// EnumerationContext holds a per-instance engine whose orbits are
// extracted one walk per start and queries are answered from the
// pair-state core. Every timed pass is cold: each instance rebinds
// and re-extracts its orbits. Delays only shift orbit alignment, so
// compiled queries are O(1) in the delay while the reference stepper
// re-simulates every (pair, delay) schedule to its Brent certificate.
//
// Usage: bench_e11_sidetree_battery [horizon] — the optional horizon
// (default 4000000) caps the construction's never-meet search; CI smoke
// runs pass a reduced one.
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lowerbound/sidetrees.hpp"
#include "lowerbound/verify.hpp"
#include "sim/automaton.hpp"
#include "sim/enumeration.hpp"
#include "sim/sweep.hpp"
#include "util/math.hpp"

namespace {

using namespace rvt;

/// Cap for the engine shoot-out queries (verdicts match at ANY shared
/// horizon; this keeps the reference side affordable).
constexpr std::uint64_t kBatteryHorizon = 200000;
/// Delay grid spanning the adversarial range: compiled queries are O(1) in
/// the delay (orbits only shift alignment) while the reference stepper
/// pays every parked round.
constexpr std::uint64_t kBatteryDelays[] = {0, 1, 2, 7, 31, 211, 997};

struct Victim {
  std::string label;
  sim::TreeAutomaton a;
  int i = 0;  ///< side-tree parameter (instance has 2i leaves)
  std::uint64_t horizon = 0;
};

struct Built {
  lowerbound::SideTreeCollision inst;
};

/// All distinct (u < v) start pairs crossed with the delay grid.
sim::EnumGrid battery_grid(const tree::Tree& t) {
  sim::EnumGrid grid;
  grid.tree = &t;
  for (tree::NodeId u = 0; u < t.node_count(); ++u) {
    for (tree::NodeId v = u + 1; v < t.node_count(); ++v) {
      for (const std::uint64_t d : kBatteryDelays) {
        grid.push({u, v, d, 0});
      }
    }
  }
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t horizon = 4000000ull;
  if (argc > 1) {
    horizon = std::strtoull(argv[1], nullptr, 10);
    if (horizon == 0) {
      std::cerr << "usage: " << argv[0]
                << " [horizon > 0]   (bad horizon: " << argv[1] << ")\n";
      return 2;
    }
  }
  bench::header(
      "E11 sidetree battery (Thm 4.3) on the generalized engine",
      "TreeAutomaton victims on max-degree-3 sidetree instances certify on\n"
      "the compiled configuration engine; the battery's verdicts match the\n"
      "reference stepper field for field.");

  std::vector<Victim> victims;
  for (int p : {1, 2, 3}) {
    victims.push_back({"lifted ping-pong 1/" + std::to_string(p),
                       sim::lift_to_tree_automaton(sim::ping_pong_walker(p)),
                       p == 1 ? 5 : 6, horizon});
  }
  util::Rng rng(bench::kDefaultSeed);
  for (int K : {2, 3, 3, 4}) {
    victims.push_back({"random K=" + std::to_string(K),
                       sim::random_tree_automaton(K, rng), 6, horizon});
  }

  bench::WallTimer total;
  const auto built = sim::sweep_instances(victims, [](const Victim& v) {
    return Built{lowerbound::build_sidetree_instance(v.a, v.i, 2, v.horizon)};
  });
  const double sweep_seconds = total.seconds();

  util::Table table({"victim", "states K", "i", "masks scanned", "node n",
                     "never-meet", "cycle", "engine"});
  bool all_ok = true;
  std::vector<std::size_t> usable;
  for (std::size_t idx = 0; idx < victims.size(); ++idx) {
    const auto& inst = built[idx].inst;
    const auto& v = victims[idx];
    const bool structured = idx < 3;  // lifted walkers must always work
    if (!inst.found) {
      table.row(v.label, v.a.num_states(), v.i, inst.masks_scanned, "-",
                "no-collision", "-", "-");
      all_ok = all_ok && !structured;
      continue;
    }
    // Every certification of a fresh TreeAutomaton pair on these small
    // instances must have run on the compiled engine — the dispatcher
    // reports which engine produced the verdict; a reference fallback
    // here is a dispatch regression.
    const bool engine_ok =
        inst.verdict.engine == sim::VerifyEngine::kCompiled;
    all_ok = all_ok && engine_ok && (inst.construction_ok || !structured);
    table.row(v.label, v.a.num_states(), v.i, inst.masks_scanned,
              inst.instance.node_count(),
              inst.construction_ok && !inst.verdict.met,
              inst.verdict.cycle_length, sim::to_string(inst.verdict.engine));
    if (inst.construction_ok) usable.push_back(idx);
  }
  table.print(std::cout);

  // Engine shoot-out over the (start-pair x delay) battery of every built
  // instance, single-threaded on both sides so the ratio isolates the
  // engine change; verdicts are compared field for field. The compiled
  // side is one fused context (instance i answers only grid i); each
  // pass rebinds and re-extracts every instance's orbits.
  std::vector<sim::EnumGrid> grids;
  std::vector<sim::TabularAutomaton> tabs;
  grids.reserve(usable.size());
  tabs.reserve(usable.size());
  for (const std::size_t idx : usable) {
    grids.push_back(battery_grid(built[idx].inst.instance));
    tabs.push_back(victims[idx].a.tabular());
  }
  std::uint64_t queries = 0;
  for (const auto& g : grids) queries += g.query_count();

  sim::EnumerationContext ctx(grids, kBatteryHorizon);
  std::vector<std::vector<sim::Verdict>> compiled(grids.size());
  constexpr int kCompiledRepeats = 3;
  const double compiled_s =
      bench::steady_min_seconds(/*warmup=*/1, kCompiledRepeats, [&] {
        for (std::size_t g = 0; g < grids.size(); ++g) {
          ctx.bind(tabs[g]);
          const auto verdicts = ctx.verify(g);
          compiled[g].assign(verdicts.begin(), verdicts.end());
        }
      });

  constexpr int kReferenceRepeats = 3;
  std::vector<std::vector<sim::Verdict>> reference(grids.size());
  const double reference_s =
      bench::steady_min_seconds(/*warmup=*/0, kReferenceRepeats, [&] {
        for (std::size_t g = 0; g < grids.size(); ++g) {
          const std::size_t idx = usable[g];
          reference[g].resize(grids[g].query_count());
          for (std::size_t q = 0; q < grids[g].query_count(); ++q) {
            const auto pq = grids[g].query(q);
            sim::TreeAutomatonAgent x(victims[idx].a), y(victims[idx].a);
            reference[g][q] = lowerbound::verify_never_meet_reference(
                built[idx].inst.instance, x, y,
                {pq.starts[0], pq.starts[1], pq.delays[0], pq.delays[1],
                 kBatteryHorizon});
          }
        }
      });

  std::uint64_t certified = 0, mismatches = 0;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    for (std::size_t q = 0; q < grids[g].query_count(); ++q) {
      const auto& c = compiled[g][q];
      const auto& r = reference[g][q];
      if (c.met != r.met || c.meeting_round != r.meeting_round ||
          c.certified_forever != r.certified_forever ||
          c.cycle_length != r.cycle_length ||
          c.rounds_checked != r.rounds_checked) {
        ++mismatches;
      }
      certified += c.certified_forever;
    }
  }
  all_ok = all_ok && mismatches == 0 && !usable.empty();
  const double speedup = compiled_s > 0 ? reference_s / compiled_s : 0.0;
  std::cout << "\nsidetree battery (" << usable.size() << " instances, "
            << queries << " (pair, delay) verifications, min of "
            << kCompiledRepeats << " / " << kReferenceRepeats
            << " repeats, single-threaded):\n"
            << "  compiled engine:  " << compiled_s << " s (cold orbits)\n"
            << "  legacy stepper:   " << reference_s << " s\n"
            << "  speedup:          " << speedup << "x\n"
            << "  mismatches:       " << mismatches << "\n";

  bench::JsonReport report("E11");
  report.workload("rendezvous", 2);
  report.metric("sweep_seconds", sweep_seconds);
  report.metric("instances", static_cast<double>(usable.size()));
  report.metric("battery_queries", static_cast<double>(queries));
  report.metric("battery_certified", static_cast<double>(certified));
  util::EngineComparison comparison;
  comparison.compiled_seconds = compiled_s;
  comparison.reference_seconds = reference_s;
  comparison.compiled_repeats = kCompiledRepeats;
  comparison.reference_repeats = kReferenceRepeats;
  comparison.engine = "compiled";
  comparison.threads = 1;
  util::add_engine_comparison(report, comparison);
  report.table(table);
  std::cout << "report: " << report.write() << "\n";

  bench::verdict(all_ok,
                 "sidetree instances certified on the compiled engine; "
                 "battery verdicts agree with the reference stepper "
                 "field for field");
  return all_ok ? 0 : 1;
}
