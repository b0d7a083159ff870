// E12 — k-agent gathering battery (paper §1.3) on the compiled k-tuple
// verdict core.
//
// The paper's "natural extension" drops k >= 2 identical agents on the
// tree and asks whether they all co-locate in one round. Until this
// battery the only executor was the interpreting sim::run_gathering, one
// round at a time; the k-tuple verdict core (sim/verify_core.hpp) answers
// the same question from the k rho orbits — a per-pair in-cycle meeting
// predicate (detail::cycles_meet), combined over the lcm of the k cycle
// lengths — on the very same fused enumeration pipeline (one-walk orbit
// extraction, tuple-major verdict loops) the pair batteries ride. Every
// timed compiled pass is cold: each battery rebinds and re-extracts its
// orbits.
//
// Workload: k = 3 and k = 4 tuples, crossed with adversarial delay
// patterns, on two substrate families:
//   * lines (several labelings, the Theorem 4.2 setting) under ping-pong
//     walkers, the basic walker and random small automata;
//   * Theorem 4.3 side-tree instances under their lifted victims.
// Every query is certified FIELD FOR FIELD against run_gathering —
// gathered / gather_round / gather_node, and rounds_checked against
// rounds_executed — and the bench FAILS on any mismatch or if the
// compiled speedup falls under 10x (the acceptance floor recorded in
// BENCH_E12.json; measured ratios are orders of magnitude above it).
//
// Usage: bench_e12_gathering [battery-horizon] — default 50000 rounds per
// query; CI smoke runs pass a reduced one. (The side-tree CONSTRUCTION
// horizon is fixed: the instances certify at their own scale.)
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lowerbound/sidetrees.hpp"
#include "sim/automaton.hpp"
#include "sim/enumeration.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace {

using namespace rvt;

constexpr std::uint64_t kDefaultHorizon = 50000;
constexpr std::uint64_t kSidetreeConstructionHorizon = 2000000;

/// Adversarial delay patterns (truncated to the tuple's k): simultaneous
/// start, a staggered small spread, and a scattered large one.
constexpr std::uint64_t kDelayPatterns[][4] = {
    {0, 0, 0, 0}, {0, 1, 3, 7}, {5, 0, 17, 2}};

/// Every `stride`-th sorted k-combination of distinct nodes, plus two
/// duplicated-start tuples (gathering allows co-located agents), each
/// crossed with the delay patterns.
void fill_tuples(sim::EnumGrid& grid, std::size_t stride) {
  const tree::Tree& t = *grid.tree;
  const std::size_t k = grid.agents;
  const tree::NodeId n = t.node_count();
  std::vector<tree::NodeId> tuple(k);
  std::size_t count = 0;
  const auto emit = [&](const std::vector<tree::NodeId>& starts) {
    for (const auto& pattern : kDelayPatterns) {
      grid.push(starts, {pattern, k});
    }
  };
  // Sorted distinct combinations via odometer.
  for (std::size_t i = 0; i < k; ++i) {
    tuple[i] = static_cast<tree::NodeId>(i);
  }
  while (true) {
    if (count++ % stride == 0) emit(tuple);
    // Advance the odometer.
    std::size_t pos = k;
    while (pos-- > 0) {
      if (tuple[pos] < n - static_cast<tree::NodeId>(k - pos)) {
        ++tuple[pos];
        for (std::size_t j = pos + 1; j < k; ++j) {
          tuple[j] = tuple[pos] + static_cast<tree::NodeId>(j - pos);
        }
        break;
      }
      if (pos == 0) {
        pos = k;  // exhausted
        break;
      }
    }
    if (pos == k) break;
  }
  // Duplicated starts: all merged, and a strict-subset merge.
  std::vector<tree::NodeId> same(k, n / 2);
  emit(same);
  std::vector<tree::NodeId> subset(k, 0);
  for (std::size_t i = 1; i < k; ++i) subset[i] = n - 1;
  emit(subset);
}

struct Battery {
  std::string label;
  std::size_t k = 0;
  sim::EnumGrid grid;
  sim::TabularAutomaton automaton;
};

/// Reference executor: k fresh interpreting agents per query.
sim::GatherResult reference_query(const tree::Tree& t,
                                  const sim::TabularAutomaton& a,
                                  const sim::GatherQuery& q,
                                  std::uint64_t horizon) {
  std::vector<std::unique_ptr<sim::TabularAutomatonAgent>> agents;
  std::vector<sim::Agent*> raw;
  for (std::size_t i = 0; i < q.agents(); ++i) {
    agents.push_back(std::make_unique<sim::TabularAutomatonAgent>(a));
    raw.push_back(agents.back().get());
  }
  return sim::run_gathering(
      t, raw,
      {{q.starts.begin(), q.starts.end()},
       {q.delays.begin(), q.delays.end()},
       horizon});
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t horizon = kDefaultHorizon;
  if (argc > 1) {
    horizon = std::strtoull(argv[1], nullptr, 10);
    if (horizon == 0) {
      std::cerr << "usage: " << argv[0]
                << " [battery-horizon > 0]   (bad horizon: " << argv[1]
                << ")\n";
      return 2;
    }
  }
  bench::header(
      "E12 k-agent gathering battery (paper 1.3) on the k-tuple core",
      "k = 3, 4 gathering verdicts on lines and Thm 4.3 side-trees,\n"
      "certified field-for-field against the interpreting run_gathering "
      "reference.");

  // ---- substrates & victims ---------------------------------------------
  // Owns every battery substrate. Grids keep raw pointers into it, so the
  // capacity is fixed up front and must cover every add_line_battery /
  // side-tree push below (asserted per push).
  std::vector<tree::Tree> trees;
  trees.reserve(32);
  std::vector<Battery> batteries;
  const auto add_line_battery = [&](const std::string& label, std::size_t k,
                                    tree::Tree t,
                                    const sim::TabularAutomaton& a,
                                    std::size_t stride) {
    if (trees.size() == trees.capacity()) std::abort();  // pointer stability
    trees.push_back(std::move(t));
    Battery b;
    b.label = label;
    b.k = k;
    b.grid = sim::EnumGrid(&trees.back(), k);
    fill_tuples(b.grid, stride);
    b.automaton = a;
    batteries.push_back(std::move(b));
  };
  add_line_battery("ping-pong 1/1", 3, tree::line(9),
                   sim::ping_pong_walker(1).tabular(), 1);
  add_line_battery("ping-pong 1/2", 4, tree::line_edge_colored(9, 0),
                   sim::ping_pong_walker(2).tabular(), 2);
  add_line_battery("basic walker", 3, tree::line_edge_colored(8, 1),
                   sim::basic_walker_automaton().tabular(), 1);
  util::Rng rng(bench::kDefaultSeed);
  for (int rep = 0; rep < 3; ++rep) {
    add_line_battery("random K=3 #" + std::to_string(rep), 3,
                     tree::line(7 + rep),
                     sim::random_line_automaton(3, rng).tabular(), 1);
    add_line_battery("random K=2 #" + std::to_string(rep), 4,
                     tree::line(10 - rep),
                     sim::random_line_automaton(2, rng).tabular(), 2);
  }

  // Theorem 4.3 side-tree instances under their lifted victims.
  bench::WallTimer construction_timer;
  for (const int p : {1, 2}) {
    const sim::TreeAutomaton victim =
        sim::lift_to_tree_automaton(sim::ping_pong_walker(p));
    const auto inst = lowerbound::build_sidetree_instance(
        victim, p == 1 ? 5 : 6, 2, kSidetreeConstructionHorizon);
    if (!inst.construction_ok) {
      std::cerr << "side-tree construction failed for ping-pong 1/" << p
                << "\n";
      return 1;
    }
    if (trees.size() == trees.capacity()) std::abort();  // pointer stability
    trees.push_back(inst.instance);
    Battery b;
    b.label = "sidetree ping-pong 1/" + std::to_string(p);
    b.k = p == 1 ? 3 : 4;
    b.grid = sim::EnumGrid(&trees.back(), b.k);
    fill_tuples(b.grid, b.k == 3 ? 7 : 40);
    b.automaton = victim.tabular();
    batteries.push_back(std::move(b));
  }
  const double construction_seconds = construction_timer.seconds();

  std::vector<sim::EnumGrid> grids;
  grids.reserve(batteries.size());
  for (const auto& b : batteries) grids.push_back(b.grid);
  std::uint64_t queries = 0;
  for (const auto& g : grids) queries += g.query_count();

  // ---- compiled side: fused pipeline, cold orbits, min-of-N -------------
  sim::EnumerationContext ctx(grids, horizon);
  std::vector<std::vector<sim::GatherVerdict>> compiled(grids.size());
  constexpr int kCompiledRepeats = 5;
  const double compiled_s =
      bench::steady_min_seconds(/*warmup=*/1, kCompiledRepeats, [&] {
        for (std::size_t g = 0; g < grids.size(); ++g) {
          ctx.bind(batteries[g].automaton);
          const auto verdicts = ctx.verify_gather(g);
          compiled[g].assign(verdicts.begin(), verdicts.end());
        }
      });

  // ---- reference side: one interpreted pass (it pays ~every round) ------
  std::vector<std::vector<sim::GatherResult>> reference(grids.size());
  const double reference_s =
      bench::steady_min_seconds(/*warmup=*/0, /*repeats=*/1, [&] {
        for (std::size_t g = 0; g < grids.size(); ++g) {
          reference[g].resize(grids[g].query_count());
          for (std::size_t q = 0; q < grids[g].query_count(); ++q) {
            reference[g][q] =
                reference_query(*grids[g].tree, batteries[g].automaton,
                                grids[g].query(q), horizon);
          }
        }
      });

  // ---- field-for-field certification ------------------------------------
  util::Table table({"battery", "k", "tree n", "queries", "gathered",
                     "certified-never", "mismatches"});
  bool all_ok = true;
  std::uint64_t gathered_total = 0, certified_total = 0, mismatches = 0;
  for (std::size_t g = 0; g < grids.size(); ++g) {
    std::uint64_t gathered = 0, certified = 0, bad = 0;
    for (std::size_t q = 0; q < grids[g].query_count(); ++q) {
      const auto& c = compiled[g][q];
      const auto& r = reference[g][q];
      const bool match =
          c.gathered == r.gathered &&
          (!c.gathered || (c.gather_round == r.gather_round &&
                           c.gather_node == r.gather_node)) &&
          c.rounds_checked == r.rounds_executed &&
          c.engine == sim::VerifyEngine::kCompiled;
      bad += match ? 0 : 1;
      gathered += c.gathered ? 1 : 0;
      certified += c.certified_forever ? 1 : 0;
    }
    table.row(batteries[g].label, batteries[g].k,
              grids[g].tree->node_count(), grids[g].query_count(), gathered,
              certified, bad);
    gathered_total += gathered;
    certified_total += certified;
    mismatches += bad;
  }
  table.print(std::cout);
  all_ok = all_ok && mismatches == 0;

  const double speedup = compiled_s > 0 ? reference_s / compiled_s : 0.0;
  all_ok = all_ok && speedup >= 10.0;  // the acceptance floor
  std::cout << "\ngathering battery (" << batteries.size() << " batteries, "
            << queries << " (tuple, delay) verdicts, horizon " << horizon
            << ", min of " << kCompiledRepeats
            << " / 1 repeats, single-threaded):\n"
            << "  compiled core:    " << compiled_s << " s (cold orbits)\n"
            << "  run_gathering:    " << reference_s << " s\n"
            << "  speedup:          " << speedup << "x (floor 10x)\n"
            << "  mismatches:       " << mismatches << "\n";

  bench::JsonReport report("E12");
  report.workload("gathering", 4);  // largest arity; rows carry per-k
  report.metric("construction_seconds", construction_seconds);
  report.metric("battery_horizon", static_cast<double>(horizon));
  report.metric("batteries", static_cast<double>(batteries.size()));
  report.metric("queries", static_cast<double>(queries));
  report.metric("gathered", static_cast<double>(gathered_total));
  report.metric("certified_never_gather",
                static_cast<double>(certified_total));
  report.metric("mismatches", static_cast<double>(mismatches));
  util::EngineComparison comparison;
  comparison.compiled_seconds = compiled_s;
  comparison.reference_seconds = reference_s;
  comparison.compiled_repeats = kCompiledRepeats;
  comparison.reference_repeats = 1;  // one interpreted pass is the budget
  comparison.engine = "compiled";
  comparison.threads = 1;
  util::add_engine_comparison(report, comparison);
  report.table(table);
  std::cout << "report: " << report.write() << "\n";

  bench::verdict(all_ok,
                 "k-agent gathering verdicts identical to run_gathering "
                 "field for field, >= 10x faster on the k-tuple core");
  return all_ok ? 0 : 1;
}
