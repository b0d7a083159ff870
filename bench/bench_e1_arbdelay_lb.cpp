// E1 — Theorem 3.1 / Figure 1: rendezvous with ARBITRARY delay on the line
// requires Omega(log n) memory bits.
//
// For agents with K states we build the paper's adversarial line instance
// (length O(K)) and a delay theta under which the two identical agents
// provably never meet (configuration-cycle certificate). The table shows
// the defeated line size n growing linearly with K = 2^k — i.e., to
// survive on n-node lines an agent needs K = Omega(n) states, k =
// Omega(log n) bits.
//
// The instance grid fans across cores via sweep_instances, and the
// certification itself runs on the compiled configuration engine
// (sim/compiled.hpp). After the table, the SAME set of certified instances
// is re-verified with both engines: the compiled side runs the fused
// enumeration pipeline (sim/enumeration.hpp — per-case engines kept
// alive, orbits extracted one walk per start) against the
// legacy interpretive stepper. Every timed pass is cold: each case
// rebinds and re-extracts its orbits. The two wall-clocks and the
// speedup land in BENCH_E1.json.
//
// Usage: bench_e1_arbdelay_lb [horizon] — the optional horizon (default
// 300000000) caps the never-meet search; CI smoke runs pass a reduced one.
#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "lowerbound/arbdelay_line.hpp"
#include "lowerbound/verify.hpp"
#include "sim/automaton.hpp"
#include "sim/compiled.hpp"
#include "sim/enumeration.hpp"
#include "sim/sweep.hpp"
#include "util/math.hpp"

namespace {

using namespace rvt;

struct Victim {
  std::string label;
  int bits_k = 0;
  sim::LineAutomaton a;
  std::uint64_t horizon = 0;
};

/// One certified instance, re-run under both engines for the timing report.
struct TimedCase {
  tree::Tree line = tree::Tree::single_node();
  sim::LineAutomaton a;
  sim::RunConfig cfg;
};

/// Certification workload: every instance is re-certified across a grid of
/// start-offset schedules (delay pair (theta + d, d) for d = 0..15). The
/// paper's model says only the relative delay matters, so every point must
/// certify never-meet with the same cycle — an invariance battery over the
/// adversarial schedule. The compiled engine answers each case's grid on
/// the fused enumeration pipeline from one pair of rho orbits — delays
/// only shift their alignment — while the legacy stepper re-simulates
/// every schedule to its Brent certificate. `checksum` accumulates the
/// verdicts so the work cannot be optimized away and both engines can be
/// cross-checked for agreement.
///
/// NOTE: E1 horizons differ per case while a context carries ONE
/// max_rounds, so each case gets its own context over a single-grid span;
/// engines and buffers persist across the min-of-N repeats because the
/// contexts live outside the timed lambda, but every bind() re-extracts.
constexpr std::uint64_t kDelayGrid = 16;

struct CompiledBattery {
  std::vector<sim::EnumGrid> grids;          // one single-grid span per case
  std::vector<sim::TabularAutomaton> tabs;   // per-case automata
  std::vector<sim::EnumerationContext> ctxs;

  explicit CompiledBattery(const std::vector<TimedCase>& cases) {
    grids.reserve(cases.size());
    tabs.reserve(cases.size());
    for (const auto& c : cases) {
      sim::EnumGrid grid;
      grid.tree = &c.line;
      for (std::uint64_t d = 0; d < kDelayGrid; ++d) {
        grid.push({c.cfg.start_a, c.cfg.start_b, c.cfg.delay_a + d,
                   c.cfg.delay_b + d});
      }
      grids.push_back(std::move(grid));
      tabs.push_back(c.a.tabular());
    }
    ctxs.reserve(cases.size());
    for (std::size_t i = 0; i < cases.size(); ++i) {
      ctxs.emplace_back(std::span<const sim::EnumGrid>(&grids[i], 1),
                        cases[i].cfg.max_rounds);
    }
  }

  std::uint64_t run() {
    std::uint64_t checksum = 0;
    for (std::size_t i = 0; i < ctxs.size(); ++i) {
      ctxs[i].bind(tabs[i]);
      for (const auto& r : ctxs[i].verify(0)) {
        checksum += r.cycle_length + (r.met ? 1 : 0);
      }
    }
    return checksum;
  }
};

std::uint64_t run_reference(const std::vector<TimedCase>& cases) {
  std::uint64_t checksum = 0;
  for (const auto& c : cases) {
    for (std::uint64_t d = 0; d < kDelayGrid; ++d) {
      sim::RunConfig cfg = c.cfg;
      cfg.delay_a += d;
      cfg.delay_b += d;
      sim::LineAutomatonAgent u(c.a), v(c.a);
      const auto r =
          lowerbound::verify_never_meet_reference(c.line, u, v, cfg);
      checksum += r.cycle_length + (r.met ? 1 : 0);
    }
  }
  return checksum;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t horizon = 300000000ull;
  if (argc > 1) {
    horizon = std::strtoull(argv[1], nullptr, 10);
    if (horizon == 0) {
      std::cerr << "usage: " << argv[0]
                << " [horizon > 0]   (bad horizon: " << argv[1] << ")\n";
      return 2;
    }
  }
  bench::header("E1 arbitrary-delay lower bound (Thm 3.1, Fig 1)",
                "Every K-state agent is defeated with some delay on a line "
                "of O(K) nodes;\nhence arbitrary-delay rendezvous needs "
                "Omega(log n) bits.");

  // Pre-draw every victim (randomness must not be shared across sweep
  // workers), then fan the adversary constructions over the pool.
  std::vector<Victim> victims;
  for (int p : {1, 2, 4, 8, 16, 32}) {
    const auto a = sim::ping_pong_walker(p);
    victims.push_back({"ping-pong 1/" + std::to_string(p),
                       static_cast<int>(util::ceil_log2(a.num_states())), a,
                       horizon});
  }
  const std::size_t n_structured = victims.size();
  util::Rng rng(bench::kDefaultSeed);
  const int kRandomReps = 8;
  for (int k = 1; k <= 7; ++k) {
    const int K = 1 << k;
    for (int rep = 0; rep < kRandomReps; ++rep) {
      victims.push_back({"random K=" + std::to_string(K), k,
                         sim::random_line_automaton(K, rng),
                         std::max<std::uint64_t>(horizon / 3, 1)});
    }
  }

  bench::WallTimer total;
  const auto instances = sim::sweep_instances(
      victims, [](const Victim& v) {
        return lowerbound::build_arbdelay_instance(v.a, v.horizon);
      });
  const double sweep_seconds = total.seconds();

  util::Table table({"victim", "states K", "bits k", "case", "line n",
                     "theta", "never-meet", "cycle", "n/K"});
  bool all_ok = true;
  std::vector<TimedCase> timed;
  for (std::size_t i = 0; i < n_structured; ++i) {  // structured victims
    const auto& inst = instances[i];
    const auto& v = victims[i];
    all_ok = all_ok && inst.construction_ok;
    // The dispatcher must have certified on the compiled engine — a silent
    // fallback to the reference stepper is a perf bug, not a wrong answer.
    all_ok = all_ok && inst.verdict.engine == sim::VerifyEngine::kCompiled;
    table.row(v.label, v.a.num_states(), v.bits_k,
              inst.bounded_case ? "bounded" : "fig-1",
              inst.line.node_count(), inst.theta,
              inst.construction_ok && !inst.verdict.met,
              inst.verdict.cycle_length,
              static_cast<double>(inst.line.node_count()) / v.a.num_states());
    if (inst.construction_ok) {
      timed.push_back({inst.line, v.a,
                       {inst.u, inst.v, inst.theta, 0, v.horizon}});
    }
  }
  for (std::size_t base = n_structured; base < victims.size();
       base += kRandomReps) {
    const int K = victims[base].a.num_states();
    int built = 0, defeated = 0;
    std::int64_t max_n = 0;
    for (int rep = 0; rep < kRandomReps; ++rep) {
      const auto& inst = instances[base + rep];
      if (!inst.construction_ok) continue;
      ++built;
      if (!inst.verdict.met && inst.verdict.certified_forever) ++defeated;
      max_n = std::max<std::int64_t>(max_n, inst.line.node_count());
      timed.push_back({inst.line, victims[base + rep].a,
                       {inst.u, inst.v, inst.theta, 0,
                        victims[base + rep].horizon}});
    }
    table.row("random x" + std::to_string(kRandomReps), K,
              victims[base].bits_k, "mixed", max_n, "-",
              std::to_string(defeated) + "/" + std::to_string(built), "-",
              built ? static_cast<double>(max_n) / K : 0.0);
    all_ok = all_ok && built >= 4 && defeated == built;
  }

  table.print(std::cout);

  // Engine shoot-out on the certification workload the table was built
  // from: identical (line, automaton, start-pair, delay, horizon) calls,
  // fused compiled pipeline vs legacy per-round stepper, both timed as
  // steady-state min-of-N.
  constexpr int kRepeats = 5;
  CompiledBattery battery(timed);
  std::uint64_t compiled_sum = 0, reference_sum = 0;
  const double compiled_s =
      bench::steady_min_seconds(/*warmup=*/1, kRepeats, [&] {
        compiled_sum = battery.run();
      });
  const double reference_s =
      bench::steady_min_seconds(/*warmup=*/0, kRepeats, [&] {
        reference_sum = run_reference(timed);
      });
  all_ok = all_ok && compiled_sum == reference_sum;  // engines must agree
  const double speedup = compiled_s > 0 ? reference_s / compiled_s : 0.0;
  std::cout << "\ncertification workload (" << timed.size()
            << " instances x " << kDelayGrid << " delays, min of "
            << kRepeats << " repeats):\n"
            << "  compiled engine:  " << compiled_s << " s (cold orbits)\n"
            << "  legacy stepper:   " << reference_s << " s\n"
            << "  speedup:          " << speedup << "x\n";

  bench::JsonReport report("E1");
  report.workload("rendezvous", 2);
  report.metric("sweep_seconds", sweep_seconds);
  report.metric("instances", static_cast<double>(timed.size()));
  report.metric("delay_grid", static_cast<double>(kDelayGrid));
  util::EngineComparison comparison;
  comparison.compiled_seconds = compiled_s;
  comparison.reference_seconds = reference_s;
  comparison.compiled_repeats = kRepeats;
  comparison.reference_repeats = kRepeats;
  comparison.engine = "compiled";
  comparison.threads = 1;
  util::add_engine_comparison(report, comparison);
  report.table(table);
  std::cout << "report: " << report.write() << "\n";

  bench::verdict(all_ok,
                 "every constructed instance certified never-meet; defeated "
                 "line size scales linearly in K");
  return all_ok ? 0 : 1;
}
