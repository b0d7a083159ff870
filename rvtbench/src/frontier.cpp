// frontier-k4: a seeded uniform sample (with replacement) of the
// 21,233,664 K = 4 line automata. Each is bound and scanned with
// first_unmet over the no-delay grids of make_line_battery(14), in line
// size order, stopping at its first defeat — no cache, one sweep
// worker, as in E10's adaptive sweep. Outputs: survivors and the defeat
// frontier (largest first-defeat line size).
#include <algorithm>
#include <cmath>
#include <functional>
#include <iostream>
#include <vector>

#include "dist/workload.hpp"
#include "probes.hpp"
#include "sim/enumeration.hpp"
#include "workloads.hpp"

namespace rvtbench {

namespace sim = rvt::sim;
namespace dist = rvt::dist;

namespace {

constexpr int kK = 4;
constexpr bool kDelays = false;  // the no-delay grids
constexpr bool kCache = false;
constexpr std::uint64_t kBatch = 1 << 15;
constexpr std::size_t kRecertified = 256;
constexpr std::size_t kReplayed = 128;

// Exhaustive K = 4 census over the same battery: no survivor; first
// defeats at n = 3: 11032128, n = 4: 10103376, n = 5: 97536, n = 6: 624.
constexpr int kCensusFrontier = 6;
constexpr double kCensusN3Share = 11032128.0 / 21233664.0;
constexpr double kCensusN6Share = 624.0 / 21233664.0;

struct Tracer {
  Stage gen{"gen.automaton"};
  Stage bind{"sim.enum.bind"};
  Stage scan{"sim.enum.first_unmet"};
};

/// First defeating grid per automaton (-1 = survivor).
std::vector<int> run_batch(const Battery& b,
                           const std::vector<std::uint64_t>& idx,
                           sim::EnumTelemetry* tel, Tracer* tr) {
  if (tr == nullptr) {
    return sim::sweep_enumeration(
        b.grids, idx.size(), dist::kE10Horizon,
        [&](sim::EnumerationContext& ctx, std::uint64_t i) {
          const sim::TabularAutomaton a =
              dist::line_automaton_at(kK, idx[i]).tabular();
          ctx.bind(a);
          for (std::size_t g = 0; g < ctx.grid_count(); ++g) {
            if (ctx.first_unmet(g) >= 0) return static_cast<int>(g);
          }
          return -1;
        },
        1, nullptr, tel);
  }
  return sim::sweep_enumeration(
      b.grids, idx.size(), dist::kE10Horizon,
      [&](sim::EnumerationContext& ctx, std::uint64_t i) {
        const sim::TabularAutomaton a = tr->gen.time(
            [&] { return dist::line_automaton_at(kK, idx[i]).tabular(); });
        tr->bind.time([&] { ctx.bind(a); }, i);
        for (std::size_t g = 0; g < ctx.grid_count(); ++g) {
          if (tr->scan.time([&] { return ctx.first_unmet(g); }, g) >= 0) {
            return static_cast<int>(g);
          }
        }
        return -1;
      },
      1, nullptr, tel);
}

struct Sweep {
  FrontierSummary summary;
  std::vector<double> batch_rates;
  double busy_s = 0;
  sim::EnumTelemetry telemetry;
  /// The first batch, kept for re-certification.
  std::vector<std::uint64_t> first_idx;
  std::vector<int> first_defeat;
};

/// Batches until `seconds` of batch time are spent; `between` runs after
/// every batch, outside the timed windows.
void sweep_for(const Battery& b, Rng& rng, double seconds, Tracer* tr,
               Sweep& s, const std::function<void()>& between = {}) {
  const std::uint64_t count = dist::line_automaton_count(kK);
  std::vector<std::uint64_t> idx(kBatch);
  do {
    for (auto& x : idx) x = rng.below(count);
    const std::uint64_t t0 = rvt::obs::now_ns();
    const std::vector<int> defeat = run_batch(b, idx, &s.telemetry, tr);
    const double dt = seconds_since(t0);
    s.busy_s += dt;
    s.batch_rates.push_back(static_cast<double>(kBatch) / dt);
    for (const int g : defeat) {
      if (g < 0) {
        ++s.summary.survivors;
        continue;
      }
      const int n = b.trees[g].t.node_count();
      s.summary.frontier = std::max(s.summary.frontier, n);
      s.summary.first_n3 += n == 3;
    }
    s.summary.sampled += kBatch;
    if (s.first_idx.empty()) {
      s.first_idx = idx;
      s.first_defeat = defeat;
    }
    if (between) between();
  } while (s.busy_s < seconds);
}

}  // namespace

std::string frontier_violation(const FrontierSummary& s) {
  if (s.sampled == 0) return "nothing sampled";
  if (s.survivors != 0) {
    return std::to_string(s.survivors) + " survivors (census: 0)";
  }
  if (s.frontier < 3 || s.frontier > kCensusFrontier) {
    return "frontier n = " + std::to_string(s.frontier) + " outside [3, " +
           std::to_string(kCensusFrontier) + "]";
  }
  // A sample this large misses every n = 6 defeat with probability
  // below e^-20.
  if (s.sampled * kCensusN6Share > 20 && s.frontier != kCensusFrontier) {
    return "frontier n = " + std::to_string(s.frontier) + " but a sample of " +
           std::to_string(s.sampled) + " reaches n = 6";
  }
  const double share = static_cast<double>(s.first_n3) / s.sampled;
  const double tol = 6 * 0.5 / std::sqrt(static_cast<double>(s.sampled));
  if (std::abs(share - kCensusN3Share) > tol) {
    return "n = 3 defeat share " + std::to_string(share) + " vs census " +
           std::to_string(kCensusN3Share);
  }
  return "";
}

Outcome run_frontier_k4(const Options& opt, Report& r, Checks& checks) {
  Battery b;
  std::vector<double> setups = {build_battery(b, kDelays, kCache)};
  Battery spare;
  const auto another_setup = [&] {
    setups.push_back(build_battery(spare, kDelays, kCache));
  };
  Rng rng(opt.seed);
  Outcome out;

  Sweep untraced;
  sweep_for(b, rng, opt.trace ? opt.seconds / 2 : opt.seconds, nullptr,
            untraced, another_setup);
  const double untraced_rate = window_rate(untraced.batch_rates, "untraced");

  const auto check_sweep = [&](const Sweep& s, const char* label) {
    out.attempted += s.summary.sampled;
    const std::string bad = frontier_violation(s.summary);
    checks.expect(bad.empty(),
                  std::string(label) + " sample of " +
                      std::to_string(s.summary.sampled) + ": " +
                      std::to_string(s.summary.survivors) +
                      " survivors, frontier n = " +
                      std::to_string(s.summary.frontier) +
                      (bad.empty() ? "" : " — " + bad));
  };
  check_sweep(untraced, "untraced");

  if (!opt.trace) {
    r.set("automata_per_s", untraced_rate);
    r.set("setup_s", setup_time(setups, "untraced"));
    r.set("peak_rss_mib", peak_rss_mib());
  } else {
    arm_tracing(opt);
    Tracer tr;
    Sweep traced;
    const std::uint64_t t0 = rvt::obs::now_ns();
    Battery traced_battery;
    const double traced_setup_s =
        build_battery(traced_battery, kDelays, kCache);
    sweep_for(traced_battery, rng, opt.seconds / 2, &tr, traced);
    const double wall_s = seconds_since(t0);
    check_sweep(traced, "traced");
    finish_tracing(opt, r, checks);
    report_overhead(r, untraced_rate,
                    window_rate(traced.batch_rates, "traced"));
    report_stages(r, wall_s,
                  {{"setup", traced_setup_s},
                   {"gen", tr.gen.samples().total_s()},
                   {"bind", tr.bind.samples().total_s()},
                   {"scan", tr.scan.samples().total_s()}});

    r.set("gen.s", tr.gen.samples().total_s());
    r.set("gen.p50_ns", tr.gen.samples().quantile(0.5));
    report_calls(r, "sim.enum.bind", tr.bind.samples());
    report_calls(r, "sim.enum.first_unmet", tr.scan.samples());
    report_enum_telemetry(r, traced.telemetry, traced.summary.sampled);

    std::vector<sim::TabularAutomaton> sample;
    for (std::size_t i = 0; i < kReplayed; ++i) {
      sample.push_back(
          dist::line_automaton_at(kK, untraced.first_idx[i]).tabular());
    }
    replay_engine(b.grids, sample, dist::kE10Horizon, r);
    probe_dist(opt.scratch + "/probe-dist", r);
    probe_net_idle_coordinator(opt.scratch + "/probe-coord", opt.seed, r);
  }

  // Re-certify first-defeat witnesses of a seeded subsample against the
  // reference stepper, outside every timed region.
  std::size_t agreed = 0;
  for (std::size_t i = 0; i < kRecertified; ++i) {
    const std::size_t at = rng.below(untraced.first_idx.size());
    const auto a =
        dist::line_automaton_at(kK, untraced.first_idx[at]).tabular();
    agreed += reference_first_defeat(b.grids, a, dist::kE10Horizon) ==
              untraced.first_defeat[at];
  }
  checks.expect(agreed == kRecertified,
                std::to_string(agreed) + "/" + std::to_string(kRecertified) +
                    " sampled automata: reference first defeat == sweep");
  if (opt.trace) {
    r.set("check.recertified", static_cast<double>(kRecertified));
  }
  out.failed += checks.failed();
  return out;
}

void self_check_frontier(Checks& checks) {
  // A few hundred seeded K = 4 automata on lines n <= 8, through the
  // frontier's first_unmet path, against the reference stepper.
  Battery b;
  b.trees = dist::make_line_battery(8);
  b.grids = dist::make_battery_grids(b.trees, /*with_delays=*/false);
  Rng rng(7);
  std::vector<std::uint64_t> idx(400);
  for (auto& x : idx) x = rng.below(dist::line_automaton_count(kK));
  const std::vector<int> got = run_batch(b, idx, nullptr, nullptr);
  std::size_t agreed = 0;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    const auto a = dist::line_automaton_at(kK, idx[i]).tabular();
    agreed += reference_first_defeat(b.grids, a, dist::kE10Horizon) == got[i];
  }
  checks.expect(agreed == idx.size(),
                "frontier path: " + std::to_string(agreed) + "/" +
                    std::to_string(idx.size()) +
                    " first defeats match the reference on lines n <= 8");

  const std::uint64_t n = 2000000;
  const FrontierSummary good{n, 0, 6,
                             static_cast<std::uint64_t>(n * kCensusN3Share)};
  FrontierSummary survivor = good, beyond = good, short_of = good, skew = good;
  survivor.survivors = 1;
  beyond.frontier = 7;
  short_of.frontier = 5;
  skew.first_n3 = n / 2 - n / 50;
  checks.expect(frontier_violation(good).empty() &&
                    !frontier_violation(survivor).empty() &&
                    !frontier_violation(beyond).empty() &&
                    !frontier_violation(short_of).empty() &&
                    !frontier_violation(skew).empty(),
                "frontier check refuses a survivor, a frontier off n = 6 "
                "and a skewed sample");
}

}  // namespace rvtbench
