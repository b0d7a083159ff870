// campaign-k3: every K = 3 line automaton, visited once per pass in a
// seeded order, against the E10 profile grids (make_line_battery(14) x
// delays {0, 1, 7, 31}) through sweep_enumeration + count_unmet with one
// sweep worker and an in-memory OrbitCache attached — the shape of
// `rvt_cli shard run` and svc::run_worker. Each pass starts from an
// empty cache, as a fresh campaign does.
#include <algorithm>
#include <functional>
#include <iostream>
#include <numeric>
#include <vector>

#include "dist/workload.hpp"
#include "probes.hpp"
#include "sim/enumeration.hpp"
#include "sim/orbit_cache.hpp"
#include "workloads.hpp"

namespace rvtbench {

namespace sim = rvt::sim;
namespace dist = rvt::dist;

namespace {

constexpr int kK = 3;
constexpr bool kDelays = true;  // the E10 profile grids
constexpr bool kCache = true;
constexpr std::size_t kChunk = 1024;  // automata per rate window
constexpr std::size_t kRecertified = 24;
constexpr std::size_t kReplayed = 64;

struct Pass {
  double wall_s = 0;                ///< sum of the chunk windows
  std::vector<double> chunk_rates;  ///< automata/s per window
  std::uint64_t defeats = 0;
  std::vector<std::uint64_t> per_automaton;  ///< in visit order
  sim::EnumTelemetry telemetry;
  sim::OrbitCache::Stats cache;
  std::size_t cache_bytes = 0;
};

struct Tracer {
  Stage gen{"gen.automaton"};
  Stage bind{"sim.enum.bind"};
  Stage scan{"sim.enum.count_unmet"};
};

/// One pass over `order` with a fresh cache: sweep_enumeration calls over
/// consecutive chunks of kChunk automata that share the cache, each chunk
/// one timed window. `between` runs after every chunk, outside the
/// windows.
Pass run_pass(const Battery& b, const std::vector<std::uint64_t>& order,
              Tracer* tr, const std::function<void()>& between = {}) {
  Pass p;
  sim::OrbitCache cache;
  const auto untraced = [&](sim::EnumerationContext& ctx, std::uint64_t idx) {
    const sim::TabularAutomaton a = dist::line_automaton_at(kK, idx).tabular();
    ctx.bind(a);
    std::uint64_t d = 0;
    for (std::size_t g = 0; g < ctx.grid_count(); ++g) d += ctx.count_unmet(g);
    return d;
  };
  const auto traced = [&](sim::EnumerationContext& ctx, std::uint64_t idx) {
    const sim::TabularAutomaton a = tr->gen.time(
        [&] { return dist::line_automaton_at(kK, idx).tabular(); });
    tr->bind.time([&] { ctx.bind(a); }, idx);
    std::uint64_t d = 0;
    for (std::size_t g = 0; g < ctx.grid_count(); ++g) {
      d += tr->scan.time([&] { return ctx.count_unmet(g); }, g);
    }
    return d;
  };
  for (std::size_t begin = 0; begin < order.size(); begin += kChunk) {
    const std::size_t count = std::min(kChunk, order.size() - begin);
    const auto chunk = [&](auto&& fn) {
      return sim::sweep_enumeration(
          b.grids, count, dist::kE10Horizon,
          [&](sim::EnumerationContext& ctx, std::uint64_t i) {
            return fn(ctx, order[begin + i]);
          },
          1, &cache, &p.telemetry);
    };
    const std::uint64_t t0 = rvt::obs::now_ns();
    const std::vector<std::uint64_t> part =
        tr == nullptr ? chunk(untraced) : chunk(traced);
    const double dt = seconds_since(t0);
    p.wall_s += dt;
    p.chunk_rates.push_back(static_cast<double>(count) / dt);
    p.per_automaton.insert(p.per_automaton.end(), part.begin(), part.end());
    if (between) between();
  }
  p.defeats = std::accumulate(p.per_automaton.begin(), p.per_automaton.end(),
                              std::uint64_t{0});
  p.cache = cache.stats();
  p.cache_bytes = cache.bytes();
  return p;
}

std::vector<std::uint64_t> seeded_order(std::uint64_t seed) {
  std::vector<std::uint64_t> order(dist::line_automaton_count(kK));
  std::iota(order.begin(), order.end(), 0);
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }
  return order;
}

}  // namespace

bool campaign_total_ok(std::uint64_t defeats) {
  return defeats == kCampaignK3Defeats;
}

Outcome run_campaign_k3(const Options& opt, Report& r, Checks& checks) {
  Battery b;
  std::vector<double> setups = {build_battery(b, kDelays, kCache)};
  Battery spare;
  const auto another_setup = [&] {
    setups.push_back(build_battery(spare, kDelays, kCache));
  };
  const std::vector<std::uint64_t> order = seeded_order(opt.seed);
  Outcome out;

  const auto check_pass = [&](const Pass& p, const char* label) {
    out.attempted += order.size();
    checks.expect(campaign_total_ok(p.defeats),
                  std::string(label) + " pass: " + std::to_string(p.defeats) +
                      " defeats == " + std::to_string(kCampaignK3Defeats));
    std::cout << label << " pass: " << order.size() << " automata in "
              << p.wall_s << " s, cache hit ratio "
              << p.telemetry.hit_rate() << "\n";
  };

  // Untraced passes, each over the whole set, until the budget is spent
  // (at least one).
  std::vector<double> rates;
  std::vector<std::uint64_t> per_automaton;  // first pass, re-certified
  double elapsed = 0;
  const double budget = opt.trace ? opt.seconds / 2 : opt.seconds;
  do {
    Pass p = run_pass(b, order, nullptr, another_setup);
    check_pass(p, "untraced");
    elapsed += p.wall_s;
    rates.insert(rates.end(), p.chunk_rates.begin(), p.chunk_rates.end());
    if (per_automaton.empty()) per_automaton = std::move(p.per_automaton);
  } while (elapsed < budget);
  const double untraced_rate = window_rate(rates, "untraced");

  if (!opt.trace) {
    r.set("automata_per_s", untraced_rate);
    r.set("setup_s", setup_time(setups, "untraced"));
    r.set("peak_rss_mib", peak_rss_mib());
  } else {
    arm_tracing(opt);
    Tracer tr;
    const std::uint64_t t0 = rvt::obs::now_ns();
    Battery traced_battery;
    const double traced_setup_s =
        build_battery(traced_battery, kDelays, kCache);
    const Pass p = run_pass(traced_battery, order, &tr);
    const double wall_s = seconds_since(t0);
    check_pass(p, "traced");
    finish_tracing(opt, r, checks);
    report_overhead(r, untraced_rate, window_rate(p.chunk_rates, "traced"));
    report_stages(r, wall_s,
                  {{"setup", traced_setup_s},
                   {"gen", tr.gen.samples().total_s()},
                   {"bind", tr.bind.samples().total_s()},
                   {"scan", tr.scan.samples().total_s()}});

    r.set("gen.s", tr.gen.samples().total_s());
    r.set("gen.p50_ns", tr.gen.samples().quantile(0.5));
    report_calls(r, "sim.enum.bind", tr.bind.samples());
    report_calls(r, "sim.enum.count_unmet", tr.scan.samples());
    report_enum_telemetry(r, p.telemetry, order.size());
    r.set("sim.cache.hits", static_cast<double>(p.cache.hits));
    r.set("sim.cache.misses", static_cast<double>(p.cache.misses));
    r.set("sim.cache.waits", static_cast<double>(p.cache.waits));
    r.set("sim.cache.publishes", static_cast<double>(p.cache.publishes));
    r.set("sim.cache.rejects", static_cast<double>(p.cache.rejects));
    r.set("sim.cache.hit_ratio", p.telemetry.hit_rate());
    r.set("sim.cache.bytes", static_cast<double>(p.cache_bytes));

    std::vector<sim::TabularAutomaton> sample;
    Rng rng(opt.seed ^ 0x7265706c6179ULL);
    for (std::size_t i = 0; i < kReplayed; ++i) {
      sample.push_back(
          dist::line_automaton_at(kK, order[rng.below(order.size())])
              .tabular());
    }
    replay_engine(b.grids, sample, dist::kE10Horizon, r);
    probe_dist(opt.scratch + "/probe-dist", r);
    probe_net_idle_coordinator(opt.scratch + "/probe-coord", opt.seed, r);
  }

  // Re-certify a seeded subsample of per-automaton totals against the
  // reference stepper, outside every timed region.
  Rng rng(opt.seed ^ 0x7265636572ULL);
  std::size_t agreed = 0;
  for (std::size_t i = 0; i < kRecertified; ++i) {
    const std::size_t at = rng.below(order.size());
    const auto a = dist::line_automaton_at(kK, order[at]).tabular();
    agreed += reference_defeats(b.grids, a, dist::kE10Horizon) ==
              per_automaton[at];
  }
  checks.expect(agreed == kRecertified,
                std::to_string(agreed) + "/" + std::to_string(kRecertified) +
                    " sampled automata: reference defeats == campaign");
  if (opt.trace) {
    r.set("check.recertified", static_cast<double>(kRecertified));
  }
  out.failed += checks.failed();
  return out;
}

void self_check_campaign(Checks& checks) {
  // A few hundred seeded K = 3 automata on lines n <= 6, through the
  // campaign's cached count_unmet path, against the reference stepper.
  const auto trees = dist::make_line_battery(6);
  const auto grids = dist::make_battery_grids(trees, /*with_delays=*/true);
  std::vector<std::uint64_t> order = seeded_order(7);
  order.resize(300);
  sim::OrbitCache cache;
  const auto got = sim::sweep_enumeration(
      grids, order.size(), dist::kE10Horizon,
      [&](sim::EnumerationContext& ctx, std::uint64_t i) {
        const auto a = dist::line_automaton_at(kK, order[i]).tabular();
        ctx.bind(a);
        std::uint64_t d = 0;
        for (std::size_t g = 0; g < ctx.grid_count(); ++g) {
          d += ctx.count_unmet(g);
        }
        return d;
      },
      1, &cache);
  std::size_t agreed = 0;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto a = dist::line_automaton_at(kK, order[i]).tabular();
    agreed += reference_defeats(grids, a, dist::kE10Horizon) == got[i];
  }
  checks.expect(agreed == order.size(),
                "campaign path: " + std::to_string(agreed) + "/" +
                    std::to_string(order.size()) +
                    " automata match the reference on lines n <= 6");
  checks.expect(campaign_total_ok(kCampaignK3Defeats) &&
                    !campaign_total_ok(kCampaignK3Defeats - 1) &&
                    !campaign_total_ok(kCampaignK3Defeats + 1),
                "campaign check accepts only " +
                    std::to_string(kCampaignK3Defeats));
}

}  // namespace rvtbench
