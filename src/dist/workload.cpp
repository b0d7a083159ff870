#include "dist/workload.hpp"

#include <iterator>
#include <stdexcept>

#include "tree/builders.hpp"
#include "tree/canonical.hpp"

namespace rvt::dist {

std::vector<BatteryTree> make_line_battery(int max_n) {
  std::vector<BatteryTree> out;
  for (int n = 3; n <= max_n; ++n) {
    std::vector<tree::Tree> labelings;
    labelings.push_back(tree::line(n));
    labelings.push_back(tree::line_edge_colored(n, 0));
    labelings.push_back(tree::line_edge_colored(n, 1));
    if (n % 2 == 0) {  // odd edge count: the Thm 3.1 mirror coloring
      labelings.push_back(tree::line_symmetric_colored(n - 1));
    }
    for (auto& t : labelings) {
      BatteryTree bt;
      bt.t = std::move(t);
      const tree::SymmetrizablePairs symmetrizable(bt.t);
      for (tree::NodeId u = 0; u < n; ++u) {
        for (tree::NodeId v = u + 1; v < n; ++v) {
          if (symmetrizable(u, v)) continue;
          bt.pairs.emplace_back(u, v);
        }
      }
      if (!bt.pairs.empty()) out.push_back(std::move(bt));
    }
  }
  return out;
}

std::size_t battery_instances(const std::vector<BatteryTree>& battery) {
  std::size_t n = 0;
  for (const auto& bt : battery) n += bt.pairs.size();
  return n;
}

sim::LineAutomaton line_automaton_at(int K, std::uint64_t idx) {
  sim::LineAutomaton a;
  a.initial = static_cast<int>(idx % K);
  idx /= K;
  std::uint64_t lc = 1;
  for (int i = 0; i < K; ++i) lc *= 3;
  std::uint64_t l = idx % lc;
  std::uint64_t d = idx / lc;
  a.delta.assign(K, {0, 0});
  a.lambda.assign(K, sim::kStay);
  for (int s = 0; s < K; ++s) {
    for (int deg = 0; deg < 2; ++deg) {
      a.delta[s][deg] = static_cast<int>(d % K);
      d /= K;
    }
  }
  for (int s = 0; s < K; ++s) {
    a.lambda[s] = static_cast<int>(l % 3) - 1;
    l /= 3;
  }
  return a;
}

std::uint64_t line_automaton_count(int K) {
  std::uint64_t c = static_cast<std::uint64_t>(K);  // initial states
  for (int i = 0; i < 2 * K; ++i) c *= K;           // delta combos
  for (int i = 0; i < K; ++i) c *= 3;               // lambda combos
  return c;
}

std::vector<sim::EnumGrid> make_battery_grids(
    const std::vector<BatteryTree>& battery, bool with_delays) {
  std::vector<sim::EnumGrid> grids;
  grids.reserve(battery.size());
  for (const auto& bt : battery) {
    sim::EnumGrid grid;
    grid.tree = &bt.t;
    // Exact capacity: every worker, coordinator and shard runner holds a
    // battery, and growth by doubling left ~30% of it unused.
    const std::size_t entries =
        2 * bt.pairs.size() * (with_delays ? std::size(kE10ProfileDelays) : 1);
    grid.starts.reserve(entries);
    grid.delays.reserve(entries);
    for (const auto& [u, v] : bt.pairs) {
      if (with_delays) {
        for (const std::uint64_t d : kE10ProfileDelays) {
          grid.push({u, v, d, 0});
        }
      } else {
        grid.push({u, v, 0, 0});
      }
    }
    grids.push_back(std::move(grid));
  }
  return grids;
}

std::vector<std::pair<int, std::uint64_t>> make_profile_sample() {
  std::vector<std::pair<int, std::uint64_t>> sample;
  for (int K = 1; K <= 3; ++K) {
    const std::uint64_t stride = K < 3 ? 1 : 64;
    for (std::uint64_t idx = 0; idx < line_automaton_count(K);
         idx += stride) {
      sample.emplace_back(K, idx);
    }
  }
  return sample;
}

std::unique_ptr<EnumWorkload> EnumWorkload::parse(const std::string& spec) {
  int max_n = 14;  // the committed BENCH_E10.json battery
  if (spec != "e10") {
    if (spec.rfind("e10:", 0) != 0) {
      throw std::invalid_argument("EnumWorkload: unknown spec '" + spec +
                                  "' (want e10[:<max_n>])");
    }
    std::size_t used = 0;
    try {
      max_n = std::stoi(spec.substr(4), &used);
    } catch (const std::exception&) {
      throw std::invalid_argument("EnumWorkload: bad max_n in '" + spec +
                                  "'");
    }
    if (used != spec.size() - 4 || max_n < 3 || max_n > 64) {
      throw std::invalid_argument(
          "EnumWorkload: max_n must be an integer in [3, 64]");
    }
  }
  std::unique_ptr<EnumWorkload> w(new EnumWorkload());
  w->spec_ = "e10:" + std::to_string(max_n);
  w->battery_ = make_line_battery(max_n);
  // Grids point into battery_, which never changes again — the workload
  // is pinned (no copy/move) precisely so these stay valid.
  w->grids_ = make_battery_grids(w->battery_, /*with_delays=*/true);
  w->sample_ = make_profile_sample();
  return w;
}

sim::TabularAutomaton EnumWorkload::automaton_at(std::uint64_t index) const {
  const auto& [K, idx] = sample_.at(index);
  return line_automaton_at(K, idx).tabular();
}

std::uint64_t EnumWorkload::defeats(sim::EnumerationContext& ctx,
                                    std::uint64_t index) const {
  const sim::TabularAutomaton a = automaton_at(index);
  ctx.bind(a);
  std::uint64_t defeats = 0;
  for (std::size_t g = 0; g < ctx.grid_count(); ++g) {
    defeats += ctx.count_unmet(g);
  }
  return defeats;
}

std::size_t memo_cache_capacity(const EnumWorkload& w) {
  return sim::OrbitCache::capacity_for(w.count());
}

}  // namespace rvt::dist
