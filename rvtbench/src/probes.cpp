#include "probes.hpp"

#include <algorithm>
#include <filesystem>
#include <optional>
#include <set>

#include "dist/journal.hpp"
#include "dist/ledger.hpp"
#include "dist/shard_plan.hpp"
#include "lowerbound/verify.hpp"
#include "sim/compiled.hpp"
#include "sim/orbit_cache.hpp"
#include "svc/coordinator.hpp"
#include "svc/net_store.hpp"

namespace rvtbench {

namespace sim = rvt::sim;

namespace {

void set_quantiles(Report& r, const std::string& prefix, const Samples& s,
                   double scale = 1.0) {
  const std::string unit = scale == 1.0 ? "_ns" : "_us";
  r.set(prefix + "_p50" + unit, s.quantile(0.50) / scale);
  r.set(prefix + "_p99" + unit, s.quantile(0.99) / scale);
}

std::vector<rvt::tree::NodeId> unique_starts(const sim::EnumGrid& g) {
  std::vector<rvt::tree::NodeId> s(g.starts.begin(), g.starts.end());
  std::sort(s.begin(), s.end());
  s.erase(std::unique(s.begin(), s.end()), s.end());
  return s;
}

}  // namespace

double build_battery(Battery& b, bool with_delays, bool with_cache) {
  const std::uint64_t t0 = rvt::obs::now_ns();
  b.trees = rvt::dist::make_line_battery(14);
  b.grids = rvt::dist::make_battery_grids(b.trees, with_delays);
  std::optional<sim::OrbitCache> cache;
  if (with_cache) cache.emplace();
  sim::EnumerationContext ctx(b.grids, rvt::dist::kE10Horizon,
                              with_cache ? &*cache : nullptr);
  return seconds_since(t0);
}

void report_enum_telemetry(Report& r, const sim::EnumTelemetry& t,
                           std::uint64_t automata) {
  r.set("sim.enum.queries", static_cast<double>(t.queries));
  r.set("sim.enum.bindings", static_cast<double>(t.bindings));
  r.set("sim.enum.orbits_extracted", static_cast<double>(t.orbits_extracted));
  r.set("sim.enum.canonical_collapses",
        static_cast<double>(t.canonical_collapses));
  r.set("sim.enum.queries_per_automaton",
        static_cast<double>(t.queries) / static_cast<double>(automata));
}

void replay_engine(std::span<const sim::EnumGrid> grids,
                   const std::vector<sim::TabularAutomaton>& automata,
                   std::uint64_t max_rounds, Report& r) {
  Stage rebind("sim.engine.rebind"), warm("sim.engine.warm_orbits"),
      orbit("sim.engine.orbit"), coll("sim.engine.cycle_pair_collisions"),
      snap("sim.engine.snapshot_orbits"), verdict("sim.verdict.query"),
      key("sim.cache.canonical_key"), acquire("sim.cache.acquire"),
      publish("sim.cache.publish");
  if (automata.empty()) return;

  std::vector<sim::CompiledConfigEngine> engines;
  std::vector<std::vector<rvt::tree::NodeId>> starts;
  std::vector<sim::OrbitKey> tree_keys;
  for (const sim::EnumGrid& g : grids) {
    engines.emplace_back(*g.tree, automata.front());
    starts.push_back(unique_starts(g));
    tree_keys.push_back(sim::tree_orbit_key(*g.tree));
  }
  sim::OrbitCache cache;
  std::set<std::pair<std::uint32_t, std::uint32_t>> roots;
  for (const sim::TabularAutomaton& a : automata) {
    const sim::OrbitKey akey =
        key.time([&] { return sim::canonical_automaton_key(a); });
    for (std::size_t g = 0; g < grids.size(); ++g) {
      sim::CompiledConfigEngine& eng = engines[g];
      rebind.time([&] { eng.rebind(a); });
      warm.time([&] { eng.warm_orbits(starts[g]); });
      roots.clear();
      const std::size_t queries = grids[g].query_count();
      for (std::size_t q = 0; q < queries; ++q) {
        const sim::GatherQuery gq = grids[g].query(q);
        const std::uint32_t ra = eng.orbit(gq.starts[0]).cycle_root;
        const std::uint32_t rb = eng.orbit(gq.starts[1]).cycle_root;
        if (roots.emplace(ra, rb).second) {
          coll.time([&] { return eng.cycle_pair_collisions(ra, rb); });
        }
        const rvt::sim::RunConfig cfg{gq.starts[0], gq.starts[1],
                                      gq.delays[0], gq.delays[1],
                                      max_rounds};
        verdict.time(
            [&] { return sim::verify_never_meet_compiled(eng, eng, cfg); });
      }
      auto set = snap.time([&] { return eng.snapshot_orbits(); });
      const sim::OrbitKey k = sim::combine_orbit_keys(tree_keys[g], akey);
      if (acquire.time([&] { return cache.acquire(k); }) == nullptr) {
        publish.time([&] { cache.publish(k, std::move(set)); });
      }
      // Lazy single-start extraction on a fresh binding.
      eng.rebind(a);
      for (const rvt::tree::NodeId s : starts[g]) {
        orbit.time([&] { return &eng.orbit(s); });
      }
    }
  }
  r.set("sim.engine.replay_automata", static_cast<double>(automata.size()));
  set_quantiles(r, "sim.engine.rebind", rebind.samples());
  set_quantiles(r, "sim.engine.warm_orbits", warm.samples());
  set_quantiles(r, "sim.engine.orbit", orbit.samples());
  set_quantiles(r, "sim.engine.cycle_pair_collisions", coll.samples());
  set_quantiles(r, "sim.engine.snapshot_orbits", snap.samples());
  r.set("sim.verdict.queries", static_cast<double>(verdict.samples().calls()));
  set_quantiles(r, "sim.verdict.query", verdict.samples());
  r.set("sim.verdict.query_mean_ns", verdict.samples().mean_ns());
  set_quantiles(r, "sim.cache.canonical_key", key.samples());
  set_quantiles(r, "sim.cache.acquire", acquire.samples());
  set_quantiles(r, "sim.cache.publish", publish.samples());
}

void probe_dist(const std::string& dir, Report& r) {
  constexpr int kLedgerAppends = 200;
  constexpr int kJournalRecords = 4000;
  std::filesystem::create_directories(dir);
  const rvt::dist::ShardId fp{0x5eed, 0x2010};
  Stage append("dist.ledger.append"), record("dist.journal.record");
  {
    auto ledger = rvt::dist::LedgerWriter::create(
        rvt::dist::ledger_path(dir), {fp, kLedgerAppends});
    for (int i = 0; i < kLedgerAppends; ++i) {
      const rvt::dist::LedgerRecord rec{rvt::dist::LedgerEvent::kGrant,
                                        static_cast<std::uint64_t>(i),
                                        static_cast<std::uint64_t>(i + 1)};
      append.time([&] { ledger.append(rec); });
    }
  }
  {
    const rvt::dist::JournalHeader h{{0x1, 0x2}, fp, 0, kJournalRecords};
    auto journal =
        rvt::dist::JournalWriter::create(dir + "/probe.journal", h);
    for (std::uint64_t i = 0; i < kJournalRecords; ++i) {
      record.time([&] { journal.record(i, i % 7); });
    }
  }
  set_quantiles(r, "dist.ledger.append", append.samples(), 1000.0);
  set_quantiles(r, "dist.journal.record", record.samples(), 1000.0);
  std::filesystem::remove_all(dir);
}

void probe_net_load(std::uint16_t port, std::uint64_t seed, Report& r) {
  constexpr int kLoads = 1000;
  rvt::svc::NetOrbitStore store("127.0.0.1", port, "rvtbench-probe");
  Rng rng(seed ^ 0x6e65742d6c6f6164ULL);
  Stage load("net.load");
  for (int i = 0; i < kLoads; ++i) {
    const sim::OrbitKey k{rng.next(), rng.next()};
    load.time([&] { return store.load(k); });
  }
  set_quantiles(r, "net.load", load.samples(), 1000.0);
}

void probe_net_idle_coordinator(const std::string& dir, std::uint64_t seed,
                                Report& r) {
  const auto w = rvt::dist::EnumWorkload::parse("e10:3");
  rvt::svc::CoordinatorConfig cfg;
  cfg.journal_dir = dir;
  {
    rvt::svc::Coordinator coord(rvt::dist::make_shard_plan(*w, 1), cfg);
    probe_net_load(coord.port(), seed, r);
  }
  std::filesystem::remove_all(dir);
}

std::uint64_t reference_defeats(std::span<const sim::EnumGrid> grids,
                                const sim::TabularAutomaton& a,
                                std::uint64_t max_rounds) {
  std::uint64_t defeats = 0;
  for (const sim::EnumGrid& g : grids) {
    for (std::size_t q = 0; q < g.query_count(); ++q) {
      const sim::GatherQuery gq = g.query(q);
      sim::TabularAutomatonAgent x(a), y(a);
      const auto v = rvt::lowerbound::verify_never_meet_reference(
          *g.tree, x, y,
          {gq.starts[0], gq.starts[1], gq.delays[0], gq.delays[1],
           max_rounds});
      if (!v.met) ++defeats;
    }
  }
  return defeats;
}

int reference_first_defeat(std::span<const sim::EnumGrid> grids,
                           const sim::TabularAutomaton& a,
                           std::uint64_t max_rounds) {
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const sim::EnumGrid& grid = grids[g];
    for (std::size_t q = 0; q < grid.query_count(); ++q) {
      const sim::GatherQuery gq = grid.query(q);
      sim::TabularAutomatonAgent x(a), y(a);
      const auto v = rvt::lowerbound::verify_never_meet_reference(
          *grid.tree, x, y,
          {gq.starts[0], gq.starts[1], gq.delays[0], gq.delays[1],
           max_rounds});
      if (!v.met) return static_cast<int>(g);
    }
  }
  return -1;
}

}  // namespace rvtbench
