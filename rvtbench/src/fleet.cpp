// fleet-e10: the default distributed deployment. An in-process
// svc::Coordinator with only a journal directory (the `rvt_cli serve`
// defaults: no orbit-cache directory) and two svc::run_worker threads
// with default WorkerOptions over loopback drain
// dist::make_shard_plan(e10:14, 6); the merged journals must total the
// committed E10 profile count. A run repeats whole campaigns, each with
// a fresh journal directory.
#include <array>
#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/journal.hpp"
#include "dist/ledger.hpp"
#include "dist/merge.hpp"
#include "dist/runner.hpp"
#include "dist/shard_plan.hpp"
#include "dist/workload.hpp"
#include "probes.hpp"
#include "svc/coordinator.hpp"
#include "svc/worker.hpp"
#include "workloads.hpp"

namespace rvtbench {

namespace sim = rvt::sim;
namespace dist = rvt::dist;
namespace svc = rvt::svc;

namespace {

constexpr const char* kSpec = "e10:14";
constexpr unsigned kShards = 6;
constexpr int kWorkers = 2;
constexpr int kMinCampaigns = 3;
constexpr std::size_t kRecertified = 16;
constexpr std::size_t kReplayed = 64;
constexpr auto kDrainTimeout = std::chrono::seconds(120);

struct Campaign {
  double setup_s = 0;  ///< parse + plan + coordinator + both workers hello'd
  double drain_s = 0;  ///< until every shard sealed and workers returned
  double merge_s = 0;  ///< merge_journals
  double wall_s = 0;
  std::uint64_t count = 0;
  std::uint64_t merged = 0;
  bool complete = false;
  std::string error;
  svc::ServiceReport rep;
  std::array<svc::WorkerReport, kWorkers> workers;
  std::array<double, kWorkers> busy_s{};
  std::uint64_t journal_bytes = 0;
  std::uint64_t ledger_records = 0;

  double rate() const { return count / (drain_s + merge_s); }
  std::uint64_t failed_leases() const {
    std::uint64_t revoked = 0;
    for (const auto& w : workers) revoked += w.revoked;
    return rep.shards_requeued + rep.lease_expiries + revoked +
           rep.shards_quarantined;
  }
};

using Probe = std::function<void(svc::Coordinator&, const dist::EnumWorkload&,
                                 const dist::ShardPlan&)>;

struct Tracer {
  Stage setup{"fleet.setup"};
  Stage drain{"fleet.drain"};
  Stage merge{"fleet.merge"};
};

Campaign run_campaign(const std::string& spec, const std::string& dir,
                      Tracer* tr, const Probe& probe) {
  static const std::uint32_t worker_span = rvt::obs::intern("fleet.run_worker");
  Campaign c;
  const std::uint64_t t0 = rvt::obs::now_ns();
  const auto w = dist::EnumWorkload::parse(spec);
  const dist::ShardPlan plan = dist::make_shard_plan(*w, kShards);
  c.count = plan.count;
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = dir;
  svc::Coordinator coord(plan, cfg);

  std::array<std::string, kWorkers> errors;
  std::atomic<int> returned{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < kWorkers; ++i) {
    threads.emplace_back([&, i] {
      const std::uint64_t w0 = rvt::obs::now_ns();
      try {
        svc::WorkerOptions wo;
        wo.name = "w";
        wo.name += std::to_string(i + 1);
        c.workers[i] = svc::run_worker("127.0.0.1", coord.port(), wo);
      } catch (const std::exception& e) {
        errors[i] = e.what();
      }
      const std::uint64_t w1 = rvt::obs::now_ns();
      c.busy_s[i] = static_cast<double>(w1 - w0) * 1e-9;
      rvt::obs::record_span(worker_span, w0, w1, static_cast<std::uint64_t>(i));
      ++returned;
    });
  }
  // A worker that fails returns early; stop waiting for it then rather
  // than at the deadline.
  const auto deadline = std::chrono::steady_clock::now() + kDrainTimeout;
  const auto waiting = [&] {
    return returned.load() == 0 && std::chrono::steady_clock::now() < deadline;
  };
  while (coord.report().runners_seen < kWorkers && waiting()) {
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  const std::uint64_t t2 = rvt::obs::now_ns();
  while (!coord.wait_complete(std::chrono::milliseconds(50)) && waiting()) {
  }
  for (auto& t : threads) t.join();
  c.complete = coord.wait_complete(std::chrono::milliseconds(0));
  const std::uint64_t t3 = rvt::obs::now_ns();
  try {
    c.merged = dist::merge_journals(plan, dir).total;
  } catch (const std::exception& e) {
    c.error = std::string("merge: ") + e.what();
  }
  const std::uint64_t t4 = rvt::obs::now_ns();
  c.setup_s = static_cast<double>(t2 - t0) * 1e-9;
  c.drain_s = static_cast<double>(t3 - t2) * 1e-9;
  c.merge_s = static_cast<double>(t4 - t3) * 1e-9;
  c.wall_s = static_cast<double>(t4 - t0) * 1e-9;
  if (tr != nullptr) {
    tr->setup.record(t0, t2);
    tr->drain.record(t2, t3);
    tr->merge.record(t3, t4);
  }
  c.rep = coord.report();
  c.complete = c.complete && c.rep.all_complete();
  for (const auto& e : errors) {
    if (!e.empty() && c.error.empty()) c.error = "worker: " + e;
  }
  for (const dist::ShardSpec& s : plan.shards) {
    std::error_code ec;
    const auto bytes =
        std::filesystem::file_size(dist::journal_path(dir, s), ec);
    if (!ec) c.journal_bytes += bytes;
  }
  if (const auto ls = dist::read_ledger(dist::ledger_path(dir))) {
    c.ledger_records = ls->records.size();
  }
  if (probe) probe(coord, *w, plan);
  coord.stop();
  std::filesystem::remove_all(dir);
  return c;
}

/// dist::run_shard over every shard of the plan, one after another in
/// this process (in-memory cache shared across shards); automata/s.
double serial_baseline(const std::string& dir, const dist::EnumWorkload& w,
                       const dist::ShardPlan& plan, Checks& checks) {
  sim::OrbitCache cache;
  std::uint64_t total = 0;
  const std::uint64_t t0 = rvt::obs::now_ns();
  for (std::size_t s = 0; s < plan.shards.size(); ++s) {
    total += dist::run_shard(w, plan, s, dir, &cache).sum;
  }
  const double dt = seconds_since(t0);
  std::filesystem::remove_all(dir);
  checks.expect(fleet_total_ok(total, true),
                "serial run_shard baseline totals " + std::to_string(total));
  return static_cast<double>(plan.count) / dt;
}

}  // namespace

bool fleet_total_ok(std::uint64_t merged, bool all_complete,
                    std::uint64_t expected) {
  return all_complete && merged == expected;
}

Outcome run_fleet_e10(const Options& opt, Report& r, Checks& checks) {
  Outcome out;
  int serial = 0;
  const auto next_dir = [&] {
    return opt.scratch + "/fleet-" + std::to_string(serial++);
  };
  const auto check_campaign = [&](const Campaign& c, const char* label) {
    out.attempted += c.rep.leases_granted;
    out.failed += c.failed_leases();
    checks.expect(c.error.empty() && fleet_total_ok(c.merged, c.complete),
                  std::string(label) + " campaign: merged " +
                      std::to_string(c.merged) + " == " +
                      std::to_string(kFleetE10Defeats) +
                      (c.complete ? ", all_complete" : ", INCOMPLETE") +
                      (c.error.empty() ? "" : " — " + c.error));
    std::cout << label << " campaign: setup " << c.setup_s << " s, drain "
              << c.drain_s << " s, merge " << c.merge_s << " s\n";
  };
  const auto run_for = [&](double seconds, Tracer* tr, const Probe& first_probe,
                           std::vector<Campaign>& cs) {
    double elapsed = 0;
    while (cs.size() < kMinCampaigns || elapsed < seconds) {
      cs.push_back(run_campaign(kSpec, next_dir(), tr,
                                cs.empty() ? first_probe : Probe{}));
      check_campaign(cs.back(), tr == nullptr ? "untraced" : "traced");
      elapsed += cs.back().wall_s;
    }
  };
  const auto median_of = [](const std::vector<Campaign>& cs, auto field) {
    std::vector<double> v;
    for (const Campaign& c : cs) v.push_back(field(c));
    return median(v);
  };

  std::vector<Campaign> untraced;
  run_for(opt.trace ? opt.seconds / 2 : opt.seconds, nullptr, {}, untraced);
  const auto rates = [](const std::vector<Campaign>& cs) {
    std::vector<double> v;
    for (const Campaign& c : cs) v.push_back(c.rate());
    return v;
  };
  const double untraced_rate = window_rate(rates(untraced), "untraced");

  if (!opt.trace) {
    r.set("automata_per_s", untraced_rate);
    std::vector<double> setups;
    for (const Campaign& c : untraced) setups.push_back(c.setup_s);
    r.set("setup_s", setup_time(setups, "untraced"));
    r.set("peak_rss_mib", peak_rss_mib());
  } else {
    double serial_rate = 0;
    const Probe probes = [&](svc::Coordinator& coord,
                             const dist::EnumWorkload& w,
                             const dist::ShardPlan& plan) {
      probe_net_load(coord.port(), opt.seed, r);
      probe_dist(opt.scratch + "/probe-dist", r);
      serial_rate = serial_baseline(opt.scratch + "/serial", w, plan, checks);
      Rng rng(opt.seed ^ 0x7265706c6179ULL);
      std::vector<sim::TabularAutomaton> sample;
      for (std::size_t i = 0; i < kReplayed; ++i) {
        sample.push_back(w.automaton_at(rng.below(w.count())));
      }
      replay_engine(w.grids(), sample, w.max_rounds(), r);
    };
    arm_tracing(opt);
    Tracer tr;
    std::vector<Campaign> traced;
    run_for(opt.seconds / 2, &tr, probes, traced);
    const rvt::obs::TraceFile tf = finish_tracing(opt, r, checks);
    report_overhead(r, untraced_rate, window_rate(rates(traced), "traced"));
    double wall = 0;
    for (const Campaign& c : traced) wall += c.wall_s;
    report_stages(r, wall,
                  {{"setup", tr.setup.samples().total_s()},
                   {"drain", tr.drain.samples().total_s()},
                   {"merge", tr.merge.samples().total_s()}});

    // Worker-side spans the library records itself, read back from the
    // trace file; per campaign.
    double compute_ns = 0, flush_ns = 0;
    for (const auto& chunk : tf.chunks) {
      for (const auto& e : chunk.events) {
        const std::string& name = chunk.names.at(e.name_id);
        if (name == "svc.worker.compute") compute_ns += e.dur_ns;
        if (name == "svc.worker.flush") flush_ns += e.dur_ns;
      }
    }
    const double n = static_cast<double>(traced.size());
    r.set("svc.worker.compute_s", compute_ns * 1e-9 / n);
    r.set("svc.worker.flush_s", flush_ns * 1e-9 / n);
    r.set("svc.worker1.busy_s",
          median_of(traced, [](const Campaign& c) { return c.busy_s[0]; }));
    r.set("svc.worker2.busy_s",
          median_of(traced, [](const Campaign& c) { return c.busy_s[1]; }));

    const Campaign& c = traced.front();
    r.set("dist.journal.bytes", static_cast<double>(c.journal_bytes));
    r.set("dist.ledger.records", static_cast<double>(c.ledger_records));
    r.set("dist.merge_s",
          median_of(traced, [](const Campaign& x) { return x.merge_s; }));
    r.set("svc.lease.granted", static_cast<double>(c.rep.leases_granted));
    r.set("svc.lease.requeued", static_cast<double>(c.rep.shards_requeued));
    r.set("svc.lease.expired", static_cast<double>(c.rep.lease_expiries));
    std::uint64_t revoked = 0, chunks = 0;
    sim::EnumTelemetry t;
    for (const auto& wr : c.workers) {
      revoked += wr.revoked;
      chunks += wr.chunks;
      t.queries += wr.telemetry.queries;
      t.bindings += wr.telemetry.bindings;
      t.cache_hits += wr.telemetry.cache_hits;
      t.cache_misses += wr.telemetry.cache_misses;
      t.orbits_extracted += wr.telemetry.orbits_extracted;
      t.canonical_collapses += wr.telemetry.canonical_collapses;
    }
    r.set("svc.lease.revoked", static_cast<double>(revoked));
    r.set("net.chunks", static_cast<double>(chunks));
    r.set("net.tier.gets", static_cast<double>(c.rep.tier_gets));
    r.set("net.tier.hits", static_cast<double>(c.rep.tier_hits));
    r.set("net.tier.hit_ratio",
          c.rep.tier_gets == 0
              ? 0.0
              : static_cast<double>(c.rep.tier_hits) / c.rep.tier_gets);
    r.set("fleet.time_to_first_seal_s",
          median_of(traced, [](const Campaign& x) {
            return x.rep.time_to_first_sealed_shard_seconds;
          }));
    r.set("fleet.serial_automata_per_s", serial_rate);
    r.set("fleet.scaling_efficiency",
          serial_rate > 0 ? untraced_rate / (kWorkers * serial_rate) : 0.0);
    report_enum_telemetry(r, t, c.count);
    r.set("sim.cache.hits", static_cast<double>(t.cache_hits));
    r.set("sim.cache.misses", static_cast<double>(t.cache_misses));
    r.set("sim.cache.hit_ratio", t.hit_rate());
  }

  // Re-certify a seeded subsample of per-index values (the defeats()
  // every worker journals) against the reference stepper.
  const auto w = dist::EnumWorkload::parse(kSpec);
  sim::EnumerationContext ctx(w->grids(), w->max_rounds());
  Rng rng(opt.seed ^ 0x7265636572ULL);
  std::size_t agreed = 0;
  for (std::size_t i = 0; i < kRecertified; ++i) {
    const std::uint64_t at = rng.below(w->count());
    agreed += reference_defeats(w->grids(), w->automaton_at(at),
                                w->max_rounds()) == w->defeats(ctx, at);
  }
  checks.expect(agreed == kRecertified,
                std::to_string(agreed) + "/" + std::to_string(kRecertified) +
                    " sampled indices: reference defeats == journaled value");
  if (opt.trace) {
    r.set("check.recertified", static_cast<double>(kRecertified));
  }
  out.failed += checks.failed();
  return out;
}

void self_check_fleet(const std::string& scratch, Checks& checks) {
  const char* spec = "e10:6";
  const auto w = dist::EnumWorkload::parse(spec);
  sim::EnumerationContext ctx(w->grids(), w->max_rounds());
  std::uint64_t single = 0;
  for (std::uint64_t i = 0; i < w->count(); ++i) single += w->defeats(ctx, i);
  const Campaign c = run_campaign(spec, scratch + "/fleet-smoke", nullptr, {});
  checks.expect(c.error.empty() && fleet_total_ok(c.merged, c.complete, single),
                std::string(spec) + " fleet merged " + std::to_string(c.merged) +
                    " == single process " + std::to_string(single));
  checks.expect(!fleet_total_ok(c.merged, false, single) &&
                    !fleet_total_ok(c.merged + 1, c.complete, single),
                "fleet check refuses an incomplete or off-by-one merge");
}

}  // namespace rvtbench
