// E15 — service tier: the E10 workload dispatched by a network
// coordinator to runner daemons over loopback TCP must merge
// bit-identical to the single-process count, with and without a
// runner dying mid-lease.
//
// Two fleet phases against an in-process svc::Coordinator, with the
// runner daemons launched as real `rvt_cli worker` subprocesses (the
// same binary a remote host would run):
//
//  * CLEAN FLEET: 2 workers drain the sharded battery, each memoizing
//    defeat counts in its own in-memory cache. The merged journal total
//    must equal the single-process total — 5426593 on the default
//    battery — and the live metrics endpoint's snapshot must be
//    self-consistent with the merge: its committed_defeats IS the
//    merged total and its shards_completed IS the plan's shard count.
//
//  * RUNNER-KILL CHAOS: 3 workers, one launched with
//    RVT_FAILPOINTS='worker.index=crash@hit:25' so it dies (_exit)
//    mid-first-lease. The unsealed disconnect must requeue the shard
//    (requeues >= 1 — zero means the fault never fired, which would
//    make the drill vacuous) and the surviving workers must still
//    merge bit-identical with nothing quarantined.
//
// An optional argv[1] (max_n, default 14) shrinks the battery for
// quick/CI-reduced runs; the 5426593 constant is only asserted on the
// default. The BENCH_E15.json report carries the schema's "service"
// block (runner count, lease churn, journal bytes streamed,
// time-to-first-sealed-shard) summed over both phases.
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "bench_common.hpp"
#include "dist/shard_plan.hpp"
#include "dist/workload.hpp"
#include "net/socket.hpp"
#include "obs/enum_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/simd.hpp"
#include "svc/coordinator.hpp"

namespace {

using namespace rvt;
using namespace rvt::bench;

constexpr std::uint64_t kCommittedE10Defeats = 5426593;
constexpr unsigned kShards = 6;

}  // namespace

int main(int argc, char** argv) {
  rvt::obs::configure_from_env();  // RVT_TRACE_FILE arms tracing here + fleet
  const int max_n = argc > 1 ? std::atoi(argv[1]) : 14;
  bench::header(
      "E15 service tier (network coordinator + runner daemons)",
      "The E10 battery leased shard-by-shard to worker subprocesses over "
      "loopback TCP must merge\nbit-identical to the single-process count "
      "— including when a runner is killed mid-lease — and\nthe live "
      "metrics endpoint must agree with the merged result.");

  bool all_ok = true;
  const std::string scratch =
      "e15-scratch-" + std::to_string(static_cast<int>(::getpid()));
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  const std::string cli = cli_path(argv[0]);

  // ---- single-process baseline -------------------------------------------
  const auto workload =
      dist::EnumWorkload::parse("e10:" + std::to_string(max_n));
  bench::WallTimer single_timer;
  const std::uint64_t single_total = single_process_defeats(*workload);
  const double single_seconds = single_timer.seconds();
  std::cout << "single process (e10:" << max_n << "): " << single_total
            << " defeats (" << single_seconds << " s)\n";
  if (max_n == 14) {
    all_ok &= check(single_total == kCommittedE10Defeats,
                    "single-process total equals the committed 5426593");
  }

  const dist::ShardPlan plan = dist::make_shard_plan(*workload, kShards);
  util::Table table(
      {"phase", "workers", "leases", "requeues", "expiries", "defeats", "ok"});

  // ---- clean fleet: 2 workers --------------------------------------------
  svc::ServiceReport clean_rep;
  double clean_seconds = 0, ttfs = 0;
  {
    std::cout << "\nclean fleet (" << kShards << " shards, 2 workers):\n";
    svc::CoordinatorConfig cfg;
    cfg.journal_dir = scratch + "/clean-journals";
    svc::Coordinator coord(plan, cfg);
    bench::WallTimer fleet_timer;
    const pid_t w1 = spawn_worker(
        cli, coord.port(), {.name = "w1", .log = scratch + "/w1.log"});
    const pid_t w2 = spawn_worker(
        cli, coord.port(), {.name = "w2", .log = scratch + "/w2.log"});
    const bool drained =
        coord.wait_complete(std::chrono::milliseconds(30 * 60 * 1000));
    const bool workers_clean = wait_exit(w1) == 0 && wait_exit(w2) == 0;
    clean_seconds = fleet_timer.seconds();
    clean_rep = coord.report();
    ttfs = clean_rep.time_to_first_sealed_shard_seconds;

    const std::uint64_t merged = merged_total(plan, cfg.journal_dir);
    all_ok &= check(drained && clean_rep.all_complete() &&
                        clean_rep.shards_completed == kShards,
                    "all " + std::to_string(kShards) + " shards sealed");
    all_ok &= check(workers_clean && clean_rep.runners_seen == 2,
                    "both worker daemons exited cleanly");
    all_ok &= check(merged == single_total,
                    "merged " + std::to_string(merged) +
                        " defeats == single-process total");

    // The live metrics snapshot must agree with the merged journals —
    // the endpoint is the same counters the merge validates, so any
    // disagreement means the incremental merge drifted.
    const std::string body =
        net::http_get("127.0.0.1", coord.metrics_port(), "/");
    std::uint64_t m_defeats = 0, m_sealed = 0, m_indices = 0;
    const bool parsed =
        body.find("\"kind\": \"service_metrics\"") != std::string::npos &&
        metrics_u64(body, "committed_defeats", &m_defeats) &&
        metrics_u64(body, "shards_completed", &m_sealed) &&
        metrics_u64(body, "committed_indices", &m_indices);
    all_ok &= check(parsed && m_defeats == merged && m_sealed == kShards &&
                        m_indices == workload->count(),
                    "metrics snapshot is self-consistent with the merge "
                    "(committed_defeats " +
                        std::to_string(m_defeats) + ")");

    // The Prometheus endpoint must expose the same campaign: valid
    // text exposition carrying the lease counters and delay histogram.
    const std::string prom =
        net::http_get("127.0.0.1", coord.metrics_port(), "/metrics");
    std::string prom_err;
    const bool prom_valid = obs::validate_prometheus(prom, &prom_err);
    if (!prom_valid) std::cerr << "  /metrics: " << prom_err << "\n";
    all_ok &= check(
        prom_valid &&
            prom.find("rvt_leases_granted ") != std::string::npos &&
            prom.find("rvt_recovery_resumes ") != std::string::npos &&
            prom.find("rvt_inter_result_delay_ns_bucket") != std::string::npos,
        "/metrics serves valid Prometheus exposition with lease counters "
        "and the delay histogram");
    std::cout << "  fleet wall time " << clean_seconds
              << " s, time-to-first-sealed-shard " << ttfs << " s\n";
    table.row("clean", 2, clean_rep.leases_granted, clean_rep.shards_requeued,
              clean_rep.lease_expiries, merged,
              merged == single_total ? "yes" : "NO");
  }

  // ---- runner-kill chaos: 3 workers, one dies mid-lease ------------------
  svc::ServiceReport chaos_rep;
  double chaos_seconds = 0;
  {
    std::cout << "\nrunner-kill chaos (3 workers, one crashes at its 25th "
              << "index):\n";
    svc::CoordinatorConfig cfg;
    cfg.journal_dir = scratch + "/chaos-journals";
    svc::Coordinator coord(plan, cfg);
    bench::WallTimer fleet_timer;
    const pid_t doomed =
        spawn_worker(cli, coord.port(),
                     {.name = "doomed",
                      .log = scratch + "/doomed.log",
                      .failpoints = "worker.index=crash@hit:25"});
    const pid_t w3 = spawn_worker(
        cli, coord.port(), {.name = "w3", .log = scratch + "/w3.log"});
    const pid_t w4 = spawn_worker(
        cli, coord.port(), {.name = "w4", .log = scratch + "/w4.log"});
    const bool drained =
        coord.wait_complete(std::chrono::milliseconds(30 * 60 * 1000));
    const int doomed_exit = wait_exit(doomed);
    const bool survivors_clean = wait_exit(w3) == 0 && wait_exit(w4) == 0;
    chaos_seconds = fleet_timer.seconds();
    chaos_rep = coord.report();

    const std::uint64_t merged = merged_total(plan, cfg.journal_dir);
    all_ok &= check(doomed_exit != 0,
                    "the doomed worker actually died (exit code " +
                        std::to_string(doomed_exit) + ")");
    // Zero requeues would mean the crash never cost a lease — vacuous.
    all_ok &= check(chaos_rep.shards_requeued >= 1,
                    "the dropped lease was requeued (" +
                        std::to_string(chaos_rep.shards_requeued) +
                        " requeues)");
    all_ok &= check(drained && chaos_rep.all_complete() &&
                        chaos_rep.shards_quarantined == 0 && survivors_clean,
                    "survivors drained every shard, nothing quarantined");
    all_ok &= check(merged == single_total,
                    "chaos merge " + std::to_string(merged) +
                        " defeats == single-process total");
    std::cout << "  fleet wall time " << chaos_seconds << " s\n";
    table.row("runner-kill", 3, chaos_rep.leases_granted,
              chaos_rep.shards_requeued, chaos_rep.lease_expiries, merged,
              merged == single_total ? "yes" : "NO");
  }

  table.print(std::cout);

  bench::JsonReport report("E15");
  report.workload("rendezvous", 2);
  report.shards(kShards);
  util::ServiceSummary service;
  service.runners = clean_rep.runners_seen + chaos_rep.runners_seen;
  service.leases_granted =
      clean_rep.leases_granted + chaos_rep.leases_granted;
  service.leases_expired = clean_rep.lease_expiries + chaos_rep.lease_expiries;
  service.requeues = clean_rep.shards_requeued + chaos_rep.shards_requeued;
  service.quarantined =
      clean_rep.shards_quarantined + chaos_rep.shards_quarantined;
  service.journal_bytes_streamed =
      clean_rep.journal_bytes_streamed + chaos_rep.journal_bytes_streamed;
  service.time_to_first_sealed_shard_seconds = ttfs;
  report.service(service);
  report.metric("max_n", max_n);
  report.metric("single_defeats", static_cast<double>(single_total));
  report.metric("single_seconds", single_seconds);
  report.metric("clean_fleet_seconds", clean_seconds);
  report.metric("chaos_fleet_seconds", chaos_seconds);
  report.note("simd", sim::simd_path_name());
  // Enumeration-delay observability over both fleet phases, merged the
  // same deterministic bucket-wise way the coordinator merges shards.
  obs::EnumDelayStats fleet_delay = clean_rep.delay;
  fleet_delay.merge(chaos_rep.delay);
  util::ObservabilitySummary obs_summary;
  obs_summary.time_to_first_survivor_ms =
      fleet_delay.time_to_first_survivor_ns < 0
          ? -1.0
          : static_cast<double>(fleet_delay.time_to_first_survivor_ns) / 1e6;
  obs_summary.inter_result_delay_p50_ms = fleet_delay.delay_quantile_ms(0.50);
  obs_summary.inter_result_delay_p99_ms = fleet_delay.delay_quantile_ms(0.99);
  obs_summary.results = fleet_delay.results;
  obs_summary.survivors = fleet_delay.survivors;
  obs_summary.trace_bytes = obs::flush();
  obs_summary.dropped_events = obs::dropped_events();
  report.observability(obs_summary);
  report.table(table);
  std::cout << "report: " << report.write() << "\n";

  if (all_ok) std::filesystem::remove_all(scratch);

  bench::verdict(
      all_ok,
      "the coordinator-dispatched fleet merges bit-identical to the "
      "single process" +
          std::string(max_n == 14 ? " (committed 5426593 defeats)" : "") +
          ", survives a runner kill, and its metrics agree with the merge");
  return all_ok ? 0 : 1;
}
