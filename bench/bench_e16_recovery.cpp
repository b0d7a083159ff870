// E16 — campaign durability: a fleet whose coordinator is killed and
// resumed mid-campaign must merge bit-identical to the single-process
// count, with every recovery counter non-vacuous.
//
// Four crash scenarios against real `rvt_cli serve` / `rvt_cli worker`
// subprocesses over loopback TCP (the coordinator must be a PROCESS —
// the drill is SIGKILL, not a destructor):
//
//  * COORDINATOR KILL: SIGKILL the coordinator after durable progress,
//    restart it with `serve --resume` on the same ports. The throttled
//    workers ride their reconnect backoff across the restart, their
//    pre-crash lease tokens fence against the new epoch, and the
//    resumed ledger re-grants the interrupted leases from the committed
//    prefix.
//  * OVERLAPPING KILLS: a worker is SIGKILLed in the same window as the
//    coordinator, and a replacement joins after the resume. Nothing may
//    quarantine — a crash is never the shard's fault.
//  * PARTITION STALL: SIGSTOP the coordinator past the workers' framing
//    stall limit, then SIGCONT. No restart: the workers must detect the
//    stalled transport, reconnect, and drain the campaign exactly.
//  * TORN LEDGER TAIL: SIGKILL as above, then append garbage bytes to
//    the run ledger before `--resume` — the torn tail must truncate
//    (the exact byte count reported) without losing any fsynced commit.
//
// Every scenario asserts the resumed/healed fleet merges to the
// single-process total — 5426593 on the default battery — and the
// BENCH_E16.json report carries the schema's "recovery" block summed
// over the scenarios, validated non-vacuous (resumes >= 1). An optional
// argv[1] (max_n, default 14) shrinks the battery for CI-reduced runs.
#include <signal.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "dist/ledger.hpp"
#include "dist/shard_plan.hpp"
#include "dist/workload.hpp"

namespace {

using namespace rvt;
using namespace rvt::bench;

constexpr std::uint64_t kCommittedE10Defeats = 5426593;
constexpr unsigned kShards = 6;

/// The throttled, reconnecting worker every scenario runs: slow enough
/// that a kill lands mid-lease, patient enough to ride a restart.
pid_t throttled_worker(const std::string& cli, std::uint16_t port,
                       const std::string& name, const std::string& log,
                       std::uint64_t io_timeout_ms = 100) {
  return spawn_worker(cli, port,
                      {.name = name,
                       .log = log,
                       .throttle_ms = 2,
                       .io_timeout_ms = io_timeout_ms,
                       .reconnect_attempts = 300,
                       .reconnect_base_ms = 20});
}

/// What one scenario contributed to the summed recovery block.
struct ScenarioStats {
  std::uint64_t resumes = 0;
  std::uint64_t replayed = 0;
  std::uint64_t torn_bytes = 0;
  std::uint64_t regranted = 0;
  std::uint64_t fenced = 0;
  std::uint64_t reconnects = 0;
  std::uint64_t merged = 0;
  double seconds = 0;
  bool ok = false;
};

/// Parses the serve-side "recovery: epoch E, ..." line out of a serve
/// log into the scenario's counters.
bool parse_serve_recovery(const std::string& log, ScenarioStats* st) {
  const std::string text = slurp(log);
  return u64_before(text, " ledger records replayed", &st->replayed) &&
         u64_before(text, " leases regranted", &st->regranted) &&
         u64_before(text, " stale tokens fenced", &st->fenced) &&
         u64_before(text, " worker reconnects", &st->reconnects);
}

}  // namespace

int main(int argc, char** argv) {
  const int max_n = argc > 1 ? std::atoi(argv[1]) : 14;
  bench::header(
      "E16 campaign durability (crash-recoverable coordinator)",
      "A fleet whose coordinator is SIGKILLed, partitioned, or restarted "
      "over a torn ledger tail\nmust heal — workers reconnect with "
      "backoff, `serve --resume` replays the write-ahead run\nledger — "
      "and still merge bit-identical to the single-process count.");

  bool all_ok = true;
  const std::string scratch =
      "e16-scratch-" + std::to_string(static_cast<int>(::getpid()));
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  const std::string cli = cli_path(argv[0]);
  const std::string spec = "e10:" + std::to_string(max_n);
  const auto serve_args = [&](const std::string& jdir,
                              const std::string& log) {
    ServeArgs a{cli, spec, jdir, log, kShards};
    a.lease_timeout_ms = 4000;
    a.max_attempts = 6;
    return a;
  };

  // ---- single-process baseline -------------------------------------------
  const auto workload = dist::EnumWorkload::parse(spec);
  const std::uint64_t single_total = single_process_defeats(*workload);
  std::cout << "single process (" << spec << "): " << single_total
            << " defeats over " << workload->count() << " indices\n";
  if (max_n == 14) {
    all_ok &= check(single_total == kCommittedE10Defeats,
                    "single-process total equals the committed 5426593");
  }
  const dist::ShardPlan plan = dist::make_shard_plan(*workload, kShards);

  util::Table table({"scenario", "resumes", "replayed", "regranted", "fenced",
                     "reconnects", "defeats", "ok"});
  ScenarioStats s1, s2, s3, s4;

  // ---- S1: coordinator SIGKILL mid-campaign, resume ----------------------
  {
    std::cout << "\nS1 coordinator-kill: SIGKILL after durable progress, "
              << "then `serve --resume` on the same ports:\n";
    bench::WallTimer timer;
    const std::string jdir = scratch + "/s1-journals";
    ServeArgs sa = serve_args(jdir, scratch + "/s1-serve1.log");
    sa.port_file = scratch + "/s1-ports";
    const pid_t serve1 = spawn_serve(sa);
    std::uint16_t port = 0, mport = 0;
    all_ok &= check(read_ports(sa.port_file, &port, &mport),
                    "coordinator #1 published its ports");
    const pid_t w1 = throttled_worker(cli, port, "w1", scratch + "/s1-w1.log");
    const pid_t w2 = throttled_worker(cli, port, "w2", scratch + "/s1-w2.log");

    const std::string progressed = poll_metrics(
        mport,
        [](const std::string& b) {
          std::uint64_t n = 0;
          return metrics_u64(b, "committed_indices", &n) && n >= 1;
        },
        60);
    all_ok &= check(!progressed.empty(),
                    "fleet committed durable progress before the kill");
    ::kill(serve1, SIGKILL);
    const int serve1_exit = wait_exit(serve1);
    all_ok &= check(serve1_exit == -SIGKILL, "coordinator #1 died to SIGKILL");

    ServeArgs ra = sa;
    ra.log = scratch + "/s1-serve2.log";
    ra.port = port;
    ra.mport = mport;
    ra.port_file.clear();
    ra.resume = true;
    ra.expect = single_total;
    const pid_t serve2 = spawn_serve(ra);

    // Satellite: the LIVE metrics endpoint must carry non-vacuous
    // recovery counters mid-run, not just the final report.
    const std::string live = poll_metrics(
        mport,
        [](const std::string& b) {
          std::uint64_t resumed = 0, rc = 0;
          return metrics_u64(b, "recovery_resumed", &resumed) &&
                 resumed == 1 &&
                 metrics_u64(b, "recovery_worker_reconnects", &rc) && rc >= 1;
        },
        60);
    all_ok &= check(!live.empty(),
                    "live metrics show recovery_resumed=1 and a worker "
                    "reconnect mid-run");

    const int serve2_exit = wait_exit(serve2);
    const int w1_exit = wait_exit(w1);
    const int w2_exit = wait_exit(w2);
    s1.seconds = timer.seconds();
    s1.resumes = 1;
    all_ok &= check(serve2_exit == 0 && w1_exit == 0 && w2_exit == 0,
                    "resumed coordinator and both workers exited cleanly");
    all_ok &= check(parse_serve_recovery(ra.log, &s1),
                    "resumed coordinator printed its recovery line");
    s1.merged = merged_total(plan, jdir);
    all_ok &= check(s1.merged == single_total,
                    "S1 merge " + std::to_string(s1.merged) +
                        " == single-process total");
    all_ok &= check(s1.replayed >= 2 && s1.regranted >= 1 && s1.fenced >= 1 &&
                        s1.reconnects >= 1,
                    "recovery counters non-vacuous (" +
                        std::to_string(s1.replayed) + " replayed, " +
                        std::to_string(s1.regranted) + " regranted, " +
                        std::to_string(s1.fenced) + " fenced, " +
                        std::to_string(s1.reconnects) + " reconnects)");
    s1.ok = s1.merged == single_total;
    table.row("coordinator-kill", s1.resumes, s1.replayed, s1.regranted,
              s1.fenced, s1.reconnects, s1.merged, s1.ok ? "yes" : "NO");
  }

  // ---- S2: coordinator + worker kills overlapping ------------------------
  {
    std::cout << "\nS2 overlapping-kills: a worker AND the coordinator die "
              << "in the same window; a replacement joins after resume:\n";
    bench::WallTimer timer;
    const std::string jdir = scratch + "/s2-journals";
    ServeArgs sa = serve_args(jdir, scratch + "/s2-serve1.log");
    sa.port_file = scratch + "/s2-ports";
    const pid_t serve1 = spawn_serve(sa);
    std::uint16_t port = 0, mport = 0;
    all_ok &= check(read_ports(sa.port_file, &port, &mport),
                    "coordinator #1 published its ports");
    const pid_t w3 = throttled_worker(cli, port, "w3", scratch + "/s2-w3.log");
    const pid_t w4 = throttled_worker(cli, port, "w4", scratch + "/s2-w4.log");

    const std::string progressed = poll_metrics(
        mport,
        [](const std::string& b) {
          std::uint64_t n = 0;
          return metrics_u64(b, "committed_indices", &n) && n >= 1;
        },
        60);
    all_ok &= check(!progressed.empty(),
                    "fleet committed durable progress before the kills");
    ::kill(w3, SIGKILL);
    ::kill(serve1, SIGKILL);
    wait_exit(serve1);
    const int w3_exit = wait_exit(w3);

    ServeArgs ra = sa;
    ra.log = scratch + "/s2-serve2.log";
    ra.port = port;
    ra.mport = mport;
    ra.port_file.clear();
    ra.resume = true;
    ra.expect = single_total;
    const pid_t serve2 = spawn_serve(ra);
    const pid_t w5 = throttled_worker(cli, port, "w5", scratch + "/s2-w5.log");

    const int serve2_exit = wait_exit(serve2);
    const int w4_exit = wait_exit(w4);
    const int w5_exit = wait_exit(w5);
    s2.seconds = timer.seconds();
    s2.resumes = 1;
    all_ok &= check(w3_exit == -SIGKILL, "the doomed worker died to SIGKILL");
    all_ok &= check(serve2_exit == 0 && w4_exit == 0 && w5_exit == 0,
                    "resumed coordinator, survivor and replacement exited "
                    "cleanly");
    all_ok &= check(parse_serve_recovery(ra.log, &s2),
                    "resumed coordinator printed its recovery line");
    // A crash is never the shard's fault: nothing may quarantine.
    std::uint64_t quarantined = 99;
    all_ok &= check(u64_before(slurp(ra.log), " quarantined", &quarantined) &&
                        quarantined == 0,
                    "nothing quarantined across the overlapping kills");
    s2.merged = merged_total(plan, jdir);
    all_ok &= check(s2.merged == single_total,
                    "S2 merge " + std::to_string(s2.merged) +
                        " == single-process total");
    all_ok &= check(s2.replayed >= 2 && s2.regranted >= 1,
                    "recovery counters non-vacuous (" +
                        std::to_string(s2.replayed) + " replayed, " +
                        std::to_string(s2.regranted) + " regranted)");
    s2.ok = s2.merged == single_total && quarantined == 0;
    table.row("overlapping-kills", s2.resumes, s2.replayed, s2.regranted,
              s2.fenced, s2.reconnects, s2.merged, s2.ok ? "yes" : "NO");
  }

  // ---- S3: partition via a stalled coordinator (SIGSTOP/SIGCONT) --------
  {
    std::cout << "\nS3 partition-stall: SIGSTOP the coordinator past the "
              << "workers' stall limit, SIGCONT, no restart:\n";
    bench::WallTimer timer;
    const std::string jdir = scratch + "/s3-journals";
    ServeArgs sa = serve_args(jdir, scratch + "/s3-serve.log");
    sa.port_file = scratch + "/s3-ports";
    sa.lease_timeout_ms = 1500;
    sa.expect = single_total;
    const pid_t serve = spawn_serve(sa);
    std::uint16_t port = 0, mport = 0;
    all_ok &= check(read_ports(sa.port_file, &port, &mport),
                    "coordinator published its ports");
    // io-timeout 50ms puts the session framing stall limit at ~2.5s —
    // well under the 5s stall, so the workers MUST notice and
    // reconnect.
    const pid_t w6 =
        throttled_worker(cli, port, "w6", scratch + "/s3-w6.log", 50);
    const pid_t w7 =
        throttled_worker(cli, port, "w7", scratch + "/s3-w7.log", 50);

    const std::string progressed = poll_metrics(
        mport,
        [](const std::string& b) {
          std::uint64_t n = 0;
          return metrics_u64(b, "committed_indices", &n) && n >= 1;
        },
        60);
    all_ok &= check(!progressed.empty(),
                    "fleet committed durable progress before the stall");
    ::kill(serve, SIGSTOP);
    std::this_thread::sleep_for(std::chrono::milliseconds(5000));
    ::kill(serve, SIGCONT);

    const int serve_exit = wait_exit(serve);
    const int w6_exit = wait_exit(w6);
    const int w7_exit = wait_exit(w7);
    s3.seconds = timer.seconds();
    all_ok &= check(serve_exit == 0 && w6_exit == 0 && w7_exit == 0,
                    "coordinator and both workers exited cleanly");
    std::uint64_t rc6 = 0, rc7 = 0;
    u64_before(slurp(scratch + "/s3-w6.log"), " reconnects", &rc6);
    u64_before(slurp(scratch + "/s3-w7.log"), " reconnects", &rc7);
    s3.reconnects = rc6 + rc7;
    all_ok &= check(s3.reconnects >= 1,
                    "workers reconnected across the partition (" +
                        std::to_string(s3.reconnects) + " reconnects)");
    s3.merged = merged_total(plan, jdir);
    all_ok &= check(s3.merged == single_total,
                    "S3 merge " + std::to_string(s3.merged) +
                        " == single-process total");
    s3.ok = s3.merged == single_total && s3.reconnects >= 1;
    table.row("partition-stall", s3.resumes, s3.replayed, s3.regranted,
              s3.fenced, s3.reconnects, s3.merged, s3.ok ? "yes" : "NO");
  }

  // ---- S4: torn ledger tail on restart -----------------------------------
  {
    std::cout << "\nS4 torn-ledger-tail: SIGKILL, then append garbage to "
              << "the run ledger before `--resume`:\n";
    bench::WallTimer timer;
    const std::string jdir = scratch + "/s4-journals";
    ServeArgs sa = serve_args(jdir, scratch + "/s4-serve1.log");
    sa.port_file = scratch + "/s4-ports";
    const pid_t serve1 = spawn_serve(sa);
    std::uint16_t port = 0, mport = 0;
    all_ok &= check(read_ports(sa.port_file, &port, &mport),
                    "coordinator #1 published its ports");
    const pid_t w8 = throttled_worker(cli, port, "w8", scratch + "/s4-w8.log");
    const pid_t w9 = throttled_worker(cli, port, "w9", scratch + "/s4-w9.log");

    const std::string progressed = poll_metrics(
        mport,
        [](const std::string& b) {
          std::uint64_t n = 0;
          return metrics_u64(b, "committed_indices", &n) && n >= 1;
        },
        60);
    all_ok &= check(!progressed.empty(),
                    "fleet committed durable progress before the kill");
    ::kill(serve1, SIGKILL);
    wait_exit(serve1);

    // The torn tail a SIGKILL mid-append leaves: 13 garbage bytes (a
    // partial 32-byte record) the resume must truncate and report.
    {
      std::ofstream lf(dist::ledger_path(jdir),
                       std::ios::binary | std::ios::app);
      for (int i = 0; i < 13; ++i) lf.put('\xab');
    }

    ServeArgs ra = sa;
    ra.log = scratch + "/s4-serve2.log";
    ra.port = port;
    ra.mport = mport;
    ra.port_file.clear();
    ra.resume = true;
    ra.expect = single_total;
    const pid_t serve2 = spawn_serve(ra);
    const int serve2_exit = wait_exit(serve2);
    const int w8_exit = wait_exit(w8);
    const int w9_exit = wait_exit(w9);
    s4.seconds = timer.seconds();
    s4.resumes = 1;
    all_ok &= check(serve2_exit == 0 && w8_exit == 0 && w9_exit == 0,
                    "resumed coordinator and both workers exited cleanly");
    all_ok &= check(parse_serve_recovery(ra.log, &s4),
                    "resumed coordinator printed its recovery line");
    all_ok &= check(u64_before(slurp(ra.log), " torn bytes truncated",
                               &s4.torn_bytes) &&
                        s4.torn_bytes == 13,
                    "the resume truncated exactly the 13 torn tail bytes");
    s4.merged = merged_total(plan, jdir);
    all_ok &= check(s4.merged == single_total,
                    "S4 merge " + std::to_string(s4.merged) +
                        " == single-process total (no fsynced commit lost)");
    s4.ok = s4.merged == single_total && s4.torn_bytes == 13;
    table.row("torn-ledger-tail", s4.resumes, s4.replayed, s4.regranted,
              s4.fenced, s4.reconnects, s4.merged, s4.ok ? "yes" : "NO");
  }

  table.print(std::cout);

  bench::JsonReport report("E16");
  report.workload("rendezvous", 2);
  report.shards(kShards);
  util::RecoverySummary rec;
  rec.resumes = s1.resumes + s2.resumes + s3.resumes + s4.resumes;
  rec.ledger_records_replayed =
      s1.replayed + s2.replayed + s3.replayed + s4.replayed;
  rec.ledger_torn_bytes_truncated =
      s1.torn_bytes + s2.torn_bytes + s3.torn_bytes + s4.torn_bytes;
  rec.leases_regranted =
      s1.regranted + s2.regranted + s3.regranted + s4.regranted;
  rec.stale_tokens_fenced = s1.fenced + s2.fenced + s3.fenced + s4.fenced;
  rec.worker_reconnects =
      s1.reconnects + s2.reconnects + s3.reconnects + s4.reconnects;
  report.recovery(rec);
  report.metric("max_n", max_n);
  report.metric("single_defeats", static_cast<double>(single_total));
  report.metric("s1_coordinator_kill_seconds", s1.seconds);
  report.metric("s2_overlapping_kills_seconds", s2.seconds);
  report.metric("s3_partition_stall_seconds", s3.seconds);
  report.metric("s4_torn_ledger_tail_seconds", s4.seconds);
  report.table(table);
  std::cout << "report: " << report.write() << "\n";

  if (all_ok) std::filesystem::remove_all(scratch);

  bench::verdict(
      all_ok,
      "coordinator kills, overlapping worker kills, a partition stall and "
      "a torn ledger tail all heal: every scenario merged bit-identical" +
          std::string(max_n == 14 ? " (committed 5426593 defeats)" : ""));
  return all_ok ? 0 : 1;
}
