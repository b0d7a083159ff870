// E14 — chaos battery: the E10 workload under seeded fault injection
// must merge bit-identical to the fault-free count.
//
// Two layers of drills:
//
//  * An IN-PROCESS fault drill (err-action failpoints only — a crash
//    action would kill the bench) exercises journal recovery with exact
//    counter assertions: an injected journal-append failure surfaces as
//    SerializeError and the next run resumes exactly past the valid
//    prefix, with the defeat sum equal to the fault-free sum.
//
//  * A CHAOS MATRIX runs the full battery 4-shard on the service tier —
//    an `rvt_cli serve` subprocess and `rvt_cli worker` subprocesses
//    over loopback — with RVT_FAILPOINTS armed in one process per row:
//      - none          control run, nothing armed;
//      - worker-kill   the first worker crashes (worker.index) at a
//                      seeded depth inside its first lease; the
//                      unsealed disconnect must requeue the shard;
//      - torn-journal  serve itself crashes (journal.append) with a
//                      partial record in a shard journal; `serve
//                      --resume` on the same ports and journal dir must
//                      regrant the interrupted leases while the workers
//                      ride their reconnect backoff across the restart;
//      - quarantine    `serve --max-attempts 2`, every worker armed to
//                      crash on its first index and relaunched until
//                      serve exits 3: all 4 shards quarantine, the
//                      plain merge refuses, and the manifest merge
//                      reports every index missing.
//    The first three rows must merge bit-identical to the
//    single-process total — 5426593 on the default battery. A crash row
//    whose fault cost no lease (no requeue, no regrant) would be a
//    vacuous drill, so that fails too.
//
// An optional argv[1] (max_n, default 14) shrinks the matrix battery
// for quick/CI-reduced runs; the 5426593 constant is only asserted on
// the default. The in-process drill always runs the small e10:6
// battery. A fault-free timing pair (registry disarmed vs armed on a
// never-firing site) records the failpoint overhead ratio.
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "dist/journal.hpp"
#include "dist/merge.hpp"
#include "dist/runner.hpp"
#include "dist/serialize.hpp"
#include "dist/shard_plan.hpp"
#include "dist/workload.hpp"
#include "sim/simd.hpp"
#include "util/failpoint.hpp"

namespace {

using namespace rvt;
using namespace rvt::bench;

constexpr std::uint64_t kCommittedE10Defeats = 5426593;
constexpr unsigned kShards = 4;
constexpr unsigned kRunners = 2;
constexpr unsigned kQuarantineAttempts = 2;

/// One row of the chaos matrix.
struct Row {
  std::uint64_t workers = 0;  ///< worker processes launched
  std::uint64_t crashes = 0;  ///< processes that died to the armed fault
  std::uint64_t requeues = 0;
  std::uint64_t regranted = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t merged = 0;
  bool ok = false;
};

/// Bytes past the valid prefix of every shard journal — the partial
/// record a crash mid-append leaves behind.
std::uint64_t torn_journal_bytes(const dist::ShardPlan& plan,
                                 const std::string& journal_dir) {
  std::uint64_t torn = 0;
  for (const dist::ShardSpec& spec : plan.shards) {
    const std::string path = dist::journal_path(journal_dir, spec);
    const auto state = dist::read_journal(path);
    if (state) torn += std::filesystem::file_size(path) - state->valid_bytes;
  }
  return torn;
}

/// serve's exit summary: requeues and quarantines of its own epoch, and
/// the leases a resume regranted. False when serve died before printing.
bool parse_serve_log(const std::string& log, Row* row) {
  const std::string text = slurp(log);
  return u64_before(text, " requeues", &row->requeues) &&
         u64_before(text, " quarantined", &row->quarantined) &&
         u64_before(text, " leases regranted", &row->regranted);
}

}  // namespace

int main(int argc, char** argv) {
  const int max_n = argc > 1 ? std::atoi(argv[1]) : 14;
  bench::header(
      "E14 chaos battery (fault injection on serve + loopback workers)",
      "The E10 battery under seeded faults — worker kills, a coordinator "
      "dying mid-append —\nmust merge bit-identical to the fault-free "
      "count; exhausted shards must quarantine into explicit missing "
      "ranges.");

  bool all_ok = true;
  auto& registry = util::FailPointRegistry::instance();
  registry.reset();

  const std::string scratch =
      "e14-scratch-" + std::to_string(static_cast<int>(::getpid()));
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  // ---- in-process drill on the small battery ------------------------------
  const auto small = dist::EnumWorkload::parse("e10:6");
  const std::uint64_t small_total = single_process_defeats(*small);
  const dist::ShardPlan small_plan = dist::make_shard_plan(*small, 1);
  std::cout << "in-process drill (e10:6, " << small->count()
            << " indices, fault-free sum " << small_total << "):\n";

  std::uint64_t injected = 0;

  // Drill: an injected append failure surfaces as SerializeError and
  // the next run resumes exactly past the valid prefix.
  {
    const std::string jd = scratch + "/append-journals";
    registry.configure("journal.append=err@hit:5");
    bool threw = false;
    try {
      dist::run_shard(*small, small_plan, 0, jd, nullptr);
    } catch (const dist::SerializeError&) {
      threw = true;
    }
    injected += registry.total_fired();
    registry.reset();
    const auto resumed = dist::run_shard(*small, small_plan, 0, jd, nullptr);
    all_ok &= check(threw && resumed.committed_before == 4 &&
                        resumed.computed == small->count() - 4 &&
                        resumed.sum == small_total,
                    "append fault: SerializeError, resume recomputed only "
                    "the " +
                        std::to_string(resumed.computed) +
                        " uncommitted indices, sum intact");
  }

  // Failpoint overhead: a fault-free shard run with the registry
  // disarmed vs armed on a site that never fires. The sites sit on IO
  // paths (journal append and seal), so even armed the cost is
  // one map lookup per IO — the ratio is recorded, not asserted (CI
  // timing noise), but a gross regression shows up in the artifact.
  double overhead_ratio = 0.0;
  {
    const auto run_once = [&](const std::string& jd) {
      dist::run_shard(*small, small_plan, 0, jd, nullptr);
    };
    run_once(scratch + "/warm");  // warm caches
    bench::WallTimer off_timer;
    run_once(scratch + "/off");
    const double off = off_timer.seconds();
    registry.configure("journal.seal=err@hit:1000000000");
    bench::WallTimer on_timer;
    run_once(scratch + "/on");
    const double on = on_timer.seconds();
    registry.reset();
    overhead_ratio = off > 0 ? on / off : 0.0;
    std::cout << "  failpoint overhead: disarmed " << off << " s, armed "
              << on << " s (ratio " << overhead_ratio << ")\n";
  }

  // ---- chaos matrix on serve + loopback workers ---------------------------
  const std::string spec = "e10:" + std::to_string(max_n);
  const auto workload = dist::EnumWorkload::parse(spec);
  bench::WallTimer single_timer;
  const std::uint64_t single_total = single_process_defeats(*workload);
  std::cout << "\nsingle process (" << spec << "): " << single_total
            << " defeats (" << single_timer.seconds() << " s)\n";
  if (max_n == 14) {
    all_ok &= check(single_total == kCommittedE10Defeats,
                    "single-process total equals the committed 5426593");
  }

  // serve builds the same content-addressed plan from the same spec.
  const dist::ShardPlan plan = dist::make_shard_plan(*workload, kShards);
  const std::uint64_t shard_width =
      plan.shards[0].end - plan.shards[0].begin;
  // hit triggers are 1-based; the seed picks a crash depth inside the
  // first lease.
  const std::string depth =
      std::to_string(1 + bench::kDefaultSeed % shard_width);
  const std::string cli = cli_path(argv[0]);

  // Starts serve on ephemeral ports for one scenario.
  const auto start_serve = [&](const std::string& name, ServeArgs* sa,
                               std::uint16_t* port, std::uint16_t* mport) {
    sa->cli = cli;
    sa->spec = spec;
    sa->journal_dir = scratch + "/" + name + "-journals";
    sa->log = scratch + "/" + name + "-serve.log";
    sa->shards = kShards;
    sa->port_file = scratch + "/" + name + "-ports";
    const pid_t pid = spawn_serve(*sa);
    all_ok &= check(read_ports(sa->port_file, port, mport),
                    name + ": serve published its ports");
    return pid;
  };
  const auto worker = [&](const std::string& name, WorkerArgs w = {}) {
    w.name = name;
    w.log = scratch + "/" + name + ".log";
    return w;
  };

  util::Table table({"scenario", "workers", "crashes", "requeues",
                     "regranted", "quarantined", "defeats", "ok"});
  const auto add_row = [&](const std::string& scenario, const Row& r) {
    table.row(scenario, r.workers, r.crashes, r.requeues, r.regranted,
              r.quarantined, r.merged, r.ok ? "yes" : "NO");
  };
  Row none, killed, torn, quarantine;
  bench::WallTimer chaos_timer;

  // none: the control run.
  {
    ServeArgs sa;
    std::uint16_t port = 0, mport = 0;
    const pid_t serve = start_serve("none", &sa, &port, &mport);
    const pid_t w1 = spawn_worker(cli, port, worker("none-w1"));
    const pid_t w2 = spawn_worker(cli, port, worker("none-w2"));
    none.workers = kRunners;
    const bool clean =
        wait_exit(serve) == 0 && wait_exit(w1) == 0 && wait_exit(w2) == 0;
    none.merged = merged_total(plan, sa.journal_dir);
    none.ok = clean && parse_serve_log(sa.log, &none) &&
              none.merged == single_total && none.requeues == 0 &&
              none.quarantined == 0;
    all_ok &= check(none.ok, "none: merged " + std::to_string(none.merged) +
                                 ", no requeue");
  }

  // worker-kill: the armed worker runs alone, so its crash lands inside
  // its first lease; two clean workers then drain the requeued shard.
  {
    ServeArgs sa;
    std::uint16_t port = 0, mport = 0;
    const pid_t serve = start_serve("worker-kill", &sa, &port, &mport);
    const int doomed = wait_exit(spawn_worker(
        cli, port,
        worker("worker-kill-doomed",
               {.failpoints = "worker.index=crash@hit:" + depth})));
    killed.crashes = doomed == util::kFailpointCrashExitCode ? 1 : 0;
    const pid_t w1 = spawn_worker(cli, port, worker("worker-kill-w1"));
    const pid_t w2 = spawn_worker(cli, port, worker("worker-kill-w2"));
    killed.workers = 1 + kRunners;
    const bool clean =
        wait_exit(serve) == 0 && wait_exit(w1) == 0 && wait_exit(w2) == 0;
    killed.merged = merged_total(plan, sa.journal_dir);
    killed.ok = clean && killed.crashes == 1 &&
                parse_serve_log(sa.log, &killed) &&
                killed.merged == single_total && killed.requeues >= 1 &&
                killed.quarantined == 0;
    all_ok &= check(killed.ok, "worker-kill: worker died at index hit " +
                                   depth + ", merged " +
                                   std::to_string(killed.merged) + " after " +
                                   std::to_string(killed.requeues) +
                                   " requeues");
  }

  // torn-journal: serve dies mid-append; `serve --resume` on the same
  // ports and journal dir finishes the campaign with the same workers.
  {
    ServeArgs sa;
    sa.failpoints = "journal.append=crash@hit:" + depth;
    std::uint16_t port = 0, mport = 0;
    const pid_t serve1 = start_serve("torn-journal", &sa, &port, &mport);
    const WorkerArgs patient{.reconnect_attempts = 300,
                             .reconnect_base_ms = 20};
    const pid_t w1 =
        spawn_worker(cli, port, worker("torn-journal-w1", patient));
    const pid_t w2 =
        spawn_worker(cli, port, worker("torn-journal-w2", patient));
    torn.workers = kRunners;
    torn.crashes =
        wait_exit(serve1) == util::kFailpointCrashExitCode ? 1 : 0;
    const std::uint64_t torn_bytes = torn_journal_bytes(plan, sa.journal_dir);
    all_ok &= check(torn.crashes == 1 && torn_bytes > 0,
                    "torn-journal: serve exited 41 at journal append " +
                        depth + ", leaving " + std::to_string(torn_bytes) +
                        " torn bytes");

    ServeArgs ra = sa;
    ra.failpoints.clear();
    ra.log = scratch + "/torn-journal-resume.log";
    ra.port = port;
    ra.mport = mport;
    ra.port_file.clear();
    ra.resume = true;
    const pid_t serve2 = spawn_serve(ra);
    const bool clean =
        wait_exit(serve2) == 0 && wait_exit(w1) == 0 && wait_exit(w2) == 0;
    torn.merged = merged_total(plan, sa.journal_dir);
    torn.ok = clean && torn.crashes == 1 && torn_bytes > 0 &&
              parse_serve_log(ra.log, &torn) &&
              torn.merged == single_total &&
              torn.requeues + torn.regranted >= 1 && torn.quarantined == 0;
    all_ok &= check(torn.ok, "torn-journal: resumed serve merged " +
                                 std::to_string(torn.merged) + " after " +
                                 std::to_string(torn.regranted) +
                                 " regrants");
  }

  // quarantine: every attempt crashes, so each shard exhausts its
  // attempts. Armed workers are launched one at a time, each after serve
  // has counted the previous crash (as a requeue or a quarantine), until
  // serve is done; a worker that finds no coordinator exits after one
  // try rather than riding a backoff.
  {
    ServeArgs sa;
    sa.max_attempts = kQuarantineAttempts;
    std::uint16_t port = 0, mport = 0;
    const pid_t serve = start_serve("quarantine", &sa, &port, &mport);
    int serve_exit = -1;
    bool serve_done = false;
    while (!serve_done &&
           quarantine.workers < kShards * kQuarantineAttempts + 1) {
      ++quarantine.workers;
      const int code = wait_exit(spawn_worker(
          cli, port,
          worker("quarantine-w" + std::to_string(quarantine.workers),
                 {.failpoints = "worker.index=crash@always",
                  .reconnect_attempts = 1})));
      if (code != util::kFailpointCrashExitCode) break;
      ++quarantine.crashes;
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(30);
      while (std::chrono::steady_clock::now() < deadline) {
        int status = 0;
        if (::waitpid(serve, &status, WNOHANG) == serve) {
          serve_exit = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
          serve_done = true;
          break;
        }
        const std::string body = scrape(mport);
        std::uint64_t requeued = 0, quarantined = 0;
        if (metrics_u64(body, "shards_requeued", &requeued) &&
            metrics_u64(body, "shards_quarantined", &quarantined) &&
            requeued + quarantined >= quarantine.crashes) {
          serve_done = quarantined == kShards;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    if (serve_exit < 0) serve_exit = wait_exit(serve);
    parse_serve_log(sa.log, &quarantine);

    bool plain_refuses = false;
    try {
      dist::merge_journals(plan, sa.journal_dir);
    } catch (const dist::SerializeError&) {
      plain_refuses = true;
    }
    std::uint64_t missing = 0;
    bool partial_ok = false;
    try {
      const dist::QuarantineManifest manifest =
          dist::load_quarantine_manifest(sa.journal_dir + "/quarantine.bin");
      const dist::MergeResult partial =
          dist::merge_journals(plan, sa.journal_dir, &manifest);
      for (const auto& [b, e] : partial.missing) missing += e - b;
      bool diagnosed = true;
      for (const auto& entry : manifest.entries) {
        diagnosed &= !entry.diagnostics.empty();
      }
      partial_ok = diagnosed && manifest.entries.size() == kShards &&
                   partial.covered == 0 && missing == plan.count;
      quarantine.merged = partial.total;
    } catch (const std::exception& e) {
      std::cerr << "quarantine merge failed: " << e.what() << "\n";
    }
    quarantine.ok = serve_exit == 3 && quarantine.quarantined == kShards &&
                    quarantine.crashes == kShards * kQuarantineAttempts &&
                    plain_refuses && partial_ok;
    all_ok &= check(quarantine.ok,
                    "quarantine: serve exited " + std::to_string(serve_exit) +
                        " after " + std::to_string(quarantine.crashes) +
                        " crashed attempts, " +
                        std::to_string(quarantine.quarantined) +
                        " shards quarantined, plain merge refuses, "
                        "manifest merge reports " +
                        std::to_string(missing) + " of " +
                        std::to_string(plan.count) + " indices missing");
  }
  const double chaos_seconds = chaos_timer.seconds();

  add_row("none", none);
  add_row("worker-kill", killed);
  add_row("torn-journal", torn);
  add_row("quarantine", quarantine);
  table.print(std::cout);

  bench::JsonReport report("E14");
  report.workload("rendezvous", 2);
  report.shards(kShards);
  util::FaultSummary faults;
  faults.scenario = "chaos-battery";
  faults.seed = bench::kDefaultSeed;
  faults.injected =
      injected + killed.crashes + torn.crashes + quarantine.crashes;
  faults.requeued = none.requeues + killed.requeues + torn.requeues +
                    quarantine.requeues;
  faults.quarantined = quarantine.quarantined;
  report.faults(faults);
  report.metric("max_n", max_n);
  report.metric("runners", kRunners);
  report.metric("single_defeats", static_cast<double>(single_total));
  report.metric("chaos_seconds", chaos_seconds);
  report.metric("failpoint_overhead_ratio", overhead_ratio);
  report.note("simd", sim::simd_path_name());
  report.table(table);
  std::cout << "report: " << report.write() << "\n";

  if (all_ok) std::filesystem::remove_all(scratch);

  bench::verdict(all_ok,
                 "every fault class merges bit-identical to the "
                 "single-process battery" +
                     std::string(max_n == 14
                                     ? " (committed 5426593 defeats)"
                                     : "") +
                     "; exhausted shards quarantine into explicit gaps");
  return all_ok ? 0 : 1;
}
