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
//  * ORCHESTRATED chaos scenarios run the full battery 4-shard under
//    the supervision loop (dist/orchestrator.hpp) with the scenario's
//    RVT_FAILPOINTS injected into first-attempt children: mid-shard
//    child kills and torn journal tails. Crash scenarios must show
//    requeues (the fault actually fired) and EVERY scenario must merge
//    bit-identical to the single-process total — 5426593 on the
//    default battery. A forced quarantine run (fault env on every
//    attempt, attempts exhausted) must produce a manifest whose merge
//    reports the missing ranges explicitly while the plain merge
//    refuses.
//
// An optional argv[1] (max_n, default 14) shrinks the orchestrated
// battery for quick/CI-reduced runs; the 5426593 constant is only
// asserted on the default. The in-process drill always runs the small
// e10:6 battery. A fault-free timing pair (registry disarmed vs armed
// on a never-firing site) records the failpoint overhead ratio.
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dist/merge.hpp"
#include "dist/orchestrator.hpp"
#include "dist/runner.hpp"
#include "dist/serialize.hpp"
#include "dist/shard_plan.hpp"
#include "dist/workload.hpp"
#include "sim/orbit_cache.hpp"
#include "sim/simd.hpp"
#include "util/failpoint.hpp"

namespace {

using namespace rvt;

constexpr std::uint64_t kCommittedE10Defeats = 5426593;
constexpr unsigned kShards = 4;
constexpr unsigned kRunners = 2;

std::string cli_path(const char* argv0) {
  const std::filesystem::path self(argv0);
  return (self.parent_path() / "rvt_cli").string();
}

bool check(bool ok, const std::string& what) {
  std::cout << "  [" << (ok ? "ok" : "FAIL") << "] " << what << "\n";
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const int max_n = argc > 1 ? std::atoi(argv[1]) : 14;
  bench::header(
      "E14 chaos battery (fault injection + self-healing orchestration)",
      "The E10 battery under seeded faults — child kills, torn "
      "journals —\nmust merge bit-identical to the fault-free count; "
      "exhausted shards must quarantine into explicit missing ranges.");

  bool all_ok = true;
  auto& registry = util::FailPointRegistry::instance();
  registry.reset();

  const std::string scratch =
      "e14-scratch-" + std::to_string(static_cast<int>(::getpid()));
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);

  // ---- in-process drill on the small battery ------------------------------
  const auto small = dist::EnumWorkload::parse("e10:6");
  std::uint64_t small_total = 0;
  {
    sim::OrbitCache cache;
    sim::EnumerationContext ctx(small->grids(), small->max_rounds(), &cache);
    for (std::uint64_t i = 0; i < small->count(); ++i) {
      small_total += small->defeats(ctx, i);
    }
  }
  const dist::ShardPlan small_plan = dist::make_shard_plan(*small, 1);
  std::cout << "in-process drill (e10:6, " << small->count()
            << " indices, fault-free sum " << small_total << "):\n";

  std::uint64_t drill_injected = 0;

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
    drill_injected += registry.total_fired();
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

  // ---- orchestrated chaos scenarios ---------------------------------------
  const auto workload =
      dist::EnumWorkload::parse("e10:" + std::to_string(max_n));
  bench::WallTimer single_timer;
  std::uint64_t single_total = 0;
  {
    sim::OrbitCache cache;
    sim::EnumerationContext ctx(workload->grids(), workload->max_rounds(),
                                &cache);
    for (std::uint64_t i = 0; i < workload->count(); ++i) {
      single_total += workload->defeats(ctx, i);
    }
  }
  std::cout << "\nsingle process (e10:" << max_n << "): " << single_total
            << " defeats (" << single_timer.seconds() << " s)\n";
  if (max_n == 14) {
    all_ok &= check(single_total == kCommittedE10Defeats,
                    "single-process total equals the committed 5426593");
  }

  const std::string plan_path = scratch + "/plan.bin";
  const dist::ShardPlan plan = dist::make_shard_plan(*workload, kShards);
  dist::write_plan(plan_path, plan);
  const std::uint64_t shard_width =
      plan.shards[0].end - plan.shards[0].begin;
  const std::string cli = cli_path(argv[0]);

  std::uint64_t total_requeues = 0;
  util::Table table(
      {"scenario", "launches", "requeues", "quarantined", "defeats", "ok"});
  bench::WallTimer chaos_timer;
  for (const std::string& scenario : dist::chaos_scenarios()) {
    const std::uint64_t seed = bench::kDefaultSeed;
    const std::string jd = scratch + "/" + scenario + "-journals";
    dist::OrchestratorConfig cfg;
    cfg.journal_dir = jd;
    cfg.max_concurrent = kRunners;
    cfg.max_attempts = 3;
    const std::string fp =
        dist::chaos_failpoint_config(scenario, seed, shard_width);
    if (!fp.empty()) cfg.first_attempt_env.emplace_back("RVT_FAILPOINTS", fp);
    std::cout.flush();  // children share the fd: keep the log ordered
    const dist::OrchestratorReport report = dist::orchestrate(
        plan, cfg, dist::cli_shard_launcher(cli, plan_path, jd));
    std::uint64_t merged_total = 0;
    bool merged_ok = false;
    if (report.all_complete()) {
      try {
        merged_total = dist::merge_journals(plan, jd).total;
        merged_ok = merged_total == single_total;
      } catch (const std::exception& e) {
        std::cerr << scenario << ": merge failed: " << e.what() << "\n";
      }
    }
    const bool crash_class =
        scenario == "child-kill" || scenario == "torn-journal";
    // A crash scenario with zero requeues means the fault never fired —
    // the drill would be vacuous, so that is a FAILURE too.
    const bool ok = merged_ok && report.quarantined == 0 &&
                    (!crash_class || report.requeues >= 1) &&
                    (crash_class || report.requeues == 0);
    total_requeues += report.requeues;
    table.row(scenario, report.launches, report.requeues, report.quarantined,
              merged_total, ok ? "yes" : "NO");
    all_ok &= check(ok, "scenario " + scenario + ": merged " +
                            std::to_string(merged_total) + " after " +
                            std::to_string(report.requeues) + " requeues");
  }
  const double chaos_seconds = chaos_timer.seconds();

  // ---- forced quarantine: exhausted attempts become explicit gaps ---------
  std::uint64_t quarantined_shards = 0;
  {
    const std::string jd = scratch + "/quarantine-journals";
    dist::OrchestratorConfig cfg;
    cfg.journal_dir = jd;
    cfg.max_concurrent = kRunners;
    cfg.max_attempts = 2;
    cfg.env_every_attempt = true;  // the fault re-fires on every attempt
    cfg.first_attempt_env.emplace_back(
        "RVT_FAILPOINTS", dist::chaos_failpoint_config("child-kill", 4,
                                                       shard_width));
    const dist::OrchestratorReport report = dist::orchestrate(
        plan, cfg, dist::cli_shard_launcher(cli, plan_path, jd));
    quarantined_shards = report.quarantined;
    const dist::QuarantineManifest manifest =
        dist::quarantine_manifest(plan, report);
    const std::string mpath = scratch + "/quarantine.bin";
    dist::write_quarantine_manifest(mpath, manifest);
    const dist::QuarantineManifest loaded =
        dist::load_quarantine_manifest(mpath);
    bool plain_refuses = false;
    try {
      dist::merge_journals(plan, jd);
    } catch (const dist::SerializeError&) {
      plain_refuses = true;
    }
    std::uint64_t missing = 0;
    bool partial_ok = false;
    try {
      const dist::MergeResult partial =
          dist::merge_journals(plan, jd, &loaded);
      for (const auto& [b, e] : partial.missing) missing += e - b;
      partial_ok = !partial.complete() &&
                   partial.covered + missing == partial.indices &&
                   partial.missing.size() == loaded.entries.size();
    } catch (const std::exception& e) {
      std::cerr << "quarantine merge failed: " << e.what() << "\n";
    }
    all_ok &= check(report.quarantined == kShards && plain_refuses &&
                        partial_ok &&
                        !loaded.entries[0].diagnostics.empty(),
                    "forced quarantine: " +
                        std::to_string(report.quarantined) +
                        " shards quarantined, plain merge refuses, "
                        "manifest merge reports " +
                        std::to_string(missing) + " missing indices");
  }

  table.print(std::cout);

  bench::JsonReport report("E14");
  report.workload("rendezvous", 2);
  report.shards(kShards);
  util::FaultSummary faults;
  faults.scenario = "chaos-battery";
  faults.seed = bench::kDefaultSeed;
  faults.injected = drill_injected;
  faults.requeued = total_requeues;
  faults.quarantined = quarantined_shards;
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
