// E13 — distributed enumeration: shard, run in separate processes,
// merge, and match the single-process count bit for bit.
//
// The E10 defeat-density battery (every K <= 3 line automaton sampled
// against every feasible pair on lines n = 3..14, crossed with the
// profile delay grid — the committed single-process count is 5426593
// defeats) is partitioned into 4 content-addressed shards
// (dist/shard_plan.hpp) and executed by `rvt_cli shard run` child
// processes, two at a time — separate address spaces, each memoizing
// its defeat counts in a private in-memory cache (each child's output
// goes to a log in the scratch directory). Each shard streams its per-index
// verdict summaries into a crash-safe journal (dist/journal.hpp);
// merging the sealed journals (dist/merge.hpp) must reproduce the
// defeat total of a plain single-process EnumerationContext sweep run
// in THIS process — and, on the default battery, the committed 5426593.
//
// An optional argv[1] (max_n, default 14) shrinks the battery for quick
// local runs; the 5426593 constant is only asserted on the default.
//
// The bench FAILS unless: every child process exits 0, the merged total
// equals the single-process total, the default battery's total equals
// the committed constant, every shard sealed its journal, and a re-run
// of shard 0 detects the double completion and recomputes nothing.
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "dist/merge.hpp"
#include "dist/runner.hpp"
#include "dist/serialize.hpp"
#include "dist/shard_plan.hpp"
#include "dist/workload.hpp"
#include "obs/enum_stats.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/orbit_cache.hpp"
#include "sim/simd.hpp"

namespace {

using namespace rvt;

constexpr std::uint64_t kCommittedE10Defeats = 5426593;
constexpr unsigned kShards = 4;
constexpr unsigned kProcesses = 2;

}  // namespace

int main(int argc, char** argv) {
  // RVT_TRACE_FILE=<path> arms the trace recorder here AND in every
  // child (the env is inherited): child flushes append their own
  // self-contained chunks to the same file, so one `rvt_cli trace
  // export --chrome` shows the whole distributed run.
  rvt::obs::configure_from_env();
  const int max_n = argc > 1 ? std::atoi(argv[1]) : 14;
  bench::header(
      "E13 distributed enumeration (sharded E10 battery)",
      "The E10 defeat-density battery split across " +
          std::to_string(kShards) + " shards in " +
          std::to_string(kProcesses) +
          " separate processes:\nthe "
          "merged journals must reproduce the single-process defeat count "
          "bit for bit.");

  bool all_ok = true;
  const auto workload =
      dist::EnumWorkload::parse("e10:" + std::to_string(max_n));

  // Single-process reference: a plain in-process sweep of the same
  // workload over a private in-memory cache, sized like the shard
  // processes' caches.
  bench::WallTimer single_timer;
  std::uint64_t single_total = 0;
  obs::EnumDelayTracker delay;
  {
    sim::OrbitCache cache(16, dist::memo_cache_capacity(*workload));
    sim::EnumerationContext ctx(workload->grids(), workload->max_rounds(),
                                &cache);
    for (std::uint64_t i = 0; i < workload->count(); ++i) {
      const std::uint64_t v = workload->defeats(ctx, i);
      single_total += v;
      delay.note_result(v);
    }
  }
  const obs::EnumDelayStats delay_stats = delay.finish();
  const double single_seconds = single_timer.seconds();
  std::cout << "single process: " << single_total << " defeats over "
            << workload->count() << " indices (" << single_seconds
            << " s)\n";
  if (max_n == 14) {
    all_ok = all_ok && single_total == kCommittedE10Defeats;
  }

  // Scratch layout under the working directory (CI uploads nothing from
  // it; removed on success).
  const std::string scratch =
      "e13-scratch-" + std::to_string(static_cast<int>(::getpid()));
  std::filesystem::remove_all(scratch);
  std::filesystem::create_directories(scratch);
  const std::string plan_path = scratch + "/plan.bin";
  const std::string journal_dir = scratch + "/journals";

  const dist::ShardPlan plan = dist::make_shard_plan(*workload, kShards);
  dist::write_plan(plan_path, plan);

  // Two child processes at a time, each chain running half the shards
  // sequentially; a chain stops at its first failing shard.
  const std::string cli = bench::cli_path(argv[0]);
  const auto run_chain = [&](unsigned first, int* rc) {
    for (unsigned shard = first; shard < first + kShards / kProcesses;
         ++shard) {
      *rc = bench::wait_exit(bench::spawn(
          {cli, "shard", "run", plan_path, std::to_string(shard),
           "--journal-dir", journal_dir},
          scratch + "/shard-" + std::to_string(shard) + ".log"));
      if (*rc != 0) return;
    }
  };
  bench::WallTimer dist_timer;
  int rc0 = 0, rc1 = 0;
  {
    std::thread chain1([&] { run_chain(kShards / kProcesses, &rc1); });
    run_chain(0, &rc0);
    chain1.join();
  }
  const double dist_seconds = dist_timer.seconds();
  const int spawn_rc = rc0 != 0 ? rc0 : rc1;
  std::cout << "distributed run: " << kShards << " shards / "
            << kProcesses << " processes, exit " << spawn_rc << " ("
            << dist_seconds << " s wall)\n";
  all_ok = all_ok && spawn_rc == 0;

  // Merge the sealed journals and compare.
  std::uint64_t merged_total = 0;
  util::Table table({"shard", "range", "defeats", "journal sealed"});
  try {
    const dist::MergeResult merged =
        dist::merge_journals(plan, journal_dir);
    merged_total = merged.total;
    for (std::size_t i = 0; i < merged.shards.size(); ++i) {
      const auto& s = merged.shards[i];
      table.row(i,
                "[" + std::to_string(s.spec.begin) + ", " +
                    std::to_string(s.spec.end) + ")",
                s.sum, "yes");
    }
  } catch (const std::exception& e) {
    std::cerr << "merge failed: " << e.what() << "\n";
    all_ok = false;
  }
  table.print(std::cout);
  std::cout << "\nmerged: " << merged_total
            << " defeats; single-process: " << single_total << "\n";
  all_ok = all_ok && merged_total == single_total;

  // Double completion: re-running a sealed shard must detect it and
  // recompute nothing (the library reports it; exit code stays 0).
  try {
    sim::OrbitCache cache;
    const dist::ShardRunStats rerun =
        dist::run_shard(*workload, plan, 0, journal_dir, &cache);
    std::cout << "re-run of shard 0: "
              << (rerun.already_complete ? "double completion detected"
                                         : "RECOMPUTED (BUG)")
              << "\n";
    all_ok = all_ok && rerun.already_complete && rerun.computed == 0;
  } catch (const std::exception& e) {
    std::cerr << "re-run failed: " << e.what() << "\n";
    all_ok = false;
  }

  bench::JsonReport report("E13");
  report.workload("rendezvous", 2);
  report.shards(kShards);
  report.metric("max_n", max_n);
  report.metric("processes", kProcesses);
  report.metric("merged_defeats", static_cast<double>(merged_total));
  report.metric("single_defeats", static_cast<double>(single_total));
  report.metric("single_seconds", single_seconds);
  report.metric("distributed_seconds", dist_seconds);
  report.note("simd", sim::simd_path_name());
  util::ObservabilitySummary obs_summary;
  obs_summary.time_to_first_survivor_ms =
      delay_stats.time_to_first_survivor_ns < 0
          ? -1.0
          : static_cast<double>(delay_stats.time_to_first_survivor_ns) / 1e6;
  obs_summary.inter_result_delay_p50_ms = delay_stats.delay_quantile_ms(0.50);
  obs_summary.inter_result_delay_p99_ms = delay_stats.delay_quantile_ms(0.99);
  obs_summary.results = delay_stats.results;
  obs_summary.survivors = delay_stats.survivors;
  obs_summary.trace_bytes = obs::flush();
  obs_summary.dropped_events = obs::dropped_events();
  report.observability(obs_summary);
  report.table(table);
  std::cout << "report: " << report.write() << "\n";

  if (all_ok) std::filesystem::remove_all(scratch);

  bench::verdict(all_ok,
                 "4-shard / 2-process distributed run merges bit-identical "
                 "to the single-process battery" +
                     std::string(max_n == 14
                                     ? " (committed 5426593 defeats)"
                                     : ""));
  return all_ok ? 0 : 1;
}
