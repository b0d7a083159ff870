// rvtbench — the repository benchmark.
//
//   rvtbench --workload <campaign-k3|frontier-k4|fleet-e10> --seed <n>
//            --seconds <s> --trace <0|1> --scratch <dir>
//   rvtbench --self-check --scratch <dir>
//
// A run measures one workload for about --seconds, checks its outputs
// and prints every metric by name with its unit, then one JSON object
// as the last stdout line:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// metrics of a separate traced run. --scratch is a run-private
// directory (created, and removed at exit). Normally invoked through
// rvtbench/run.py, which builds this binary first.
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>
#include <thread>

#include "harness.hpp"
#include "sim/simd.hpp"
#include "workloads.hpp"

#ifndef RVTBENCH_BUILD_TYPE
#define RVTBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace rvtbench;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "rvtbench: " << why
            << "\nusage: rvtbench --workload <campaign-k3|frontier-k4|"
               "fleet-e10> --seed <n> --seconds <s> --trace <0|1> "
               "--scratch <dir>\n       rvtbench --self-check --scratch "
               "<dir>\n";
  std::exit(2);
}

/// Removes the scratch directory however main exits.
struct ScratchDir {
  std::string path;
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
};

int self_check(const std::string& scratch) {
  Checks checks;
  self_check_campaign(checks);
  self_check_frontier(checks);
  self_check_fleet(scratch, checks);
  std::cout << (checks.all_ok() ? "[PASS]" : "[FAIL]")
            << " rvtbench self-check\n";
  return checks.all_ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool self = false;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-check") {
      self = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + a);
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
        have_seconds = opt.seconds > 0;
      } else if (a == "--trace") {
        if (v != "0" && v != "1") usage("--trace takes 0 or 1");
        opt.trace = v == "1";
        have_trace = true;
      } else if (a == "--scratch") {
        opt.scratch = v;
      } else {
        usage("unknown option " + a);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + a + ": " + v);
    }
  }
  if (opt.scratch.empty()) usage("--scratch is required");
  std::filesystem::create_directories(opt.scratch);
  const ScratchDir cleanup{opt.scratch};
  if (self) return self_check(opt.scratch);
  if (!have_seed || !have_seconds || !have_trace) {
    usage("--seed, --seconds (> 0) and --trace are required");
  }

  std::cout << "rvtbench workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << opt.seconds << " trace=" << opt.trace
            << " nproc=" << std::thread::hardware_concurrency()
            << " simd=" << rvt::sim::simd_path_name()
            << " build=" << RVTBENCH_BUILD_TYPE << "\n";
  Report report(opt.trace);
  Checks checks;
  Outcome out;
  try {
    if (opt.workload == "campaign-k3") {
      out = run_campaign_k3(opt, report, checks);
    } else if (opt.workload == "frontier-k4") {
      out = run_frontier_k4(opt, report, checks);
    } else if (opt.workload == "fleet-e10") {
      out = run_fleet_e10(opt, report, checks);
    } else {
      usage("unknown workload '" + opt.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "rvtbench: " << opt.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  std::cout << "error_rate " << out.failed << "/" << out.attempted << "\n";
  report.print(checks.all_ok(), out.attempted, out.failed);
  return checks.all_ok() ? 0 : 1;
}
