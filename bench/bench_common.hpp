// Shared helpers for the experiment harnesses (E1..E16).
//
// Each bench binary reproduces one experiment from EXPERIMENTS.md: it runs
// without arguments, prints its seed, the table of results, and a PASS /
// FAIL verdict line summarizing whether the paper's qualitative claim held
// in this run. Benches additionally record wall-time (total, and per
// verification engine where both are exercised) and dump a
// machine-readable BENCH_<ID>.json report (util/bench_report.hpp — the
// schema is validated at write time, so a malformed report fails the
// bench) so perf can be tracked PR over PR.
//
// Timing discipline: the engine shoot-outs use steady_min_seconds() —
// warm-up passes followed by the MINIMUM over N timed repeats, measured
// in per-thread CPU time — so the recorded numbers track the steady
// state of the pipeline (caches populated, allocations amortized, branch
// predictors trained) instead of a single cold wall-clock shot at the
// mercy of co-tenant scheduling noise. Both engines of a shoot-out are
// measured identically, so the recorded ratio is unaffected; the repeat
// counts land in the JSON (compiled_repeats / reference_repeats) for
// trajectory comparability.
//
// The fleet benches (E14, E15, E16) drive the service tier as real
// processes: `rvt_cli serve` and `rvt_cli worker` subprocesses over
// loopback, fault-injected through RVT_FAILPOINTS in the child alone.
// Their spawn, port-file and log-parse helpers live at the end of this
// header.
#pragma once

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cctype>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/merge.hpp"
#include "dist/shard_plan.hpp"
#include "dist/workload.hpp"
#include "net/socket.hpp"
#include "sim/enumeration.hpp"
#include "sim/orbit_cache.hpp"
#include "util/bench_report.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace rvt::bench {

inline constexpr std::uint64_t kDefaultSeed = 0x5eed2010;  // SPAA 2010

inline void header(const std::string& id, const std::string& claim) {
  std::cout << "==== " << id << " ====\n" << claim << "\n"
            << "seed: " << kDefaultSeed << "\n\n";
}

inline void verdict(bool ok, const std::string& what) {
  std::cout << "\n[" << (ok ? "PASS" : "FAIL") << "] " << what << "\n\n";
}

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  void reset() { start_ = std::chrono::steady_clock::now(); }
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Per-thread CPU-time stopwatch: immune to preemption by co-tenants,
/// which on shared runners can inflate wall time arbitrarily. Only valid
/// around single-threaded work (the engine shoot-outs are, by design).
class CpuTimer {
 public:
  CpuTimer() : start_(now()) {}
  double seconds() const { return now() - start_; }

 private:
  static double now() {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
  }
  double start_;
};

/// Steady-state timing: run fn() `warmup` times untimed, then `repeats`
/// timed runs and return the MINIMUM per-thread CPU time. The warm-up
/// populates caches (orbit caches, allocator pools, page tables); the
/// min over repeats rejects residual noise (interrupt handling, cache
/// pollution from neighbors) — together they measure the workload's
/// steady-state throughput rather than one cold shot.
template <typename Fn>
double steady_min_seconds(int warmup, int repeats, Fn&& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  double best = -1.0;
  for (int i = 0; i < repeats; ++i) {
    CpuTimer timer;
    fn();
    const double s = timer.seconds();
    if (best < 0.0 || s < best) best = s;
  }
  return best < 0.0 ? 0.0 : best;
}

/// Bench-flavored BenchReport: stamps the shared bench seed. The
/// historical name JsonReport survives for the benches that predate the
/// schema helper.
class JsonReport : public util::BenchReport {
 public:
  explicit JsonReport(std::string id)
      : util::BenchReport(std::move(id), kDefaultSeed) {}
};

inline bool check(bool ok, const std::string& what) {
  std::cout << "  [" << (ok ? "ok" : "FAIL") << "] " << what << "\n";
  return ok;
}

/// The single-process ground truth a distributed run must reproduce
/// bit for bit: every index of `w` summed in one context, with a memo
/// sized like a worker's.
inline std::uint64_t single_process_defeats(const dist::EnumWorkload& w) {
  sim::OrbitCache cache(16, dist::memo_cache_capacity(w));
  sim::EnumerationContext ctx(w.grids(), w.max_rounds(), &cache);
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < w.count(); ++i) total += w.defeats(ctx, i);
  return total;
}

/// The complete merge of `journal_dir`, or 0 (reason on stderr) when
/// the journals do not merge.
inline std::uint64_t merged_total(const dist::ShardPlan& plan,
                                  const std::string& journal_dir) {
  try {
    return dist::merge_journals(plan, journal_dir).total;
  } catch (const std::exception& e) {
    std::cerr << "  merge failed: " << e.what() << "\n";
    return 0;
  }
}

// ---- subprocess fleets ------------------------------------------------------

/// The rvt_cli binary built next to this bench.
inline std::string cli_path(const char* argv0) {
  const std::filesystem::path self(argv0);
  return (self.parent_path() / "rvt_cli").string();
}

/// fork+execve with stdout/stderr redirected into `log`. A non-empty
/// `failpoints` becomes the child's RVT_FAILPOINTS, so a fault is armed
/// in that one process only. argv and envp are built before the fork:
/// the caller may be multi-threaded (E15 runs its coordinator in
/// process), and the child must not allocate. Returns the child pid;
/// the child _exits 127 if exec fails.
inline pid_t spawn(const std::vector<std::string>& args,
                   const std::string& log,
                   const std::string& failpoints = "") {
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const std::string fp_env = "RVT_FAILPOINTS=" + failpoints;
  std::vector<char*> envp;
  for (char** e = environ; *e != nullptr; ++e) {
    if (failpoints.empty() || std::strncmp(*e, "RVT_FAILPOINTS=", 15) != 0) {
      envp.push_back(*e);
    }
  }
  if (!failpoints.empty()) envp.push_back(const_cast<char*>(fp_env.c_str()));
  envp.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) {
    ::dup2(fd, 1);
    ::dup2(fd, 2);
    ::close(fd);
  }
  ::execve(argv[0], argv.data(), envp.data());
  _exit(127);
}

/// Blocks until `pid` exits; returns its exit code, or -(signal) when
/// it died to a signal (SIGKILL -> -9).
inline int wait_exit(pid_t pid) {
  int status = 0;
  if (::waitpid(pid, &status, 0) != pid) return -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  if (WIFSIGNALED(status)) return -WTERMSIG(status);
  return -1;
}

/// Appends `name v` unless v is 0, which leaves the flag to the
/// subcommand's default.
inline void push_flag(std::vector<std::string>& args, const char* name,
                      std::uint64_t v) {
  if (v == 0) return;
  args.push_back(name);
  args.push_back(std::to_string(v));
}

/// `rvt_cli serve` flags. Zero-valued numbers are left to serve's
/// defaults.
struct ServeArgs {
  std::string cli, spec, journal_dir, log;
  unsigned shards = 4;
  std::uint16_t port = 0, mport = 0;  ///< 0 = ephemeral (needs port_file)
  std::string port_file;
  std::uint64_t lease_timeout_ms = 0;
  std::uint64_t max_attempts = 0;
  bool resume = false;
  std::uint64_t expect = 0;  ///< 0 = no --expect-defeats
  std::string failpoints;    ///< RVT_FAILPOINTS for serve alone
};

inline pid_t spawn_serve(const ServeArgs& a) {
  std::vector<std::string> args{
      a.cli,           "serve",
      "--workload",    a.spec,
      "--shards",      std::to_string(a.shards),
      "--journal-dir", a.journal_dir,
      "--port",        std::to_string(a.port),
      "--metrics-port", std::to_string(a.mport)};
  push_flag(args, "--lease-timeout-ms", a.lease_timeout_ms);
  push_flag(args, "--max-attempts", a.max_attempts);
  push_flag(args, "--expect-defeats", a.expect);
  if (!a.port_file.empty()) {
    args.push_back("--port-file");
    args.push_back(a.port_file);
  }
  if (a.resume) args.push_back("--resume");
  return spawn(args, a.log, a.failpoints);
}

/// `rvt_cli worker` flags. Zero-valued numbers are left to the worker's
/// defaults.
struct WorkerArgs {
  std::string name, log;
  std::string failpoints;  ///< RVT_FAILPOINTS for this worker alone
  std::uint64_t throttle_ms = 0;
  std::uint64_t io_timeout_ms = 0;
  std::uint64_t reconnect_attempts = 0;
  std::uint64_t reconnect_base_ms = 0;
};

inline pid_t spawn_worker(const std::string& cli, std::uint16_t port,
                          const WorkerArgs& w) {
  std::vector<std::string> args{cli, "worker", "--connect",
                                "127.0.0.1:" + std::to_string(port),
                                "--name", w.name};
  push_flag(args, "--throttle-ms", w.throttle_ms);
  push_flag(args, "--io-timeout-ms", w.io_timeout_ms);
  push_flag(args, "--reconnect-attempts", w.reconnect_attempts);
  push_flag(args, "--reconnect-base-ms", w.reconnect_base_ms);
  return spawn(args, w.log, w.failpoints);
}

/// Waits for serve's port file and parses "PORT MPORT".
inline bool read_ports(const std::string& port_file, std::uint16_t* port,
                       std::uint16_t* mport) {
  for (int i = 0; i < 400; ++i) {
    std::ifstream pf(port_file);
    std::uint64_t p = 0, mp = 0;
    if (pf >> p >> mp && p != 0 && mp != 0) {
      *port = static_cast<std::uint16_t>(p);
      *mport = static_cast<std::uint16_t>(mp);
      return true;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return false;
}

inline std::string slurp(const std::string& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

/// The integer immediately BEFORE `needle` in `text` ("9 ledger records
/// replayed" with needle " ledger records replayed" -> 9); false when
/// the phrase is absent.
inline bool u64_before(const std::string& text, const std::string& needle,
                       std::uint64_t* out) {
  const std::size_t at = text.find(needle);
  if (at == std::string::npos || at == 0) return false;
  std::size_t b = at;
  while (b > 0 && std::isdigit(static_cast<unsigned char>(text[b - 1]))) --b;
  if (b == at) return false;
  *out = std::strtoull(text.c_str() + b, nullptr, 10);
  return true;
}

/// Extracts the integer value of `"key": N` from a metrics snapshot;
/// returns false when the key is absent.
inline bool metrics_u64(const std::string& body, const std::string& key,
                        std::uint64_t* out) {
  const std::string needle = "\"" + key + "\": ";
  const std::size_t at = body.find(needle);
  if (at == std::string::npos) return false;
  *out = std::strtoull(body.c_str() + at + needle.size(), nullptr, 10);
  return true;
}

/// Best-effort metrics scrape — empty string while the coordinator is
/// down/restarting.
inline std::string scrape(std::uint16_t mport) {
  try {
    return net::http_get("127.0.0.1", mport, "/");
  } catch (const std::exception&) {
    return {};
  }
}

/// Polls the metrics endpoint until `pred(body)` holds; returns the
/// last body (empty = deadline hit without a hit).
template <typename Pred>
std::string poll_metrics(std::uint16_t mport, Pred&& pred, int deadline_s) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(deadline_s);
  while (std::chrono::steady_clock::now() < deadline) {
    const std::string body = scrape(mport);
    if (!body.empty() && pred(body)) return body;
    std::this_thread::sleep_for(std::chrono::milliseconds(25));
  }
  return {};
}

}  // namespace rvt::bench
