// Command-line driver: run a rendezvous (or a k-agent gathering verdict)
// on a tree supplied as text.
//
// Usage:
//   rvt_cli <tree-file|-> <u> <v> [options]
//     --agent thm41|baseline|prime   algorithm (default thm41)
//     --delay-a N / --delay-b N      start delays (default 0)
//     --max-rounds N                 horizon (default 100000000)
//     --timed-explo                  Thm 4.1 agent with real Explo tours
//     --dot FILE                     write the instance as Graphviz DOT
//
//   rvt_cli shard plan --workload e10[:<max_n>] --shards N --out FILE
//   rvt_cli shard run <plan-file> <shard-index> --journal-dir DIR
//   rvt_cli shard merge <plan-file> --journal-dir DIR [--expect-defeats N]
//                       [--quarantine FILE]
//     The distributed-enumeration driver (src/dist/): `plan` partitions
//     a workload into content-addressed shard specs; `run` executes one
//     shard into a crash-safe journal, resuming a killed run at the
//     first uncommitted index; `merge` validates and totals the sealed
//     journals — bit-identical to a single-process sweep (with
//     --quarantine, the manifest's shards
//     may be missing and are reported as explicit uncovered ranges).
//     Exit codes: 0 ok, 1 usage/validation failure/count mismatch.
//
//   RVT_FAILPOINTS=site=action@trigger[;...] arms deterministic fault
//   injection (util/failpoint.hpp) in THIS process — `serve` and
//   `worker` included, which is how the E14 chaos battery crashes them.
//
//   rvt_cli serve --workload e10[:<max_n>] --shards N --journal-dir DIR
//                 [--plan FILE] [--port N]
//                 [--metrics-port N] [--port-file FILE] [--max-attempts N]
//                 [--lease-timeout-ms N]
//                 [--expect-defeats N] [--quarantine-out FILE] [--resume]
//   rvt_cli worker --connect HOST:PORT [--name S]
//                 [--throttle-ms N] [--io-timeout-ms N]
//                 [--reconnect-attempts N] [--reconnect-base-ms N]
//                 [--progress-interval-ms N]
//     The shard-dispatch service tier (src/svc/): `serve` runs the
//     network coordinator — it leases shard ranges to remote workers
//     over TCP, journals their streamed records locally (so requeues
//     resume from the committed prefix), requeues a shard whose worker
//     dies or stalls, quarantines one that fails --max-attempts times,
//     and blocks until every shard is sealed or quarantined. A local
//     multi-process run is one `serve` plus N `worker`s on 127.0.0.1.
//     Live progress is scraped from the metrics listener with any HTTP
//     client: `curl http://HOST:METRICS_PORT/` returns a bench-report-
//     style JSON snapshot. --port-file writes "PORT METRICS_PORT" once
//     both listeners are bound (for scripts racing against startup).
//     `worker` is the runner daemon: it drains the coordinator and
//     exits when told kDrained. `serve` exits 0 complete, 3 partial
//     coverage (quarantine manifest written, partial merge printed),
//     1 error.
//
//   rvt_cli trace export --chrome <trace-file> [--out FILE]
//     Decodes a binary trace written under RVT_TRACE_FILE (obs/trace.hpp
//     kTraceChunk frames, torn tail truncated) and emits Chrome-trace
//     JSON — load it in chrome://tracing or Perfetto. Without --out the
//     JSON goes to stdout. RVT_TRACE_FILE=<path> on any rvt_cli mode
//     (shard run, serve, worker, ...) enables recording and flushes the
//     trace on exit; `--progress-interval-ms N` on `shard run` and
//     `worker` additionally prints a structured progress line to stderr
//     at most once per interval.
//
//   rvt_cli gather <tree-file|-> <s0,s1,...> [options]
//     --delays d0,d1,...             per-agent start delays (default all 0)
//     --automaton basic|pingpong:<p>|random:<K>[:<seed>]
//                                    the identical automaton all k agents
//                                    run (default basic)
//     --lift                         lift the line automaton to the
//                                    degree-3 alphabet (Thm 4.3 victims)
//     --max-rounds N                 horizon (default 1000000)
//     --reference                    cross-check the compiled verdict
//                                    against the interpreting
//                                    run_gathering, field for field
//   answered by sim::verify_never_gather_compiled on the k-tuple verdict
//   core; equal starts are allowed (co-located agents stay merged).
//
// The tree format is tree/io.hpp's: node count, then "u v port_u port_v"
// per edge; '-' reads stdin. Exit code: 0 met/gathered, 2 not
// met/not gathered, 1 usage/infeasible/mismatch.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/baseline.hpp"
#include "core/prime_protocol.hpp"
#include "core/rendezvous_agent.hpp"
#include "dist/merge.hpp"
#include "dist/runner.hpp"
#include "dist/serialize.hpp"
#include "dist/shard_plan.hpp"
#include "dist/workload.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "sim/automaton.hpp"
#include "sim/compiled.hpp"
#include "sim/simulator.hpp"
#include "svc/coordinator.hpp"
#include "svc/worker.hpp"
#include "tree/canonical.hpp"
#include "tree/io.hpp"
#include "util/failpoint.hpp"
#include "util/rng.hpp"

namespace {

int usage() {
  std::cerr << "usage: rvt_cli <tree-file|-> <u> <v> [--agent "
               "thm41|baseline|prime] [--delay-a N] [--delay-b N] "
               "[--max-rounds N] [--timed-explo] [--dot FILE]\n"
               "       rvt_cli gather <tree-file|-> <s0,s1,...> "
               "[--delays d0,d1,...] [--automaton "
               "basic|pingpong:<p>|random:<K>[:<seed>]] [--lift] "
               "[--max-rounds N] [--reference]\n"
               "       rvt_cli shard plan --workload e10[:<max_n>] "
               "--shards N --out FILE\n"
               "       rvt_cli shard run <plan-file> <shard-index> "
               "--journal-dir DIR [--progress-interval-ms N]\n"
               "       rvt_cli shard merge <plan-file> --journal-dir DIR "
               "[--expect-defeats N] [--quarantine FILE]\n"
               "       rvt_cli serve --workload e10[:<max_n>] --shards N "
               "--journal-dir DIR [--plan FILE] "
               "[--port N] [--metrics-port N] [--port-file FILE] "
               "[--max-attempts N] [--lease-timeout-ms N] "
               "[--expect-defeats N] [--quarantine-out FILE] [--resume]\n"
               "         (metrics: curl http://HOST:METRICS_PORT/ for a "
               "live JSON snapshot; --resume replays the run ledger in "
               "--journal-dir after a crash; exit 3 = quarantined "
               "shards, manifest written)\n"
               "       rvt_cli worker --connect HOST:PORT [--name S] "
               "[--throttle-ms N] [--io-timeout-ms N] "
               "[--reconnect-attempts N] [--reconnect-base-ms N] "
               "[--progress-interval-ms N]\n"
               "         (a local multi-process run is one serve plus N "
               "workers on 127.0.0.1)\n"
               "       rvt_cli trace export --chrome <trace-file> "
               "[--out FILE]\n"
               "         (RVT_TRACE_FILE=<path> on any mode records a "
               "binary trace, flushed on exit)\n";
  return 1;
}

/// Strict u64 parse: the whole token must be digits — a typoed count in
/// a CI assertion must be a usage error, never a silent truncation.
bool parse_u64_strict(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0';
}

int run_shard_mode(int argc, char** argv) {
  using namespace rvt;
  if (argc < 3) return usage();
  const std::string verb = argv[2];

  if (verb == "plan") {
    std::string workload_spec = "e10";
    unsigned shards = 4;
    std::string out;
    for (int i = 3; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::cerr << a << " needs a value\n";
          std::exit(1);
        }
        return argv[++i];
      };
      if (a == "--workload") {
        workload_spec = next();
      } else if (a == "--shards") {
        std::uint64_t n = 0;
        if (!parse_u64_strict(next(), n) || n == 0 || n > 1u << 20) {
          std::cerr << "bad shard count: " << argv[i] << "\n";
          return 1;
        }
        shards = static_cast<unsigned>(n);
      } else if (a == "--out") {
        out = next();
      } else {
        return usage();
      }
    }
    if (out.empty() || shards == 0) return usage();
    try {
      const auto w = dist::EnumWorkload::parse(workload_spec);
      const dist::ShardPlan plan = dist::make_shard_plan(*w, shards);
      dist::write_plan(out, plan);
      std::cout << "plan: workload " << w->spec() << ", " << plan.count
                << " indices, " << plan.shards.size()
                << " shards, fingerprint "
                << dist::shard_id_hex(plan.fingerprint) << "\n";
      for (std::size_t i = 0; i < plan.shards.size(); ++i) {
        const auto& s = plan.shards[i];
        std::cout << "  shard " << i << ": [" << s.begin << ", " << s.end
                  << ") id " << dist::shard_id_hex(s.id) << "\n";
      }
      std::cout << "wrote " << out << "\n";
    } catch (const std::exception& e) {
      std::cerr << "shard plan: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }

  if (verb == "run") {
    if (argc < 5) return usage();
    const std::string plan_path = argv[3];
    // A typoed shard index must be a usage error, not a silent re-run
    // of shard 0.
    std::uint64_t shard_parsed = 0;
    if (!parse_u64_strict(argv[4], shard_parsed)) {
      std::cerr << "bad shard index: " << argv[4] << "\n";
      return 1;
    }
    const std::size_t shard_index = static_cast<std::size_t>(shard_parsed);
    std::string journal_dir;
    dist::ShardRunOptions run_opt;
    for (int i = 5; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::cerr << a << " needs a value\n";
          std::exit(1);
        }
        return argv[++i];
      };
      if (a == "--journal-dir") {
        journal_dir = next();
      } else if (a == "--progress-interval-ms") {
        if (!parse_u64_strict(next(), run_opt.progress_interval_ms)) {
          std::cerr << "bad value for --progress-interval-ms: " << argv[i]
                    << "\n";
          return 1;
        }
      } else {
        return usage();
      }
    }
    if (journal_dir.empty()) return usage();
    try {
      const dist::ShardPlan plan = dist::load_plan(plan_path);
      const auto w = dist::EnumWorkload::parse(plan.workload_spec);
      sim::OrbitCache cache(16, dist::memo_cache_capacity(*w));
      const dist::ShardRunStats stats =
          dist::run_shard(*w, plan, shard_index, journal_dir, &cache, run_opt);
      const auto cs = cache.stats();
      if (stats.already_complete) {
        std::cout << "shard " << shard_index
                  << ": already complete (double completion detected), sum "
                  << stats.sum << "\n";
      } else {
        std::cout << "shard " << shard_index << ": resumed past "
                  << stats.committed_before << ", computed "
                  << stats.computed << ", sum " << stats.sum
                  << " (cache: " << cs.hits << " hits, " << cs.misses
                  << " misses; " << stats.telemetry.canonical_collapses
                  << " canonical collapses)\n";
      }
    } catch (const std::exception& e) {
      std::cerr << "shard run: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }

  if (verb == "merge") {
    if (argc < 4) return usage();
    const std::string plan_path = argv[3];
    std::string journal_dir, quarantine_path;
    std::uint64_t expect = 0;
    bool have_expect = false;
    for (int i = 4; i < argc; ++i) {
      const std::string a = argv[i];
      auto next = [&]() -> const char* {
        if (i + 1 >= argc) {
          std::cerr << a << " needs a value\n";
          std::exit(1);
        }
        return argv[++i];
      };
      if (a == "--journal-dir") {
        journal_dir = next();
      } else if (a == "--quarantine") {
        quarantine_path = next();
      } else if (a == "--expect-defeats") {
        if (!parse_u64_strict(next(), expect)) {
          std::cerr << "bad expected defeat count: " << argv[i] << "\n";
          return 1;
        }
        have_expect = true;
      } else {
        return usage();
      }
    }
    if (journal_dir.empty()) return usage();
    try {
      const dist::ShardPlan plan = dist::load_plan(plan_path);
      std::optional<dist::QuarantineManifest> quarantine;
      if (!quarantine_path.empty()) {
        quarantine = dist::load_quarantine_manifest(quarantine_path);
      }
      const dist::MergeResult merged = dist::merge_journals(
          plan, journal_dir, quarantine ? &*quarantine : nullptr);
      for (std::size_t i = 0; i < merged.shards.size(); ++i) {
        const auto& s = merged.shards[i];
        std::cout << "shard " << i << ": [" << s.spec.begin << ", "
                  << s.spec.end << ") defeats " << s.sum << "\n";
      }
      if (merged.complete()) {
        std::cout << "merged: " << merged.total << " defeats over "
                  << merged.indices << " indices\n";
      } else {
        // Partial coverage: the total is explicit about what it does
        // NOT cover — it is a lower bound, never "the" count.
        std::cout << "merged (PARTIAL): " << merged.total
                  << " defeats over " << merged.covered << " of "
                  << merged.indices << " indices; missing:";
        for (const auto& [b, e] : merged.missing) {
          std::cout << " [" << b << ", " << e << ")";
        }
        std::cout << "\n";
      }
      if (have_expect) {
        if (!merged.complete()) {
          std::cerr << "merge: cannot assert a defeat count over partial "
                       "coverage ("
                    << merged.indices - merged.covered
                    << " indices missing)\n";
          return 1;
        }
        if (merged.total != expect) {
          std::cerr << "merge: expected " << expect << " defeats, got "
                    << merged.total << "\n";
          return 1;
        }
      }
    } catch (const std::exception& e) {
      std::cerr << "shard merge: " << e.what() << "\n";
      return 1;
    }
    return 0;
  }

  return usage();
}

int run_serve_mode(int argc, char** argv) {
  using namespace rvt;
  std::string workload_spec = "e10", plan_path, journal_dir;
  std::string port_file, quarantine_out;
  std::uint64_t shards = 4, port = 0, metrics_port = 0;
  std::uint64_t max_attempts = 3, lease_ms = 10000;
  std::uint64_t expect = 0;
  bool have_expect = false;
  bool resume = false;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << a << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    auto next_u64 = [&](std::uint64_t& out) {
      if (!parse_u64_strict(next(), out)) {
        std::cerr << "bad value for " << a << ": " << argv[i] << "\n";
        std::exit(1);
      }
    };
    if (a == "--workload") {
      workload_spec = next();
    } else if (a == "--plan") {
      plan_path = next();
    } else if (a == "--shards") {
      next_u64(shards);
    } else if (a == "--journal-dir") {
      journal_dir = next();
    } else if (a == "--port") {
      next_u64(port);
    } else if (a == "--metrics-port") {
      next_u64(metrics_port);
    } else if (a == "--port-file") {
      port_file = next();
    } else if (a == "--max-attempts") {
      next_u64(max_attempts);
    } else if (a == "--lease-timeout-ms") {
      next_u64(lease_ms);
    } else if (a == "--expect-defeats") {
      next_u64(expect);
      have_expect = true;
    } else if (a == "--quarantine-out") {
      quarantine_out = next();
    } else if (a == "--resume") {
      resume = true;
    } else {
      return usage();
    }
  }
  if (journal_dir.empty() || shards == 0 || max_attempts == 0 ||
      port > 65535 || metrics_port > 65535) {
    return usage();
  }
  try {
    dist::ShardPlan plan;
    if (!plan_path.empty()) {
      plan = dist::load_plan(plan_path);
    } else {
      const auto w = dist::EnumWorkload::parse(workload_spec);
      plan = dist::make_shard_plan(*w, static_cast<unsigned>(shards));
    }
    svc::CoordinatorConfig cfg;
    cfg.journal_dir = journal_dir;
    cfg.port = static_cast<std::uint16_t>(port);
    cfg.metrics_port = static_cast<std::uint16_t>(metrics_port);
    cfg.max_attempts = static_cast<unsigned>(max_attempts);
    cfg.lease_timeout = std::chrono::milliseconds(lease_ms);
    cfg.resume = resume;
    svc::Coordinator coord(plan, cfg);
    std::cout << "serve: workload " << plan.workload_spec << ", "
              << plan.count << " indices, " << plan.shards.size()
              << " shards; dispatch port " << coord.port()
              << ", metrics http://127.0.0.1:" << coord.metrics_port()
              << "/ (Prometheus at /metrics); campaign id "
              << coord.campaign_id() << "\n"
              << std::flush;
    if (resume) {
      const svc::ServiceReport r0 = coord.report();
      std::cout << "serve: resumed from run ledger ("
                << r0.ledger_records_replayed << " records replayed, "
                << r0.ledger_torn_bytes_truncated
                << " torn bytes truncated)\n"
                << std::flush;
    }
    if (!port_file.empty()) {
      // Written-then-renamed so a polling script never reads a torn
      // half-written port number.
      const std::string tmp = port_file + ".tmp";
      {
        std::ofstream pf(tmp);
        pf << coord.port() << " " << coord.metrics_port() << "\n";
        pf.flush();
        if (!pf.good()) {
          std::cerr << "serve: cannot write " << port_file << "\n";
          return 1;
        }
      }
      if (std::rename(tmp.c_str(), port_file.c_str()) != 0) {
        std::cerr << "serve: cannot publish " << port_file << "\n";
        return 1;
      }
    }
    coord.wait_complete();
    // Idle workers hold a lease request and hear kDrained the moment the
    // last shard seals, but the worker that sealed it still has to send
    // its next lease request to learn the campaign is over; stopping at
    // once would strand it in its reconnect backoff. Give connected
    // workers a bounded window to hear kDrained and hang up.
    const auto drain_deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    const auto worker_connected = [&coord] {
      for (const svc::RunnerHealth& h : coord.report().runners) {
        if (h.connected && h.role == "worker") return true;
      }
      return false;
    };
    while (worker_connected() &&
           std::chrono::steady_clock::now() < drain_deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const svc::ServiceReport rep = coord.report();
    coord.stop();
    std::cout << "serve: " << rep.shards_completed << "/" << rep.shards_total
              << " shards sealed, " << rep.leases_granted << " leases, "
              << rep.lease_expiries << " lease expiries, "
              << rep.shards_requeued << " requeues, "
              << rep.shards_quarantined << " quarantined, "
              << rep.runners_seen << " runners, "
              << rep.journal_bytes_streamed << " journal bytes streamed\n"
              << "recovery: epoch " << rep.ledger_epoch << ", "
              << rep.ledger_records_replayed << " ledger records replayed, "
              << rep.leases_regranted << " leases regranted, "
              << rep.stale_tokens_fenced << " stale tokens fenced, "
              << rep.worker_reconnects << " worker reconnects\n";
    if (!rep.all_complete()) {
      const dist::QuarantineManifest m = coord.quarantine_manifest();
      const std::string out_path = quarantine_out.empty()
                                       ? journal_dir + "/quarantine.bin"
                                       : quarantine_out;
      dist::write_quarantine_manifest(out_path, m);
      const dist::MergeResult merged =
          dist::merge_journals(plan, journal_dir, &m);
      std::cout << "quarantine manifest: " << out_path << " ("
                << m.entries.size() << " shards)\n"
                << "merged (PARTIAL): " << merged.total << " defeats over "
                << merged.covered << " of " << merged.indices
                << " indices\n";
      return 3;
    }
    const dist::MergeResult merged = dist::merge_journals(plan, journal_dir);
    std::cout << "merged: " << merged.total << " defeats over "
              << merged.indices << " indices\n";
    if (have_expect && merged.total != expect) {
      std::cerr << "serve: expected " << expect << " defeats, got "
                << merged.total << "\n";
      return 1;
    }
  } catch (const std::exception& e) {
    std::cerr << "serve: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

int run_worker_mode(int argc, char** argv) {
  using namespace rvt;
  std::string connect;
  svc::WorkerOptions opt;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << a << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (a == "--connect") {
      connect = next();
    } else if (a == "--name") {
      opt.name = next();
    } else if (a == "--throttle-ms") {
      if (!parse_u64_strict(next(), opt.throttle_ms)) {
        std::cerr << "bad value for --throttle-ms: " << argv[i] << "\n";
        return 1;
      }
    } else if (a == "--io-timeout-ms") {
      if (!parse_u64_strict(next(), opt.io_timeout_ms)) {
        std::cerr << "bad value for --io-timeout-ms: " << argv[i] << "\n";
        return 1;
      }
    } else if (a == "--reconnect-attempts") {
      std::uint64_t n = 0;
      if (!parse_u64_strict(next(), n) || n == 0) {
        std::cerr << "bad value for --reconnect-attempts: " << argv[i]
                  << "\n";
        return 1;
      }
      opt.reconnect.max_attempts = static_cast<unsigned>(n);
    } else if (a == "--reconnect-base-ms") {
      std::uint64_t n = 0;
      if (!parse_u64_strict(next(), n)) {
        std::cerr << "bad value for --reconnect-base-ms: " << argv[i]
                  << "\n";
        return 1;
      }
      opt.reconnect.base_delay = std::chrono::milliseconds(n);
    } else if (a == "--progress-interval-ms") {
      if (!parse_u64_strict(next(), opt.progress_interval_ms)) {
        std::cerr << "bad value for --progress-interval-ms: " << argv[i]
                  << "\n";
        return 1;
      }
    } else {
      return usage();
    }
  }
  const std::size_t colon = connect.rfind(':');
  std::uint64_t port = 0;
  if (connect.empty() || colon == std::string::npos || colon == 0 ||
      !parse_u64_strict(connect.c_str() + colon + 1, port) || port == 0 ||
      port > 65535) {
    std::cerr << "worker: --connect needs HOST:PORT\n";
    return usage();
  }
  try {
    const svc::WorkerReport rep = svc::run_worker(
        connect.substr(0, colon), static_cast<std::uint16_t>(port), opt);
    std::cout << "worker " << opt.name << ": " << rep.leases << " leases, "
              << rep.sealed << " sealed, " << rep.revoked << " revoked, "
              << rep.indices << " indices, " << rep.defeats << " defeats, "
              << rep.chunks << " chunks, " << rep.reconnects
              << " reconnects, " << rep.fenced << " fenced\n";
  } catch (const std::exception& e) {
    std::cerr << "worker: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

int run_trace_mode(int argc, char** argv) {
  using namespace rvt;
  if (argc < 3 || std::strcmp(argv[2], "export") != 0) return usage();
  bool chrome = false;
  std::string trace_file, out_file;
  for (int i = 3; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--chrome") {
      chrome = true;
    } else if (a == "--out") {
      if (i + 1 >= argc) {
        std::cerr << a << " needs a value\n";
        return 1;
      }
      out_file = argv[++i];
    } else if (trace_file.empty() && a.rfind("--", 0) != 0) {
      trace_file = a;
    } else {
      return usage();
    }
  }
  // --chrome is the only format today, but demanding it keeps the door
  // open for others without a silent default changing under scripts.
  if (!chrome || trace_file.empty()) return usage();
  try {
    const obs::TraceFile trace = obs::read_trace_file(trace_file);
    std::size_t events = 0;
    for (const auto& c : trace.chunks) events += c.events.size();
    if (trace.truncated_bytes != 0) {
      std::cerr << "trace export: truncated " << trace.truncated_bytes
                << " torn tail bytes\n";
    }
    const std::string json = obs::export_chrome_trace(trace);
    if (out_file.empty()) {
      std::cout << json;
    } else {
      std::ofstream out(out_file, std::ios::binary);
      out << json;
      out.flush();
      if (!out.good()) {
        std::cerr << "trace export: cannot write " << out_file << "\n";
        return 1;
      }
      std::cerr << "trace export: " << trace.chunks.size() << " chunks, "
                << events << " events -> " << out_file << "\n";
    }
  } catch (const std::exception& e) {
    std::cerr << "trace export: " << e.what() << "\n";
    return 1;
  }
  return 0;
}

std::string read_tree_text(const char* arg, bool& ok) {
  ok = true;
  if (std::strcmp(arg, "-") == 0) {
    std::ostringstream ss;
    ss << std::cin.rdbuf();
    return ss.str();
  }
  std::ifstream f(arg);
  if (!f) {
    std::cerr << "cannot open " << arg << "\n";
    ok = false;
    return {};
  }
  std::ostringstream ss;
  ss << f.rdbuf();
  return ss.str();
}

/// "1,2,3" -> {1, 2, 3}; returns false on junk.
bool parse_u64_list(const std::string& text, std::vector<std::uint64_t>& out) {
  std::stringstream ss(text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) return false;
    char* end = nullptr;
    out.push_back(std::strtoull(item.c_str(), &end, 10));
    if (end == nullptr || *end != '\0') return false;
  }
  return !out.empty();
}

int run_gather_mode(int argc, char** argv) {
  using namespace rvt;
  if (argc < 4) return usage();
  bool ok = false;
  const std::string text = read_tree_text(argv[2], ok);
  if (!ok) return 1;
  tree::Tree t = tree::Tree::single_node();
  try {
    t = tree::from_text(text);
  } catch (const std::exception& e) {
    std::cerr << "bad tree: " << e.what() << "\n";
    return 1;
  }

  std::vector<std::uint64_t> starts_raw;
  if (!parse_u64_list(argv[3], starts_raw)) {
    std::cerr << "bad start list: " << argv[3] << "\n";
    return 1;
  }
  std::vector<std::uint64_t> delays;
  std::string automaton_spec = "basic";
  bool lift = false, reference = false;
  std::uint64_t max_rounds = 1000000ull;
  for (int i = 4; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << a << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (a == "--delays") {
      if (!parse_u64_list(next(), delays)) {
        std::cerr << "bad delay list\n";
        return 1;
      }
    } else if (a == "--automaton") {
      automaton_spec = next();
    } else if (a == "--lift") {
      lift = true;
    } else if (a == "--max-rounds") {
      max_rounds = std::strtoull(next(), nullptr, 10);
    } else if (a == "--reference") {
      reference = true;
    } else {
      return usage();
    }
  }

  // Resolve the automaton spec into the tabular form all k agents run.
  sim::LineAutomaton line_automaton;
  if (automaton_spec == "basic") {
    line_automaton = sim::basic_walker_automaton();
  } else if (automaton_spec.rfind("pingpong:", 0) == 0) {
    const int p = std::atoi(automaton_spec.c_str() + 9);
    if (p < 1) {
      std::cerr << "pingpong needs p >= 1\n";
      return 1;
    }
    line_automaton = sim::ping_pong_walker(p);
  } else if (automaton_spec.rfind("random:", 0) == 0) {
    std::vector<std::uint64_t> kv;
    if (!parse_u64_list(automaton_spec.substr(7), kv) || kv.empty() ||
        kv.size() > 2 || kv[0] == 0) {
      std::cerr << "random needs K[:seed] with K >= 1\n";
      return 1;
    }
    util::Rng rng(kv.size() > 1 ? kv[1] : 0x5eed2010ull);
    line_automaton =
        sim::random_line_automaton(static_cast<int>(kv[0]), rng);
  } else {
    std::cerr << "unknown automaton: " << automaton_spec << "\n";
    return 1;
  }
  const sim::TabularAutomaton automaton =
      lift ? sim::lift_to_tree_automaton(line_automaton).tabular()
           : line_automaton.tabular();

  std::vector<tree::NodeId> starts;
  for (const std::uint64_t s : starts_raw) {
    if (s >= static_cast<std::uint64_t>(t.node_count())) {
      std::cerr << "start " << s << " out of range [0, " << t.node_count()
                << ")\n";
      return 1;
    }
    starts.push_back(static_cast<tree::NodeId>(s));
  }
  std::cout << "tree: n=" << t.node_count() << " max-degree "
            << t.max_degree() << "; k=" << starts.size()
            << " agents; automaton " << automaton_spec
            << (lift ? " (lifted)" : "") << "; horizon " << max_rounds
            << "\n";

  sim::GatherVerdict verdict;
  try {
    const sim::CompiledConfigEngine engine(t, automaton);
    verdict =
        sim::verify_never_gather_compiled(engine, starts, delays, max_rounds);
  } catch (const std::exception& e) {
    std::cerr << "cannot verify: " << e.what()
              << (t.max_degree() > automaton.max_degree
                      ? " (try --lift for degree-3 trees)"
                      : "")
              << "\n";
    return 1;
  }
  if (verdict.gathered) {
    std::cout << "GATHERED at node " << verdict.gather_node << " in round "
              << verdict.gather_round << " (compiled k-tuple core)\n";
  } else if (verdict.certified_forever) {
    std::cout << "never gathers (certified forever; joint cycle "
              << verdict.cycle_length << ")\n";
  } else {
    std::cout << "no gathering within " << max_rounds << " rounds\n";
  }

  if (reference) {
    std::vector<std::unique_ptr<sim::TabularAutomatonAgent>> agents;
    std::vector<sim::Agent*> raw;
    for (std::size_t i = 0; i < starts.size(); ++i) {
      agents.push_back(std::make_unique<sim::TabularAutomatonAgent>(automaton));
      raw.push_back(agents.back().get());
    }
    const auto ref =
        sim::run_gathering(t, raw, {starts, delays, max_rounds});
    const bool match =
        ref.gathered == verdict.gathered &&
        (!ref.gathered || (ref.gather_round == verdict.gather_round &&
                           ref.gather_node == verdict.gather_node)) &&
        ref.rounds_executed == verdict.rounds_checked;
    std::cout << "reference cross-check: "
              << (match ? "MATCH" : "MISMATCH") << " (run_gathering: "
              << (ref.gathered ? "gathered round " +
                                     std::to_string(ref.gather_round) +
                                     " node " +
                                     std::to_string(ref.gather_node)
                               : "not gathered")
              << ", " << ref.rounds_executed << " rounds)\n";
    if (!match) return 1;
  }
  return verdict.gathered ? 0 : 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace rvt;
  try {
    util::FailPointRegistry::instance().configure_from_env();
  } catch (const std::exception& e) {
    std::cerr << "RVT_FAILPOINTS: " << e.what() << "\n";
    return 1;
  }
  // RVT_TRACE_FILE=<path> arms the trace recorder for any mode; the
  // matching flush below is the quiescent point every mode exits
  // through.
  obs::configure_from_env();
  const auto finish = [](int rc) {
    obs::flush();
    return rc;
  };
  if (argc >= 2 && std::strcmp(argv[1], "shard") == 0) {
    return finish(run_shard_mode(argc, argv));
  }
  if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
    return finish(run_serve_mode(argc, argv));
  }
  if (argc >= 2 && std::strcmp(argv[1], "worker") == 0) {
    return finish(run_worker_mode(argc, argv));
  }
  if (argc >= 2 && std::strcmp(argv[1], "trace") == 0) {
    return run_trace_mode(argc, argv);
  }
  if (argc >= 2 && std::strcmp(argv[1], "gather") == 0) {
    return run_gather_mode(argc, argv);
  }
  if (argc < 4) return usage();

  bool read_ok = false;
  const std::string text = read_tree_text(argv[1], read_ok);
  if (!read_ok) return 1;

  tree::Tree t = tree::Tree::single_node();
  try {
    t = tree::from_text(text);
  } catch (const std::exception& e) {
    std::cerr << "bad tree: " << e.what() << "\n";
    return 1;
  }

  const tree::NodeId u = std::atoi(argv[2]);
  const tree::NodeId v = std::atoi(argv[3]);
  std::string agent_kind = "thm41";
  std::uint64_t delay_a = 0, delay_b = 0, max_rounds = 100000000ull;
  bool timed_explo = false;
  std::string dot_file;
  for (int i = 4; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::cerr << a << " needs a value\n";
        std::exit(1);
      }
      return argv[++i];
    };
    if (a == "--agent") {
      agent_kind = next();
    } else if (a == "--delay-a") {
      delay_a = std::strtoull(next(), nullptr, 10);
    } else if (a == "--delay-b") {
      delay_b = std::strtoull(next(), nullptr, 10);
    } else if (a == "--max-rounds") {
      max_rounds = std::strtoull(next(), nullptr, 10);
    } else if (a == "--timed-explo") {
      timed_explo = true;
    } else if (a == "--dot") {
      dot_file = next();
    } else {
      return usage();
    }
  }

  if (u < 0 || u >= t.node_count() || v < 0 || v >= t.node_count() ||
      u == v) {
    std::cerr << "bad start positions\n";
    return 1;
  }
  if (!dot_file.empty()) {
    std::ofstream out(dot_file);
    out << tree::to_dot(t, {{u, "lightblue"}, {v, "salmon"}});
    std::cout << "wrote " << dot_file << "\n";
  }

  std::cout << "tree: n=" << t.node_count() << " leaves=" << t.leaf_count()
            << "; starts " << u << ", " << v << "; delays " << delay_a
            << ", " << delay_b << "\n";
  const bool symmetrizable = tree::perfectly_symmetrizable(t, u, v);
  std::cout << "perfectly symmetrizable: " << (symmetrizable ? "YES" : "no")
            << (symmetrizable ? " (no algorithm can guarantee rendezvous)"
                              : "")
            << "\n";

  std::unique_ptr<sim::Agent> a, b;
  if (agent_kind == "thm41") {
    core::RendezvousOptions opt;
    opt.timed_explo = timed_explo;
    a = std::make_unique<core::RendezvousAgent>(t, u, opt);
    b = std::make_unique<core::RendezvousAgent>(t, v, opt);
  } else if (agent_kind == "baseline") {
    a = std::make_unique<core::BaselineAgent>(t, u);
    b = std::make_unique<core::BaselineAgent>(t, v);
  } else if (agent_kind == "prime") {
    if (t.max_degree() > 2) {
      std::cerr << "prime agent runs on paths only\n";
      return 1;
    }
    a = std::make_unique<core::PrimeAgent>();
    b = std::make_unique<core::PrimeAgent>();
  } else {
    return usage();
  }

  const auto r = sim::run_rendezvous(
      t, *a, *b, {u, v, delay_a, delay_b, max_rounds});
  if (r.met) {
    std::cout << "MET at node " << r.meeting_node << " in round "
              << r.meeting_round << "; memory " << r.memory_bits_a << "/"
              << r.memory_bits_b << " bits; moves " << r.moves_a << "/"
              << r.moves_b << "\n";
    return 0;
  }
  std::cout << "no meeting within " << max_rounds << " rounds\n";
  return 2;
}
