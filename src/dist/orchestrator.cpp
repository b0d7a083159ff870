#include "dist/orchestrator.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <deque>
#include <filesystem>
#include <stdexcept>
#include <thread>

namespace rvt::dist {

namespace {

using Clock = std::chrono::steady_clock;

/// Sealed-and-correctly-bound is the ONE success criterion — a child's
/// exit status is only diagnostics (a runner can seal and then die, and
/// a stale child can exit 0 without having sealed this plan's shard).
bool shard_sealed(const std::string& journal_dir, const ShardPlan& plan,
                  const ShardSpec& spec) {
  try {
    const std::optional<JournalState> st =
        read_journal(journal_path(journal_dir, spec));
    return st.has_value() && st->complete &&
           st->header.shard_id == spec.id &&
           st->header.fingerprint == plan.fingerprint &&
           st->header.begin == spec.begin && st->header.end == spec.end;
  } catch (const SerializeError&) {
    return false;
  }
}

std::uint64_t journal_size(const std::string& journal_dir,
                           const ShardSpec& spec) {
  std::error_code ec;
  const auto n = std::filesystem::file_size(journal_path(journal_dir, spec), ec);
  return ec ? 0 : static_cast<std::uint64_t>(n);
}

struct Running {
  pid_t pid = -1;
  std::size_t shard = 0;
  unsigned attempt = 0;
  std::uint64_t last_size = 0;
  Clock::time_point last_progress;
  bool lease_expired = false;
};

}  // namespace

std::string ShardAttempt::summary() const {
  std::string s = "attempt " + std::to_string(attempt) + ": ";
  if (pid < 0) return s + "launch failed";
  s += "pid " + std::to_string(pid);
  if (lease_expired) {
    s += " lease expired (killed)";
  } else if (term_signal != 0) {
    s += " signaled " + std::to_string(term_signal);
  } else {
    s += " exited " + std::to_string(exit_code);
  }
  return s;
}

std::string ShardOutcome::diagnostics() const {
  std::string s;
  for (const ShardAttempt& a : failures) {
    if (!s.empty()) s += "; ";
    s += a.summary();
  }
  return s;
}

OrchestratorReport orchestrate(const ShardPlan& plan,
                               const OrchestratorConfig& cfg,
                               const ShardLauncher& launch) {
  if (cfg.journal_dir.empty() || cfg.max_concurrent == 0 ||
      cfg.max_attempts == 0) {
    throw std::invalid_argument(
        "orchestrate: journal_dir, max_concurrent and max_attempts are "
        "required");
  }
  std::error_code ec;
  std::filesystem::create_directories(cfg.journal_dir, ec);
  if (ec) {
    throw SerializeError("orchestrate: cannot create journal dir " +
                         cfg.journal_dir + ": " + ec.message());
  }

  OrchestratorReport report;
  report.shards.resize(plan.shards.size());
  std::deque<std::size_t> pending;
  std::vector<unsigned> attempts(plan.shards.size(), 0);
  for (std::size_t i = 0; i < plan.shards.size(); ++i) {
    report.shards[i].shard_index = i;
    if (shard_sealed(cfg.journal_dir, plan, plan.shards[i])) {
      report.shards[i].completed = true;
      report.shards[i].already_complete = true;
    } else {
      pending.push_back(i);
    }
  }

  const std::vector<std::pair<std::string, std::string>> no_env;
  std::vector<Running> running;

  const auto record_failure = [&](const Running& r, int status) {
    ShardAttempt a;
    a.attempt = r.attempt;
    a.pid = r.pid;
    a.lease_expired = r.lease_expired;
    if (r.pid >= 0) {
      if (WIFEXITED(status)) {
        a.exit_code = WEXITSTATUS(status);
      } else if (WIFSIGNALED(status)) {
        a.term_signal = WTERMSIG(status);
      }
    }
    report.shards[r.shard].failures.push_back(std::move(a));
    if (attempts[r.shard] < cfg.max_attempts) {
      ++report.requeues;
      pending.push_back(r.shard);
    } else {
      ++report.quarantined;
    }
  };

  while (!pending.empty() || !running.empty()) {
    // Launch up to the concurrency cap.
    while (running.size() < cfg.max_concurrent && !pending.empty()) {
      const std::size_t shard = pending.front();
      pending.pop_front();
      const unsigned attempt = ++attempts[shard];
      const auto& env = (attempt == 1 || cfg.env_every_attempt)
                            ? cfg.first_attempt_env
                            : no_env;
      Running r;
      r.shard = shard;
      r.attempt = attempt;
      r.pid = launch(shard, attempt, env);
      if (r.pid < 0) {
        record_failure(r, 0);
        continue;
      }
      ++report.launches;
      r.last_size = journal_size(cfg.journal_dir, plan.shards[shard]);
      r.last_progress = Clock::now();
      running.push_back(r);
    }

    bool reaped = false;
    for (std::size_t i = 0; i < running.size();) {
      Running& r = running[i];
      int status = 0;
      const pid_t got = ::waitpid(r.pid, &status, WNOHANG);
      if (got == r.pid || (got < 0 && errno == ECHILD)) {
        reaped = true;
        if (shard_sealed(cfg.journal_dir, plan, plan.shards[r.shard])) {
          report.shards[r.shard].completed = true;
        } else {
          record_failure(r, status);
        }
        running.erase(running.begin() + static_cast<std::ptrdiff_t>(i));
        continue;
      }
      // Heartbeat: durable progress IS liveness. A child whose journal
      // stops growing for a whole lease is presumed hung and killed;
      // the reap above then requeues the shard.
      const std::uint64_t size = journal_size(cfg.journal_dir, plan.shards[r.shard]);
      const auto now = Clock::now();
      if (size > r.last_size) {
        r.last_size = size;
        r.last_progress = now;
      } else if (!r.lease_expired && now - r.last_progress > cfg.lease_timeout) {
        r.lease_expired = true;
        ++report.lease_expiries;
        ::kill(r.pid, SIGKILL);
      }
      ++i;
    }
    if (!reaped && !running.empty()) {
      std::this_thread::sleep_for(cfg.poll_interval);
    }
  }
  return report;
}

QuarantineManifest quarantine_manifest(const ShardPlan& plan,
                                       const OrchestratorReport& report) {
  QuarantineManifest m;
  m.fingerprint = plan.fingerprint;
  for (const ShardOutcome& o : report.shards) {
    if (o.completed) continue;
    const ShardSpec& spec = plan.shards[o.shard_index];
    QuarantineEntry e;
    e.begin = spec.begin;
    e.end = spec.end;
    e.shard_id = spec.id;
    e.diagnostics = o.diagnostics();
    m.entries.push_back(std::move(e));
  }
  return m;
}

ShardLauncher cli_shard_launcher(std::string cli, std::string plan_path,
                                 std::string journal_dir) {
  return [cli = std::move(cli), plan_path = std::move(plan_path),
          journal_dir = std::move(journal_dir)](
             std::size_t shard_index, unsigned attempt,
             const std::vector<std::pair<std::string, std::string>>&
                 extra_env) -> pid_t {
    std::error_code ec;
    std::filesystem::create_directories(journal_dir, ec);
    const std::string log_path = journal_dir + "/shard-" +
                                 std::to_string(shard_index) + ".attempt-" +
                                 std::to_string(attempt) + ".log";
    const pid_t pid = ::fork();
    if (pid != 0) return pid;  // parent (or fork failure: -1)

    // Child: log, environment, exec. Only async-signal-unsafe work we
    // can afford here is setenv/exec — the parent is single-threaded
    // apart from the sweep workers, which never hold locks across this.
    const int fd = ::open(log_path.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
    if (fd >= 0) {
      ::dup2(fd, 1);
      ::dup2(fd, 2);
      if (fd > 2) ::close(fd);
    }
    for (const auto& [k, v] : extra_env) {
      ::setenv(k.c_str(), v.c_str(), 1);
    }
    const std::string shard_str = std::to_string(shard_index);
    std::vector<const char*> argv = {cli.c_str(),         "shard",
                                     "run",               plan_path.c_str(),
                                     shard_str.c_str(),   "--journal-dir",
                                     journal_dir.c_str(), nullptr};
    ::execv(cli.c_str(), const_cast<char* const*>(argv.data()));
    ::_exit(127);
  };
}

std::vector<std::string> chaos_scenarios() {
  return {"none", "child-kill", "torn-journal"};
}

std::string chaos_failpoint_config(const std::string& scenario,
                                   std::uint64_t seed,
                                   std::uint64_t shard_width) {
  const std::uint64_t width = shard_width == 0 ? 1 : shard_width;
  // hit triggers are 1-based; seed % width picks the crash depth.
  const std::string depth = std::to_string(1 + seed % width);
  if (scenario == "none") return "";
  if (scenario == "child-kill") {
    return "run_shard.index=crash@hit:" + depth;
  }
  if (scenario == "torn-journal") {
    return "journal.append=crash@hit:" + depth;
  }
  throw std::invalid_argument("unknown chaos scenario '" + scenario +
                              "' (none | child-kill | torn-journal)");
}

}  // namespace rvt::dist
