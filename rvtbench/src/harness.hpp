// Shared plumbing of the rvtbench harness: options, the metric report,
// latency sample sets, outside-in stage timers, seeded input generation
// and the correctness-check ledger.
//
// Every timing here is taken by the harness around a call into the
// library's public API (std::chrono::steady_clock via obs::now_ns()).
// Nothing is instrumented inside src/: a traced run records its spans
// from these files with obs::record_span, next to the accumulators the
// per-layer metrics are computed from.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace rvtbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string scratch;  ///< run-private directory inside the checkout
};

/// Metric name -> value, printed by name with its unit and as the final
/// JSON line.
class Report {
 public:
  /// A traced run reports the per-layer set, an untraced one the
  /// end-to-end set; names outside the run's set are refused at print().
  explicit Report(bool per_layer) : per_layer_(per_layer) {}
  void set(const std::string& name, double value);
  /// Prints "metric <name> <value> <unit>" per metric of the run's set
  /// (unset ones as 0), then one JSON object {"correct", "attempted",
  /// "failed", "metrics"} as the last stdout line. Throws if a metric
  /// outside the run's set was set.
  void print(bool correct, std::uint64_t attempted,
             std::uint64_t failed) const;

 private:
  double get(const std::string& name) const;

  bool per_layer_;
  std::map<std::string, double> values_;
};

struct MetricDef {
  const char* name;
  const char* unit;
};
/// The end-to-end metrics (untraced runs).
const std::vector<MetricDef>& end_to_end_metrics();
/// The per-layer metrics (traced runs); every traced run emits all of
/// them, a layer the workload leaves idle reporting 0.
const std::vector<MetricDef>& per_layer_metrics();

/// Latency samples in nanoseconds. Keeps at most kCap samples by
/// systematic thinning (every other sample dropped, stride doubled), so
/// quantiles stay unbiased over arbitrarily long runs; the busy-time sum
/// and call count are exact.
class Samples {
 public:
  void add(std::uint64_t ns);
  std::uint64_t calls() const { return calls_; }
  std::uint64_t total_ns() const { return total_ns_; }
  double total_s() const { return static_cast<double>(total_ns_) * 1e-9; }
  /// Exact quantile of the kept samples (nearest rank), in ns; 0 if empty.
  double quantile(double q) const;
  double mean_ns() const {
    return calls_ == 0 ? 0.0 : static_cast<double>(total_ns_) / calls_;
  }

 private:
  static constexpr std::size_t kCap = std::size_t{1} << 21;
  std::vector<std::uint32_t> kept_;
  std::uint64_t stride_ = 1;
  std::uint64_t calls_ = 0;
  std::uint64_t total_ns_ = 0;
};

/// One outside-in span site: times a call, adds it to its Samples and,
/// while tracing is armed (obs::enabled()), records an obs span under
/// `site` with the same two timestamps.
class Stage {
 public:
  explicit Stage(const char* site) : id_(rvt::obs::intern(site)) {}
  template <typename Fn>
  decltype(auto) time(Fn&& fn, std::uint64_t a = 0) {
    const std::uint64_t t0 = rvt::obs::now_ns();
    struct Done {
      Stage& s;
      std::uint64_t t0, a;
      ~Done() { s.record(t0, rvt::obs::now_ns(), a); }
    } done{*this, t0, a};
    return fn();
  }
  void record(std::uint64_t t0, std::uint64_t t1, std::uint64_t a = 0);
  Samples& samples() { return samples_; }
  const Samples& samples() const { return samples_; }

 private:
  std::uint32_t id_;
  Samples samples_;
};

inline double seconds_since(std::uint64_t t0_ns) {
  return static_cast<double>(rvt::obs::now_ns() - t0_ns) * 1e-9;
}

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1]; 0 for an empty set.
double quantile(std::vector<double> v, double q);

/// The end-to-end timings are taken many times per run — automata_per_s
/// per measurement window (a batch, a chunk of a pass, a fleet campaign),
/// setup_s per set-up build, repeated between windows — and reported at
/// the fast tail: the rate that a tenth of the windows reach, the set-up
/// time that a tenth of the builds beat. Co-tenant contention on the host
/// comes and goes within a run and only ever slows a window down, so the
/// median lands wherever the contended share of the run happens to fall,
/// while the fast tail follows the program's own speed unless contention
/// covers nine tenths of the run.
inline constexpr double kFastTail = 0.1;
/// Prints the window rates' p10/p50/p90; returns their upper fast tail.
double window_rate(const std::vector<double>& rates, const char* label);
/// Prints the set-up times' p10/p50/p90; returns their lower fast tail.
double setup_time(const std::vector<double>& seconds, const char* label);

/// splitmix64: the harness's only source of randomness, seeded by --seed.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound) (bound > 0), by rejection.
  std::uint64_t below(std::uint64_t bound);

 private:
  std::uint64_t s_;
};

/// Records named pass/fail checks; a failure prints a [FAIL] line.
class Checks {
 public:
  void expect(bool ok, const std::string& what);
  bool all_ok() const { return failed_ == 0; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t failed_ = 0;
};

/// Peak resident set of this process so far, MiB.
double peak_rss_mib();

/// Binds the obs trace file under the scratch dir and arms recording.
void arm_tracing(const Options& opt);
/// Disarms recording, flushes rings to the trace file, exports Chrome
/// JSON next to it, fills the trace.* metrics (events kept, dropped,
/// file bytes) and returns the decoded trace.
rvt::obs::TraceFile finish_tracing(const Options& opt, Report& r,
                                   Checks& checks);

/// Fills the stage.* metrics: the named stages, their sum's remainder
/// against `wall_s` as stage.unattributed_s, and its share of the wall.
void report_stages(Report& r, double wall_s,
                   const std::map<std::string, double>& stages);

/// Fills <prefix>_s, _calls, _p50_ns and _p99_ns from a call site.
void report_calls(Report& r, const std::string& prefix, const Samples& s);

/// Fills trace.{untraced,traced,overhead}_automata_per_s.
void report_overhead(Report& r, double untraced, double traced);

}  // namespace rvtbench
