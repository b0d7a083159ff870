#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace rvtbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"automata_per_s", "1/s"},
      {"setup_s", "s"},
      {"peak_rss_mib", "MiB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      // gen: benchmark-side input generation (line_automaton_at().tabular())
      {"gen.s", "s"},
      {"gen.p50_ns", "ns"},
      // sim.enum: EnumerationContext calls, timed from outside
      {"sim.enum.bind_s", "s"},
      {"sim.enum.bind_calls", "count"},
      {"sim.enum.bind_p50_ns", "ns"},
      {"sim.enum.bind_p99_ns", "ns"},
      {"sim.enum.count_unmet_s", "s"},
      {"sim.enum.count_unmet_calls", "count"},
      {"sim.enum.count_unmet_p50_ns", "ns"},
      {"sim.enum.count_unmet_p99_ns", "ns"},
      {"sim.enum.first_unmet_s", "s"},
      {"sim.enum.first_unmet_calls", "count"},
      {"sim.enum.first_unmet_p50_ns", "ns"},
      {"sim.enum.first_unmet_p99_ns", "ns"},
      {"sim.enum.queries", "count"},
      {"sim.enum.bindings", "count"},
      {"sim.enum.orbits_extracted", "count"},
      {"sim.enum.canonical_collapses", "count"},
      {"sim.enum.queries_per_automaton", "count"},
      // sim.engine: CompiledConfigEngine replay of a seeded subsample
      {"sim.engine.replay_automata", "count"},
      {"sim.engine.rebind_p50_ns", "ns"},
      {"sim.engine.rebind_p99_ns", "ns"},
      {"sim.engine.warm_orbits_p50_ns", "ns"},
      {"sim.engine.warm_orbits_p99_ns", "ns"},
      {"sim.engine.orbit_p50_ns", "ns"},
      {"sim.engine.orbit_p99_ns", "ns"},
      {"sim.engine.cycle_pair_collisions_p50_ns", "ns"},
      {"sim.engine.cycle_pair_collisions_p99_ns", "ns"},
      {"sim.engine.snapshot_orbits_p50_ns", "ns"},
      {"sim.engine.snapshot_orbits_p99_ns", "ns"},
      // sim.verdict: verify_never_meet_compiled per query, same subsample
      {"sim.verdict.queries", "count"},
      {"sim.verdict.query_p50_ns", "ns"},
      {"sim.verdict.query_p99_ns", "ns"},
      {"sim.verdict.query_mean_ns", "ns"},
      // sim.cache: the run's OrbitCache counters + replayed key/claim costs
      {"sim.cache.hits", "count"},
      {"sim.cache.misses", "count"},
      {"sim.cache.waits", "count"},
      {"sim.cache.publishes", "count"},
      {"sim.cache.rejects", "count"},
      {"sim.cache.hit_ratio", "ratio"},
      {"sim.cache.bytes", "bytes"},
      {"sim.cache.canonical_key_p50_ns", "ns"},
      {"sim.cache.canonical_key_p99_ns", "ns"},
      {"sim.cache.acquire_p50_ns", "ns"},
      {"sim.cache.acquire_p99_ns", "ns"},
      {"sim.cache.publish_p50_ns", "ns"},
      {"sim.cache.publish_p99_ns", "ns"},
      // dist: journals, run ledger, merge
      {"dist.journal.bytes", "bytes"},
      {"dist.ledger.records", "count"},
      {"dist.ledger.append_p50_us", "us"},
      {"dist.ledger.append_p99_us", "us"},
      {"dist.journal.record_p50_us", "us"},
      {"dist.journal.record_p99_us", "us"},
      {"dist.merge_s", "s"},
      // svc + net: leases, transport, remote orbit store, workers
      {"svc.lease.granted", "count"},
      {"svc.lease.requeued", "count"},
      {"svc.lease.expired", "count"},
      {"svc.lease.revoked", "count"},
      {"net.chunks", "count"},
      {"net.tier.gets", "count"},
      {"net.tier.hits", "count"},
      {"net.tier.hit_ratio", "ratio"},
      {"net.load_p50_us", "us"},
      {"net.load_p99_us", "us"},
      {"svc.worker1.busy_s", "s"},
      {"svc.worker2.busy_s", "s"},
      {"svc.worker.compute_s", "s"},
      {"svc.worker.flush_s", "s"},
      {"fleet.time_to_first_seal_s", "s"},
      {"fleet.serial_automata_per_s", "1/s"},
      {"fleet.scaling_efficiency", "ratio"},
      // stages of the traced phase: they sum to stage.wall_s
      {"stage.wall_s", "s"},
      {"stage.setup_s", "s"},
      {"stage.gen_s", "s"},
      {"stage.bind_s", "s"},
      {"stage.scan_s", "s"},
      {"stage.drain_s", "s"},
      {"stage.merge_s", "s"},
      {"stage.unattributed_s", "s"},
      {"stage.unattributed_share", "ratio"},
      // tracing cost and artifact
      {"trace.untraced_automata_per_s", "1/s"},
      {"trace.traced_automata_per_s", "1/s"},
      {"trace.overhead_automata_per_s", "1/s"},
      {"trace.events", "count"},
      {"trace.dropped_events", "count"},
      {"trace.file_bytes", "bytes"},
      // outside-the-timed-region re-certification against the reference
      {"check.recertified", "count"},
  };
  return defs;
}

namespace {

const MetricDef* find_def(const std::vector<MetricDef>& defs,
                          const std::string& name) {
  for (const MetricDef& d : defs) {
    if (name == d.name) return &d;
  }
  return nullptr;
}

/// Nearest rank: index of the smallest of n sorted samples with at least
/// q of them at or below it.
std::size_t nearest_rank(std::size_t n, double q) {
  const auto ceil_rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::min(n, std::max<std::size_t>(1, ceil_rank)) - 1;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::set(const std::string& name, double value) {
  values_[name] = value;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::print(bool correct, std::uint64_t attempted,
                   std::uint64_t failed) const {
  const auto& defs = per_layer_ ? per_layer_metrics() : end_to_end_metrics();
  for (const auto& [name, value] : values_) {
    if (find_def(defs, name) == nullptr) {
      throw std::logic_error("rvtbench: metric '" + name +
                             "' is not in the catalog of this run");
    }
  }
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& d : defs) {
    const double v = get(d.name);
    std::cout << "metric " << d.name << " " << json_number(v) << " "
              << d.unit << "\n";
    json << (first ? "" : ", ") << "\"" << d.name
         << "\": {\"value\": " << json_number(v) << ", \"unit\": \""
         << d.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
}

void Samples::add(std::uint64_t ns) {
  if (calls_ % stride_ == 0) {
    kept_.push_back(static_cast<std::uint32_t>(
        std::min<std::uint64_t>(ns, 0xffffffffu)));
    if (kept_.size() >= kCap) {
      std::size_t w = 0;
      for (std::size_t i = 0; i < kept_.size(); i += 2) kept_[w++] = kept_[i];
      kept_.resize(w);
      stride_ *= 2;
    }
  }
  ++calls_;
  total_ns_ += ns;
}

double Samples::quantile(double q) const {
  if (kept_.empty()) return 0.0;
  std::vector<std::uint32_t> v = kept_;
  const std::size_t rank = nearest_rank(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

void Stage::record(std::uint64_t t0, std::uint64_t t1, std::uint64_t a) {
  samples_.add(t1 - t0);
  if (rvt::obs::enabled()) rvt::obs::record_span(id_, t0, t1, a);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t rank = nearest_rank(v.size(), q);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

namespace {

void print_spread(const std::vector<double>& v, const char* label,
                  const char* what) {
  std::cout << label << " " << what << ": n " << v.size() << ", p10 "
            << quantile(v, 0.1) << " p50 " << quantile(v, 0.5) << " p90 "
            << quantile(v, 0.9) << "\n";
}

}  // namespace

double window_rate(const std::vector<double>& rates, const char* label) {
  print_spread(rates, label, "window automata/s");
  return quantile(rates, 1 - kFastTail);
}

double setup_time(const std::vector<double>& seconds, const char* label) {
  print_spread(seconds, label, "set-up s");
  return quantile(seconds, kFastTail);
}

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::below(std::uint64_t bound) {
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % bound);
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return x % bound;
}

void Checks::expect(bool ok, const std::string& what) {
  std::cout << "check [" << (ok ? "ok" : "FAIL") << "] " << what << "\n";
  if (!ok) ++failed_;
}

double peak_rss_mib() {
  // VmHWM belongs to this process image. getrusage's ru_maxrss would also
  // carry the launching process's peak across fork + exec.
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0;
      status >> kib;
      return kib / 1024.0;
    }
    status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
  }
  throw std::runtime_error("rvtbench: no VmHWM in /proc/self/status");
}

void arm_tracing(const Options& opt) {
  rvt::obs::set_trace_path(opt.scratch + "/trace.bin");
  rvt::obs::set_enabled(true);
}

rvt::obs::TraceFile finish_tracing(const Options& opt, Report& r,
                                   Checks& checks) {
  rvt::obs::set_enabled(false);
  rvt::obs::flush();
  const std::string path = rvt::obs::trace_path();
  const rvt::obs::TraceFile tf = rvt::obs::read_trace_file(path);
  std::uint64_t events = 0;
  for (const auto& c : tf.chunks) events += c.events.size();
  const std::string chrome = rvt::obs::export_chrome_trace(tf);
  std::string err;
  checks.expect(rvt::obs::validate_chrome_trace(chrome, &err),
                "traced run exports a valid Chrome trace" +
                    (err.empty() ? "" : " (" + err + ")"));
  std::ofstream(opt.scratch + "/trace.json") << chrome;
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(path, ec);
  r.set("trace.events", static_cast<double>(events));
  r.set("trace.dropped_events",
        static_cast<double>(rvt::obs::dropped_events()));
  r.set("trace.file_bytes", ec ? 0.0 : static_cast<double>(bytes));
  return tf;
}

void report_stages(Report& r, double wall_s,
                   const std::map<std::string, double>& stages) {
  double sum = 0;
  for (const auto& [name, s] : stages) {
    r.set("stage." + name + "_s", s);
    sum += s;
  }
  r.set("stage.wall_s", wall_s);
  r.set("stage.unattributed_s", wall_s - sum);
  r.set("stage.unattributed_share", wall_s > 0 ? (wall_s - sum) / wall_s : 0);
  std::cout << "stages: wall " << wall_s << " s =";
  for (const auto& [name, s] : stages) std::cout << " " << name << " " << s;
  std::cout << " + unattributed " << (wall_s - sum) << "\n";
}

void report_calls(Report& r, const std::string& prefix, const Samples& s) {
  r.set(prefix + "_s", s.total_s());
  r.set(prefix + "_calls", static_cast<double>(s.calls()));
  r.set(prefix + "_p50_ns", s.quantile(0.50));
  r.set(prefix + "_p99_ns", s.quantile(0.99));
}

void report_overhead(Report& r, double untraced, double traced) {
  r.set("trace.untraced_automata_per_s", untraced);
  r.set("trace.traced_automata_per_s", traced);
  r.set("trace.overhead_automata_per_s", traced - untraced);
  std::cout << "tracing overhead: traced " << traced << " - untraced "
            << untraced << " = " << (traced - untraced) << " automata/s\n";
}

}  // namespace rvtbench
