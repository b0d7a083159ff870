// The observability layer: histogram bucket math and deterministic
// merging, the metrics registry and its Prometheus rendering, the
// trace recorder's binary round-trip (torn tail included), the Chrome
// exporter, the enumeration-delay tracker, and the protocol-v3
// campaign-id tail — ending with a loopback fleet whose worker spans
// must stitch to the coordinator's campaign id.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "dist/serialize.hpp"
#include "dist/shard_plan.hpp"
#include "dist/workload.hpp"
#include "net/socket.hpp"
#include "obs/enum_stats.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"
#include "svc/coordinator.hpp"
#include "svc/protocol.hpp"
#include "svc/worker.hpp"
#include "util/rng.hpp"

namespace rvt {
namespace {

// ---- histogram bucket layout ----------------------------------------------

TEST(ObsHistogram, BucketBoundariesArePowersOfTwo) {
  using obs::histogram_bucket;
  using obs::histogram_bucket_upper_bound;
  EXPECT_EQ(histogram_bucket(0), 0u);
  EXPECT_EQ(histogram_bucket(1), 1u);
  EXPECT_EQ(histogram_bucket(2), 2u);
  EXPECT_EQ(histogram_bucket(3), 2u);
  EXPECT_EQ(histogram_bucket(4), 3u);
  // Bucket i covers [2^(i-1), 2^i - 1]: both edges land in the same
  // bucket for every i.
  for (std::size_t i = 1; i < 63; ++i) {
    const std::uint64_t lo = std::uint64_t{1} << (i - 1);
    const std::uint64_t hi = (std::uint64_t{1} << i) - 1;
    EXPECT_EQ(histogram_bucket(lo), i) << "low edge of bucket " << i;
    EXPECT_EQ(histogram_bucket(hi), i) << "high edge of bucket " << i;
    EXPECT_EQ(histogram_bucket_upper_bound(i), hi);
  }
  // The last bucket absorbs everything above 2^62 - 1.
  EXPECT_EQ(histogram_bucket(std::uint64_t{1} << 62), 63u);
  EXPECT_EQ(histogram_bucket(UINT64_MAX), 63u);
  EXPECT_EQ(histogram_bucket_upper_bound(0), 0u);
  EXPECT_EQ(histogram_bucket_upper_bound(63), UINT64_MAX);
}

TEST(ObsHistogram, QuantilesAreBucketUpperBounds) {
  obs::HistogramSnapshot s;
  EXPECT_EQ(s.quantile(0.5), 0u);  // empty histogram
  s.record(5);                     // bucket 3, upper bound 7
  EXPECT_EQ(s.quantile(0.0), 7u);
  EXPECT_EQ(s.quantile(1.0), 7u);
  // 90 small values and 10 large ones: p50 lands in the small band,
  // p99 in the large one.
  obs::HistogramSnapshot t;
  for (int i = 0; i < 90; ++i) t.record(3);     // bucket 2, ub 3
  for (int i = 0; i < 10; ++i) t.record(1000);  // bucket 10, ub 1023
  EXPECT_EQ(t.quantile(0.50), 3u);
  EXPECT_EQ(t.quantile(0.99), 1023u);
  EXPECT_EQ(t.count, 100u);
  EXPECT_EQ(t.sum, 90u * 3 + 10u * 1000);
}

TEST(ObsHistogram, MergeIsAssociativeAndCommutative) {
  util::Rng rng(0x5eed2010ull);
  obs::HistogramSnapshot parts[3];
  for (auto& p : parts) {
    for (int i = 0; i < 200; ++i) {
      p.record(rng.uniform(0, UINT64_MAX) >> rng.uniform(0, 63));
    }
  }
  const auto merged = [](const obs::HistogramSnapshot& x,
                         const obs::HistogramSnapshot& y) {
    obs::HistogramSnapshot m = x;
    m.merge(y);
    return m;
  };
  const obs::HistogramSnapshot left =
      merged(merged(parts[0], parts[1]), parts[2]);
  const obs::HistogramSnapshot right =
      merged(parts[0], merged(parts[1], parts[2]));
  const obs::HistogramSnapshot shuffled =
      merged(merged(parts[2], parts[0]), parts[1]);
  for (std::size_t i = 0; i < obs::kHistogramBuckets; ++i) {
    EXPECT_EQ(left.buckets[i], right.buckets[i]);
    EXPECT_EQ(left.buckets[i], shuffled.buckets[i]);
  }
  EXPECT_EQ(left.count, right.count);
  EXPECT_EQ(left.sum, shuffled.sum);
  EXPECT_EQ(left.count, 600u);
}

TEST(ObsHistogram, SumSaturatesInsteadOfWrapping) {
  obs::HistogramSnapshot s;
  s.record(UINT64_MAX);
  s.record(UINT64_MAX);
  EXPECT_EQ(s.sum, UINT64_MAX);
  obs::HistogramSnapshot t;
  t.record(1);
  t.merge(s);
  EXPECT_EQ(t.sum, UINT64_MAX);
}

// ---- registry + Prometheus ------------------------------------------------

TEST(ObsRegistry, MetricsRenderToValidPrometheus) {
  auto& reg = obs::Registry::instance();
  reg.reset_for_test();
  reg.counter("rvt_test_events_total").add(3);
  reg.gauge("rvt_test_depth").set(-7);
  auto& h = reg.histogram("rvt_test_latency_ns");
  h.record(0);
  h.record(100);
  h.record(5000);
  const std::string text = reg.prometheus();
  std::string err;
  EXPECT_TRUE(obs::validate_prometheus(text, &err)) << err;
  EXPECT_NE(text.find("rvt_test_events_total 3"), std::string::npos);
  EXPECT_NE(text.find("rvt_test_depth -7"), std::string::npos);
  EXPECT_NE(text.find("rvt_test_latency_ns_count 3"), std::string::npos);
  EXPECT_NE(text.find("rvt_test_latency_ns_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  // Same name, same metric: the second lookup returns the first object.
  reg.counter("rvt_test_events_total").add(1);
  EXPECT_EQ(reg.counter("rvt_test_events_total").value(), 4u);
  reg.reset_for_test();
}

TEST(ObsRegistry, RejectsInvalidMetricNames) {
  auto& reg = obs::Registry::instance();
  EXPECT_THROW(reg.counter("1leading_digit"), std::runtime_error);
  EXPECT_THROW(reg.gauge("has space"), std::runtime_error);
  EXPECT_THROW(reg.histogram(""), std::runtime_error);
  EXPECT_THROW(reg.counter("dash-ed"), std::runtime_error);
}

TEST(ObsPrometheus, ValidatorAcceptsExpositionAndRejectsJunk) {
  std::string err;
  EXPECT_TRUE(obs::validate_prometheus(
      "# HELP x helps\n# TYPE x counter\nx 1\ny{le=\"+Inf\"} 2.5\nz +Inf\n",
      &err))
      << err;
  EXPECT_FALSE(obs::validate_prometheus("", &err));  // nothing measured
  EXPECT_FALSE(obs::validate_prometheus("# a stray comment\nx 1\n", &err));
  EXPECT_NE(err.find("line 1"), std::string::npos);
  EXPECT_FALSE(obs::validate_prometheus("x\n", &err));  // no value
  EXPECT_FALSE(obs::validate_prometheus("x one\n", &err));
  EXPECT_FALSE(obs::validate_prometheus("9bad 1\n", &err));
  EXPECT_FALSE(obs::validate_prometheus("x{le=\"1\" 2\n", &err));
}

TEST(ObsPrometheus, HistogramRenderingIsCumulative) {
  obs::HistogramSnapshot s;
  s.record(1);  // bucket 1
  s.record(3);  // bucket 2
  s.record(3);
  const std::string text = obs::prometheus_histogram("rvt_h", s);
  std::string err;
  EXPECT_TRUE(obs::validate_prometheus(text, &err)) << err;
  EXPECT_NE(text.find("rvt_h_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(text.find("rvt_h_bucket{le=\"3\"} 3"), std::string::npos);
  EXPECT_NE(text.find("rvt_h_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(text.find("rvt_h_sum 7"), std::string::npos);
  EXPECT_NE(text.find("rvt_h_count 3"), std::string::npos);
}

// ---- trace recorder -------------------------------------------------------

/// Restores the recorder's global state (path, gate, campaign) so tests
/// never leak tracing into each other.
struct TraceGuard {
  ~TraceGuard() {
    obs::set_enabled(false);
    obs::set_trace_path("");
    obs::set_campaign_id(0);
  }
};

std::string tmp_trace(const char* leaf) {
  return "obs-test-" + std::to_string(static_cast<unsigned>(::getpid())) +
         "-" + leaf;
}

TEST(ObsTrace, RoundTripsThroughTheBinaryFile) {
  TraceGuard guard;
#if !RVT_OBS_ENABLED
  GTEST_SKIP() << "RVT_OBS=OFF: span recording is compiled out";
#endif
  const std::string path = tmp_trace("roundtrip.bin");
  std::filesystem::remove(path);
  obs::set_trace_path(path);
  obs::set_campaign_id(42);
  obs::set_enabled(true);
  {
    RVT_OBS_SPAN("test.span", 7, 9);
  }
  obs::record_instant(obs::intern("test.instant"), 1, 2);
  obs::set_enabled(false);
  EXPECT_GT(obs::flush(), 0u);

  const obs::TraceFile trace = obs::read_trace_file(path);
  EXPECT_EQ(trace.truncated_bytes, 0u);
  ASSERT_FALSE(trace.chunks.empty());
  bool saw_span = false, saw_instant = false;
  for (const auto& c : trace.chunks) {
    EXPECT_EQ(c.campaign_id, 42u);
    for (const auto& e : c.events) {
      ASSERT_LT(e.name_id, c.names.size());
      if (c.names[e.name_id] == "test.span") {
        saw_span = true;
        EXPECT_EQ(e.kind, obs::EventKind::kSpan);
        EXPECT_EQ(e.a, 7u);
        EXPECT_EQ(e.b, 9u);
        EXPECT_GT(e.ts_ns, 0u);
      }
      if (c.names[e.name_id] == "test.instant") {
        saw_instant = true;
        EXPECT_EQ(e.kind, obs::EventKind::kInstant);
        EXPECT_EQ(e.dur_ns, 0u);
      }
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
  std::filesystem::remove(path);
}

TEST(ObsTrace, TornTailTruncatesToLastWholeChunk) {
  TraceGuard guard;
#if !RVT_OBS_ENABLED
  GTEST_SKIP() << "RVT_OBS=OFF: span recording is compiled out";
#endif
  const std::string path = tmp_trace("torn.bin");
  std::filesystem::remove(path);
  obs::set_trace_path(path);
  obs::set_campaign_id(7);
  obs::set_enabled(true);
  { RVT_OBS_SPAN("torn.site"); }
  obs::set_enabled(false);
  ASSERT_GT(obs::flush(), 0u);
  const auto whole = obs::read_trace_file(path);
  ASSERT_FALSE(whole.chunks.empty());

  // Garbage appended after the last whole frame: every chunk survives,
  // the garbage is counted as truncated.
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("torntorn", 8);
  }
  const auto appended = obs::read_trace_file(path);
  EXPECT_EQ(appended.chunks.size(), whole.chunks.size());
  EXPECT_EQ(appended.truncated_bytes, 8u);

  // A frame cut mid-payload (crash mid-append): reads as a torn tail,
  // never as corruption.
  const auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size - 13);
  const auto torn = obs::read_trace_file(path);
  EXPECT_GT(torn.truncated_bytes, 0u);
  for (const auto& c : torn.chunks) EXPECT_EQ(c.campaign_id, 7u);
  std::filesystem::remove(path);
}

TEST(ObsTrace, MissingFileReadsAsEmptyTrace) {
  const obs::TraceFile trace = obs::read_trace_file("no-such-trace.bin");
  EXPECT_TRUE(trace.chunks.empty());
  EXPECT_EQ(trace.truncated_bytes, 0u);
}

TEST(ObsTrace, ChromeExportValidatesAndCarriesCampaignPid) {
  TraceGuard guard;
#if !RVT_OBS_ENABLED
  GTEST_SKIP() << "RVT_OBS=OFF: span recording is compiled out";
#endif
  const std::string path = tmp_trace("chrome.bin");
  std::filesystem::remove(path);
  obs::set_trace_path(path);
  obs::set_campaign_id(99);
  obs::set_enabled(true);
  { RVT_OBS_SPAN("chrome.work", 5); }
  obs::set_enabled(false);
  ASSERT_GT(obs::flush(), 0u);

  const std::string json =
      obs::export_chrome_trace(obs::read_trace_file(path));
  std::string err;
  EXPECT_TRUE(obs::validate_chrome_trace(json, &err)) << err;
  EXPECT_NE(json.find("\"chrome.work\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\": 99"), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(ObsTrace, ChromeValidatorRejectsStructuralJunk) {
  std::string err;
  EXPECT_FALSE(obs::validate_chrome_trace("{}", &err));
  EXPECT_FALSE(obs::validate_chrome_trace("{\"traceEvents\": []}", &err));
  EXPECT_FALSE(obs::validate_chrome_trace(
      "{\"traceEvents\": [{\"name\": \"x\", \"ts\": 1, \"pid\": 1}]}",
      &err));  // no ph
}

/// CI hook: when RVT_CHROME_TRACE_JSON names an artifact exported from
/// a live run (`rvt_cli trace export --chrome`), it must validate.
TEST(ObsTrace, ExportedArtifactValidates) {
  const char* artifact = std::getenv("RVT_CHROME_TRACE_JSON");
  if (artifact == nullptr) {
    GTEST_SKIP() << "RVT_CHROME_TRACE_JSON not set";
  }
  std::ifstream in(artifact, std::ios::binary);
  ASSERT_TRUE(in.good()) << "cannot open " << artifact;
  std::ostringstream ss;
  ss << in.rdbuf();
  std::string err;
  EXPECT_TRUE(obs::validate_chrome_trace(ss.str(), &err))
      << artifact << ": " << err;
}

// ---- enumeration-delay stats ----------------------------------------------

TEST(ObsEnumDelay, TracksFirstsResultsAndSurvivors) {
  obs::EnumDelayTracker tracker;
  tracker.note_result(3);
  tracker.note_result(0);  // the survivor
  tracker.note_result(1);
  const obs::EnumDelayStats s = tracker.finish();
  EXPECT_EQ(s.results, 3u);
  EXPECT_EQ(s.survivors, 1u);
  EXPECT_GE(s.time_to_first_result_ns, 0);
  EXPECT_GE(s.time_to_first_survivor_ns, s.time_to_first_result_ns);
  EXPECT_GE(s.elapsed_ns, static_cast<std::uint64_t>(s.time_to_first_result_ns));
  EXPECT_EQ(s.inter_result_delay_ns.count, 3u);
  EXPECT_GE(s.delay_quantile_ms(0.99), s.delay_quantile_ms(0.50));
}

TEST(ObsEnumDelay, MergeTakesMinOverObservedFirsts) {
  obs::EnumDelayStats a, b;
  a.results = 10;
  a.survivors = 0;
  a.time_to_first_result_ns = 3;
  a.time_to_first_survivor_ns = -1;  // never saw one
  a.elapsed_ns = 100;
  b.results = 5;
  b.survivors = 2;
  b.time_to_first_result_ns = 5;
  b.time_to_first_survivor_ns = 50;
  b.elapsed_ns = 80;
  obs::EnumDelayStats m = a;
  m.merge(b);
  EXPECT_EQ(m.results, 15u);
  EXPECT_EQ(m.survivors, 2u);
  EXPECT_EQ(m.time_to_first_result_ns, 3);
  EXPECT_EQ(m.time_to_first_survivor_ns, 50);  // -1 loses to any observation
  EXPECT_EQ(m.elapsed_ns, 100u);
  // Merging the other way lands the same firsts.
  obs::EnumDelayStats r = b;
  r.merge(a);
  EXPECT_EQ(r.time_to_first_result_ns, 3);
  EXPECT_EQ(r.time_to_first_survivor_ns, 50);
}

// ---- protocol v3 campaign tail --------------------------------------------

TEST(ObsProtocol, LeaseGrantCampaignIdRoundTripsAndTruncationIsRefused) {
  svc::LeaseGrant g;
  g.status = svc::LeaseStatus::kGranted;
  g.shard_index = 2;
  g.begin = 10;
  g.end = 20;
  g.next_index = 10;
  g.token = 5;
  g.campaign_id = 0xabcdef12345678ull;
  const std::vector<std::uint8_t> v3 = svc::encode(g);
  EXPECT_EQ(svc::decode_lease_grant(v3).campaign_id, g.campaign_id);

  // The same payload without its last 8 bytes (the campaign id) is a
  // truncated grant: refused, not decoded with the id defaulted.
  std::vector<std::uint8_t> truncated = v3;
  truncated.resize(truncated.size() - 8);
  EXPECT_THROW(svc::decode_lease_grant(truncated), dist::SerializeError);
}

// ---- the stitched fleet ---------------------------------------------------

TEST(ObsFleet, WorkerSpansCarryTheCoordinatorCampaignId) {
  TraceGuard guard;
#if !RVT_OBS_ENABLED
  GTEST_SKIP() << "RVT_OBS=OFF: span recording is compiled out";
#endif
  // Fixed name (no pid): a rerun sweeps up whatever an aborted
  // previous run left behind.
  const std::string dir = "obs-fleet-scratch";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string trace_path = dir + "/trace.bin";
  obs::set_trace_path(trace_path);
  obs::set_enabled(true);

  const auto w = dist::EnumWorkload::parse("e10:6");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 3);
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = dir + "/journals";
  svc::Coordinator coord(plan, cfg);
  ASSERT_NE(coord.campaign_id(), 0u);

  svc::WorkerReport rep;
  std::thread t([&] {
    svc::WorkerOptions o;
    o.name = "obs-w";
    rep = svc::run_worker("127.0.0.1", coord.port(), o);
  });
  t.join();
  ASSERT_TRUE(coord.wait_complete(std::chrono::milliseconds(10000)));

  // The worker measured exact per-index delays over the whole campaign.
  EXPECT_EQ(rep.delay.results, plan.count);
  EXPECT_EQ(rep.delay.inter_result_delay_ns.count, plan.count);

  // The coordinator's merged report: uptime, per-shard journal growth,
  // chunk-gap delay stats covering every committed record.
  const svc::ServiceReport sr = coord.report();
  EXPECT_EQ(sr.campaign_id, coord.campaign_id());
  EXPECT_EQ(sr.delay.results, plan.count);
  EXPECT_EQ(sr.last_journal_growth_ms.size(), plan.shards.size());
  const std::string prom =
      net::http_get("127.0.0.1", coord.metrics_port(), "/metrics");
  std::string err;
  EXPECT_TRUE(obs::validate_prometheus(prom, &err)) << err;
  EXPECT_NE(prom.find("rvt_leases_granted "), std::string::npos);
  EXPECT_NE(prom.find("rvt_recovery_resumes "), std::string::npos);
  coord.stop();

  obs::set_enabled(false);
  ASSERT_GT(obs::flush(), 0u);
  const obs::TraceFile trace = obs::read_trace_file(trace_path);
  bool stitched = false;
  for (const auto& c : trace.chunks) {
    if (c.campaign_id != coord.campaign_id()) continue;
    for (const auto& e : c.events) {
      if (c.names[e.name_id] == "svc.worker.compute") stitched = true;
    }
  }
  EXPECT_TRUE(stitched)
      << "no worker span carried the coordinator's campaign id";
  const std::string json = obs::export_chrome_trace(trace);
  EXPECT_TRUE(obs::validate_chrome_trace(json, &err)) << err;
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace rvt
