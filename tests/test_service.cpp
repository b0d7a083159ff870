// The shard-dispatch service tier, end to end over loopback TCP: a real
// coordinator, real worker daemons on threads, and manual protocol
// clients playing the adversarial parts (foreign versions, stale
// tokens, silent leaseholders).
//
// The ground truth everywhere is the same as dist/'s: the merged defeat
// count of a fleet run — however the leases bounced — must be
// bit-identical to a single-process sweep of the workload.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <thread>

#include "dist/ledger.hpp"
#include "dist/merge.hpp"
#include "dist/serialize.hpp"
#include "dist/shard_plan.hpp"
#include "dist/workload.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "sim/automaton.hpp"
#include "sim/compiled.hpp"
#include "tree/builders.hpp"
#include "util/rng.hpp"
#include "svc/coordinator.hpp"
#include "svc/net_store.hpp"
#include "svc/protocol.hpp"
#include "svc/worker.hpp"
#include "util/failpoint.hpp"

namespace rvt {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = "svc-test-" +
           std::string(::testing::UnitTest::GetInstance()
                           ->current_test_info()
                           ->name()) +
           "-" + std::to_string(static_cast<unsigned>(::getpid()));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override {
    util::FailPointRegistry::instance().reset();
    std::filesystem::remove_all(dir_);
  }
  std::string path(const std::string& leaf) const { return dir_ + "/" + leaf; }
  std::string dir_;
};

/// Single-process ground truth for a workload (fresh context, no tier).
std::uint64_t single_process_total(const std::string& spec) {
  const auto w = dist::EnumWorkload::parse(spec);
  sim::EnumerationContext ctx(w->grids(), w->max_rounds(), nullptr);
  std::uint64_t total = 0;
  for (std::uint64_t i = 0; i < w->count(); ++i) {
    total += w->defeats(ctx, i);
  }
  return total;
}

/// A manual protocol client: hello as `role` and return the session.
std::unique_ptr<net::TcpStream> dial(const svc::Coordinator& coord,
                                     const std::string& role,
                                     const std::string& name) {
  auto s = net::tcp_connect("127.0.0.1", coord.port());
  s->set_read_timeout_ms(2000);
  svc::HelloRequest hello;
  hello.role = role;
  hello.name = name;
  net::send_frame(*s, dist::WireKind::kHello, svc::encode(hello));
  net::Frame f;
  EXPECT_EQ(net::recv_frame(*s, f), net::RecvStatus::kFrame);
  EXPECT_EQ(f.kind, dist::WireKind::kHello);
  return s;
}

svc::LeaseGrant read_lease_grant(net::TcpStream& s) {
  net::Frame f;
  EXPECT_EQ(net::recv_frame(s, f), net::RecvStatus::kFrame);
  EXPECT_EQ(f.kind, dist::WireKind::kLeaseGrant);
  return svc::decode_lease_grant(f.payload);
}

svc::LeaseGrant request_lease(net::TcpStream& s) {
  net::send_frame(s, dist::WireKind::kLeaseRequest,
                  svc::encode_lease_request());
  return read_lease_grant(s);
}

svc::ChunkReply send_chunk(net::TcpStream& s, std::uint64_t shard,
                           std::uint64_t token,
                           std::vector<svc::JournalRecord> records) {
  svc::JournalChunk chunk;
  chunk.shard_index = shard;
  chunk.token = token;
  chunk.records = std::move(records);
  net::send_frame(s, dist::WireKind::kJournalChunk, svc::encode(chunk));
  net::Frame f;
  EXPECT_EQ(net::recv_frame(s, f), net::RecvStatus::kFrame);
  return svc::decode_chunk_reply(f.payload);
}

svc::SealReply send_seal(net::TcpStream& s, std::uint64_t shard,
                         std::uint64_t token, std::uint64_t total) {
  net::send_frame(s, dist::WireKind::kSeal,
                  svc::encode(svc::Seal{shard, token, total}));
  net::Frame f;
  EXPECT_EQ(net::recv_frame(s, f), net::RecvStatus::kFrame);
  return svc::decode_seal_reply(f.payload);
}

// ---- the happy fleet ------------------------------------------------------

TEST_F(ServiceTest, LoopbackFleetMatchesSingleProcessBitForBit) {
  const std::string spec = "e10:6";
  const std::uint64_t expected = single_process_total(spec);
  const auto w = dist::EnumWorkload::parse(spec);
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 5);

  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  svc::Coordinator coord(plan, cfg);

  // Two daemons, each memoizing defeat counts in its own cache.
  svc::WorkerReport r1, r2;
  std::thread t1([&] {
    svc::WorkerOptions o;
    o.name = "w1";
    r1 = svc::run_worker("127.0.0.1", coord.port(), o);
  });
  std::thread t2([&] {
    svc::WorkerOptions o;
    o.name = "w2";
    r2 = svc::run_worker("127.0.0.1", coord.port(), o);
  });
  t1.join();
  t2.join();
  ASSERT_TRUE(coord.wait_complete(std::chrono::milliseconds(10000)));

  const svc::ServiceReport rep = coord.report();
  EXPECT_EQ(rep.shards_total, 5u);
  EXPECT_EQ(rep.shards_completed, 5u);
  EXPECT_EQ(rep.shards_quarantined, 0u);
  EXPECT_EQ(rep.runners_seen, 2u);
  EXPECT_GE(rep.leases_granted, 5u);
  // Incremental merge counters cover the whole index space once done.
  EXPECT_EQ(rep.committed_indices, plan.count);
  EXPECT_EQ(rep.committed_defeats, expected);
  EXPECT_GT(rep.journal_bytes_streamed, 0u);
  EXPECT_GE(rep.time_to_first_sealed_shard_seconds, 0.0);
  EXPECT_EQ(r1.sealed + r2.sealed, 5u);
  EXPECT_EQ(r1.revoked + r2.revoked, 0u);
  // Every index was counted: memo hits and locally computed bindings.
  EXPECT_GT(r1.telemetry.cache_hits + r2.telemetry.cache_hits, 0u);
  EXPECT_GT(r1.telemetry.cache_misses + r2.telemetry.cache_misses, 0u);

  // The metrics endpoint serves the same numbers over plain HTTP.
  const std::string body = net::http_get("127.0.0.1", coord.metrics_port(), "/");
  EXPECT_NE(body.find("\"kind\": \"service_metrics\""), std::string::npos);
  EXPECT_NE(body.find("\"committed_defeats\": " + std::to_string(expected)),
            std::string::npos);
  EXPECT_NE(body.find("\"shards_completed\": 5"), std::string::npos);
  EXPECT_NE(body.find("\"workload\": \"" + spec + "\""), std::string::npos);

  // And the journals the coordinator wrote merge to the ground truth.
  const dist::MergeResult merged =
      dist::merge_journals(plan, cfg.journal_dir);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.total, expected);
  coord.stop();

  // A fresh coordinator over the same journal dir adopts every sealed
  // shard: complete with no worker ever connecting.
  svc::Coordinator again(plan, cfg);
  EXPECT_TRUE(again.wait_complete(std::chrono::milliseconds(1000)));
  const svc::ServiceReport rep2 = again.report();
  EXPECT_EQ(rep2.shards_completed, 5u);
  EXPECT_EQ(rep2.committed_defeats, expected);
  EXPECT_EQ(rep2.leases_granted, 0u);

  // Drained coordinator tells a late worker there is nothing to do.
  svc::WorkerOptions late;
  late.name = "late";
  const svc::WorkerReport lr =
      svc::run_worker("127.0.0.1", again.port(), late);
  EXPECT_EQ(lr.leases, 0u);
  EXPECT_EQ(lr.indices, 0u);
}

// ---- failure recovery -----------------------------------------------------

TEST_F(ServiceTest, WorkerFaultRequeuesAndACleanWorkerFinishes) {
  const std::string spec = "e10:6";
  const std::uint64_t expected = single_process_total(spec);
  const auto w = dist::EnumWorkload::parse(spec);
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 3);

  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  svc::Coordinator coord(plan, cfg);

  // First worker dies mid-lease with an injected error after 20 indices
  // — an unsealed disconnect; its committed chunks must survive.
  util::FailPointRegistry::instance().configure("worker.index=err@hit:20");
  svc::WorkerOptions faulty;
  faulty.name = "faulty";
  faulty.chunk_records = 8;  // several committed chunks before the fault
  EXPECT_THROW(svc::run_worker("127.0.0.1", coord.port(), faulty),
               dist::SerializeError);
  util::FailPointRegistry::instance().reset();

  {
    // The worker has returned, but the coordinator's session thread may
    // not have seen the disconnect yet: wait (bounded) for the requeue.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    svc::ServiceReport mid = coord.report();
    while (mid.shards_requeued == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      mid = coord.report();
    }
    EXPECT_GE(mid.shards_requeued, 1u);
    EXPECT_GT(mid.committed_indices, 0u);  // the prefix survived
    EXPECT_LT(mid.committed_indices, plan.count);
  }

  svc::WorkerOptions clean;
  clean.name = "clean";
  const svc::WorkerReport rep =
      svc::run_worker("127.0.0.1", coord.port(), clean);
  ASSERT_TRUE(coord.wait_complete(std::chrono::milliseconds(10000)));
  EXPECT_EQ(rep.sealed, 3u);
  // The clean worker resumed past the faulty one's committed prefix.
  EXPECT_LT(rep.indices, plan.count);

  const dist::MergeResult merged =
      dist::merge_journals(plan, cfg.journal_dir);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.total, expected);
}

TEST_F(ServiceTest, ExhaustedAttemptsQuarantineIntoExplicitGaps) {
  const auto w = dist::EnumWorkload::parse("e10:4");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 4);
  const std::size_t shards = plan.shards.size();

  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.max_attempts = 2;
  svc::Coordinator coord(plan, cfg);

  // Every worker errors out at the first index of its first lease: an
  // unsealed disconnect, so each run costs one shard one attempt. Once
  // the last attempt is spent the next worker is told kDrained.
  util::FailPointRegistry::instance().configure("worker.index=err@always");
  for (std::size_t run = 0;
       run < 2 * shards + 1 && coord.report().shards_quarantined < shards;
       ++run) {
    svc::WorkerOptions o;
    o.name = "doomed-" + std::to_string(run);
    try {
      svc::run_worker("127.0.0.1", coord.port(), o);
    } catch (const dist::SerializeError&) {
    }
  }
  util::FailPointRegistry::instance().reset();
  ASSERT_TRUE(coord.wait_complete(std::chrono::milliseconds(10000)));

  const svc::ServiceReport rep = coord.report();
  EXPECT_FALSE(rep.all_complete());
  EXPECT_EQ(rep.shards_quarantined, shards);
  EXPECT_EQ(rep.shards_completed, 0u);

  // The manifest names every shard with its attempt history and
  // round-trips through the framed codec.
  const dist::QuarantineManifest manifest = coord.quarantine_manifest();
  EXPECT_EQ(manifest.fingerprint, plan.fingerprint);
  ASSERT_EQ(manifest.entries.size(), shards);
  for (const dist::QuarantineEntry& e : manifest.entries) {
    EXPECT_FALSE(e.diagnostics.empty()) << e.begin;
  }
  const std::string mpath = path("quarantine.bin");
  dist::write_quarantine_manifest(mpath, manifest);
  const dist::QuarantineManifest loaded =
      dist::load_quarantine_manifest(mpath);
  EXPECT_EQ(loaded.fingerprint, plan.fingerprint);
  ASSERT_EQ(loaded.entries.size(), shards);
  for (std::size_t i = 0; i < shards; ++i) {
    EXPECT_EQ(loaded.entries[i].begin, manifest.entries[i].begin);
    EXPECT_EQ(loaded.entries[i].end, manifest.entries[i].end);
    EXPECT_EQ(loaded.entries[i].shard_id, manifest.entries[i].shard_id);
    EXPECT_EQ(loaded.entries[i].diagnostics, manifest.entries[i].diagnostics);
  }

  // The plain merge refuses; the manifest turns the refusal into an
  // explicit partial result with every index missing.
  EXPECT_THROW(dist::merge_journals(plan, cfg.journal_dir),
               dist::SerializeError);
  const auto partial = dist::merge_journals(plan, cfg.journal_dir, &loaded);
  EXPECT_FALSE(partial.complete());
  EXPECT_EQ(partial.covered, 0u);
  EXPECT_EQ(partial.total, 0u);
  ASSERT_EQ(partial.missing.size(), shards);
  std::uint64_t missing = 0;
  for (const auto& [b, e] : partial.missing) missing += e - b;
  EXPECT_EQ(missing, plan.count);
}

TEST_F(ServiceTest, ExpiredLeaseholderIsFencedAndTheShardRecovers) {
  const std::string spec = "e10:6";
  const auto w = dist::EnumWorkload::parse(spec);
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 1);

  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.lease_timeout = std::chrono::milliseconds(200);
  svc::Coordinator coord(plan, cfg);

  // A leaseholder that takes the shard and then commits NOTHING. Its
  // empty chunks are answered (they are the worker's reconnect probe)
  // but must not keep the lease alive — appended records are the only
  // renewal.
  auto silent = dial(coord, "worker", "silent");
  const svc::LeaseGrant g = request_lease(*silent);
  ASSERT_EQ(g.status, svc::LeaseStatus::kGranted);
  ASSERT_NE(g.token, 0u);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  bool expired = false;
  while (!expired && std::chrono::steady_clock::now() < deadline) {
    const svc::ChunkReply cr = send_chunk(*silent, g.shard_index, g.token, {});
    expired = !cr.accepted;
    if (!expired) EXPECT_EQ(cr.next_index, g.next_index);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  ASSERT_TRUE(expired) << "chatty but workless lease never expired";

  // The stale token is fenced on every mutation path.
  EXPECT_FALSE(
      send_chunk(*silent, g.shard_index, g.token, {{g.begin, 0}}).accepted);
  EXPECT_FALSE(send_seal(*silent, g.shard_index, g.token, 0).accepted);
  silent.reset();

  const svc::ServiceReport rep = coord.report();
  EXPECT_GE(rep.lease_expiries, 1u);
  EXPECT_GE(rep.shards_requeued, 1u);

  // The shard is re-grantable and the run still completes exactly.
  svc::WorkerOptions clean;
  clean.name = "clean";
  svc::run_worker("127.0.0.1", coord.port(), clean);
  ASSERT_TRUE(coord.wait_complete(std::chrono::milliseconds(10000)));
  const dist::MergeResult merged =
      dist::merge_journals(plan, cfg.journal_dir);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.total, single_process_total(spec));
}

// ---- handshake refusals ---------------------------------------------------

TEST_F(ServiceTest, ForeignServiceProtocolIsRefusedWithAVersionCode) {
  const auto w = dist::EnumWorkload::parse("e10:6");
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  svc::Coordinator coord(dist::make_shard_plan(*w, 2), cfg);

  auto s = net::tcp_connect("127.0.0.1", coord.port());
  s->set_read_timeout_ms(2000);
  svc::HelloRequest hello;
  hello.protocol = svc::kServiceProtocolVersion + 7;
  hello.role = "worker";
  hello.name = "future";
  net::send_frame(*s, dist::WireKind::kHello, svc::encode(hello));
  net::Frame f;
  ASSERT_EQ(net::recv_frame(*s, f), net::RecvStatus::kFrame);
  ASSERT_EQ(f.kind, dist::WireKind::kError);
  EXPECT_EQ(svc::decode_error_reply(f.payload).code,
            svc::ErrorCode::kVersion);
}

TEST_F(ServiceTest, ForeignWireVersionIsAnsweredAsAVersionErrorNotCorruption) {
  const auto w = dist::EnumWorkload::parse("e10:6");
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  svc::Coordinator coord(dist::make_shard_plan(*w, 2), cfg);

  auto s = net::tcp_connect("127.0.0.1", coord.port());
  s->set_read_timeout_ms(2000);
  svc::HelloRequest hello;
  hello.role = "worker";
  auto framed = dist::frame_payload(dist::WireKind::kHello,
                                    svc::encode(hello));
  framed[4] ^= 0xff;  // the header's version field, bytes [4, 6)
  s->write_all(framed.data(), framed.size());
  net::Frame f;
  ASSERT_EQ(net::recv_frame(*s, f), net::RecvStatus::kFrame);
  ASSERT_EQ(f.kind, dist::WireKind::kError);
  EXPECT_EQ(svc::decode_error_reply(f.payload).code,
            svc::ErrorCode::kVersion);
}

TEST_F(ServiceTest, UnknownRoleIsRefused) {
  const auto w = dist::EnumWorkload::parse("e10:6");
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  svc::Coordinator coord(dist::make_shard_plan(*w, 2), cfg);

  auto s = net::tcp_connect("127.0.0.1", coord.port());
  s->set_read_timeout_ms(2000);
  svc::HelloRequest hello;
  hello.role = "gossip";
  net::send_frame(*s, dist::WireKind::kHello, svc::encode(hello));
  net::Frame f;
  ASSERT_EQ(net::recv_frame(*s, f), net::RecvStatus::kFrame);
  ASSERT_EQ(f.kind, dist::WireKind::kError);
  EXPECT_EQ(svc::decode_error_reply(f.payload).code,
            svc::ErrorCode::kRefused);
}

TEST_F(ServiceTest, RetiredHeartbeatKindIsABadRequest) {
  // The heartbeat message is retired: its wire kind is just another
  // kind the coordinator does not serve.
  const auto w = dist::EnumWorkload::parse("e10:6");
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  svc::Coordinator coord(dist::make_shard_plan(*w, 2), cfg);

  auto s = dial(coord, "worker", "old");
  net::send_frame(*s, dist::WireKind::kHeartbeat,
                  std::vector<std::uint8_t>(16));
  net::Frame f;
  ASSERT_EQ(net::recv_frame(*s, f), net::RecvStatus::kFrame);
  ASSERT_EQ(f.kind, dist::WireKind::kError);
  EXPECT_EQ(svc::decode_error_reply(f.payload).code,
            svc::ErrorCode::kBadRequest);
}

// ---- the remote orbit store -----------------------------------------------

TEST_F(ServiceTest, NetOrbitStoreRoundTripsThroughTheCoordinator) {
  // The coordinator stores no orbit sets: every get is a well-formed
  // absent reply and every put is answered "not stored".
  const auto w = dist::EnumWorkload::parse("e10:6");
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  svc::Coordinator coord(dist::make_shard_plan(*w, 2), cfg);

  const tree::Tree t = tree::line(6);
  util::Rng rng(0x5eedu);
  const sim::TabularAutomaton a =
      sim::random_line_automaton(3, rng).tabular();
  const sim::CompiledConfigEngine engine(t, a);
  std::vector<tree::NodeId> starts;
  for (tree::NodeId n = 0; n < t.node_count(); ++n) starts.push_back(n);
  engine.warm_orbits(starts);
  const sim::OrbitKey key = sim::combine_orbit_keys(
      sim::tree_orbit_key(t), sim::canonical_automaton_key(a));

  // A raw put of a real set over a worker session: answered, not stored.
  {
    auto s = dial(coord, "worker", "putter");
    svc::OrbitPut put;
    put.key = key;
    put.payload = dist::serialize_orbit_set(*engine.snapshot_orbits());
    net::send_frame(*s, dist::WireKind::kOrbitPut, svc::encode(put));
    net::Frame f;
    ASSERT_EQ(net::recv_frame(*s, f), net::RecvStatus::kFrame);
    ASSERT_EQ(f.kind, dist::WireKind::kOrbitPut);
    EXPECT_FALSE(svc::decode_orbit_put_reply(f.payload).accepted);
  }

  svc::NetOrbitStore store("127.0.0.1", coord.port(), "t-store");
  EXPECT_EQ(store.load(key), nullptr);
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(store.load(sim::OrbitKey{i + 100, i + 100}), nullptr);
  }
  const svc::ServiceReport rep = coord.report();
  EXPECT_EQ(rep.tier_gets, 5u);
  EXPECT_EQ(rep.tier_hits, 0u);

  const svc::NetOrbitStore::Stats st = store.stats();
  EXPECT_EQ(st.loads, 5u);
  EXPECT_EQ(st.hits, 0u);
  EXPECT_EQ(st.reconnects, 0u);  // one connection served every load
  EXPECT_EQ(st.exhausted, 0u);
}

// ---- campaign durability --------------------------------------------------

/// Requests leases until one is granted (or the queue drains). Each
/// request is held until a shard is grantable, so this only loops when
/// a disconnected holder's requeue takes longer than one hold.
svc::LeaseGrant lease_until_granted(net::TcpStream& s) {
  for (int i = 0; i < 50; ++i) {
    const svc::LeaseGrant g = request_lease(s);
    if (g.status != svc::LeaseStatus::kWait) return g;
  }
  ADD_FAILURE() << "lease never granted";
  return {};
}

// ---- held lease requests --------------------------------------------------

/// Sends a lease request and reports whether the coordinator HOLDS it:
/// no reply within `quiet`. The stream's read timeout is restored.
bool send_held_lease_request(net::TcpStream& s,
                             std::chrono::milliseconds quiet) {
  net::send_frame(s, dist::WireKind::kLeaseRequest,
                  svc::encode_lease_request());
  s.set_read_timeout_ms(static_cast<unsigned>(quiet.count()));
  net::Frame f;
  const net::RecvStatus st = net::recv_frame(s, f, /*idle_ok=*/true);
  s.set_read_timeout_ms(2000);
  return st == net::RecvStatus::kIdle;
}

double ms_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t)
      .count();
}

// A hold bound far above the wake-up latencies asserted below, so a
// request that is answered only because its hold ran out fails them.
constexpr std::chrono::milliseconds kLongHold{1000};
constexpr std::chrono::milliseconds kQuiet{50};

TEST_F(ServiceTest, HeldLeaseRequestWakesOnLastSeal) {
  const auto w = dist::EnumWorkload::parse("e10:6");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 1);
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.session_read_timeout = kLongHold;
  svc::Coordinator coord(plan, cfg);

  auto a = dial(coord, "worker", "a");
  const svc::LeaseGrant ga = request_lease(*a);
  ASSERT_EQ(ga.status, svc::LeaseStatus::kGranted);

  // B asks while A holds the only unsealed shard: the request is held.
  auto b = dial(coord, "worker", "b");
  ASSERT_TRUE(send_held_lease_request(*b, kQuiet))
      << "the lease request was answered instead of held";

  std::vector<svc::JournalRecord> recs;
  std::uint64_t sum = 0;
  for (std::uint64_t i = ga.begin; i < ga.end; ++i) {
    recs.push_back({i, 1});
    ++sum;
  }
  ASSERT_TRUE(send_chunk(*a, 0, ga.token, recs).accepted);
  ASSERT_TRUE(send_seal(*a, 0, ga.token, sum).accepted);
  const auto sealed_at = std::chrono::steady_clock::now();

  // The seal drains the campaign and wakes B's one request.
  const svc::LeaseGrant gb = read_lease_grant(*b);
  EXPECT_EQ(gb.status, svc::LeaseStatus::kDrained);
  EXPECT_LT(ms_since(sealed_at), 150.0);
}

TEST_F(ServiceTest, HeldLeaseRequestWakesOnRequeue) {
  const auto w = dist::EnumWorkload::parse("e10:6");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 1);
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.session_read_timeout = kLongHold;
  svc::Coordinator coord(plan, cfg);

  auto a = dial(coord, "worker", "a");
  const svc::LeaseGrant ga = request_lease(*a);
  ASSERT_EQ(ga.status, svc::LeaseStatus::kGranted);
  auto b = dial(coord, "worker", "b");
  ASSERT_TRUE(send_held_lease_request(*b, kQuiet))
      << "the lease request was answered instead of held";

  // A drops unsealed: the requeue grants the shard to B's held request.
  a.reset();
  const auto dropped_at = std::chrono::steady_clock::now();
  const svc::LeaseGrant gb = read_lease_grant(*b);
  ASSERT_EQ(gb.status, svc::LeaseStatus::kGranted);
  EXPECT_EQ(gb.shard_index, 0u);
  EXPECT_NE(gb.token, 0u);
  EXPECT_NE(gb.token, ga.token);
  EXPECT_LT(ms_since(dropped_at), 500.0);
  EXPECT_EQ(coord.report().shards_requeued, 1u);
}

TEST_F(ServiceTest, HeldLeaseRequestWakesOnExpiryRequeue) {
  const auto w = dist::EnumWorkload::parse("e10:6");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 1);
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.session_read_timeout = kLongHold;
  cfg.lease_timeout = std::chrono::milliseconds(100);
  svc::Coordinator coord(plan, cfg);

  // A takes the shard and stays connected but commits nothing.
  auto a = dial(coord, "worker", "a");
  const svc::LeaseGrant ga = request_lease(*a);
  ASSERT_EQ(ga.status, svc::LeaseStatus::kGranted);
  const auto granted_at = std::chrono::steady_clock::now();
  auto b = dial(coord, "worker", "b");
  ASSERT_TRUE(send_held_lease_request(*b, kQuiet))
      << "the lease request was answered instead of held";

  // The reaper's requeue, not the end of the hold, answers B.
  const svc::LeaseGrant gb = read_lease_grant(*b);
  ASSERT_EQ(gb.status, svc::LeaseStatus::kGranted);
  EXPECT_EQ(gb.shard_index, 0u);
  EXPECT_NE(gb.token, ga.token);
  EXPECT_LT(ms_since(granted_at), 600.0);
  EXPECT_EQ(coord.report().lease_expiries, 1u);
}

TEST_F(ServiceTest, StopWhileLeaseRequestHeldSendsNoReply) {
  const auto w = dist::EnumWorkload::parse("e10:6");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 1);
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.session_read_timeout = std::chrono::milliseconds(500);
  svc::Coordinator coord(plan, cfg);

  auto a = dial(coord, "worker", "a");
  ASSERT_EQ(request_lease(*a).status, svc::LeaseStatus::kGranted);
  auto b = dial(coord, "worker", "b");
  ASSERT_TRUE(send_held_lease_request(*b, kQuiet))
      << "the lease request was answered instead of held";
  const std::string lpath = dist::ledger_path(cfg.journal_dir);
  const std::size_t records_before = dist::read_ledger(lpath)->records.size();

  const auto stop_at = std::chrono::steady_clock::now();
  coord.stop();
  EXPECT_LT(ms_since(stop_at),
            static_cast<double>(cfg.session_read_timeout.count()) + 500.0);

  // B's session closes with its request unanswered: no grant, no kWait,
  // and nothing new in the ledger (A's open lease is not failed either).
  net::Frame f;
  EXPECT_EQ(net::recv_frame(*b, f), net::RecvStatus::kEof);
  EXPECT_EQ(dist::read_ledger(lpath)->records.size(), records_before);
  EXPECT_EQ(coord.report().leases_granted, 1u);
}

TEST_F(ServiceTest, ResumeReplaysExactStateFieldForField) {
  // Scripted grant / fail / re-grant / quarantine / seal / open-lease
  // sequence against coordinator #1, then `--resume` as coordinator #2:
  // every shard's control state must be reconstructed field-for-field,
  // with the one documented mapping — a pre-crash lease becomes
  // kPending, token 0, interrupted=true.
  const auto w = dist::EnumWorkload::parse("e10:6");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 3);
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.max_attempts = 2;
  std::vector<svc::Coordinator::ShardSnapshot> live;
  std::uint64_t committed_live = 0, defeats_live = 0;
  std::uint64_t open_token = 0;
  {
    svc::Coordinator coord(plan, cfg);

    // Shard 0: granted once, fully streamed (synthetic values — this is
    // a control-state test, not a merge test) and sealed.
    auto a = dial(coord, "worker", "a");
    const svc::LeaseGrant ga = request_lease(*a);
    ASSERT_EQ(ga.status, svc::LeaseStatus::kGranted);
    ASSERT_EQ(ga.shard_index, 0u);
    std::vector<svc::JournalRecord> recs;
    std::uint64_t sum0 = 0;
    for (std::uint64_t i = ga.begin; i < ga.end; ++i) {
      recs.push_back({i, i + 1});
      sum0 += i + 1;
    }
    EXPECT_TRUE(send_chunk(*a, 0, ga.token, recs).accepted);
    EXPECT_TRUE(send_seal(*a, 0, ga.token, sum0).accepted);

    // Shard 1: granted, two records streamed, then left OPEN — the
    // lease that is out when the crash hits.
    auto b = dial(coord, "worker", "b");
    const svc::LeaseGrant gb = request_lease(*b);
    ASSERT_EQ(gb.status, svc::LeaseStatus::kGranted);
    ASSERT_EQ(gb.shard_index, 1u);
    open_token = gb.token;
    EXPECT_TRUE(
        send_chunk(*b, 1, gb.token, {{gb.begin, 5}, {gb.begin + 1, 7}})
            .accepted);

    // Shard 2: granted and dropped unsealed, twice — the second failure
    // exhausts max_attempts and quarantines it.
    for (int attempt = 0; attempt < 2; ++attempt) {
      auto c = dial(coord, "worker", "c");
      const svc::LeaseGrant gc = lease_until_granted(*c);
      ASSERT_EQ(gc.status, svc::LeaseStatus::kGranted);
      ASSERT_EQ(gc.shard_index, 2u);
      c.reset();  // unsealed disconnect -> fail_attempt
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (std::chrono::steady_clock::now() < deadline) {
        const svc::ServiceReport r = coord.report();
        if (attempt == 0 ? r.shards_requeued >= 1 : r.shards_quarantined >= 1)
          break;
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
    }
    const svc::ServiceReport r1 = coord.report();
    ASSERT_EQ(r1.shards_quarantined, 1u);
    live = coord.shard_snapshots();
    committed_live = r1.committed_indices;
    defeats_live = r1.committed_defeats;
    coord.stop();
  }  // coordinator #1 gone; ledger + journals are what a SIGKILL leaves

  svc::CoordinatorConfig rcfg = cfg;
  rcfg.resume = true;
  svc::Coordinator resumed(plan, rcfg);
  const auto snaps = resumed.shard_snapshots();
  ASSERT_EQ(snaps.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    const auto& l = live[i];
    const auto& r = snaps[i];
    const bool was_leased = l.phase == svc::Coordinator::ShardPhase::kLeased;
    EXPECT_EQ(r.phase, was_leased ? svc::Coordinator::ShardPhase::kPending
                                  : l.phase)
        << i;
    EXPECT_EQ(r.attempts, l.attempts) << i;
    EXPECT_EQ(r.token, was_leased ? 0u : l.token) << i;
    EXPECT_EQ(r.next_index, l.next_index) << i;
    EXPECT_EQ(r.sum, l.sum) << i;
    EXPECT_EQ(r.interrupted, was_leased) << i;
  }
  const svc::ServiceReport r2 = resumed.report();
  EXPECT_EQ(r2.resumed, 1u);
  EXPECT_EQ(r2.ledger_epoch, 2u);
  EXPECT_GE(r2.ledger_records_replayed, 7u);  // epoch + 4 grants + fail + ...
  EXPECT_EQ(r2.committed_indices, committed_live);
  EXPECT_EQ(r2.committed_defeats, defeats_live);

  // The pre-crash leaseholder's token is fenced by the new epoch.
  auto stale = dial(resumed, "worker", "b");
  EXPECT_FALSE(
      send_chunk(*stale, 1, open_token, {{live[1].next_index, 1}}).accepted);
  EXPECT_GE(resumed.report().stale_tokens_fenced, 1u);

  // The interrupted shard re-grants from the durable committed prefix.
  const svc::LeaseGrant again = lease_until_granted(*stale);
  ASSERT_EQ(again.status, svc::LeaseStatus::kGranted);
  EXPECT_EQ(again.shard_index, 1u);
  EXPECT_EQ(again.next_index, live[1].next_index);
  EXPECT_EQ(again.resume_sum, live[1].sum);
  EXPECT_NE(again.token, open_token);
  EXPECT_GE(resumed.report().leases_regranted, 1u);
}

TEST_F(ServiceTest, ResumeWithoutALedgerIsRefused) {
  const auto w = dist::EnumWorkload::parse("e10:6");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 2);
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.resume = true;
  EXPECT_THROW(svc::Coordinator coord(plan, cfg), dist::SerializeError);
}

TEST_F(ServiceTest, LedgerJournalDisagreementIsARefusalNotAGuess) {
  // A campaign completes; then the sealed journal loses its seal record
  // (fsynced ledger history the fflushed journal half lost — a host
  // reboot can do this). --resume must refuse, not recompute under a lie.
  const auto w = dist::EnumWorkload::parse("e10:6");
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 2);
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  {
    svc::Coordinator coord(plan, cfg);
    svc::WorkerOptions o;
    o.name = "w";
    svc::run_worker("127.0.0.1", coord.port(), o);
    ASSERT_TRUE(coord.wait_complete(std::chrono::milliseconds(10000)));
  }
  const std::string j0 =
      dist::journal_path(cfg.journal_dir, plan.shards[0]);
  const std::uint64_t sealed_size = std::filesystem::file_size(j0);
  std::filesystem::resize_file(j0, sealed_size - 32);  // drop the seal
  svc::CoordinatorConfig rcfg = cfg;
  rcfg.resume = true;
  EXPECT_THROW(svc::Coordinator coord(plan, rcfg), dist::SerializeError);
}

TEST_F(ServiceTest, WorkerStartedBeforeItsCoordinatorConnectsViaBackoff) {
  // The initial connect rides the same backoff loop as a mid-run
  // reconnect: a worker launched first simply waits for the coordinator.
  const std::string spec = "e10:6";
  std::uint16_t port = 0;
  {
    net::TcpListener l(0);
    port = l.port();
    l.close();
  }
  svc::WorkerReport rep;
  std::thread t([&] {
    svc::WorkerOptions o;
    o.name = "early";
    o.reconnect.max_attempts = 100;
    o.reconnect.base_delay = std::chrono::milliseconds(10);
    o.reconnect.max_delay = std::chrono::milliseconds(100);
    rep = svc::run_worker("127.0.0.1", port, o);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const auto w = dist::EnumWorkload::parse(spec);
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 2);
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.port = port;
  svc::Coordinator coord(plan, cfg);
  t.join();
  ASSERT_TRUE(coord.wait_complete(std::chrono::milliseconds(10000)));
  EXPECT_GE(rep.connect_retries, 1u);
  EXPECT_EQ(rep.sealed, 2u);
  const dist::MergeResult merged =
      dist::merge_journals(plan, cfg.journal_dir);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.total, single_process_total(spec));
}

TEST_F(ServiceTest, WorkerRidesOutACoordinatorRestartAndTheRunCompletes) {
  // Coordinator #1 dies mid-campaign; #2 resumes on the same port from
  // the ledger. The worker reconnects through its backoff loop, its
  // pre-crash lease token fences, and the merged total is still exact.
  const std::string spec = "e10:4";
  const std::uint64_t expected = single_process_total(spec);
  const auto w = dist::EnumWorkload::parse(spec);
  const dist::ShardPlan plan = dist::make_shard_plan(*w, 2);
  std::uint16_t port = 0;
  {
    net::TcpListener l(0);
    port = l.port();
    l.close();
  }
  svc::CoordinatorConfig cfg;
  cfg.journal_dir = path("journals");
  cfg.port = port;

  auto coord = std::make_unique<svc::Coordinator>(plan, cfg);
  svc::WorkerReport rep;
  std::thread t([&] {
    svc::WorkerOptions o;
    o.name = "steady";
    o.throttle_ms = 1;  // widen the mid-lease window the restart hits
    o.chunk_records = 16;
    o.reconnect.max_attempts = 200;
    o.reconnect.base_delay = std::chrono::milliseconds(10);
    o.reconnect.max_delay = std::chrono::milliseconds(100);
    rep = svc::run_worker("127.0.0.1", port, o);
  });

  // Wait for durably committed progress, then "crash" #1 (its ledger
  // and journals on disk are exactly a SIGKILL's).
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (coord->report().committed_indices == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(coord->report().committed_indices, 0u);
  coord.reset();

  svc::CoordinatorConfig rcfg = cfg;
  rcfg.resume = true;
  svc::Coordinator second(plan, rcfg);
  t.join();
  ASSERT_TRUE(second.wait_complete(std::chrono::milliseconds(10000)));

  EXPECT_GE(rep.reconnects, 1u);
  EXPECT_GE(rep.fenced, 1u);
  const svc::ServiceReport r = second.report();
  EXPECT_EQ(r.resumed, 1u);
  EXPECT_GE(r.stale_tokens_fenced, 1u);
  EXPECT_GE(r.leases_regranted, 1u);
  EXPECT_GE(r.worker_reconnects, 1u);

  // The metrics endpoint carries the recovery counters.
  const std::string body =
      net::http_get("127.0.0.1", second.metrics_port(), "/");
  EXPECT_NE(body.find("\"recovery_resumed\": 1"), std::string::npos);
  EXPECT_NE(body.find("\"recovery_ledger_epoch\": 2"), std::string::npos);
  EXPECT_NE(body.find("\"recovery_worker_reconnects\""), std::string::npos);

  const dist::MergeResult merged =
      dist::merge_journals(plan, cfg.journal_dir);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(merged.total, expected);
}

TEST_F(ServiceTest, NetOrbitStoreMissesWhenUnreachable) {
  // Bind-then-close: the port exists but refuses — every op fails fast.
  std::uint16_t dead_port = 0;
  {
    net::TcpListener l(0);
    dead_port = l.port();
    l.close();
  }
  svc::NetOrbitStore store("127.0.0.1", dead_port, "t-store");
  for (std::uint64_t i = 0; i < 4; ++i) {
    EXPECT_EQ(store.load(sim::OrbitKey{i, i}), nullptr);
  }
  // Each load retried once on a fresh connection, then gave up: a miss,
  // never an exception.
  const svc::NetOrbitStore::Stats st = store.stats();
  EXPECT_EQ(st.loads, 4u);
  EXPECT_EQ(st.reconnects, 4u);
  EXPECT_EQ(st.exhausted, 4u);
  EXPECT_EQ(st.hits, 0u);
}

}  // namespace
}  // namespace rvt
