// Serialization robustness: exact round-trips, hostile bytes, versioning.
//
// The wire codec ferries orbit sets (and plans/journals) between
// processes and machines; a silent mis-decode would poison verdicts far
// from the corruption site. These tests pin down:
//  * round-trip EXACTNESS over real published OrbitSets (random
//    automata x random trees, port-sensitive and oblivious, fuzzed) —
//    field-for-field orbit equality plus collision tables, and verdict
//    equality when an engine adopts the deserialized set;
//  * rejection of truncation at EVERY prefix length, of any single
//    corrupted byte (checksum), and of a bumped format version;
//  * zero-length reads and the zero-record journal chunk of the
//    worker's reconnect probe.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>

#include "dist/serialize.hpp"
#include "sim/automaton.hpp"
#include "sim/compiled.hpp"
#include "sim/orbit_cache.hpp"
#include "svc/protocol.hpp"
#include "tree/builders.hpp"
#include "util/failpoint.hpp"
#include "util/retry.hpp"
#include "util/rng.hpp"

namespace rvt {
namespace {

using sim::CompiledConfigEngine;
using sim::TabularAutomaton;

tree::Tree random_tree(util::Rng& rng) {
  const int n = 3 + static_cast<int>(rng.index(10));
  switch (rng.index(4)) {
    case 0:
      return tree::line(n);
    case 1:
      return tree::spider(3, 1 + static_cast<int>(rng.index(3)));
    case 2:
      return tree::broom(2 + static_cast<int>(rng.index(3)), 2);
    default:
      return tree::line_edge_colored(n, 0);
  }
}

TabularAutomaton random_automaton(util::Rng& rng) {
  const int k = 1 + static_cast<int>(rng.index(5));
  if (rng.index(2) == 0) {
    return sim::random_tree_automaton(k, rng).tabular();
  }
  return sim::lift_to_tree_automaton(sim::random_line_automaton(k, rng))
      .tabular();
}

/// A fully warmed published set of a random binding (every start node,
/// plus the collision tables a battery would touch).
std::shared_ptr<const CompiledConfigEngine::OrbitSet> random_published_set(
    const tree::Tree& t, const TabularAutomaton& a) {
  const CompiledConfigEngine engine(t, a);
  std::vector<tree::NodeId> starts;
  for (tree::NodeId s = 0; s < t.node_count(); ++s) starts.push_back(s);
  engine.warm_orbits(starts);
  for (const tree::NodeId u : starts) {
    for (const tree::NodeId v : starts) {
      const auto& A = engine.orbit(u);
      const auto& B = engine.orbit(v);
      if (A.lambda <= CompiledConfigEngine::kCollisionLimit &&
          B.lambda <= CompiledConfigEngine::kCollisionLimit) {
        engine.cycle_pair_collisions(A.cycle_root, B.cycle_root);
      }
    }
  }
  return engine.snapshot_orbits();
}

void expect_sets_equal(const CompiledConfigEngine::OrbitSet& got,
                       const CompiledConfigEngine::OrbitSet& want) {
  ASSERT_EQ(got.orbits.size(), want.orbits.size());
  ASSERT_EQ(got.has_orbit, want.has_orbit);
  for (std::size_t s = 0; s < want.orbits.size(); ++s) {
    if (!want.has_orbit[s]) continue;
    const auto& g = got.orbits[s];
    const auto& w = want.orbits[s];
    EXPECT_EQ(g.mu, w.mu) << s;
    EXPECT_EQ(g.lambda, w.lambda) << s;
    EXPECT_EQ(g.sn_mu, w.sn_mu) << s;
    EXPECT_EQ(g.cycle_root, w.cycle_root) << s;
    EXPECT_EQ(g.cycle_phase, w.cycle_phase) << s;
    EXPECT_EQ(g.node, w.node) << s;
    EXPECT_EQ(g.in_port, w.in_port) << s;
    EXPECT_EQ(g.first_visit, w.first_visit) << s;
  }
  ASSERT_EQ(got.collisions.size(), want.collisions.size());
  for (std::size_t i = 0; i < want.collisions.size(); ++i) {
    EXPECT_EQ(got.collisions[i].root_a, want.collisions[i].root_a);
    EXPECT_EQ(got.collisions[i].root_b, want.collisions[i].root_b);
    EXPECT_EQ(got.collisions[i].table, want.collisions[i].table);
  }
  EXPECT_EQ(got.collision_index, want.collision_index);
  EXPECT_EQ(got.bytes, want.bytes);
}

TEST(Serialize, OrbitSetRoundTripFuzz) {
  util::Rng rng(0x5e71a71e);
  int cases = 0;
  while (cases < 40) {
    const tree::Tree t = random_tree(rng);
    const TabularAutomaton a = random_automaton(rng);
    if (t.max_degree() > a.max_degree) continue;
    ++cases;
    const auto set = random_published_set(t, a);
    const auto bytes = dist::serialize_orbit_set(*set);
    const auto back = dist::deserialize_orbit_set(bytes);
    expect_sets_equal(*back, *set);
    // Round-trip must also be byte-stable (serialize(deserialize(x)) ==
    // x): the fs tier rewrites files from deserialized sets in no path
    // today, but a drift here would silently fork content addresses.
    EXPECT_EQ(dist::serialize_orbit_set(*back), bytes);
  }
}

TEST(Serialize, AdoptedDeserializedSetAnswersQueriesIdentically) {
  util::Rng rng(0xad0b7ull);
  int cases = 0;
  while (cases < 10) {
    const tree::Tree t = random_tree(rng);
    const TabularAutomaton a = random_automaton(rng);
    if (t.max_degree() > a.max_degree) continue;
    ++cases;
    const auto set = random_published_set(t, a);
    const auto back = dist::deserialize_orbit_set(
        dist::serialize_orbit_set(*set));

    CompiledConfigEngine local(t, a);
    CompiledConfigEngine adopted(t, a);
    adopted.rebind_adopted(back);
    for (tree::NodeId u = 0; u < t.node_count(); ++u) {
      for (tree::NodeId v = 0; v < t.node_count(); ++v) {
        if (u == v) continue;
        const auto want = sim::verify_never_meet_compiled(
            local, local, {u, v, 2, 0, 50000});
        const auto got = sim::verify_never_meet_compiled(
            adopted, adopted, {u, v, 2, 0, 50000});
        ASSERT_EQ(got.met, want.met) << u << " " << v;
        ASSERT_EQ(got.meeting_round, want.meeting_round) << u << " " << v;
        ASSERT_EQ(got.rounds_checked, want.rounds_checked) << u << " " << v;
      }
    }
    EXPECT_EQ(adopted.orbits_extracted(), 0u);  // everything served
  }
}

TEST(Serialize, FramingRejectsTruncationEverywhere) {
  util::Rng rng(0x7126ca7e);
  tree::Tree t = tree::line(5);
  const TabularAutomaton a =
      sim::random_line_automaton(3, rng).tabular();
  const auto set = random_published_set(t, a);
  const auto framed = dist::frame_payload(
      dist::WireKind::kOrbitSet, dist::serialize_orbit_set(*set));
  // Every proper prefix must be rejected (header too short, length
  // mismatch, or checksum over a shortened payload).
  for (std::size_t len = 0; len < framed.size();
       len = len * 2 + 1) {  // exponential probe + the exact boundary set
    const std::span<const std::uint8_t> cut(framed.data(), len);
    EXPECT_THROW(dist::unframe_payload(dist::WireKind::kOrbitSet, cut),
                 dist::SerializeError)
        << len;
  }
  const std::span<const std::uint8_t> almost(framed.data(),
                                             framed.size() - 1);
  EXPECT_THROW(dist::unframe_payload(dist::WireKind::kOrbitSet, almost),
               dist::SerializeError);
}

TEST(Serialize, FramingRejectsEveryCorruptedByteAndWrongKind) {
  util::Rng rng(0xc0441);
  tree::Tree t = tree::line(4);
  const TabularAutomaton a =
      sim::random_line_automaton(2, rng).tabular();
  const auto set = random_published_set(t, a);
  auto framed = dist::frame_payload(dist::WireKind::kOrbitSet,
                                    dist::serialize_orbit_set(*set));
  // Flip one byte at a time across a sample of offsets (every offset in
  // the header, strided through the payload).
  for (std::size_t off = 0; off < framed.size();
       off += off < 48 ? 1 : 97) {
    framed[off] ^= 0x5a;
    EXPECT_THROW(
        dist::unframe_payload(dist::WireKind::kOrbitSet, framed),
        dist::SerializeError)
        << "offset " << off;
    framed[off] ^= 0x5a;
  }
  // Pristine again: accepted.
  EXPECT_NO_THROW(
      dist::unframe_payload(dist::WireKind::kOrbitSet, framed));
  // Right bytes, wrong kind.
  EXPECT_THROW(dist::unframe_payload(dist::WireKind::kShardPlan, framed),
               dist::SerializeError);
}

TEST(Serialize, FramingRefusesForeignVersion) {
  const std::vector<std::uint8_t> payload{1, 2, 3};
  auto framed = dist::frame_payload(dist::WireKind::kOrbitSet, payload);
  // The version lives at offset 4 (u16, little-endian).
  framed[4] = static_cast<std::uint8_t>(dist::kWireVersion + 1);
  EXPECT_THROW(dist::unframe_payload(dist::WireKind::kOrbitSet, framed),
               dist::SerializeError);
  framed[4] = static_cast<std::uint8_t>(dist::kWireVersion);
  EXPECT_NO_THROW(
      dist::unframe_payload(dist::WireKind::kOrbitSet, framed));
}

TEST(Serialize, DeserializerRejectsStructuralLies) {
  util::Rng rng(0x57a7e);
  tree::Tree t = tree::line(4);
  const TabularAutomaton a =
      sim::random_line_automaton(2, rng).tabular();
  const auto set = random_published_set(t, a);
  const auto bytes = dist::serialize_orbit_set(*set);
  // Empty payload, and a payload with the tail cut off (arena totals
  // then disagree with the per-orbit headers).
  EXPECT_THROW(dist::deserialize_orbit_set({}), dist::SerializeError);
  const std::span<const std::uint8_t> cut(bytes.data(),
                                          bytes.size() / 2);
  EXPECT_THROW(dist::deserialize_orbit_set(cut), dist::SerializeError);
  // Trailing garbage.
  auto padded = bytes;
  padded.push_back(0);
  EXPECT_THROW(dist::deserialize_orbit_set(padded), dist::SerializeError);
}

TEST(Serialize, DeserializerRejectsOverflowingOrbitHeader) {
  // A forged orbit header with mu = 2^64 - 1 and lambda = 1 wraps
  // mu + lambda to 0: a naive sum-side check would accept empty
  // node/port payloads and the first node_at() would index a 0-length
  // arena window at 2^64 - 1. The validator must refuse.
  dist::WireWriter w;
  w.u32(2);                    // n
  w.u8(1);                     // has_orbit[0]
  w.u8(0);                     // has_orbit[1]
  w.u64(~0ull);                // mu (forged)
  w.u64(1);                    // lambda
  w.u64(0);                    // sn_mu
  w.u32(0);                    // cycle_root
  w.u64(0);                    // cycle_phase
  w.u32(0);                    // node size (consistent with the wrap)
  w.u32(0);                    // port size
  w.u32(2);                    // first_visit size (== n)
  w.u64(0);                    // node arena total
  w.u64(0);                    // port arena total
  w.u64(2);                    // visit arena total
  w.u32(0xFFFFFFFFu);          // visit arena entries (kNever)
  w.u32(0xFFFFFFFFu);
  w.u32(0);                    // no collision pairs
  w.u8(0);                     // no collision index
  EXPECT_THROW(dist::deserialize_orbit_set(w.bytes()),
               dist::SerializeError);
}

TEST(SerializeWire, UnframeFailpointSurfacesAsSerializeError) {
  auto& reg = util::FailPointRegistry::instance();
  const std::vector<std::uint8_t> framed =
      dist::frame_payload(dist::WireKind::kShardPlan, {});
  reg.configure("wire.unframe=err@always");
  EXPECT_THROW(dist::unframe_payload(dist::WireKind::kShardPlan, framed),
               dist::SerializeError);
  reg.reset();
  EXPECT_NO_THROW(dist::unframe_payload(dist::WireKind::kShardPlan, framed));
}

TEST(SerializeWire, ZeroLengthReadsTouchNothing) {
  // A zero-length read may come with a null destination (an empty
  // vector's data()); it must succeed without handing memcpy a null
  // pointer, and only at the very end of the payload.
  const std::vector<std::uint8_t> empty;
  dist::WireReader r(empty);
  r.raw(nullptr, 0);
  r.expect_end();
  EXPECT_THROW(r.raw(nullptr, 1), dist::SerializeError);
}

TEST(SerializeWire, ZeroRecordJournalChunkRoundTrips) {
  // The worker's post-reconnect lease probe is a chunk with no records.
  svc::JournalChunk probe;
  probe.shard_index = 3;
  probe.token = 0x51ab;
  const std::vector<std::uint8_t> bytes = svc::encode(probe);
  const svc::JournalChunk back = svc::decode_journal_chunk(bytes);
  EXPECT_EQ(back.shard_index, 3u);
  EXPECT_EQ(back.token, 0x51abu);
  EXPECT_TRUE(back.records.empty());
  // Framed and unframed like every session message.
  const auto framed =
      dist::frame_payload(dist::WireKind::kJournalChunk, bytes);
  const auto payload =
      dist::unframe_payload(dist::WireKind::kJournalChunk, framed);
  EXPECT_TRUE(svc::decode_journal_chunk(payload).records.empty());
}

}  // namespace
}  // namespace rvt
