// Fused rebind+grid enumeration (sim/enumeration.hpp): the context's
// verify()/count_unmet()/first_unmet() must agree query-for-query with
// one-off verify_never_meet_compiled calls, across rebinds, grids, thread
// counts and cache attachment — and the defeat-count memo must answer exactly
// what a cache-less context computes. The CountUnmet cases also call the
// occupancy unit (sim/occupancy.hpp) directly, at both of its decline
// edges.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <vector>

#include "sim/automaton.hpp"
#include "sim/compiled.hpp"
#include "sim/enumeration.hpp"
#include "sim/occupancy.hpp"
#include "sim/orbit_cache.hpp"
#include "tree/builders.hpp"
#include "util/rng.hpp"

namespace rvt::sim {
namespace {

std::vector<EnumGrid> small_grids(const std::vector<tree::Tree>& trees) {
  std::vector<EnumGrid> grids;
  for (const auto& t : trees) {
    EnumGrid grid;
    grid.tree = &t;
    for (tree::NodeId u = 0; u < t.node_count(); ++u) {
      for (tree::NodeId v = u + 1; v < t.node_count(); ++v) {
        for (const std::uint64_t d : {0ull, 1ull, 7ull}) {
          grid.push({u, v, d, 0});
        }
      }
    }
    grids.push_back(std::move(grid));
  }
  return grids;
}

/// The unfused reference: verify_never_meet_compiled per query of pair
/// grid `grid`, on a fresh engine bound to `a`.
std::vector<Verdict> verify_each(const EnumGrid& grid, std::uint64_t horizon,
                                 const TabularAutomaton& a) {
  const CompiledConfigEngine engine(*grid.tree, a);
  std::vector<Verdict> out;
  for (std::size_t q = 0; q < grid.query_count(); ++q) {
    const auto gq = grid.query(q);
    out.push_back(verify_never_meet_compiled(
        engine, engine,
        {gq.starts[0], gq.starts[1], gq.delays[0], gq.delays[1], horizon}));
  }
  return out;
}

TEST(Enumeration, MatchesOneOffVerdictsFieldForFieldAcrossRebinds) {
  util::Rng rng(0xe9u);
  std::vector<tree::Tree> trees;
  trees.push_back(tree::line_edge_colored(7, 0));
  trees.push_back(tree::line_symmetric_colored(9));
  const auto grids = small_grids(trees);
  constexpr std::uint64_t kHorizon = 150000;

  EnumerationContext ctx(grids, kHorizon);
  for (int rep = 0; rep < 12; ++rep) {
    const TabularAutomaton a =
        random_line_automaton(1 + static_cast<int>(rng.index(5)), rng)
            .tabular();
    ctx.bind(a);
    for (std::size_t g = 0; g < grids.size(); ++g) {
      const auto fused = ctx.verify(g);
      const auto unfused = verify_each(grids[g], kHorizon, a);
      ASSERT_EQ(fused.size(), unfused.size());
      std::uint64_t unmet = 0;
      std::ptrdiff_t first = -1;
      for (std::size_t i = 0; i < fused.size(); ++i) {
        ASSERT_EQ(fused[i].met, unfused[i].met) << rep << " " << g << " " << i;
        ASSERT_EQ(fused[i].meeting_round, unfused[i].meeting_round)
            << rep << " " << g << " " << i;
        ASSERT_EQ(fused[i].certified_forever, unfused[i].certified_forever)
            << rep << " " << g << " " << i;
        ASSERT_EQ(fused[i].cycle_length, unfused[i].cycle_length)
            << rep << " " << g << " " << i;
        ASSERT_EQ(fused[i].rounds_checked, unfused[i].rounds_checked)
            << rep << " " << g << " " << i;
        ASSERT_EQ(fused[i].engine, VerifyEngine::kCompiled);
        if (!fused[i].met) {
          ++unmet;
          if (first < 0) first = static_cast<std::ptrdiff_t>(i);
        }
      }
      // The counting/scanning variants are definitionally tied to
      // verify() — and note verify() was called FIRST, so first_unmet
      // here also covers the already-prepared path.
      ASSERT_EQ(ctx.count_unmet(g), unmet) << rep << " " << g;
      ASSERT_EQ(ctx.first_unmet(g), first) << rep << " " << g;
    }
  }
  const auto telemetry = ctx.telemetry();
  EXPECT_GT(telemetry.queries, 0u);
  EXPECT_GT(telemetry.orbits_extracted, 0u);
  EXPECT_EQ(telemetry.cache_hits + telemetry.cache_misses, 0u);
}

TEST(Enumeration, LazyFirstUnmetMatchesPreparedScan) {
  util::Rng rng(0x1a2);
  std::vector<tree::Tree> trees;
  trees.push_back(tree::line(8));
  const auto grids = small_grids(trees);
  for (int rep = 0; rep < 20; ++rep) {
    const TabularAutomaton a =
        random_line_automaton(1 + static_cast<int>(rng.index(5)), rng)
            .tabular();
    // Fresh binding, first_unmet first: the lazy (scan-prepared) path.
    EnumerationContext lazy(grids, 150000);
    lazy.bind(a);
    const auto from_lazy = lazy.first_unmet(0);
    // Fresh binding, verify first: the fully-prepared path.
    EnumerationContext warm(grids, 150000);
    warm.bind(a);
    (void)warm.verify(0);
    ASSERT_EQ(warm.first_unmet(0), from_lazy) << rep;
  }
}

TEST(Enumeration, DuplicateGridAnswersOncePerBinding) {
  // Battery B holds a content-identical copy of grid 0 (on another tree
  // object); battery A does not. first_unmet on B answers the copy
  // exactly like grid 0, whichever is asked first, and the copy adds no
  // binding, query or extracted orbit.
  std::vector<tree::Tree> trees;
  trees.push_back(tree::line(8));
  trees.push_back(tree::line_edge_colored(7, 1));
  const tree::Tree twin = tree::line(8);
  const std::vector<EnumGrid> a_grids = small_grids(trees);
  std::vector<EnumGrid> b_grids = a_grids;
  b_grids.push_back(a_grids[0]);
  b_grids.back().tree = &twin;
  util::Rng rng(0xd0b1e);
  EnumerationContext a_ctx(a_grids, 150000);
  EnumerationContext b_ctx(b_grids, 150000);
  for (int rep = 0; rep < 60; ++rep) {
    const TabularAutomaton a =
        random_line_automaton(1 + static_cast<int>(rng.index(4)), rng)
            .tabular();
    a_ctx.bind(a);
    b_ctx.bind(a);
    const std::ptrdiff_t a0 = a_ctx.first_unmet(0);
    const std::ptrdiff_t a1 = a_ctx.first_unmet(1);
    if (rep % 2 == 0) {  // the copy first: computed on grid 0
      EXPECT_EQ(b_ctx.first_unmet(2), a0) << rep;
      EXPECT_EQ(b_ctx.first_unmet(1), a1) << rep;
      EXPECT_EQ(b_ctx.first_unmet(0), a0) << rep;
    } else {
      EXPECT_EQ(b_ctx.first_unmet(0), a0) << rep;
      EXPECT_EQ(b_ctx.first_unmet(1), a1) << rep;
      EXPECT_EQ(b_ctx.first_unmet(2), a0) << rep;
    }
  }
  const EnumTelemetry ta = a_ctx.telemetry();
  const EnumTelemetry tb = b_ctx.telemetry();
  EXPECT_EQ(tb.bindings, ta.bindings);
  EXPECT_EQ(tb.queries, ta.queries);
  EXPECT_EQ(tb.orbits_extracted, ta.orbits_extracted);
  EXPECT_GT(ta.queries, 0u);
}

TEST(Enumeration, AttachedCacheLeavesVerdictsAndExtractionUnchanged) {
  // The verdict and early-exit calls never go through the cache: a
  // context with one attached (even one another context already ran the
  // same bindings against) answers every query exactly like a cache-less
  // context and extracts exactly the same orbits — the early-exit scans
  // stay lazy.
  std::vector<tree::Tree> trees;
  trees.push_back(tree::line(8));
  trees.push_back(tree::line_edge_colored(7, 1));
  const auto grids = small_grids(trees);
  util::Rng rng(0xca5e);
  std::vector<TabularAutomaton> automata;
  for (int i = 0; i < 30; ++i) {
    automata.push_back(
        random_line_automaton(1 + static_cast<int>(rng.index(4)), rng)
            .tabular());
  }
  OrbitCache cache;
  for (int pass = 0; pass < 2; ++pass) {  // the second pass re-asks
    EnumerationContext cached(grids, 100000, &cache);
    EnumerationContext plain(grids, 100000);
    for (std::size_t a = 0; a < automata.size(); ++a) {
      cached.bind(automata[a]);
      plain.bind(automata[a]);
      for (std::size_t g = 0; g < grids.size(); ++g) {
        // Early exits first: a fully warmed binding would hide laziness.
        ASSERT_EQ(cached.first_unmet(g), plain.first_unmet(g)) << a;
      }
      if (a % 3 != 0) continue;  // leave most bindings scan-only
      for (std::size_t g = 0; g < grids.size(); ++g) {
        const auto want_span = plain.verify(g);
        const std::vector<Verdict> want(want_span.begin(), want_span.end());
        const auto got = cached.verify(g);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < want.size(); ++i) {
          ASSERT_EQ(got[i].met, want[i].met) << a << " " << g << " " << i;
          ASSERT_EQ(got[i].meeting_round, want[i].meeting_round);
          ASSERT_EQ(got[i].certified_forever, want[i].certified_forever);
          ASSERT_EQ(got[i].cycle_length, want[i].cycle_length);
          ASSERT_EQ(got[i].rounds_checked, want[i].rounds_checked);
        }
        const auto gwant_span = plain.verify_gather(g);
        const std::vector<GatherVerdict> gwant(gwant_span.begin(),
                                               gwant_span.end());
        const auto ggot = cached.verify_gather(g);
        ASSERT_EQ(ggot.size(), gwant.size());
        for (std::size_t i = 0; i < gwant.size(); ++i) {
          ASSERT_EQ(ggot[i].gathered, gwant[i].gathered) << a << " " << i;
          ASSERT_EQ(ggot[i].gather_round, gwant[i].gather_round);
          ASSERT_EQ(ggot[i].gather_node, gwant[i].gather_node);
          ASSERT_EQ(ggot[i].certified_forever, gwant[i].certified_forever);
          ASSERT_EQ(ggot[i].rounds_checked, gwant[i].rounds_checked);
        }
      }
    }
    const EnumTelemetry tc = cached.telemetry();
    const EnumTelemetry tp = plain.telemetry();
    EXPECT_EQ(tc.orbits_extracted, tp.orbits_extracted) << "pass " << pass;
    EXPECT_EQ(tc.bindings, tp.bindings) << "pass " << pass;
    EXPECT_EQ(tc.queries, tp.queries) << "pass " << pass;
    EXPECT_EQ(tc.cache_hits + tc.cache_misses, 0u);
  }
  EXPECT_EQ(cache.stats().publishes, 0u);
}

/// The idx-th K-state line automaton in the E10 enumeration order
/// (duplicated minimally here: these tests must not depend on dist/).
LineAutomaton enum_line_automaton(int K, std::uint64_t idx) {
  LineAutomaton a;
  a.initial = static_cast<int>(idx % K);
  idx /= K;
  std::uint64_t lc = 1;
  for (int i = 0; i < K; ++i) lc *= 3;
  std::uint64_t l = idx % lc;
  std::uint64_t d = idx / lc;
  a.delta.assign(K, {0, 0});
  a.lambda.assign(K, kStay);
  for (int s = 0; s < K; ++s) {
    for (int deg = 0; deg < 2; ++deg) {
      a.delta[s][deg] = static_cast<int>(d % K);
      d /= K;
    }
  }
  for (int s = 0; s < K; ++s) {
    a.lambda[s] = static_cast<int>(l % 3) - 1;
    l /= 3;
  }
  return a;
}

TEST(Enumeration, CanonicalFormPreservesBehaviorAndIsIdempotent) {
  // canonical_reachable_form must be a pure quotient: identical verdicts
  // on every query, for port-oblivious and port-sensitive tables alike.
  util::Rng rng(0xca9091ull);
  const tree::Tree line = tree::line_edge_colored(7, 0);
  for (int rep = 0; rep < 60; ++rep) {
    const TabularAutomaton a =
        rep % 2 == 0
            ? random_line_automaton(1 + static_cast<int>(rng.index(4)), rng)
                  .tabular()
            : lift_to_tree_automaton(random_line_automaton(
                                         1 + static_cast<int>(rng.index(4)),
                                         rng))
                  .tabular();
    const TabularAutomaton c = canonical_reachable_form(a);
    EXPECT_NO_THROW(c.validate());
    EXPECT_EQ(canonical_reachable_form(c), c) << "not idempotent";
    EXPECT_LE(c.num_states(), a.num_states());
    const CompiledConfigEngine ea(line, a);
    const CompiledConfigEngine ec(line, c);
    for (tree::NodeId u = 0; u < line.node_count(); ++u) {
      for (tree::NodeId v = u + 1; v < line.node_count(); ++v) {
        const auto va =
            verify_never_meet_compiled(ea, ea, {u, v, 3, 0, 50000});
        const auto vc =
            verify_never_meet_compiled(ec, ec, {u, v, 3, 0, 50000});
        ASSERT_EQ(va.met, vc.met) << rep << " " << u << " " << v;
        ASSERT_EQ(va.meeting_round, vc.meeting_round)
            << rep << " " << u << " " << v;
        ASSERT_EQ(va.rounds_checked, vc.rounds_checked)
            << rep << " " << u << " " << v;
      }
    }
  }
}

/// A 3-agent gathering grid on `t`: a few start triples, each under a
/// short run of delay vectors.
EnumGrid gather_grid(const tree::Tree& t) {
  EnumGrid grid(&t, 3);
  const tree::NodeId n = t.node_count();
  for (tree::NodeId u = 0; u + 2 < n; ++u) {
    const std::vector<tree::NodeId> s{u, static_cast<tree::NodeId>(u + 1),
                                      static_cast<tree::NodeId>(n - 1)};
    for (const std::uint64_t d : {0ull, 2ull, 5ull}) {
      const std::vector<std::uint64_t> delays{0, d, 2 * d};
      grid.push(s, delays);
    }
  }
  return grid;
}

TEST(Enumeration, CanonicalDedupMeasurablyCollapsesK3) {
  // THE counter: over the full K = 3 enumeration, distinct canonical
  // keys must be measurably fewer than distinct raw keys — that gap is
  // exactly the cache entries (and extractions) the dedup key saves.
  constexpr int K = 3;
  std::uint64_t count = K;  // initial states
  for (int i = 0; i < 2 * K; ++i) count *= K;
  for (int i = 0; i < K; ++i) count *= 3;
  std::vector<OrbitKey> raw, canon, traj;
  raw.reserve(count);
  canon.reserve(count);
  traj.reserve(count);
  for (std::uint64_t idx = 0; idx < count; ++idx) {
    const TabularAutomaton a = enum_line_automaton(K, idx).tabular();
    raw.push_back(automaton_orbit_key(a));
    canon.push_back(canonical_automaton_key(a));
    traj.push_back(trajectory_automaton_key(a));
  }
  const auto distinct = [](std::vector<OrbitKey> keys) {
    std::sort(keys.begin(), keys.end(), [](const auto& x, const auto& y) {
      return x.hi != y.hi ? x.hi < y.hi : x.lo < y.lo;
    });
    return static_cast<std::uint64_t>(
        std::unique(keys.begin(), keys.end()) - keys.begin());
  };
  const std::uint64_t raw_distinct = distinct(raw);
  const std::uint64_t canon_distinct = distinct(canon);
  EXPECT_EQ(raw_distinct, count);  // raw tables are all distinct
  EXPECT_LT(canon_distinct, raw_distinct);
  // The collapse is MEASURABLE, not marginal: at K = 3 a large share of
  // tables waste states unreachable from their initial state.
  EXPECT_LT(canon_distinct * 10, raw_distinct * 9)
      << "canonical keys collapse less than 10% at K = 3";
  // Pinned class counts: a K = 3 campaign pass publishes one row per
  // trajectory class, 3476 of them, where canonical keys made 5943.
  EXPECT_EQ(canon_distinct, 5943u);
  EXPECT_EQ(distinct(traj), 3476u);
}

/// gathered == false over verify_gather(g).
std::uint64_t ungathered_by_verify(EnumerationContext& ctx, std::size_t g) {
  std::uint64_t ungathered = 0;
  for (const GatherVerdict& v : ctx.verify_gather(g)) {
    ungathered += v.gathered ? 0 : 1;
  }
  return ungathered;
}

/// The defeat counts of `a` on every grid: unmet on the pair grids (the
/// first `meet_grids`), ungathered (over verify_gather) on all.
std::vector<std::uint64_t> plain_counts(EnumerationContext& ctx,
                                        const TabularAutomaton& a,
                                        std::size_t meet_grids) {
  ctx.bind(a);
  std::vector<std::uint64_t> counts;
  for (std::size_t g = 0; g < ctx.grid_count(); ++g) {
    if (g < meet_grids) counts.push_back(ctx.count_unmet(g));
    counts.push_back(ungathered_by_verify(ctx, g));
  }
  return counts;
}

TEST(Enumeration, TrajectoryClassesShareCounts) {
  // Automata with one trajectory key but different canonical keys — the
  // pairs the row key newly merges — must count alike on every grid of
  // a delay battery, pair and gathering grids alike, asked of a context
  // with no cache.
  std::vector<tree::Tree> trees;
  trees.push_back(tree::line(6));
  trees.push_back(tree::line_edge_colored(7, 1));
  trees.push_back(tree::line_symmetric_colored(9));
  auto grids = small_grids(trees);
  grids.push_back(gather_grid(trees[0]));
  grids.push_back(gather_grid(trees[1]));
  const std::size_t meet_grids = trees.size();
  EnumerationContext ctx(grids, 100000);

  util::Rng rng(0x7c1a55);
  std::vector<TabularAutomaton> automata;
  for (std::uint64_t idx = 0; idx < 288; ++idx) {
    automata.push_back(enum_line_automaton(2, idx).tabular());
  }
  for (int rep = 0; rep < 1500; ++rep) {
    automata.push_back(enum_line_automaton(3, rng.index(59049)).tabular());
  }
  struct Seen {
    OrbitKey traj, canon;
    std::vector<std::uint64_t> counts;
  };
  std::vector<Seen> seen;
  std::size_t merged_pairs = 0;
  for (const TabularAutomaton& a : automata) {
    const OrbitKey traj = trajectory_automaton_key(a);
    const OrbitKey canon = canonical_automaton_key(a);
    const auto it = std::find_if(seen.begin(), seen.end(), [&](const Seen& x) {
      return x.traj == traj && !(x.canon == canon);
    });
    if (it != seen.end()) {
      ASSERT_EQ(plain_counts(ctx, a, meet_grids), it->counts);
      ++merged_pairs;
    }
    if (std::none_of(seen.begin(), seen.end(),
                     [&](const Seen& x) { return x.canon == canon; })) {
      seen.push_back({traj, canon, plain_counts(ctx, a, meet_grids)});
    }
  }
  EXPECT_GT(merged_pairs, 300u);
}

TEST(Enumeration, TrajectoryKeyIsForCountsOnly) {
  // Staying forever in one state or alternating between two: the same
  // trajectories, so one trajectory key and equal counts — but the
  // configuration cycles differ (length 1 vs 2), so the certified
  // verdicts report different cycle lengths and rounds. No row may hold
  // full verdicts under this key.
  LineAutomaton still;
  still.initial = 0;
  still.delta = {{0, 0}};
  still.lambda = {kStay};
  LineAutomaton blink;
  blink.initial = 0;
  blink.delta = {{1, 1}, {0, 0}};
  blink.lambda = {kStay, kStay};
  const TabularAutomaton a = still.tabular();
  const TabularAutomaton b = blink.tabular();
  ASSERT_EQ(trajectory_automaton_key(a), trajectory_automaton_key(b));
  ASSERT_NE(canonical_automaton_key(a), canonical_automaton_key(b));

  std::vector<tree::Tree> trees;
  trees.push_back(tree::line(6));
  const auto grids = small_grids(trees);
  EnumerationContext ca(grids, 100000);
  EnumerationContext cb(grids, 100000);
  ca.bind(a);
  cb.bind(b);
  EXPECT_EQ(ca.count_unmet(0), cb.count_unmet(0));
  const Verdict va = ca.verify(0)[0];
  const Verdict vb = cb.verify(0)[0];
  EXPECT_EQ(va.met, vb.met);
  EXPECT_FALSE(va.met);
  EXPECT_TRUE(va.certified_forever && vb.certified_forever);
  EXPECT_EQ(va.cycle_length, 1u);
  EXPECT_EQ(vb.cycle_length, 2u);
  EXPECT_NE(va.rounds_checked, vb.rounds_checked);
}

TEST(Enumeration, CanonicalDedupSharesEntriesWithoutChangingVerdicts) {
  // Two automata differing ONLY in an unreachable state must share one
  // memo row (one publish), with verdicts and counts equal to the
  // cache-less ones query for query.
  std::vector<tree::Tree> trees;
  trees.push_back(tree::line(6));
  trees.push_back(tree::line_edge_colored(7, 1));
  const auto grids = small_grids(trees);

  // State 1 is unreachable from initial 0 (delta pins state 0 to 0):
  // vary state 1's rows freely.
  TabularAutomaton a1, a2;
  {
    LineAutomaton base;
    base.initial = 0;
    base.delta = {{0, 0}, {0, 1}};
    base.lambda = {1, 0};
    a1 = base.tabular();
    base.delta = {{0, 0}, {1, 1}};  // unreachable row differs
    base.lambda = {1, -1};          // unreachable action differs
    a2 = base.tabular();
  }
  ASSERT_FALSE(a1 == a2);
  ASSERT_EQ(canonical_automaton_key(a1), canonical_automaton_key(a2));
  ASSERT_EQ(trajectory_automaton_key(a1), trajectory_automaton_key(a2));
  ASSERT_FALSE(automaton_orbit_key(a1) == automaton_orbit_key(a2));

  OrbitCache cache;
  EnumerationContext cached(grids, 100000, &cache);
  EnumerationContext plain(grids, 100000, nullptr);
  for (const TabularAutomaton* a : {&a1, &a2}) {
    cached.bind(*a);
    plain.bind(*a);
    for (std::size_t g = 0; g < grids.size(); ++g) {
      const auto want_span = plain.verify(g);
      std::vector<Verdict> want(want_span.begin(), want_span.end());
      const auto got = cached.verify(g);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_EQ(got[i].met, want[i].met) << g << " " << i;
        ASSERT_EQ(got[i].meeting_round, want[i].meeting_round)
            << g << " " << i;
        ASSERT_EQ(got[i].cycle_length, want[i].cycle_length) << g << " " << i;
        ASSERT_EQ(got[i].rounds_checked, want[i].rounds_checked)
            << g << " " << i;
      }
    }
  }
  for (const TabularAutomaton* a : {&a1, &a2}) {
    cached.bind(*a);
    plain.bind(*a);
    for (std::size_t g = 0; g < grids.size(); ++g) {
      ASSERT_EQ(cached.count_unmet(g), plain.count_unmet(g)) << g;
    }
  }
  // One row publish for the pair: a2's counts were read from a1's row.
  EXPECT_EQ(cache.stats().publishes, 1u);
  // Both automata differ from their (shared) canonical form — the
  // counter reports each; the SHARING is what publishes just proved.
  EXPECT_EQ(cached.telemetry().canonical_collapses, 2u);
  EXPECT_EQ(cached.telemetry().cache_misses, grids.size());
  EXPECT_EQ(cached.telemetry().cache_hits, grids.size());
}

TEST(Enumeration, SweepIsDeterministicAcrossThreadCounts) {
  std::vector<tree::Tree> trees;
  trees.push_back(tree::line_edge_colored(7, 0));
  trees.push_back(tree::line(5));
  const auto grids = small_grids(trees);
  const auto fn = [](EnumerationContext& ctx, std::uint64_t i) {
    util::Rng rng(1000 + i);  // per-index randomness: index-derivable
    const TabularAutomaton a =
        random_line_automaton(1 + static_cast<int>(rng.index(5)), rng)
            .tabular();
    ctx.bind(a);
    std::uint64_t unmet = 0;
    for (std::size_t g = 0; g < ctx.grid_count(); ++g) {
      unmet += ctx.count_unmet(g);
    }
    return unmet;
  };
  const auto serial = sweep_enumeration(grids, 40, 100000, fn, 1);
  for (const unsigned threads : {2u, 5u}) {
    OrbitCache cache;
    const auto parallel =
        sweep_enumeration(grids, 40, 100000, fn, threads, &cache);
    ASSERT_EQ(parallel, serial) << threads << " threads";
  }
}

TEST(Enumeration, MemoCountsMatchCachelessCounts) {
  // Differential: seeded K <= 3 automata (with canonical-equivalent
  // pairs among them), counted through a memoizing context and a plain
  // one. Every count must agree — a memo hit answers for an equivalent
  // automaton, never a different one. The battery mixes in a gather-only
  // grid: the row leaves it out, and verify_gather still serves it.
  std::vector<tree::Tree> trees;
  trees.push_back(tree::line(6));
  trees.push_back(tree::line_edge_colored(7, 1));
  auto grids = small_grids(trees);
  grids.push_back(gather_grid(trees[0]));
  const std::size_t meet_grids = trees.size();

  util::Rng rng(0x3e30ull);
  std::vector<TabularAutomaton> automata;
  for (int K = 1; K <= 3; ++K) {
    std::uint64_t count = K;
    for (int i = 0; i < 2 * K; ++i) count *= K;
    for (int i = 0; i < K; ++i) count *= 3;
    for (int rep = 0; rep < 80; ++rep) {
      automata.push_back(enum_line_automaton(K, rng.index(count)).tabular());
    }
  }
  // The sample must exercise sharing: two raw-distinct automata with one
  // trajectory key.
  bool equivalent_pair = false;
  for (std::size_t i = 0; i < automata.size() && !equivalent_pair; ++i) {
    for (std::size_t j = 0; j < i; ++j) {
      if (!(automata[i] == automata[j]) &&
          trajectory_automaton_key(automata[i]) ==
              trajectory_automaton_key(automata[j])) {
        equivalent_pair = true;
        break;
      }
    }
  }
  ASSERT_TRUE(equivalent_pair);

  OrbitCache cache;
  EnumerationContext memo(grids, 100000, &cache);
  EnumerationContext plain(grids, 100000, nullptr);
  for (std::size_t i = 0; i < automata.size(); ++i) {
    memo.bind(automata[i]);
    plain.bind(automata[i]);
    for (std::size_t g = 0; g < meet_grids; ++g) {
      ASSERT_EQ(memo.count_unmet(g), plain.count_unmet(g)) << i << " " << g;
    }
    for (std::size_t g = meet_grids; g < grids.size(); ++g) {
      ASSERT_EQ(ungathered_by_verify(memo, g), ungathered_by_verify(plain, g))
          << i << " " << g;
    }
  }
  const EnumTelemetry t = memo.telemetry();
  EXPECT_GT(t.cache_hits, 0u);
  // One row per trajectory class, never an orbit set; a row computes the
  // meet grids only.
  std::vector<OrbitKey> classes;
  for (const TabularAutomaton& a : automata) {
    const OrbitKey k = trajectory_automaton_key(a);
    if (std::find(classes.begin(), classes.end(), k) == classes.end()) {
      classes.push_back(k);
    }
  }
  EXPECT_EQ(cache.stats().publishes, classes.size());
  EXPECT_EQ(t.cache_misses, classes.size() * meet_grids);
  EXPECT_EQ(cache.stats().misses, t.cache_misses);
  EXPECT_EQ(cache.stats().rejects, 0u);
  // A hit skips the scan entirely: fewer verdicts than the plain context.
  EXPECT_LT(t.queries, plain.telemetry().queries);
  EXPECT_LT(t.orbits_extracted, plain.telemetry().orbits_extracted);
}

TEST(Enumeration, MemoKeysSeparateDelaysAndHorizons) {
  std::vector<tree::Tree> trees;
  trees.push_back(tree::line(7));
  // Two grids on one tree, identical but for ONE delay.
  std::vector<EnumGrid> grids = small_grids(trees);
  grids.push_back(grids[0]);
  grids[1].delays[3] += 1;
  const TabularAutomaton a = enum_line_automaton(2, 37).tabular();

  OrbitCache cache;
  EnumerationContext ctx(grids, 100000, &cache);
  ctx.bind(a);
  (void)ctx.count_unmet(0);
  (void)ctx.count_unmet(1);
  // The delay split the grids: the row computes both.
  EXPECT_EQ(ctx.telemetry().cache_misses, 2u);
  EXPECT_EQ(ctx.telemetry().cache_hits, 0u);
  EXPECT_EQ(cache.stats().publishes, 1u);
  // A context over the same grid list shares the row: hits only.
  EnumerationContext same(grids, 100000, &cache);
  same.bind(a);
  (void)same.count_unmet(0);
  (void)same.count_unmet(1);
  EXPECT_EQ(same.telemetry().cache_hits, 2u);
  EXPECT_EQ(same.telemetry().cache_misses, 0u);
  // One over a different list does not, even holding grid 0 alone.
  std::vector<EnumGrid> copy{grids[0]};
  EnumerationContext other(copy, 100000, &cache);
  other.bind(a);
  (void)other.count_unmet(0);
  EXPECT_EQ(other.telemetry().cache_hits, 0u);
  EXPECT_EQ(other.telemetry().cache_misses, 1u);

  // One grid list under two horizons never shares a count.
  EnumerationContext short_horizon(copy, 50, &cache);
  short_horizon.bind(a);
  EnumerationContext short_plain(copy, 50, nullptr);
  short_plain.bind(a);
  EXPECT_EQ(short_horizon.count_unmet(0), short_plain.count_unmet(0));
  EXPECT_EQ(short_horizon.telemetry().cache_misses, 1u);
  EXPECT_EQ(short_horizon.telemetry().cache_hits, 0u);

  // Every memoized count equals the plain one.
  EnumerationContext plain(grids, 100000, nullptr);
  plain.bind(a);
  ctx.bind(a);
  EXPECT_EQ(ctx.count_unmet(0), plain.count_unmet(0));
  EXPECT_EQ(ctx.count_unmet(1), plain.count_unmet(1));
}

TEST(Enumeration, ValidatesGridsAndBindingUpFront) {
  std::vector<tree::Tree> trees;
  trees.push_back(tree::line(5));
  {
    std::vector<EnumGrid> grids{{nullptr, {}}};
    EXPECT_THROW(EnumerationContext(grids, 10), std::invalid_argument);
  }
  {
    // Equal starts are VALID grids now (the gathering model allows
    // co-located agents) but the meet API must refuse them.
    std::vector<EnumGrid> grids{{&trees[0], {{2, 2, 0, 0}}}};
    EnumerationContext ctx(grids, 10);
    EXPECT_THROW(ctx.verify(0), std::invalid_argument);
    EXPECT_THROW(ctx.count_unmet(0), std::invalid_argument);
    EXPECT_THROW(ctx.first_unmet(0), std::invalid_argument);
  }
  {
    std::vector<EnumGrid> grids{{&trees[0], {{0, 9, 0, 0}}}};
    EXPECT_THROW(EnumerationContext(grids, 10), std::invalid_argument);
  }
  {
    // Arity out of range and ragged k-fold storage are rejected up front.
    EnumGrid bad_arity(&trees[0], std::size_t{1});
    bad_arity.starts = {0};
    bad_arity.delays = {0};
    std::vector<EnumGrid> grids{bad_arity};
    EXPECT_THROW(EnumerationContext(grids, 10), std::invalid_argument);

    EnumGrid ragged(&trees[0], std::size_t{3});
    ragged.starts = {0, 1, 2, 3};  // not a multiple of 3
    ragged.delays = {0, 0, 0, 0};
    std::vector<EnumGrid> ragged_grids{ragged};
    EXPECT_THROW(EnumerationContext(ragged_grids, 10),
                 std::invalid_argument);

    // push() itself refuses arity mismatches — compensating mis-sized
    // pushes must not be able to misalign delays across queries.
    EnumGrid g3(&trees[0], std::size_t{3});
    const std::vector<tree::NodeId> two{0, 1};
    const std::vector<tree::NodeId> three{0, 1, 2};
    const std::vector<std::uint64_t> short_delays{5, 6};
    EXPECT_THROW(g3.push(two, {}), std::invalid_argument);
    EXPECT_THROW(g3.push(three, short_delays), std::invalid_argument);
    EXPECT_NO_THROW(g3.push(three, {}));
  }
  {
    std::vector<EnumGrid> grids{{&trees[0], {{0, 1, 0, 0}}}};
    EXPECT_THROW(EnumerationContext(grids, 0), std::invalid_argument);
    EnumerationContext ctx(grids, 10);
    EXPECT_THROW(ctx.verify(0), std::logic_error);  // bind() first
    EXPECT_THROW(ctx.verify_gather(0), std::logic_error);
    EXPECT_THROW(ctx.first_unmet(0), std::logic_error);
    OrbitCache cache;
    EnumerationContext memo(grids, 10, &cache);
    EXPECT_THROW(memo.count_unmet(0), std::logic_error);
  }
}

// ---- the occupancy unit against verify(), and count_unmet's fallback

/// Uniformly random table over max degree D (actions kStay or a port).
TabularAutomaton random_tabular(int K, int D, util::Rng& rng) {
  TabularAutomaton a;
  a.max_degree = D;
  a.initial = static_cast<int>(rng.index(static_cast<std::size_t>(K)));
  a.delta.resize(static_cast<std::size_t>(K) * (D + 1) * D);
  for (int& next : a.delta) {
    next = static_cast<int>(rng.index(static_cast<std::size_t>(K)));
  }
  a.lambda.resize(static_cast<std::size_t>(K));
  for (int& act : a.lambda) {
    act = static_cast<int>(rng.index(static_cast<std::size_t>(D) + 1)) - 1;
  }
  a.validate();
  return a;
}

/// Every ordered pair of distinct `starts` under every (delay_a, delay_b)
/// drawn from `delays`, plus a repeat of the first query.
EnumGrid ordered_pairs_grid(const tree::Tree& t,
                            const std::vector<tree::NodeId>& starts,
                            const std::vector<std::uint64_t>& delays) {
  EnumGrid grid(&t, 2);
  for (const tree::NodeId u : starts) {
    for (const tree::NodeId v : starts) {
      if (u == v) continue;
      for (const std::uint64_t da : delays) {
        for (const std::uint64_t db : delays) grid.push({u, v, da, db});
      }
    }
  }
  grid.push({starts[0], starts[1], delays[0], delays[0]});
  return grid;
}

/// met == false over one-off verdicts on a fresh engine: the reference
/// count.
std::uint64_t unmet_by_verify_each(const EnumGrid& grid,
                                   std::uint64_t horizon,
                                   const TabularAutomaton& a) {
  std::uint64_t unmet = 0;
  for (const Verdict& v : verify_each(grid, horizon, a)) {
    unmet += v.met ? 0 : 1;
  }
  return unmet;
}

/// The occupancy unit's count of `grid` under `a`, called directly: the
/// plan over the grid's distinct starts in first-use order and their
/// orbits from a plain engine. nullopt when the unit declines.
std::optional<std::uint64_t> unit_count(OccupancyCounter& counter,
                                        const EnumGrid& grid,
                                        std::uint64_t horizon,
                                        const TabularAutomaton& a) {
  std::vector<tree::NodeId> distinct;
  for (const tree::NodeId s : grid.starts) {
    if (std::find(distinct.begin(), distinct.end(), s) == distinct.end()) {
      distinct.push_back(s);
    }
  }
  const CompiledConfigEngine engine(*grid.tree, a);
  std::vector<const CompiledConfigEngine::Orbit*> orbits;
  for (const tree::NodeId s : distinct) orbits.push_back(&engine.orbit(s));
  const CountPlan plan =
      plan_counts(grid.starts, grid.delays, distinct, horizon);
  return counter.count_unmet(
      orbits, plan, static_cast<std::size_t>(grid.tree->node_count()));
}

std::uint64_t unmet_by_verify(EnumerationContext& ctx, std::size_t g) {
  std::uint64_t unmet = 0;
  for (const Verdict& v : ctx.verify(g)) unmet += v.met ? 0 : 1;
  return unmet;
}

/// count_unmet equals the met == false count over verify() on every grid,
/// with and without a cache attached. Returns the plain context's
/// telemetry (its fallback_counts says which path counted).
EnumTelemetry expect_counts_match_verify(const std::vector<EnumGrid>& grids,
                                         std::uint64_t horizon,
                                         const TabularAutomaton& a,
                                         std::uint64_t* unmet_total) {
  OrbitCache cache;
  EnumerationContext plain(grids, horizon);
  EnumerationContext cached(grids, horizon, &cache);
  EnumerationContext reference(grids, horizon);
  plain.bind(a);
  cached.bind(a);
  reference.bind(a);
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const std::uint64_t want = unmet_by_verify(reference, g);
    EXPECT_EQ(plain.count_unmet(g), want) << "grid " << g << " M " << horizon;
    EXPECT_EQ(cached.count_unmet(g), want) << "grid " << g << " M " << horizon;
    *unmet_total += want;
  }
  EXPECT_EQ(cached.telemetry().cache_misses + cached.telemetry().cache_hits,
            grids.size());
  EXPECT_EQ(cached.telemetry().fallback_counts,
            plain.telemetry().fallback_counts);
  return plain.telemetry();
}

TEST(CountUnmet, MatchesVerifyOnRandomTreesDelaysAndHorizons) {
  // The occupancy unit, called directly on a plain engine's orbits, and
  // count_unmet, against met == false over verify. Seeded random trees
  // (random ports) and tables over their max degree. Every ordered start
  // pair meets every delay pair, so both agents are delayed in either
  // order; delays at and past the horizon, and a horizon ending inside
  // the first joint period of a start pair, are in every case. A copy of
  // each grid on a twin tree shares its plan in the context.
  util::Rng rng(0x0cc7ab1eull);
  OccupancyCounter counter;  // one scratch across every grid
  std::uint64_t asked = 0, declined = 0, fallbacks = 0, unmet = 0;
  std::uint64_t inside = 0;
  for (int rep = 0; rep < 48; ++rep) {
    const auto n = static_cast<tree::NodeId>(3 + rng.index(14));
    const tree::Tree t =
        tree::randomize_ports(tree::random_attachment(n, rng), rng);
    const tree::Tree twin = t;
    const TabularAutomaton a = random_tabular(
        1 + static_cast<int>(rng.index(4)), t.max_degree(), rng);
    std::vector<tree::NodeId> starts(static_cast<std::size_t>(n));
    for (tree::NodeId v = 0; v < n; ++v) {
      starts[static_cast<std::size_t>(v)] = v;
    }
    rng.shuffle(starts);
    starts.resize(2 + rng.index(static_cast<std::size_t>(n) - 1));

    // A horizon inside the first joint period of the first start pair
    // under zero delays: Tc <= M < Tc + lcm - 1 once the lcm is >= 3.
    const CompiledConfigEngine engine(t, a);
    const auto& oa = engine.orbit(starts[0]);
    const auto& ob = engine.orbit(starts[1]);
    const std::uint64_t tc = std::max(oa.mu, ob.mu);
    const std::uint64_t lcm = std::lcm(oa.lambda, ob.lambda);
    const std::uint64_t mid = tc + lcm / 2;
    if (lcm >= 3) ++inside;

    for (const std::uint64_t horizon :
         {std::uint64_t{100000}, mid, std::uint64_t{1 + rng.index(6)}}) {
      std::vector<std::uint64_t> delays{0, 1, 2, 5, 11, horizon, horizon + 3};
      if (horizon <= 1000) delays.push_back(horizon - 1);
      std::vector<EnumGrid> grids{ordered_pairs_grid(t, starts, delays)};
      const std::uint64_t want = unmet_by_verify_each(grids[0], horizon, a);
      if (const auto got = unit_count(counter, grids[0], horizon, a)) {
        EXPECT_EQ(*got, want) << "M " << horizon;
      } else {
        ++declined;
      }
      ++asked;
      grids.push_back(grids[0]);
      grids.back().tree = &twin;
      const EnumTelemetry tel =
          expect_counts_match_verify(grids, horizon, a, &unmet);
      fallbacks += tel.fallback_counts;
    }
    ASSERT_FALSE(HasFailure()) << "rep " << rep;
  }
  // Most grids are answered by the unit; the context declines exactly
  // where the unit does (twice per grid: the copy counts again); the
  // counts are not all trivial.
  EXPECT_LT(declined * 4, asked);
  EXPECT_EQ(fallbacks, 2 * declined);
  EXPECT_GT(unmet, 0u);
  EXPECT_GT(inside, 10u);
}

TEST(CountUnmet, UnitAnswersSixtyFourStartsAndDeclinesSixtyFive) {
  // Every node of a line is a start, so 64 starts fill the u64 masks and
  // 65 overflow them. At horizon 100 either table holds at most 100 x 65
  // words, well inside kOccupancyWords: the start count alone decides.
  util::Rng rng(0x64b65ull);
  OccupancyCounter counter;
  for (const tree::NodeId n : {64, 65}) {
    const tree::Tree t = tree::line_edge_colored(n, 0);
    EnumGrid grid(&t, 2);
    for (tree::NodeId v = 0; v + 1 < n; ++v) {
      grid.push({v, static_cast<tree::NodeId>(v + 1), 0, 3});
      grid.push({static_cast<tree::NodeId>(v + 1), v, 2, 0});
    }
    ASSERT_LE(std::size_t{100} * static_cast<std::size_t>(n),
              kOccupancyWords);
    const std::vector<EnumGrid> grids{grid};
    std::uint64_t unmet = 0;
    for (int rep = 0; rep < 6; ++rep) {
      const TabularAutomaton a =
          random_line_automaton(1 + static_cast<int>(rng.index(4)), rng)
              .tabular();
      const auto got = unit_count(counter, grid, 100, a);
      if (n <= static_cast<tree::NodeId>(kOccupancyStarts)) {
        ASSERT_TRUE(got.has_value()) << rep;
        EXPECT_EQ(*got, unmet_by_verify_each(grid, 100, a)) << rep;
      } else {
        EXPECT_FALSE(got.has_value()) << rep;
      }
      const EnumTelemetry tel =
          expect_counts_match_verify(grids, 100, a, &unmet);
      EXPECT_EQ(tel.fallback_counts, got.has_value() ? 0u : 1u) << rep;
    }
  }
}

TEST(CountUnmet, FallsBackPastSixtyFourStarts) {
  // 70 distinct starts do not fit one 64-bit mask: every count takes the
  // per-pair core and still equals verify's.
  const tree::Tree t = tree::line_edge_colored(70, 0);
  std::vector<tree::NodeId> starts;
  for (tree::NodeId v = 0; v < 70; ++v) starts.push_back(v);
  EnumGrid grid(&t, 2);
  for (std::size_t i = 0; i + 1 < starts.size(); ++i) {
    grid.push({starts[i], starts[i + 1], 0, 3});
    grid.push({starts[i + 1], starts[i], 2, 0});
  }
  const std::vector<EnumGrid> grids{grid};
  util::Rng rng(0x64b175ull);
  std::uint64_t unmet = 0;
  for (int rep = 0; rep < 6; ++rep) {
    const TabularAutomaton a =
        random_line_automaton(1 + static_cast<int>(rng.index(4)), rng)
            .tabular();
    const EnumTelemetry tel =
        expect_counts_match_verify(grids, 5000, a, &unmet);
    EXPECT_EQ(tel.fallback_counts, 1u) << rep;
  }
}

/// Spider with legs of `legs[i]` edges on center port i; along a leg, port
/// 0 points to the center.
tree::Tree spider_with_legs(const std::vector<int>& legs) {
  std::vector<tree::PortedEdge> edges;
  tree::NodeId next = 1;
  for (std::size_t leg = 0; leg < legs.size(); ++leg) {
    tree::NodeId parent = 0;
    for (int k = 0; k < legs[leg]; ++k, ++next) {
      const int port = parent == 0 ? static_cast<int>(leg) : 1;
      edges.push_back({parent, next, port, 0});
      parent = next;
    }
  }
  return tree::Tree(next, edges);
}

/// On a spider_with_legs of three legs, each agent bounces between its
/// leg's leaf and the center: straight on at degree 2, back the way it
/// came at the leaf and at the center. A leg of m edges gives a cycle of
/// 2m rounds.
TabularAutomaton bounce_automaton() {
  TreeAutomaton bounce;
  bounce.initial = 0;
  bounce.lambda = {0, 1, 2};  // state s exits by port s
  bounce.delta.assign(3, {});
  for (int s = 0; s < 3; ++s) {
    for (int i = -1; i <= 2; ++i) {
      bounce.delta[s][i + 1][0] = 0;               // leaf: back
      bounce.delta[s][i + 1][1] = i == 0 ? 1 : 0;  // straight on
      bounce.delta[s][i + 1][2] = i < 0 ? 0 : i;   // center: back
    }
  }
  return bounce.tabular();
}

TEST(CountUnmet, UnitAnswersAFullTableAndDeclinesOneRowMore) {
  // 16 nodes, so a table of kOccupancyWords words has exactly 1024 rows.
  // A query delayed by gap 1022 walks within horizon 1024 and 1025, so
  // the table needs min(M, 1022 + reach) rows, which is M: reach is at
  // least the 14-round cycle of a 7-edge leg less one. M = 1024 fills
  // the budget exactly and is answered; M = 1025 needs one row more and
  // is declined.
  const tree::Tree t = spider_with_legs({7, 7, 1});
  ASSERT_EQ(t.node_count(), 16);
  const TabularAutomaton a = bounce_automaton();
  const std::vector<tree::NodeId> starts{0, 3, 7, 10, 14, 15};
  {
    const CompiledConfigEngine engine(t, a);
    ASSERT_EQ(engine.orbit(3).lambda, 14u);
    ASSERT_EQ(engine.orbit(10).lambda, 14u);
  }
  const EnumGrid grid = ordered_pairs_grid(t, starts, {0, 1022});
  const std::uint64_t full = kOccupancyWords / 16;
  ASSERT_EQ(full, 1024u);
  OccupancyCounter counter;
  for (const std::uint64_t horizon : {full, full + 1}) {
    const auto got = unit_count(counter, grid, horizon, a);
    const std::uint64_t want = unmet_by_verify_each(grid, horizon, a);
    if (horizon == full) {
      ASSERT_TRUE(got.has_value());
      EXPECT_EQ(*got, want);
    } else {
      EXPECT_FALSE(got.has_value());
    }
    std::uint64_t unmet = 0;
    const EnumTelemetry tel =
        expect_counts_match_verify({grid}, horizon, a, &unmet);
    EXPECT_EQ(tel.fallback_counts, got.has_value() ? 0u : 1u) << horizon;
    EXPECT_GT(want, 0u) << horizon;
    EXPECT_LT(want, grid.query_count()) << horizon;
  }
}

TEST(CountUnmet, FallsBackPastTheTableBudgetOnNearCoprimeCycles) {
  // Legs of 61 and 63 edges give cycles of 122 and 126 rounds (gcd 2),
  // so a cross-leg pair's joint period is 7686 rounds: the table would
  // need min(horizon, 7686) rows x 127 nodes, past kOccupancyWords at
  // both horizons, one of which ends inside that first joint period. (A
  // third, short leg makes the center degree 3.) 7686 also passes
  // 4 (122 + 126), so the count fallback's walk declines those pairs and
  // the table-less pair core answers them, while verify() uses tables.
  const tree::Tree t = spider_with_legs({61, 63, 2});
  ASSERT_EQ(t.node_count(), 127);
  const TabularAutomaton a = bounce_automaton();
  {
    const CompiledConfigEngine engine(t, a);
    ASSERT_EQ(engine.orbit(30).lambda, 122u);   // on the 61-edge leg
    ASSERT_EQ(engine.orbit(100).lambda, 126u);  // on the 63-edge leg
  }
  ASSERT_GT(std::size_t{5000} * 127, kOccupancyWords);
  const std::vector<tree::NodeId> starts{0, 5, 30, 61, 62, 64, 100, 124};
  for (const std::uint64_t horizon : {std::uint64_t{300000},
                                      std::uint64_t{5000}}) {
    const std::vector<EnumGrid> grids{
        ordered_pairs_grid(t, starts, {0, 1, 6, 40})};
    std::uint64_t unmet = 0;
    const EnumTelemetry tel =
        expect_counts_match_verify(grids, horizon, a, &unmet);
    EXPECT_EQ(tel.fallback_counts, 1u) << horizon;
    EXPECT_GT(tel.walk_fallbacks, 0u) << horizon;
    EXPECT_GT(unmet, 0u) << horizon;
    EXPECT_LT(unmet, grids[0].query_count()) << horizon;
  }
}

// ---- first_unmet's two-orbit walk against verify()

/// first_unmet against the index of the first met == false over verify,
/// on `grid` and on a one-query copy of each of its queries, so that
/// every query's answer is compared, not only those before the grid's
/// first defeat. Returns the walking context's telemetry (its
/// walk_fallbacks says which queries the pair core answered) and adds
/// the unmet queries to *unmet_total.
EnumTelemetry expect_first_unmet_matches_verify(const EnumGrid& grid,
                                                std::uint64_t horizon,
                                                const TabularAutomaton& a,
                                                std::uint64_t* unmet_total) {
  std::vector<EnumGrid> grids{grid};
  for (std::size_t q = 0; q < grid.query_count(); ++q) {
    const GatherQuery gq = grid.query(q);
    grids.emplace_back(grid.tree, 2).push(gq.starts, gq.delays);
  }
  EnumerationContext walk(grids, horizon);
  EnumerationContext reference(grids, horizon);
  walk.bind(a);
  reference.bind(a);
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const auto verdicts = reference.verify(g);
    const auto defeat =
        std::find_if(verdicts.begin(), verdicts.end(),
                     [](const Verdict& v) { return !v.met; });
    const std::ptrdiff_t want =
        defeat == verdicts.end() ? -1 : defeat - verdicts.begin();
    EXPECT_EQ(walk.first_unmet(g), want) << "grid " << g << " M " << horizon;
    if (g > 0) *unmet_total += want == 0 ? 1 : 0;
  }
  return walk.telemetry();
}

TEST(FirstUnmet, MatchesVerifyOnRandomTreesDelaysAndHorizons) {
  // Seeded random trees (random ports) and tables over their max degree,
  // most of them port-sensitive. Every ordered start pair meets every
  // delay pair, so either agent is the later one. The delays hold 0, 1
  // and 7, gaps past every pair's reach (the longest tail plus the
  // largest lcm of two cycles among the starts), and delays at and past
  // the horizon, so one or both agents may never move. One horizon ends
  // inside the first joint period of a start pair, one is tiny.
  util::Rng rng(0xf125u);
  std::uint64_t unmet = 0, queries = 0, fallbacks = 0, sensitive = 0;
  std::uint64_t inside = 0;
  for (int rep = 0; rep < 80; ++rep) {
    const auto n = static_cast<tree::NodeId>(3 + rng.index(12));
    const tree::Tree t =
        tree::randomize_ports(tree::random_attachment(n, rng), rng);
    const TabularAutomaton a = random_tabular(
        1 + static_cast<int>(rng.index(5)), t.max_degree(), rng);
    sensitive += a.port_oblivious() ? 0 : 1;
    std::vector<tree::NodeId> starts(static_cast<std::size_t>(n));
    std::iota(starts.begin(), starts.end(), 0);
    rng.shuffle(starts);
    starts.resize(2 + rng.index(std::min<std::size_t>(3, n - 1)));

    // The start pair with the longest joint period sets the horizon
    // inside it: Tc <= M < Tc + lcm - 1 once the lcm is >= 3.
    const CompiledConfigEngine engine(t, a);
    std::uint64_t tail = 0, period = 1, mid = 1;
    for (const tree::NodeId u : starts) {
      const auto& ou = engine.orbit(u);
      tail = std::max(tail, ou.mu);
      for (const tree::NodeId v : starts) {
        const auto& ov = engine.orbit(v);
        const std::uint64_t lcm = std::lcm(ou.lambda, ov.lambda);
        if (u != v && lcm > period) {
          period = lcm;
          mid = std::max(ou.mu, ov.mu) + lcm / 2;
        }
      }
    }
    const std::uint64_t past_reach = tail + period + 2;
    if (period >= 3) ++inside;

    for (const std::uint64_t horizon :
         {std::uint64_t{100000}, mid, std::uint64_t{1 + rng.index(6)}}) {
      const EnumGrid grid = ordered_pairs_grid(
          t, starts, {0, 1, 7, past_reach, horizon, horizon + 3});
      queries += grid.query_count();
      fallbacks +=
          expect_first_unmet_matches_verify(grid, horizon, a, &unmet)
              .walk_fallbacks;
    }
    ASSERT_FALSE(HasFailure()) << "rep " << rep;
  }
  // The walk answers nearly every query; the answers are not all alike.
  EXPECT_LT(fallbacks * 10, queries);
  EXPECT_GT(unmet, 0u);
  EXPECT_LT(unmet, queries);
  EXPECT_GT(sensitive, 20u);
  EXPECT_GT(inside, 10u);
}

TEST(FirstUnmet, PairCoreAnswersNearCoprimeCycles) {
  // Legs of 9 and 11 edges give cycles of 18 and 22 rounds: a cross-leg
  // pair's joint period is 198 > 4 (18 + 22), so the walk hands its
  // queries to the pair core, and the answers still equal verify's. A
  // same-leg grid never falls back. One horizon ends inside the first
  // joint period.
  const tree::Tree t = spider_with_legs({9, 11, 2});
  const TabularAutomaton a = bounce_automaton();
  {
    const CompiledConfigEngine engine(t, a);
    ASSERT_EQ(engine.orbit(4).lambda, 18u);   // on the 9-edge leg
    ASSERT_EQ(engine.orbit(15).lambda, 22u);  // on the 11-edge leg
  }
  const EnumGrid cross = ordered_pairs_grid(t, {4, 9, 15, 20}, {0, 1, 6, 40});
  const EnumGrid same = ordered_pairs_grid(t, {2, 4, 9}, {0, 1, 6, 40});
  for (const std::uint64_t horizon :
       {std::uint64_t{100000}, std::uint64_t{150}}) {
    std::uint64_t unmet = 0;
    const EnumTelemetry tel =
        expect_first_unmet_matches_verify(cross, horizon, a, &unmet);
    EXPECT_GT(tel.walk_fallbacks, 0u) << horizon;
    EXPECT_GT(unmet, 0u) << horizon;
    EXPECT_LT(unmet, cross.query_count()) << horizon;
    EXPECT_EQ(expect_first_unmet_matches_verify(same, horizon, a, &unmet)
                  .walk_fallbacks,
              0u)
        << horizon;
  }

  // sweep_enumeration sums every worker's fallbacks: each index binds
  // anew and asks the same grid, whose first query crosses legs.
  const std::vector<EnumGrid> grids{
      ordered_pairs_grid(t, {4, 15}, {0, 1, 6, 40})};
  EnumerationContext one(grids, 100000);
  one.bind(a);
  one.first_unmet(0);
  const std::uint64_t per_binding = one.telemetry().walk_fallbacks;
  ASSERT_GT(per_binding, 0u);
  EnumTelemetry summed;
  sweep_enumeration(
      grids, 6, 100000,
      [&](EnumerationContext& ctx, std::uint64_t) {
        ctx.bind(a);
        return ctx.first_unmet(0);
      },
      2, nullptr, &summed);
  EXPECT_EQ(summed.walk_fallbacks, 6 * per_binding);
}

TEST(FirstUnmet, ChecksEachBindingAtItsFirstEngineRebind) {
  // One context over two grids alternates port-oblivious and
  // port-sensitive tables: each binding's check (validation and
  // port-obliviousness) is its own, so every verdict equals a fresh
  // engine's. A malformed table is refused at every grid of its binding,
  // with both engines already built, and the next binding works again.
  const tree::Tree t = spider_with_legs({2, 3, 2});
  std::vector<EnumGrid> grids{ordered_pairs_grid(t, {0, 2, 5}, {0, 1, 6}),
                              ordered_pairs_grid(t, {1, 4, 7}, {0, 2})};
  util::Rng rng(0xc4ecull);
  EnumerationContext ctx(grids, 5000);
  std::uint64_t sensitive = 0;
  for (int rep = 0; rep < 12; ++rep) {
    const TabularAutomaton a =
        rep % 2 == 0 ? lift_to_tree_automaton(
                           random_line_automaton(
                               1 + static_cast<int>(rng.index(4)), rng))
                           .tabular()
                     : random_tabular(2 + static_cast<int>(rng.index(3)), 3,
                                      rng);
    sensitive += a.port_oblivious() ? 0 : 1;
    ctx.bind(a);
    for (std::size_t g = 0; g < grids.size(); ++g) {
      const auto want = verify_each(grids[g], 5000, a);
      const auto defeat =
          std::find_if(want.begin(), want.end(),
                       [](const Verdict& v) { return !v.met; });
      EXPECT_EQ(ctx.first_unmet(g),
                defeat == want.end() ? -1 : defeat - want.begin())
          << "rep " << rep << " grid " << g;
      const auto got = ctx.verify(g);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t q = 0; q < want.size(); ++q) {
        EXPECT_EQ(got[q].met, want[q].met) << rep << " " << g << " " << q;
        EXPECT_EQ(got[q].rounds_checked, want[q].rounds_checked)
            << rep << " " << g << " " << q;
      }
    }
  }
  EXPECT_GE(sensitive, 5u);

  TabularAutomaton bad = random_tabular(3, 3, rng);
  bad.delta[1] = 3;  // no state 3
  ctx.bind(bad);
  EXPECT_THROW(ctx.first_unmet(0), std::invalid_argument);
  EXPECT_THROW(ctx.verify(1), std::invalid_argument);
  EXPECT_THROW(ctx.count_unmet(1), std::invalid_argument);
  const TabularAutomaton good = random_tabular(3, 3, rng);
  ctx.bind(good);
  for (std::size_t g = 0; g < grids.size(); ++g) {
    EXPECT_EQ(ctx.count_unmet(g), unmet_by_verify_each(grids[g], 5000, good));
  }
}

TEST(Enumeration, SweepPropagatesExceptions) {
  std::vector<tree::Tree> trees;
  trees.push_back(tree::line(5));
  const auto grids = small_grids(trees);
  EXPECT_THROW(
      sweep_enumeration(grids, 10, 1000,
                        [](EnumerationContext&, std::uint64_t i)
                            -> std::uint64_t {
                          if (i == 7) throw std::runtime_error("boom");
                          return i;
                        },
                        3),
      std::runtime_error);
}

}  // namespace
}  // namespace rvt::sim
