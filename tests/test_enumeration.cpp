// Fused rebind+grid enumeration (sim/enumeration.hpp): the context's
// verify()/count_unmet()/first_unmet() must agree query-for-query with
// the unfused verify_grid() path, across rebinds, grids, thread counts
// and cache attachment — and the defeat-count memo must answer exactly
// what a cache-less context computes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/automaton.hpp"
#include "sim/compiled.hpp"
#include "sim/enumeration.hpp"
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

TEST(Enumeration, MatchesVerifyGridFieldForFieldAcrossRebinds) {
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
      // Unfused reference: a fresh engine through verify_grid (the pair
      // API — rebuild its PairQuery view from the k = 2 flat grid).
      std::vector<PairQuery> pair_queries;
      for (std::size_t q = 0; q < grids[g].query_count(); ++q) {
        const auto gq = grids[g].query(q);
        pair_queries.push_back(
            {gq.starts[0], gq.starts[1], gq.delays[0], gq.delays[1]});
      }
      const CompiledConfigEngine engine(*grids[g].tree, a);
      const auto unfused = verify_grid(engine, engine, pair_queries, kHorizon);
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
  // object); battery A does not. The early-exit scans on B answer the
  // copy exactly like grid 0, whichever is asked first, and the copy adds
  // no binding, query or extracted orbit.
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
    const std::ptrdiff_t g0 = a_ctx.first_ungathered(0);
    if (rep % 2 == 0) {  // the copy first: computed on grid 0
      EXPECT_EQ(b_ctx.first_unmet(2), a0) << rep;
      EXPECT_EQ(b_ctx.first_unmet(1), a1) << rep;
      EXPECT_EQ(b_ctx.first_unmet(0), a0) << rep;
      EXPECT_EQ(b_ctx.first_ungathered(2), g0) << rep;
      EXPECT_EQ(b_ctx.first_ungathered(0), g0) << rep;
    } else {
      EXPECT_EQ(b_ctx.first_unmet(0), a0) << rep;
      EXPECT_EQ(b_ctx.first_unmet(1), a1) << rep;
      EXPECT_EQ(b_ctx.first_unmet(2), a0) << rep;
      EXPECT_EQ(b_ctx.first_ungathered(0), g0) << rep;
      EXPECT_EQ(b_ctx.first_ungathered(2), g0) << rep;
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
        ASSERT_EQ(cached.first_ungathered(g), plain.first_ungathered(g))
            << a;
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

/// The defeat counts of `a` on every grid: unmet on the pair grids (the
/// first `meet_grids`), ungathered on all.
std::vector<std::uint64_t> plain_counts(EnumerationContext& ctx,
                                        const TabularAutomaton& a,
                                        std::size_t meet_grids) {
  ctx.bind(a);
  std::vector<std::uint64_t> counts;
  for (std::size_t g = 0; g < ctx.grid_count(); ++g) {
    if (g < meet_grids) counts.push_back(ctx.count_unmet(g));
    counts.push_back(ctx.count_ungathered(g));
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
  // automaton, never a different one.
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
    for (std::size_t g = 0; g < grids.size(); ++g) {
      if (g < meet_grids) {
        ASSERT_EQ(memo.count_unmet(g), plain.count_unmet(g)) << i << " " << g;
      }
      ASSERT_EQ(memo.count_ungathered(g), plain.count_ungathered(g))
          << i << " " << g;
    }
  }
  const EnumTelemetry t = memo.telemetry();
  EXPECT_GT(t.cache_hits, 0u);
  // One row per (trajectory class, kind), never an orbit set; an unmet
  // row computes the meet grids, an ungathered row every grid.
  std::vector<OrbitKey> classes;
  for (const TabularAutomaton& a : automata) {
    const OrbitKey k = trajectory_automaton_key(a);
    if (std::find(classes.begin(), classes.end(), k) == classes.end()) {
      classes.push_back(k);
    }
  }
  EXPECT_EQ(cache.stats().publishes, 2 * classes.size());
  EXPECT_EQ(t.cache_misses, classes.size() * (meet_grids + grids.size()));
  EXPECT_EQ(cache.stats().misses, t.cache_misses);
  EXPECT_EQ(cache.stats().rejects, 0u);
  // A hit skips the scan entirely: fewer verdicts than the plain context.
  EXPECT_LT(t.queries, plain.telemetry().queries);
  EXPECT_LT(t.orbits_extracted, plain.telemetry().orbits_extracted);
}

TEST(Enumeration, MemoKeysSeparateDelaysHorizonsAndCountKinds) {
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
  // The same grids under the other count are a different row too.
  (void)ctx.count_ungathered(0);
  EXPECT_EQ(ctx.telemetry().cache_misses, 4u);
  EXPECT_EQ(cache.stats().publishes, 2u);
  // A context over the same grid list shares the rows: hits only.
  EnumerationContext same(grids, 100000, &cache);
  same.bind(a);
  (void)same.count_unmet(0);
  (void)same.count_ungathered(1);
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
  EXPECT_EQ(ctx.count_ungathered(0), plain.count_ungathered(0));
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
    EXPECT_THROW(memo.count_ungathered(0), std::logic_error);
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
