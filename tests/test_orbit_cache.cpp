// Sharded cross-worker orbit cache (sim/orbit_cache.hpp): keying,
// claim/publish/abandon protocol, epoch invalidation, and — the load-
// bearing guarantee — that under many workers racing rebinds and lookups
// no orbit is ever extracted twice for one (automaton hash, epoch) on a
// single machine — and that the defeat-count memo computes each
// (grid, canonical automaton) key once, degrading to recomputation when
// the table is full. The races run under the ASan/UBSan CI job like
// every tier-1 test, and under the TSan job, which checks the lock-free
// slot publication.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <thread>
#include <vector>

#include "sim/automaton.hpp"
#include "sim/compiled.hpp"
#include "sim/enumeration.hpp"
#include "sim/orbit_cache.hpp"
#include "tree/builders.hpp"
#include "util/rng.hpp"

namespace rvt::sim {
namespace {

TEST(OrbitKeys, DistinguishBindings) {
  util::Rng rng(5);
  const tree::Tree line8 = tree::line(8);
  const tree::Tree line9 = tree::line(9);
  const tree::Tree colored = tree::line_edge_colored(8, 0);
  EXPECT_EQ(tree_orbit_key(line8), tree_orbit_key(tree::line(8)));
  EXPECT_NE(tree_orbit_key(line8), tree_orbit_key(line9));
  EXPECT_NE(tree_orbit_key(line8), tree_orbit_key(colored));

  const auto a = random_line_automaton(3, rng).tabular();
  auto b = a;
  EXPECT_EQ(automaton_orbit_key(a), automaton_orbit_key(b));
  b.initial = (b.initial + 1) % b.num_states();
  EXPECT_NE(automaton_orbit_key(a), automaton_orbit_key(b));

  const auto ka = combine_orbit_keys(tree_orbit_key(line8),
                                     automaton_orbit_key(a));
  const auto kb = combine_orbit_keys(tree_orbit_key(line9),
                                     automaton_orbit_key(a));
  EXPECT_NE(ka, kb);
}

TEST(CanonicalKey, StreamedKeyMatchesCanonicalForm) {
  // canonical_automaton_key streams the canonical table's words without
  // building it; it must agree bit for bit with hashing the built form,
  // and report a collapse exactly when the canonical form differs.
  util::Rng rng(0xca40c);
  std::vector<TabularAutomaton> cases;
  for (int k = 1; k <= 6; ++k) {
    for (int r = 0; r < 300; ++r) {
      cases.push_back(random_line_automaton(k, rng).tabular());
    }
  }
  for (int r = 0; r < 300; ++r) {  // D = 3, port-sensitive tables
    cases.push_back(
        random_tree_automaton(1 + static_cast<int>(rng.index(6)), rng)
            .tabular());
  }
  // Above the stack bound: the allocating fallback.
  cases.push_back(
      random_line_automaton(kStreamedKeyMaxStates + 9, rng).tabular());
  // Canonical forms are their own canonical form: no collapse. The same
  // tables with every action raised by lcm(1..D) collapse through their
  // actions alone.
  const std::size_t drawn = cases.size();
  for (std::size_t i = 0; i < drawn; i += 7) {
    const TabularAutomaton canon = canonical_reachable_form(cases[i]);
    cases.push_back(canon);
    TabularAutomaton raised = canon;
    for (int& act : raised.lambda) {
      if (act >= 0) act += canon.max_degree == 2 ? 2 : 6;
    }
    cases.push_back(raised);
  }
  std::size_t collapsed_count = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const TabularAutomaton& a = cases[i];
    const TabularAutomaton canon = canonical_reachable_form(a);
    bool collapsed = false;
    EXPECT_EQ(canonical_automaton_key(a, &collapsed),
              automaton_orbit_key(canon))
        << "case " << i;
    EXPECT_EQ(collapsed, !(canon == a)) << "case " << i;
    EXPECT_EQ(canonical_automaton_key(a), automaton_orbit_key(canon));
    collapsed_count += collapsed ? 1 : 0;
  }
  EXPECT_GT(collapsed_count, 0u);
  EXPECT_LT(collapsed_count, cases.size());
  EXPECT_GT(cases[drawn - 1].num_states(), kStreamedKeyMaxStates);
}

TEST(OrbitCache, ClaimPublishAcquireRoundTrip) {
  OrbitCache cache(4, 1024);
  const OrbitKey key{123, 456};
  // First acquire claims.
  EXPECT_EQ(cache.acquire(key), nullptr);
  auto set = std::make_shared<CompiledConfigEngine::OrbitSet>();
  set->bytes = 100;
  cache.publish(key, set);
  // Now it hits, lock-free.
  const auto got = cache.acquire(key);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got.get(), set.get());
  EXPECT_EQ(cache.peek(key), set.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_EQ(cache.bytes(), 100u);

  // Epoch advance invalidates: the key must be re-claimed.
  cache.advance_epoch();
  EXPECT_EQ(cache.peek(key), nullptr);
  EXPECT_EQ(cache.acquire(key), nullptr);
  cache.abandon(key);  // give the claim back without publishing
  EXPECT_EQ(cache.acquire(key), nullptr);  // claimable again
  cache.abandon(key);
}

TEST(OrbitCache, BudgetRejectsOversizedPublishes) {
  OrbitCache cache(2, 64, /*max_bytes=*/128);
  const OrbitKey key{7, 8};
  EXPECT_EQ(cache.acquire(key), nullptr);
  auto big = std::make_shared<CompiledConfigEngine::OrbitSet>();
  big->bytes = 1000;  // over budget
  cache.publish(key, big);
  EXPECT_EQ(cache.stats().rejects, 1u);
  EXPECT_EQ(cache.peek(key), nullptr);  // not inserted
  // The key is claimable again (waiters re-contend after a reject).
  EXPECT_EQ(cache.acquire(key), nullptr);
  cache.abandon(key);
}

/// The concurrency battery: `workers` threads sweep the same automaton
/// range over the same grids through one shared cache, across several
/// epochs. Every (automaton, tree) binding must be extracted exactly
/// once per epoch MACHINE-WIDE (publishers extract, everyone else blocks
/// then adopts), which the engine extraction counters prove.
TEST(OrbitCache, NoOrbitExtractedTwicePerBindingAcrossRacingWorkers) {
  // Deterministic automaton list, shared by every worker.
  constexpr std::uint64_t kAutomata = 24;
  constexpr unsigned kWorkers = 8;
  constexpr int kEpochs = 3;
  util::Rng rng(0xcac4e);
  std::vector<TabularAutomaton> automata;
  for (std::uint64_t i = 0; i < kAutomata; ++i) {
    automata.push_back(
        random_line_automaton(1 + static_cast<int>(rng.index(4)), rng)
            .tabular());
  }
  // The cache is content-addressed by the CANONICAL reachable form, so
  // random draws that are behaviorally equivalent (identical tables, or
  // tables differing only in unreachable states / numbering /
  // impossible-input entries) share one key — count the distinct
  // canonical forms.
  std::uint64_t distinct = 0;
  for (std::uint64_t i = 0; i < kAutomata; ++i) {
    const TabularAutomaton ci = canonical_reachable_form(automata[i]);
    bool fresh = true;
    for (std::uint64_t j = 0; j < i; ++j) {
      if (ci == canonical_reachable_form(automata[j])) {
        fresh = false;
        break;
      }
    }
    distinct += fresh ? 1 : 0;
  }
  ASSERT_GT(distinct, kAutomata / 2);  // the draw is actually diverse
  std::vector<tree::Tree> trees;
  trees.push_back(tree::line(6));
  trees.push_back(tree::line_edge_colored(7, 0));
  trees.push_back(tree::line_symmetric_colored(9));
  std::vector<EnumGrid> grids;
  std::uint64_t starts_per_automaton = 0;
  for (const auto& t : trees) {
    EnumGrid grid;
    grid.tree = &t;
    for (tree::NodeId u = 0; u < t.node_count(); ++u) {
      for (tree::NodeId v = u + 1; v < t.node_count(); ++v) {
        grid.push({u, v, 0, 0});
        grid.push({u, v, 3, 0});
      }
    }
    starts_per_automaton += t.node_count();  // every start is queried
    grids.push_back(std::move(grid));
  }

  OrbitCache cache(4);  // few shards: force real contention
  // The index space repeats every automaton kDup times, so the same
  // (automaton, tree) keys race across workers — without the cache each
  // binding would be extracted up to kDup times.
  constexpr std::uint64_t kDup = 6;
  std::vector<std::vector<std::uint64_t>> per_epoch_counts;
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    EnumTelemetry telemetry;
    const auto counts = sweep_enumeration(
        grids, kAutomata * kDup, /*max_rounds=*/100000,
        [&](EnumerationContext& ctx, std::uint64_t i) {
          ctx.bind(automata[i % kAutomata]);
          std::uint64_t unmet = 0;
          for (std::size_t g = 0; g < ctx.grid_count(); ++g) {
            unmet += ctx.count_unmet(g);
          }
          return unmet;
        },
        kWorkers, &cache, &telemetry);
    per_epoch_counts.push_back(counts);

    // THE guarantee: each distinct (automaton, tree) binding extracted
    // once per machine — the publisher walks each queried start exactly
    // once.
    EXPECT_EQ(telemetry.orbits_extracted, distinct * starts_per_automaton)
        << "epoch " << epoch;
    EXPECT_EQ(telemetry.cache_misses, distinct * trees.size())
        << "epoch " << epoch;
    EXPECT_GT(telemetry.cache_hits, 0u) << "epoch " << epoch;
    EXPECT_EQ(telemetry.cache_hits + telemetry.cache_misses,
              telemetry.bindings)
        << "epoch " << epoch;

    // Quiesced between sweeps: invalidate and go again.
    cache.advance_epoch();
  }
  const auto stats = cache.stats();
  EXPECT_EQ(stats.publishes,
            static_cast<std::uint64_t>(kEpochs) * distinct * trees.size());
  EXPECT_EQ(stats.rejects, 0u);

  // Verdict counts are identical across epochs and match a cache-less
  // single-threaded sweep.
  EnumTelemetry solo_telemetry;
  const auto solo = sweep_enumeration(
      grids, kAutomata * kDup, /*max_rounds=*/100000,
      [&](EnumerationContext& ctx, std::uint64_t i) {
        ctx.bind(automata[i % kAutomata]);
        std::uint64_t unmet = 0;
        for (std::size_t g = 0; g < ctx.grid_count(); ++g) {
          unmet += ctx.count_unmet(g);
        }
        return unmet;
      },
      1, nullptr, &solo_telemetry);
  EXPECT_EQ(solo_telemetry.cache_hits, 0u);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    EXPECT_EQ(per_epoch_counts[epoch], solo) << "epoch " << epoch;
  }
}

TEST(CountMemo, ClaimPublishAcquireCountRoundTrip) {
  OrbitCache cache(4, 1024);
  const OrbitKey grid{1, 2};
  const OrbitKey automaton{3, 4};
  const OrbitKey key = count_memo_key(grid, automaton, CountKind::kUnmet);
  // Domain-separated from the other kind and from orbit-set keys.
  EXPECT_NE(key, count_memo_key(grid, automaton, CountKind::kUngathered));
  EXPECT_NE(key, combine_orbit_keys(grid, automaton));
  EXPECT_NE(key, count_memo_key(automaton, grid, CountKind::kUnmet));

  EXPECT_EQ(cache.acquire_count(key), std::nullopt);  // claims
  cache.publish_count(key, 0);  // a zero count is a real answer
  EXPECT_EQ(cache.acquire_count(key), std::optional<std::uint64_t>(0));
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_EQ(cache.peek(key), nullptr);  // a count is not an orbit set

  cache.advance_epoch();
  EXPECT_EQ(cache.acquire_count(key), std::nullopt);
  cache.abandon(key);
  EXPECT_EQ(cache.acquire_count(key), std::nullopt);  // claimable again
  cache.publish_count(key, 41);
  EXPECT_EQ(cache.acquire_count(key), std::optional<std::uint64_t>(41));

  // Counts live inline in their probe slots and carry no epoch: the
  // epoch advance alone must empty them. Fill most of the table, advance,
  // and every key must be claimable again (no stale count served), then
  // hold its new value — twice over, so the second advance clears slots
  // the first one already recycled.
  std::vector<OrbitKey> keys;
  for (std::uint64_t i = 0; i < 600; ++i) {
    keys.push_back(count_memo_key(grid, OrbitKey{i, ~i}, CountKind::kUnmet));
  }
  for (std::uint64_t round = 1; round <= 2; ++round) {
    cache.advance_epoch();
    EXPECT_EQ(cache.acquire_count(key), std::nullopt);  // 41 is gone too
    cache.abandon(key);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(cache.acquire_count(keys[i]), std::nullopt)
          << "round " << round << " key " << i;
      cache.publish_count(keys[i], round * 1000 + i);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      EXPECT_EQ(cache.acquire_count(keys[i]),
                std::optional<std::uint64_t>(round * 1000 + i))
          << "round " << round << " key " << i;
    }
  }
  EXPECT_EQ(cache.stats().rejects, 0u);
}

TEST(CountMemo, CountEntriesChargeNoBytes) {
  // A count is held in its probe slot: no node, no bytes. Even a zero
  // byte budget, which rejects every orbit set, accepts counts — they
  // are bounded by slot capacity alone.
  OrbitCache cache(2, 64, /*max_bytes=*/0);
  for (std::uint64_t i = 0; i < 20; ++i) {
    const OrbitKey key{i, i * 7 + 1};
    ASSERT_EQ(cache.acquire_count(key), std::nullopt);
    cache.publish_count(key, i);
  }
  EXPECT_EQ(cache.bytes(), 0u);
  EXPECT_EQ(cache.stats().publishes, 20u);
  EXPECT_EQ(cache.stats().rejects, 0u);
  const OrbitKey set_key{99, 98};
  EXPECT_EQ(cache.acquire(set_key), nullptr);
  auto set = std::make_shared<CompiledConfigEngine::OrbitSet>();
  set->bytes = 1;
  cache.publish(set_key, set);
  EXPECT_EQ(cache.stats().rejects, 1u);  // orbit sets still pay bytes

  OrbitCache roomy(2, 64);
  ASSERT_EQ(roomy.acquire(set_key), nullptr);
  set->bytes = 100;
  roomy.publish(set_key, set);
  for (std::uint64_t i = 0; i < 20; ++i) {
    const OrbitKey key{i, i * 7 + 1};
    ASSERT_EQ(roomy.acquire_count(key), std::nullopt);
    roomy.publish_count(key, i);
  }
  EXPECT_EQ(roomy.bytes(), 100u);  // the orbit set's bytes only
  EXPECT_EQ(roomy.acquire_count(OrbitKey{3, 22}),
            std::optional<std::uint64_t>(3));
  EXPECT_EQ(roomy.peek(set_key), set.get());
}

/// Seeded line automata plus two small pair grids: the shared fixture of
/// the memo sweeps below.
struct MemoBattery {
  std::vector<TabularAutomaton> automata;
  std::uint64_t distinct = 0;  ///< distinct canonical forms
  std::vector<tree::Tree> trees;

  MemoBattery(std::uint64_t n, std::uint64_t seed) {
    util::Rng rng(seed);
    for (std::uint64_t i = 0; i < n; ++i) {
      automata.push_back(
          random_line_automaton(1 + static_cast<int>(rng.index(4)), rng)
              .tabular());
    }
    for (std::uint64_t i = 0; i < n; ++i) {
      bool fresh = true;
      for (std::uint64_t j = 0; j < i && fresh; ++j) {
        fresh = canonical_automaton_key(automata[i]) !=
                canonical_automaton_key(automata[j]);
      }
      distinct += fresh ? 1 : 0;
    }
    trees.push_back(tree::line(6));
    trees.push_back(tree::line_edge_colored(7, 0));
  }

  EnumGrid grid(std::size_t t) const {
    EnumGrid g;
    g.tree = &trees[t];
    for (tree::NodeId u = 0; u < trees[t].node_count(); ++u) {
      for (tree::NodeId v = u + 1; v < trees[t].node_count(); ++v) {
        g.push({u, v, 0, 0});
        g.push({u, v, 2, 0});
      }
    }
    return g;
  }

  std::vector<std::uint64_t> sweep(std::span<const EnumGrid> grids,
                                   std::uint64_t dup, unsigned workers,
                                   OrbitCache* cache,
                                   EnumTelemetry* telemetry) const {
    return sweep_enumeration(
        grids, automata.size() * dup, /*max_rounds=*/100000,
        [&](EnumerationContext& ctx, std::uint64_t i) {
          ctx.bind(automata[i % automata.size()]);
          std::uint64_t unmet = 0;
          for (std::size_t g = 0; g < ctx.grid_count(); ++g) {
            unmet += ctx.count_unmet(g);
          }
          return unmet;
        },
        workers, cache, telemetry);
  }
};

TEST(CountMemo, EachKeyComputedOnceAcrossRacingWorkers) {
  // Grids 0 and 2 are content-identical copies (same tree content, same
  // queries, same horizon): they share one grid key, so per canonical
  // automaton there are TWO memo keys, not three — and under 8 racing
  // workers each is computed exactly once.
  const MemoBattery b(24, 0x3e3011);
  ASSERT_GT(b.distinct, 12u);
  std::vector<EnumGrid> grids{b.grid(0), b.grid(1), b.grid(0)};
  const std::uint64_t starts =
      static_cast<std::uint64_t>(b.trees[0].node_count() +
                                 b.trees[1].node_count());

  OrbitCache cache(4);  // few shards: force real contention
  EnumTelemetry telemetry;
  const auto counts = b.sweep(grids, /*dup=*/6, 8, &cache, &telemetry);
  EXPECT_EQ(telemetry.orbits_extracted, b.distinct * starts);
  EXPECT_EQ(telemetry.cache_misses, b.distinct * 2);
  EXPECT_EQ(cache.stats().publishes, b.distinct * 2);
  EXPECT_EQ(telemetry.cache_hits + telemetry.cache_misses,
            b.automata.size() * 6 * grids.size());

  EnumTelemetry solo_telemetry;
  EXPECT_EQ(counts, b.sweep(grids, 6, 1, nullptr, &solo_telemetry));
}

TEST(CountMemo, FullTableDegradesToRecomputation) {
  // 8 slots, at most 7 filled: the sweep overflows the table at once.
  // Rejected publishes are counted, their keys are recomputed on the
  // next visit, and every total is unchanged.
  const MemoBattery b(24, 0xf0115);
  std::vector<EnumGrid> grids{b.grid(0), b.grid(1)};
  OrbitCache tiny(1, 8);
  EnumTelemetry telemetry;
  const auto counts = b.sweep(grids, /*dup=*/3, 4, &tiny, &telemetry);
  const auto stats = tiny.stats();
  EXPECT_EQ(stats.publishes, 7u);
  EXPECT_GT(stats.rejects, 0u);
  EXPECT_EQ(stats.publishes + stats.rejects, telemetry.cache_misses);
  // More computed than distinct keys: rejected keys came back as misses.
  EXPECT_GT(telemetry.cache_misses, b.distinct * grids.size());

  EnumTelemetry solo_telemetry;
  EXPECT_EQ(counts, b.sweep(grids, 3, 1, nullptr, &solo_telemetry));
}

TEST(CountMemo, PrefetchBatchIsNotALookup) {
  // The first memoized count of a binding (per kind) keys and probes
  // EVERY grid to fill the binding row. Those probes are not lookups:
  // accounting is one hit or one miss per count actually asked, whatever
  // subset of grids (and kinds) a binding asks for.
  const MemoBattery b(24, 0xba7c4);
  std::vector<EnumGrid> grids{b.grid(0), b.grid(1), b.grid(0), b.grid(1)};
  const std::uint64_t n = b.automata.size() * 4;
  const auto one_grid = [&](EnumerationContext& ctx, std::uint64_t i) {
    ctx.bind(b.automata[i % b.automata.size()]);
    return ctx.count_unmet((i / 3) % ctx.grid_count());
  };
  const auto both_kinds = [&](EnumerationContext& ctx, std::uint64_t i) {
    ctx.bind(b.automata[i % b.automata.size()]);
    std::uint64_t sum = 0;
    for (std::size_t g = 0; g < ctx.grid_count(); ++g) {
      // Alternate which kind opens the binding's batch.
      sum = sum * 31 + (((g + i) % 2 == 0) ? ctx.count_unmet(g)
                                           : ctx.count_ungathered(g));
      sum = sum * 31 + (((g + i) % 2 == 0) ? ctx.count_ungathered(g)
                                           : ctx.count_unmet(g));
    }
    return sum;
  };
  const auto check = [&](auto fn, std::uint64_t calls, const char* what) {
    OrbitCache cache(4);
    EnumTelemetry telemetry;
    const auto counts =
        sweep_enumeration(grids, n, 100000, fn, 4, &cache, &telemetry);
    const OrbitCache::Stats st = cache.stats();
    EXPECT_EQ(st.hits + st.misses, calls) << what;
    EXPECT_EQ(telemetry.cache_hits + telemetry.cache_misses, calls) << what;
    EXPECT_EQ(st.misses, telemetry.cache_misses) << what;
    EXPECT_EQ(st.publishes, st.misses) << what;
    EXPECT_EQ(st.rejects, 0u) << what;
    EXPECT_EQ(counts, sweep_enumeration(grids, n, 100000, fn, 1)) << what;
  };
  check(one_grid, n, "one grid per binding");
  check(both_kinds, n * grids.size() * 2, "alternating kinds");
}

TEST(CountMemo, ProbeCountsNeitherClaimsNorCounts) {
  OrbitCache cache(4, 1024);
  const OrbitKey keys[] = {
      count_memo_key(OrbitKey{1, 2}, OrbitKey{3, 4}, CountKind::kUnmet),
      count_memo_key(OrbitKey{1, 2}, OrbitKey{5, 6}, CountKind::kUnmet)};
  std::optional<std::uint64_t> row[2] = {7, 7};
  cache.probe_counts(keys, row);
  EXPECT_EQ(row[0], std::nullopt);
  EXPECT_EQ(row[1], std::nullopt);
  // The probe claimed nothing: the first acquire still gets the claim.
  EXPECT_EQ(cache.acquire_count(keys[1]), std::nullopt);
  cache.publish_count(keys[1], 0);
  cache.probe_counts(keys, row);
  EXPECT_EQ(row[0], std::nullopt);
  EXPECT_EQ(row[1], std::optional<std::uint64_t>(0));
  auto st = cache.stats();
  EXPECT_EQ(st.hits, 0u);  // probes record nothing ...
  EXPECT_EQ(st.misses, 1u);
  cache.add_hits(3);  // ... the caller reports what it served
  EXPECT_EQ(cache.stats().hits, 3u);
}

/// A binding row test fixture: one MemoBattery, its two grids, and the
/// plain (cache-less) count of every grid for automaton 0.
struct RowFixture {
  MemoBattery b{8, 0x70c0};
  std::vector<EnumGrid> grids{b.grid(0), b.grid(1)};
  std::vector<std::uint64_t> plain;

  RowFixture() {
    EnumerationContext ctx(grids, 100000);
    ctx.bind(b.automata[0]);
    for (std::size_t g = 0; g < grids.size(); ++g) {
      plain.push_back(ctx.count_unmet(g));
    }
  }
};

TEST(CountMemo, RowReprobesAfterEpochAdvance) {
  const RowFixture f;
  OrbitCache cache(4);
  EnumerationContext ctx(f.grids, 100000, &cache);
  ctx.bind(f.b.automata[0]);
  EXPECT_EQ(ctx.count_unmet(0), f.plain[0]);  // miss: computed, published
  ctx.bind(f.b.automata[0]);
  EXPECT_EQ(ctx.count_unmet(0), f.plain[0]);  // served from the row
  EXPECT_EQ(ctx.telemetry().cache_hits, 1u);
  const std::uint64_t queries = ctx.telemetry().queries;
  // Same binding, new epoch: the row's count predates it, so the next
  // count must probe again, miss and recompute.
  cache.advance_epoch();
  EXPECT_EQ(ctx.count_unmet(0), f.plain[0]);
  const EnumTelemetry t = ctx.telemetry();
  EXPECT_EQ(t.cache_misses, 2u);
  EXPECT_EQ(t.cache_hits, 1u);
  EXPECT_GT(t.queries, queries);
  const OrbitCache::Stats st = cache.stats();
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.publishes, 2u);
  EXPECT_EQ(st.hits, 1u);
}

TEST(CountMemo, RowMissSeesLaterPublish) {
  const RowFixture f;
  OrbitCache cache(4);
  EnumerationContext a(f.grids, 100000, &cache);
  EnumerationContext b(f.grids, 100000, &cache);
  a.bind(f.b.automata[0]);
  EXPECT_EQ(a.count_unmet(1), f.plain[1]);  // A's row: nothing published
  b.bind(f.b.automata[0]);
  EXPECT_EQ(b.count_unmet(0), f.plain[0]);  // B publishes grid 0
  // Unknown to A's row, but published since: the claiming lookup hits.
  EXPECT_EQ(a.count_unmet(0), f.plain[0]);
  EXPECT_EQ(a.telemetry().cache_hits, 1u);
  EXPECT_EQ(a.telemetry().cache_misses, 1u);
  const OrbitCache::Stats st = cache.stats();
  EXPECT_EQ(st.hits + st.misses, 3u);  // one per count asked
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.publishes, st.misses);
}

TEST(CountMemo, HitsReachStatsOncePerBinding) {
  const RowFixture f;
  OrbitCache cache(4);
  {
    EnumerationContext publisher(f.grids, 100000, &cache);
    publisher.bind(f.b.automata[0]);
    for (std::size_t g = 0; g < f.grids.size(); ++g) {
      publisher.count_unmet(g);
    }
  }
  ASSERT_EQ(cache.stats().misses, 2u);
  const auto hits = [&] { return cache.stats().hits; };
  const auto count_all = [&](EnumerationContext& ctx) {
    ctx.bind(f.b.automata[0]);
    for (std::size_t g = 0; g < f.grids.size(); ++g) {
      EXPECT_EQ(ctx.count_unmet(g), f.plain[g]);
    }
  };

  EnumerationContext ctx(f.grids, 100000, &cache);
  count_all(ctx);
  EXPECT_EQ(hits(), 0u);  // pending until the binding ends ...
  ctx.bind(f.b.automata[1]);
  EXPECT_EQ(hits(), 2u);  // ... reported by the next bind()
  count_all(ctx);
  EXPECT_EQ(ctx.telemetry().cache_hits, 4u);
  EXPECT_EQ(hits(), 4u);  // telemetry() reports them too
  EXPECT_EQ(ctx.telemetry().cache_hits, 4u);
  EXPECT_EQ(hits(), 4u);  // once

  {
    auto from = std::make_unique<EnumerationContext>(f.grids, 100000, &cache);
    count_all(*from);
    EnumerationContext to(std::move(*from));
    from.reset();  // a moved-from context reports nothing
    EXPECT_EQ(hits(), 4u);
  }  // destruction reports the pending hits
  EXPECT_EQ(hits(), 6u);

  {
    EnumerationContext x(f.grids, 100000, &cache);
    EnumerationContext y(f.grids, 100000, &cache);
    count_all(x);
    count_all(y);
    x = std::move(y);  // x's own pending hits are reported, y's move over
    EXPECT_EQ(hits(), 8u);
  }
  EXPECT_EQ(hits(), 10u);
  EXPECT_EQ(cache.stats().misses, 2u);
}

/// Raw acquire/publish race on one key: exactly one claimer, everyone
/// else blocks until the publish and adopts the same set.
TEST(OrbitCache, SingleKeyRaceHasOnePublisher) {
  for (int round = 0; round < 20; ++round) {
    OrbitCache cache(1);
    const OrbitKey key{99, static_cast<std::uint64_t>(round)};
    constexpr unsigned kThreads = 8;
    std::atomic<int> claimers{0};
    std::atomic<int> adopters{0};
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < kThreads; ++w) {
      pool.emplace_back([&] {
        auto set = cache.acquire(key);
        if (set == nullptr) {
          claimers.fetch_add(1);
          auto published =
              std::make_shared<CompiledConfigEngine::OrbitSet>();
          published->bytes = 1;
          cache.publish(key, std::move(published));
        } else {
          adopters.fetch_add(1);
        }
      });
    }
    for (auto& th : pool) th.join();
    EXPECT_EQ(claimers.load(), 1) << "round " << round;
    EXPECT_EQ(adopters.load(), static_cast<int>(kThreads) - 1)
        << "round " << round;
  }
}

}  // namespace
}  // namespace rvt::sim
