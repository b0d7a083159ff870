// Sharded cross-worker cache (sim/orbit_cache.hpp): keying, the
// claim/publish/abandon protocol, epoch invalidation, and — the load-
// bearing guarantee — that under many workers racing lookups the
// defeat-count memo computes each (grid list, trajectory class) row
// once, each distinct grid of it once, degrading to recomputation
// when the table is full. The races run under the ASan/UBSan CI job like
// every tier-1 test, and under the TSan job, which checks the lock-free
// slot publication.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <thread>
#include <utility>
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

/// Allocating textbook oracle of trajectory_automaton_key: reachable
/// states by BFS, Moore partition refinement keyed by std::map
/// signatures (class ids in no particular order), then an explicit BFS
/// over the classes that numbers them and streams the documented words.
OrbitKey oracle_trajectory_key(const TabularAutomaton& a, bool* collapsed) {
  const int D = a.max_degree;
  const auto code = [](int act, int d) { return act < 0 ? kStay : act % d; };
  std::vector<std::pair<int, int>> inputs;  // (i, d), d then i ascending
  for (int d = 1; d <= D; ++d) {
    for (int i = -1; i < d; ++i) inputs.emplace_back(i, d);
  }
  std::vector<int> reach{a.initial};
  std::vector<bool> seen(static_cast<std::size_t>(a.num_states()), false);
  seen[static_cast<std::size_t>(a.initial)] = true;
  for (std::size_t h = 0; h < reach.size(); ++h) {
    for (const auto& [i, d] : inputs) {
      const int t = a.next(reach[h], i, d);
      if (!seen[static_cast<std::size_t>(t)]) {
        seen[static_cast<std::size_t>(t)] = true;
        reach.push_back(t);
      }
    }
  }
  std::map<int, int> cls;  // state -> class
  for (const int s : reach) cls[s] = 0;
  for (std::size_t classes = 1;;) {
    std::map<std::vector<int>, int> ids;
    std::map<int, int> next;
    for (const int s : reach) {
      std::vector<int> sig{cls[s]};
      for (const auto& [i, d] : inputs) {
        const int t = a.next(s, i, d);
        sig.push_back(code(a.lambda[static_cast<std::size_t>(t)], d));
        sig.push_back(cls[t]);
      }
      next[s] = ids.emplace(sig, static_cast<int>(ids.size())).first->second;
    }
    cls = next;
    if (ids.size() == classes) break;
    classes = ids.size();
  }
  std::map<int, int> rep;  // class -> some state of it
  for (const int s : reach) rep.emplace(cls[s], s);
  *collapsed = rep.size() < static_cast<std::size_t>(a.num_states());
  std::map<int, std::uint64_t> number;  // class -> BFS number
  std::vector<int> queue{cls[a.initial]};
  number[cls[a.initial]] = 0;
  std::vector<std::uint64_t> words;
  for (std::size_t h = 0; h < queue.size(); ++h) {
    const int s = rep[queue[h]];
    for (int d = 1; d <= D; ++d) {
      std::vector<std::uint64_t> ports;
      for (int i = -1; i < d; ++i) {
        const int t = a.next(s, i, d);
        if (number.emplace(cls[t], queue.size()).second) {
          queue.push_back(cls[t]);
        }
        const int out = code(a.lambda[static_cast<std::size_t>(t)], d);
        ports.push_back(static_cast<std::uint64_t>(out + 1) << 32 |
                        number[cls[t]]);
      }
      if (std::all_of(ports.begin(), ports.end(),
                      [&](std::uint64_t w) { return w == ports[0]; })) {
        words.push_back(std::uint64_t{1} << 63 | ports[0]);
      } else {
        words.insert(words.end(), ports.begin(), ports.end());
      }
    }
  }
  KeyHasher h;
  h.feed(static_cast<std::uint64_t>(rep.size()) << 32 |
         static_cast<std::uint64_t>(D));
  for (int d0 = 1; d0 <= D; d0 += 12) {
    std::uint64_t codes = 0;
    for (int d = d0; d < d0 + 12 && d <= D; ++d) {
      const int act = a.lambda[static_cast<std::size_t>(a.initial)];
      codes |= static_cast<std::uint64_t>(code(act, d) + 1) << (5 * (d - d0));
    }
    h.feed(codes);
  }
  for (const std::uint64_t w : words) h.feed(w);
  return h.key();
}

/// `a` with every state copied `copies` times: copy c of state s moves
/// to copy (c + 1) % copies of its successor. Same trajectories, `copies`
/// times the states.
TabularAutomaton blow_up(const TabularAutomaton& a, int copies) {
  const int K = a.num_states();
  const int D = a.max_degree;
  TabularAutomaton b;
  b.initial = a.initial;
  b.max_degree = D;
  for (int c = 0; c < copies; ++c) {
    for (int s = 0; s < K; ++s) {
      for (int i = -1; i < D; ++i) {
        for (int d = 1; d <= D; ++d) {
          b.delta.push_back(i < d ? ((c + 1) % copies) * K + a.next(s, i, d)
                                  : 0);
        }
      }
      b.lambda.push_back(a.lambda[static_cast<std::size_t>(s)]);
    }
  }
  return b;
}

TEST(TrajectoryKey, StreamedKeyMatchesRefinementOracle) {
  // The streamed key must equal the textbook oracle bit for bit on
  // seeded tables — D = 2 line tables (port-oblivious), D = 3 tree
  // tables (port-sensitive), tables whose entry-port rows differ only on
  // impossible inputs, and tables past the stack bounds — and report a
  // collapse exactly when the oracle's class is smaller than the table.
  util::Rng rng(0x7a1ec7);
  std::vector<TabularAutomaton> cases;
  for (int k = 1; k <= 6; ++k) {
    for (int r = 0; r < 300; ++r) {
      cases.push_back(random_line_automaton(k, rng).tabular());
    }
  }
  for (int r = 0; r < 600; ++r) {
    cases.push_back(
        random_tree_automaton(1 + static_cast<int>(rng.index(6)), rng)
            .tabular());
  }
  for (int r = 0; r < 100; ++r) {
    // Port-oblivious on every possible input, not on the impossible ones
    // (entry port >= degree), which no trajectory reads.
    const TabularAutomaton lifted =
        lift_to_tree_automaton(random_line_automaton(3, rng)).tabular();
    TabularAutomaton a = lifted;
    int& impossible = a.delta[static_cast<std::size_t>(2 * 3 + 0)];
    impossible = (impossible + 1) % 3;  // state 0, input (1, 1)
    ASSERT_FALSE(a.port_oblivious());
    EXPECT_EQ(trajectory_automaton_key(a), trajectory_automaton_key(lifted));
    cases.push_back(a);
  }
  // Past kStreamedKeyMaxStates: the allocating fallback.
  cases.push_back(
      random_line_automaton(kStreamedKeyMaxStates + 9, rng).tabular());
  cases.push_back(
      random_tree_automaton(kStreamedKeyMaxStates + 3, rng).tabular());
  std::size_t collapsed_count = 0;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    bool want_collapsed = false;
    const OrbitKey want = oracle_trajectory_key(cases[i], &want_collapsed);
    bool collapsed = !want_collapsed;
    EXPECT_EQ(trajectory_automaton_key(cases[i], &collapsed), want)
        << "case " << i;
    EXPECT_EQ(collapsed, want_collapsed) << "case " << i;
    collapsed_count += collapsed ? 1 : 0;
  }
  EXPECT_GT(collapsed_count, 0u);
  EXPECT_LT(collapsed_count, cases.size());
}

TEST(TrajectoryKey, FallbackAgreesWithStreamedPath) {
  // A table blown up past kStreamedKeyMaxStates by copying its states
  // keys through the allocating fallback, and lands on the same class as
  // the original, which the stack path keys.
  util::Rng rng(0xb10a);
  for (int r = 0; r < 40; ++r) {
    const TabularAutomaton line = random_line_automaton(5, rng).tabular();
    const TabularAutomaton tree =
        random_tree_automaton(4, rng).tabular();
    for (const TabularAutomaton* a : {&line, &tree}) {
      const TabularAutomaton big = blow_up(*a, 20);
      ASSERT_GT(big.num_states(), kStreamedKeyMaxStates);
      bool collapsed = false;
      EXPECT_EQ(trajectory_automaton_key(big, &collapsed),
                trajectory_automaton_key(*a))
          << r;
      EXPECT_TRUE(collapsed);
    }
  }
}

TEST(TrajectoryKey, MergesWhatCanonicalKeysSeparate) {
  // A two-state cycle of equal actions is one class: its canonical form
  // has two states, its trajectory class one.
  LineAutomaton one;
  one.initial = 0;
  one.delta = {{0, 0}};
  one.lambda = {1};
  LineAutomaton two;
  two.initial = 0;
  two.delta = {{1, 1}, {0, 0}};
  two.lambda = {1, 1};
  EXPECT_NE(canonical_automaton_key(one.tabular()),
            canonical_automaton_key(two.tabular()));
  EXPECT_EQ(trajectory_automaton_key(one.tabular()),
            trajectory_automaton_key(two.tabular()));
  // Actions matter only mod the degrees a state is entered at: state 1
  // is entered at degree-1 nodes only, where 0 and 1 both leave by port
  // 0. A stay is never equivalent to a move.
  LineAutomaton entered;
  entered.initial = 0;
  entered.delta = {{1, 0}, {1, 0}};
  entered.lambda = {1, 0};
  LineAutomaton entered2 = entered;
  entered2.lambda = {1, 1};
  EXPECT_EQ(trajectory_automaton_key(entered.tabular()),
            trajectory_automaton_key(entered2.tabular()));
  EXPECT_NE(canonical_automaton_key(entered.tabular()),
            canonical_automaton_key(entered2.tabular()));
  entered2.lambda = {1, kStay};
  EXPECT_NE(trajectory_automaton_key(entered.tabular()),
            trajectory_automaton_key(entered2.tabular()));
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
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_EQ(cache.bytes(), 100u);

  // Epoch advance invalidates: the key must be re-claimed.
  cache.advance_epoch();
  EXPECT_EQ(cache.acquire(key), nullptr);  // claims again
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
  // Not inserted: the key is claimable again (waiters re-contend after a
  // reject).
  EXPECT_EQ(cache.acquire(key), nullptr);
  cache.abandon(key);
}

TEST(CountMemo, ClaimPublishAcquireRowRoundTrip) {
  OrbitCache cache(4, 1024);
  const OrbitKey battery{1, 2};
  const OrbitKey automaton{3, 4};
  const OrbitKey key = row_memo_key(battery, automaton);
  // Domain-separated from orbit-set keys, and order-sensitive.
  EXPECT_NE(key, combine_orbit_keys(battery, automaton));
  EXPECT_NE(key, row_memo_key(automaton, battery));

  EXPECT_EQ(cache.acquire_row(key), nullptr);  // claims
  const std::uint64_t row[] = {0, 5, 9};       // zero is a real answer
  cache.publish_row(key, row, /*computed=*/2);
  const std::uint64_t* got = cache.acquire_row(key);
  ASSERT_NE(got, nullptr);
  EXPECT_NE(got, row);  // the cache holds its own copy
  EXPECT_EQ(std::vector<std::uint64_t>(got, got + 3),
            std::vector<std::uint64_t>(std::begin(row), std::end(row)));
  auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);  // the counts computed ...
  EXPECT_EQ(stats.hits, 0u);    // ... while row lookups record no hit
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_EQ(cache.acquire(key), nullptr);  // a row is not an orbit set

  cache.advance_epoch();
  EXPECT_EQ(cache.find_row(key), nullptr);
  EXPECT_EQ(cache.acquire_row(key), nullptr);
  cache.abandon(key);
  EXPECT_EQ(cache.acquire_row(key), nullptr);  // claimable again
  const std::uint64_t row41[] = {41};
  cache.publish_row(key, row41, 1);
  ASSERT_NE(cache.find_row(key), nullptr);
  EXPECT_EQ(*cache.find_row(key), 41u);

  // Slots carry no epoch: the epoch advance alone must empty them. Fill
  // most of the table, advance, and every key must be claimable again (no
  // stale row served), then hold its new value — twice over, so the
  // second advance clears slots the first one already recycled.
  std::vector<OrbitKey> keys;
  for (std::uint64_t i = 0; i < 600; ++i) {
    keys.push_back(row_memo_key(battery, OrbitKey{i, ~i}));
  }
  for (std::uint64_t round = 1; round <= 2; ++round) {
    cache.advance_epoch();
    EXPECT_EQ(cache.acquire_row(key), nullptr);  // 41 is gone too
    cache.abandon(key);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      ASSERT_EQ(cache.acquire_row(keys[i]), nullptr)
          << "round " << round << " key " << i;
      const std::uint64_t value[] = {round * 1000 + i, i};
      cache.publish_row(keys[i], value, 2);
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const std::uint64_t* r = cache.acquire_row(keys[i]);
      ASSERT_NE(r, nullptr) << "round " << round << " key " << i;
      EXPECT_EQ(r[0], round * 1000 + i) << "round " << round << " key " << i;
      EXPECT_EQ(r[1], i);
    }
  }
  EXPECT_EQ(cache.stats().rejects, 0u);
}

TEST(CountMemo, RowsChargeNoBytes) {
  // A row is not an orbit set: even a zero byte budget, which rejects
  // every orbit set, accepts rows — they are bounded by slot capacity.
  OrbitCache cache(2, 64, /*max_bytes=*/0);
  for (std::uint64_t i = 0; i < 20; ++i) {
    const OrbitKey key{i, i * 7 + 1};
    ASSERT_EQ(cache.acquire_row(key), nullptr);
    const std::uint64_t row[] = {i, i + 1};
    cache.publish_row(key, row, 2);
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
    ASSERT_EQ(roomy.acquire_row(key), nullptr);
    const std::uint64_t row[] = {i, i + 1};
    roomy.publish_row(key, row, 2);
  }
  EXPECT_EQ(roomy.bytes(), 100u);  // the orbit set's bytes only
  ASSERT_NE(roomy.find_row(OrbitKey{3, 22}), nullptr);
  EXPECT_EQ(roomy.find_row(OrbitKey{3, 22})[1], 4u);
  EXPECT_EQ(roomy.acquire(set_key).get(), set.get());
}

/// Seeded line automata plus two small pair grids: the shared fixture of
/// the memo sweeps below.
struct MemoBattery {
  std::vector<TabularAutomaton> automata;
  std::uint64_t distinct = 0;  ///< distinct trajectory classes
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
        fresh = trajectory_automaton_key(automata[i]) !=
                trajectory_automaton_key(automata[j]);
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
  // queries, same horizon): a row computes TWO distinct grids, not three,
  // and under 8 racing workers each trajectory class's row is
  // computed exactly once.
  const MemoBattery b(24, 0x3e3011);
  ASSERT_GT(b.distinct, 8u);
  std::vector<EnumGrid> grids{b.grid(0), b.grid(1), b.grid(0)};
  const std::uint64_t starts =
      static_cast<std::uint64_t>(b.trees[0].node_count() +
                                 b.trees[1].node_count());

  OrbitCache cache(4);  // few shards: force real contention
  EnumTelemetry telemetry;
  const auto counts = b.sweep(grids, /*dup=*/6, 8, &cache, &telemetry);
  EXPECT_EQ(telemetry.orbits_extracted, b.distinct * starts);
  EXPECT_EQ(telemetry.cache_misses, b.distinct * 2);
  EXPECT_EQ(cache.stats().misses, b.distinct * 2);
  EXPECT_EQ(cache.stats().publishes, b.distinct);
  EXPECT_EQ(telemetry.cache_hits + telemetry.cache_misses,
            b.automata.size() * 6 * grids.size());

  EnumTelemetry solo_telemetry;
  EXPECT_EQ(counts, b.sweep(grids, 6, 1, nullptr, &solo_telemetry));
}

TEST(CountMemo, FullTableDegradesToRecomputation) {
  // 8 slots, at most 7 filled: the sweep overflows the table at once.
  // Rejected publishes are counted, their rows are recomputed on the
  // next visit, and every total is unchanged.
  const MemoBattery b(24, 0xf0115);
  std::vector<EnumGrid> grids{b.grid(0), b.grid(1)};
  OrbitCache tiny(1, 8);
  EnumTelemetry telemetry;
  const auto counts = b.sweep(grids, /*dup=*/3, 4, &tiny, &telemetry);
  const auto stats = tiny.stats();
  EXPECT_EQ(stats.publishes, 7u);
  EXPECT_GT(stats.rejects, 0u);
  // Every row computed (two grids each) was published or rejected.
  EXPECT_EQ((stats.publishes + stats.rejects) * grids.size(),
            telemetry.cache_misses);
  // More computed than distinct rows: rejected rows came back as misses.
  EXPECT_GT(telemetry.cache_misses, b.distinct * grids.size());

  EnumTelemetry solo_telemetry;
  EXPECT_EQ(counts, b.sweep(grids, 3, 1, nullptr, &solo_telemetry));
}

TEST(CountMemo, RowAccountingIsOnePerCountAsked) {
  // A binding asking every grid twice, opening its row from the front of
  // the list or from the back in alternation, over a list holding a copy
  // of each grid: one miss per distinct grid computed, one hit per other
  // count asked, one publish per row.
  const MemoBattery b(24, 0xba7c4);
  std::vector<EnumGrid> grids{b.grid(0), b.grid(1), b.grid(0), b.grid(1)};
  const std::uint64_t n = b.automata.size() * 4;
  const auto twice = [&](EnumerationContext& ctx, std::uint64_t i) {
    ctx.bind(b.automata[i % b.automata.size()]);
    const std::size_t last = ctx.grid_count() - 1;
    std::uint64_t sum = 0;
    for (int pass = 0; pass < 2; ++pass) {
      for (std::size_t k = 0; k <= last; ++k) {
        const std::size_t g = (i + pass) % 2 == 0 ? k : last - k;
        sum = sum * 31 + ctx.count_unmet(g);
      }
    }
    return sum;
  };
  OrbitCache cache(4);
  EnumTelemetry telemetry;
  const auto counts =
      sweep_enumeration(grids, n, 100000, twice, 4, &cache, &telemetry);
  const OrbitCache::Stats st = cache.stats();
  const std::uint64_t asked = n * grids.size() * 2;
  EXPECT_EQ(st.hits + st.misses, asked);
  EXPECT_EQ(telemetry.cache_hits + telemetry.cache_misses, asked);
  EXPECT_EQ(st.misses, telemetry.cache_misses);
  EXPECT_EQ(st.misses, b.distinct * 2);  // classes x distinct grids
  EXPECT_EQ(st.publishes, b.distinct);   // one row per class
  EXPECT_EQ(st.rejects, 0u);
  EXPECT_EQ(counts, sweep_enumeration(grids, n, 100000, twice, 1));
}

TEST(CountMemo, FindRowNeitherClaimsNorCounts) {
  OrbitCache cache(4, 1024);
  const OrbitKey keys[] = {
      row_memo_key(OrbitKey{1, 2}, OrbitKey{3, 4}),
      row_memo_key(OrbitKey{1, 2}, OrbitKey{5, 6})};
  EXPECT_EQ(cache.find_row(keys[0]), nullptr);
  EXPECT_EQ(cache.find_row(keys[1]), nullptr);
  // The find claimed nothing: the first acquire still gets the claim.
  EXPECT_EQ(cache.acquire_row(keys[1]), nullptr);
  const std::uint64_t row[] = {0, 3};
  cache.publish_row(keys[1], row, 2);
  EXPECT_EQ(cache.find_row(keys[0]), nullptr);
  const std::uint64_t* found = cache.find_row(keys[1]);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found[0], 0u);
  EXPECT_EQ(found[1], 3u);
  auto st = cache.stats();
  EXPECT_EQ(st.hits, 0u);  // finds record nothing ...
  EXPECT_EQ(st.misses, 2u);
  EXPECT_EQ(st.waits, 0u);
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
  EXPECT_EQ(ctx.count_unmet(0), f.plain[0]);  // miss: row computed
  ctx.bind(f.b.automata[0]);
  EXPECT_EQ(ctx.count_unmet(0), f.plain[0]);  // served from the row
  EXPECT_EQ(ctx.telemetry().cache_hits, 1u);
  const std::uint64_t queries = ctx.telemetry().queries;
  // Same binding, new epoch: the row predates it, so the next count must
  // look it up again, miss and recompute.
  cache.advance_epoch();
  EXPECT_EQ(ctx.count_unmet(0), f.plain[0]);
  const EnumTelemetry t = ctx.telemetry();
  EXPECT_EQ(t.cache_misses, 2 * f.grids.size());  // two rows computed
  EXPECT_EQ(t.cache_hits, 1u);
  EXPECT_GT(t.queries, queries);
  const OrbitCache::Stats st = cache.stats();
  EXPECT_EQ(st.misses, 2 * f.grids.size());
  EXPECT_EQ(st.publishes, 2u);
  EXPECT_EQ(st.hits, 1u);
}

TEST(CountMemo, RowMissSeesLaterPublish) {
  // A's non-claiming find misses; B then claims and publishes the row;
  // A's claiming lookup adopts B's row as a hit instead of a claim.
  OrbitCache cache(4);
  const OrbitKey key =
      row_memo_key(OrbitKey{7, 7}, OrbitKey{8, 8});
  EXPECT_EQ(cache.find_row(key), nullptr);  // A
  EXPECT_EQ(cache.acquire_row(key), nullptr);  // B claims ...
  const std::uint64_t row[] = {4, 2};
  cache.publish_row(key, row, 2);  // ... and publishes
  const std::uint64_t* adopted = cache.acquire_row(key);  // A
  ASSERT_NE(adopted, nullptr);
  EXPECT_EQ(adopted, cache.find_row(key));
  EXPECT_EQ(adopted[0], 4u);
  const OrbitCache::Stats st = cache.stats();
  EXPECT_EQ(st.publishes, 1u);
  EXPECT_EQ(st.misses, 2u);

  // Through contexts: B's published row answers A's whole binding.
  const RowFixture f;
  OrbitCache shared(4);
  EnumerationContext a(f.grids, 100000, &shared);
  EnumerationContext b(f.grids, 100000, &shared);
  b.bind(f.b.automata[0]);
  EXPECT_EQ(b.count_unmet(1), f.plain[1]);  // B computes and publishes
  a.bind(f.b.automata[0]);
  EXPECT_EQ(a.count_unmet(0), f.plain[0]);
  EXPECT_EQ(a.count_unmet(1), f.plain[1]);
  EXPECT_EQ(a.telemetry().cache_hits, 2u);
  EXPECT_EQ(a.telemetry().cache_misses, 0u);
  EXPECT_EQ(a.telemetry().queries, 0u);
  EXPECT_EQ(shared.stats().publishes, 1u);
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

TEST(CountMemo, RowComputesEachDistinctGridOnce) {
  // Grid 2 is a copy of grid 0 on a DIFFERENT tree object with the same
  // content: the row computes it once, and the copy costs no binding,
  // query or orbit. Grid 3 has grid 0's queries on a relabeled line of
  // the same size: not a copy.
  const MemoBattery b(8, 0xd157);
  const tree::Tree twin = tree::line(6);  // same content as b.trees[0]
  const tree::Tree relabeled = tree::line_edge_colored(6, 1);
  EnumGrid copy = b.grid(0);
  copy.tree = &twin;
  EnumGrid other = b.grid(0);
  other.tree = &relabeled;
  const std::vector<EnumGrid> three{b.grid(0), b.grid(1), other};
  const std::vector<EnumGrid> four{b.grid(0), b.grid(1), copy, other};
  OrbitCache cache_three(4), cache_four(4);
  EnumerationContext ctx_three(three, 100000, &cache_three);
  EnumerationContext ctx_four(four, 100000, &cache_four);
  EnumerationContext plain(four, 100000);
  bool labeling_matters = false;
  for (const TabularAutomaton& a : b.automata) {
    ctx_three.bind(a);
    ctx_four.bind(a);
    plain.bind(a);
    for (std::size_t g = 0; g < four.size(); ++g) {
      EXPECT_EQ(ctx_four.count_unmet(g), plain.count_unmet(g)) << g;
      if (g < three.size()) (void)ctx_three.count_unmet(g);
    }
    labeling_matters =
        labeling_matters || plain.count_unmet(0) != plain.count_unmet(3);
  }
  EXPECT_TRUE(labeling_matters);  // grid 3 really differs from grid 0
  const EnumTelemetry t3 = ctx_three.telemetry();
  const EnumTelemetry t4 = ctx_four.telemetry();
  EXPECT_EQ(t4.queries, t3.queries);
  EXPECT_EQ(t4.orbits_extracted, t3.orbits_extracted);
  EXPECT_EQ(t4.cache_misses, t3.cache_misses);
  EXPECT_EQ(t4.cache_misses, b.distinct * 3);
  // The copy is a hit in every binding, the computing ones included.
  EXPECT_EQ(t4.cache_hits, t3.cache_hits + b.automata.size());
  EXPECT_EQ(t4.bindings, t3.bindings + b.automata.size());
  EXPECT_EQ(cache_four.stats().publishes, b.distinct);
  EXPECT_EQ(cache_four.stats().misses, b.distinct * 3);
}

TEST(CountMemo, ThrowMidRowAbandonsTheClaim) {
  // Cache level: B waits on A's claim; A abandons; B wakes holding the
  // claim and publishes.
  {
    OrbitCache cache(1);
    const OrbitKey key =
        row_memo_key(OrbitKey{5, 5}, OrbitKey{6, 6});
    ASSERT_EQ(cache.acquire_row(key), nullptr);  // A claims
    const std::uint64_t* b_got = &key.hi;        // sentinel: not yet run
    std::thread waiter([&] {
      b_got = cache.acquire_row(key);
      if (b_got == nullptr) {
        const std::uint64_t row[] = {11};
        cache.publish_row(key, row, 1);
      }
    });
    while (cache.stats().waits == 0) std::this_thread::yield();
    cache.abandon(key);  // A's computation failed
    waiter.join();
    EXPECT_EQ(b_got, nullptr);  // B recomputed ...
    ASSERT_NE(cache.find_row(key), nullptr);
    EXPECT_EQ(*cache.find_row(key), 11u);  // ... and published
    EXPECT_EQ(cache.stats().publishes, 1u);
  }
  // Context level: a line automaton binds the line grid, then throws
  // binding the degree-3 grid — mid-row (a row binds every grid it
  // computes before counting any). The claim is abandoned, so the next
  // context to ask recomputes (and throws again) instead of blocking,
  // and the failed row is never published.
  const tree::Tree line = tree::line(6);
  const tree::Tree star = tree::star(3);
  EnumGrid line_grid(&line, {{0, 5, 0, 0}, {1, 4, 2, 0}});
  EnumGrid star_grid(&star, {{1, 2, 0, 0}, {0, 3, 1, 0}});
  const std::vector<EnumGrid> grids{line_grid, star_grid};
  util::Rng rng(0x7409);
  const TabularAutomaton line_automaton =
      random_line_automaton(2, rng).tabular();
  OrbitCache cache(4);
  for (int attempt = 0; attempt < 2; ++attempt) {
    EnumerationContext ctx(grids, 100000, &cache);
    ctx.bind(line_automaton);
    EXPECT_THROW((void)ctx.count_unmet(0), std::invalid_argument)
        << "attempt " << attempt;
    EXPECT_EQ(ctx.telemetry().bindings, 1u);  // the line grid was bound
    EXPECT_EQ(ctx.telemetry().cache_misses, 0u);  // ... and nothing counted
    EXPECT_EQ(ctx.telemetry().queries, 0u);
    // The failed binding's row is looked up afresh, not served half-done.
    EXPECT_THROW((void)ctx.count_unmet(0), std::invalid_argument);
  }
  EXPECT_EQ(cache.stats().publishes, 0u);
  EXPECT_EQ(cache.stats().misses, 0u);  // misses reach the cache with a row
  // The context stays usable: an automaton of the tree model fills the
  // same battery's row.
  const TabularAutomaton tree_automaton =
      random_tree_automaton(2, rng).tabular();
  EnumerationContext ctx(grids, 100000, &cache);
  EnumerationContext plain(grids, 100000);
  ctx.bind(tree_automaton);
  plain.bind(tree_automaton);
  EXPECT_EQ(ctx.count_unmet(1), plain.count_unmet(1));
  EXPECT_EQ(ctx.count_unmet(0), plain.count_unmet(0));
  EXPECT_EQ(cache.stats().publishes, 1u);
}

TEST(CountMemo, UnmetRowSkipsGatherOnlyGrids) {
  // Grid 0 is a pair grid, grid 1 a 3-agent grid and grid 2 a pair grid
  // with co-located starts: only grid 0 is meet-capable. The row computes
  // grid 0 alone; the gather-only grids still refuse the meet API, and
  // verify_gather serves every grid without touching the memo.
  const tree::Tree line = tree::line(6);
  EnumGrid pair(&line, {{0, 5, 0, 0}, {1, 3, 2, 0}, {2, 4, 1, 0}});
  EnumGrid triple(&line, 3);
  const std::vector<tree::NodeId> s3{0, 2, 5};
  triple.push(s3, {});
  const std::vector<std::uint64_t> d3{0, 1, 3};
  triple.push(s3, d3);
  EnumGrid colocated(&line, {{1, 1, 0, 2}, {0, 4, 0, 0}});
  const std::vector<EnumGrid> grids{pair, triple, colocated};
  util::Rng rng(0x3a7e);
  const TabularAutomaton a = random_line_automaton(3, rng).tabular();

  OrbitCache cache(4);
  EnumerationContext ctx(grids, 100000, &cache);
  EnumerationContext plain(grids, 100000);
  ctx.bind(a);
  plain.bind(a);
  EXPECT_EQ(ctx.count_unmet(0), plain.count_unmet(0));
  EXPECT_EQ(ctx.telemetry().cache_misses, 1u);
  EXPECT_EQ(ctx.telemetry().queries, pair.query_count());
  EXPECT_THROW((void)ctx.count_unmet(1), std::invalid_argument);
  EXPECT_THROW((void)ctx.count_unmet(2), std::invalid_argument);
  for (std::size_t g = 0; g < grids.size(); ++g) {
    const auto want_span = plain.verify_gather(g);
    const std::vector<GatherVerdict> want(want_span.begin(), want_span.end());
    const auto got = ctx.verify_gather(g);
    ASSERT_EQ(got.size(), want.size()) << g;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].gathered, want[i].gathered) << g << " " << i;
      EXPECT_EQ(got[i].rounds_checked, want[i].rounds_checked)
          << g << " " << i;
    }
  }
  EXPECT_EQ(ctx.telemetry().cache_misses, 1u);
  EXPECT_EQ(ctx.telemetry().cache_hits, 0u);
  EXPECT_EQ(cache.stats().publishes, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
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
