// The k-tuple gathering verdict core (sim/verify_core.hpp +
// sim::verify_never_gather_compiled + EnumerationContext::verify_gather):
//
//  * differential against the interpreting sim::run_gathering reference,
//    field for field, across random automata, substrates, arities and
//    delay schedules (equal starts included);
//  * the k = 2 instantiation against the pair verdict core — gathering
//    two agents IS rendezvous, so the generalized core must agree
//    verdict-for-verdict with the pre-existing pair tables;
//  * a property test of the k-fold composed collision predicate against
//    brute-force stepping over the full lcm window, with both coprime and
//    shared-gcd cycle-length tuples exercised;
//  * the fused enumeration entry (verify_gather) against the one-off
//    call.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "sim/automaton.hpp"
#include "sim/compiled.hpp"
#include "sim/enumeration.hpp"
#include "sim/simulator.hpp"
#include "sim/verify_core.hpp"
#include "tree/builders.hpp"
#include "util/rng.hpp"

namespace rvt::sim {
namespace {

tree::Tree random_line(int n, util::Rng& rng) {
  switch (rng.index(n % 2 == 0 ? 4 : 3)) {
    case 0:
      return tree::line(n);
    case 1:
      return tree::line_edge_colored(n, 0);
    case 2:
      return tree::line_edge_colored(n, 1);
    default:
      return tree::line_symmetric_colored(n - 1);  // odd edge count
  }
}

/// Random start tuple: mostly distinct draws, with a deliberate chance of
/// duplicated starts (the gathering model allows co-located agents).
std::vector<tree::NodeId> random_starts(const tree::Tree& t, std::size_t k,
                                        util::Rng& rng) {
  std::vector<tree::NodeId> starts;
  for (std::size_t i = 0; i < k; ++i) {
    if (i > 0 && rng.index(6) == 0) {
      starts.push_back(starts[rng.index(i)]);  // duplicate an earlier one
    } else {
      starts.push_back(
          static_cast<tree::NodeId>(rng.index(t.node_count())));
    }
  }
  return starts;
}

std::vector<std::uint64_t> random_delays(std::size_t k, util::Rng& rng) {
  std::vector<std::uint64_t> delays;
  if (rng.index(4) == 0) return delays;  // empty = all zero
  for (std::size_t i = 0; i < k; ++i) {
    delays.push_back(rng.index(2) ? rng.index(5) : rng.index(40));
  }
  return delays;
}

/// Reference run: k fresh interpreting agents through run_gathering.
GatherResult reference_gather(const tree::Tree& t, const TabularAutomaton& a,
                              const std::vector<tree::NodeId>& starts,
                              const std::vector<std::uint64_t>& delays,
                              std::uint64_t max_rounds) {
  std::vector<std::unique_ptr<TabularAutomatonAgent>> agents;
  std::vector<Agent*> raw;
  for (std::size_t i = 0; i < starts.size(); ++i) {
    agents.push_back(std::make_unique<TabularAutomatonAgent>(a));
    raw.push_back(agents.back().get());
  }
  return run_gathering(t, raw, {starts, delays, max_rounds});
}

void expect_matches_reference(const GatherVerdict& c, const GatherResult& r,
                              const std::string& what) {
  ASSERT_EQ(c.gathered, r.gathered) << what;
  if (r.gathered) {
    ASSERT_EQ(c.gather_round, r.gather_round) << what;
    ASSERT_EQ(c.gather_node, r.gather_node) << what;
  }
  ASSERT_EQ(c.rounds_checked, r.rounds_executed) << what;
  ASSERT_EQ(c.engine, VerifyEngine::kCompiled) << what;
}

TEST(GatherCompiled, MatchesRunGatheringFieldForFieldOnLines) {
  util::Rng rng(0x6a7e1ull);
  for (int rep = 0; rep < 120; ++rep) {
    const int n = 4 + static_cast<int>(rng.index(7));
    const tree::Tree t = random_line(n, rng);
    const TabularAutomaton a =
        random_line_automaton(1 + static_cast<int>(rng.index(4)), rng)
            .tabular();
    const CompiledConfigEngine engine(t, a);
    const std::size_t k = 2 + rng.index(3);
    const auto starts = random_starts(t, k, rng);
    const auto delays = random_delays(k, rng);
    const std::uint64_t horizon = 1 + rng.index(3000);
    const auto compiled =
        verify_never_gather_compiled(engine, starts, delays, horizon);
    const auto reference = reference_gather(t, a, starts, delays, horizon);
    expect_matches_reference(
        compiled, reference,
        "rep " + std::to_string(rep) + " k " + std::to_string(k) +
            " horizon " + std::to_string(horizon));
    // The compiled-only certificate must never contradict the reference:
    // certified_forever implies the horizon found nothing.
    if (compiled.certified_forever) {
      ASSERT_FALSE(reference.gathered) << rep;
    }
  }
}

TEST(GatherCompiled, MatchesRunGatheringOnDegree3Trees) {
  util::Rng rng(0x6a7e2ull);
  for (int rep = 0; rep < 40; ++rep) {
    const int i = 3 + static_cast<int>(rng.index(3));
    const std::uint64_t mask = rng.uniform(0, (1ull << (i - 1)) - 1);
    tree::Tree t = tree::side_tree(i, mask);
    if (rng.coin()) t = tree::randomize_ports(t, rng);
    const TabularAutomaton a =
        rng.coin()
            ? random_tree_automaton(2 + static_cast<int>(rng.index(3)), rng)
                  .tabular()
            : lift_to_tree_automaton(
                  random_line_automaton(
                      1 + static_cast<int>(rng.index(3)), rng))
                  .tabular();
    const CompiledConfigEngine engine(t, a);
    const std::size_t k = 3 + rng.index(2);
    const auto starts = random_starts(t, k, rng);
    const auto delays = random_delays(k, rng);
    const std::uint64_t horizon = 1 + rng.index(4000);
    const auto compiled =
        verify_never_gather_compiled(engine, starts, delays, horizon);
    const auto reference = reference_gather(t, a, starts, delays, horizon);
    expect_matches_reference(compiled, reference,
                             "rep " + std::to_string(rep));
  }
}

TEST(GatherCompiled, PairCaseAgreesWithTheMeetVerdictCore) {
  // Gathering k = 2 agents IS rendezvous: the generalized k-tuple core
  // must agree with the pair tables on every met/unmet classification and
  // on the meeting round — the "k = 2 instantiation kept bit-identical"
  // contract of the refactor.
  util::Rng rng(0x2a6e7ull);
  std::uint64_t met_seen = 0, certified_seen = 0;
  for (int rep = 0; rep < 150; ++rep) {
    const int n = 4 + static_cast<int>(rng.index(8));
    const tree::Tree t = random_line(n, rng);
    const TabularAutomaton a =
        random_line_automaton(1 + static_cast<int>(rng.index(5)), rng)
            .tabular();
    const CompiledConfigEngine engine(t, a);
    const tree::NodeId u = static_cast<tree::NodeId>(rng.index(n));
    tree::NodeId v = static_cast<tree::NodeId>(rng.index(n));
    if (u == v) v = (v + 1) % n;  // the meet API needs distinct starts
    const std::uint64_t da = rng.index(30), db = rng.index(30);
    const std::uint64_t horizon = 1 + rng.index(200000);
    const Verdict meet = verify_never_meet_compiled(
        engine, engine, {u, v, da, db, horizon});
    const tree::NodeId starts[2] = {u, v};
    const std::uint64_t delays[2] = {da, db};
    const GatherVerdict gather =
        verify_never_gather_compiled(engine, starts, delays, horizon);
    ASSERT_EQ(gather.gathered, meet.met) << rep;
    if (meet.met) {
      ASSERT_EQ(gather.gather_round, meet.meeting_round) << rep;
      ++met_seen;
    }
    // The pair core certifies at Brent's detection round, which is always
    // PAST one full joint period from Tc — so whenever the meet side
    // certifies, the gathering side must too, with the same joint period.
    if (meet.certified_forever) {
      ASSERT_TRUE(gather.certified_forever) << rep;
      ASSERT_EQ(gather.cycle_length, meet.cycle_length) << rep;
      ++certified_seen;
    }
  }
  // The draw must actually exercise both outcomes.
  EXPECT_GT(met_seen, 10u);
  EXPECT_GT(certified_seen, 10u);
}

TEST(GatherCore, KFoldCompositionMatchesBruteForceOverTheLcmWindow) {
  // Property test of the composed collision predicate: for random small
  // cycle-length tuples, the verdict (existence, first round, node) must
  // equal brute-force stepping of the k positions over the FULL joint
  // window [1, Tc + lcm - 1] — with the horizon chosen past the window,
  // so certification is also decidable and must be exact.
  util::Rng rng(0x9c0febull);
  std::uint64_t coprime_pairs = 0, shared_gcd_pairs = 0, certified = 0;
  for (int rep = 0; rep < 200; ++rep) {
    const int n = 4 + static_cast<int>(rng.index(8));
    const tree::Tree t = random_line(n, rng);
    const TabularAutomaton a =
        random_line_automaton(1 + static_cast<int>(rng.index(5)), rng)
            .tabular();
    const CompiledConfigEngine engine(t, a);
    const std::size_t k = 2 + rng.index(3);
    const auto starts = random_starts(t, k, rng);
    const auto delays = random_delays(k, rng);

    // Orbit headers for the window arithmetic (and the gcd census).
    std::uint64_t Tc = 0, L = 1;
    for (std::size_t i = 0; i < k; ++i) {
      const auto& o = engine.orbit(starts[i]);
      const std::uint64_t d = delays.empty() ? 0 : delays[i];
      Tc = std::max(Tc, d + o.mu);
      L = std::lcm(L, o.lambda);
    }
    for (std::size_t i = 0; i < k; ++i) {
      for (std::size_t j = i + 1; j < k; ++j) {
        const std::uint64_t g = std::gcd(engine.orbit(starts[i]).lambda,
                                         engine.orbit(starts[j]).lambda);
        if (g == 1) {
          ++coprime_pairs;
        } else {
          ++shared_gcd_pairs;
        }
      }
    }
    if (L > 200000) continue;  // keep the brute-force window affordable
    const std::uint64_t horizon = Tc + L + 16;

    // Brute force: position of agent i after t ticks is node_at(t - d_i)
    // once it started, its start before.
    bool bf_gathered = false;
    std::uint64_t bf_t = 0;
    tree::NodeId bf_node = -1;
    for (std::uint64_t t = 1; t <= horizon && !bf_gathered; ++t) {
      bool all = true;
      tree::NodeId at = -1;
      for (std::size_t i = 0; i < k && all; ++i) {
        const std::uint64_t d = delays.empty() ? 0 : delays[i];
        const tree::NodeId w =
            engine.orbit(starts[i]).node_at(t > d ? t - d : 0);
        if (i == 0) {
          at = w;
        } else {
          all = w == at;
        }
      }
      if (all) {
        bf_gathered = true;
        bf_t = t;
        bf_node = at;
      }
    }

    const auto compiled =
        verify_never_gather_compiled(engine, starts, delays, horizon);
    ASSERT_EQ(compiled.gathered, bf_gathered) << rep;
    if (bf_gathered) {
      ASSERT_EQ(compiled.gather_round, bf_t - 1) << rep;
      ASSERT_EQ(compiled.gather_node, bf_node) << rep;
    } else {
      // The horizon covers the transient plus one full joint period: no
      // gathering in it means no gathering ever, and the core must know.
      ASSERT_TRUE(compiled.certified_forever) << rep;
      ASSERT_EQ(compiled.cycle_length, L) << rep;
      ++certified;
    }
  }
  // The tuple draw must cover both cycle relationships the composition
  // cares about, and actually certify a healthy share.
  EXPECT_GT(coprime_pairs, 20u);
  EXPECT_GT(shared_gcd_pairs, 20u);
  EXPECT_GT(certified, 20u);
}

TEST(GatherCompiled, ValidatesConfig) {
  util::Rng rng(7);
  const tree::Tree t = tree::line(6);
  const CompiledConfigEngine engine(t,
                                    random_line_automaton(3, rng).tabular());
  const std::vector<std::uint64_t> none;
  {
    const std::vector<tree::NodeId> one{0};
    EXPECT_THROW(verify_never_gather_compiled(engine, one, none, 10),
                 std::invalid_argument);
  }
  {
    std::vector<tree::NodeId> many(kMaxGatherAgents + 1, 0);
    EXPECT_THROW(verify_never_gather_compiled(engine, many, none, 10),
                 std::invalid_argument);
  }
  {
    const std::vector<tree::NodeId> starts{0, 2, 4};
    const std::vector<std::uint64_t> short_delays{1, 2};
    EXPECT_THROW(
        verify_never_gather_compiled(engine, starts, short_delays, 10),
        std::invalid_argument);
    EXPECT_THROW(verify_never_gather_compiled(engine, starts, none, 0),
                 std::invalid_argument);
  }
  {
    const std::vector<tree::NodeId> oor{0, 9};
    EXPECT_THROW(verify_never_gather_compiled(engine, oor, none, 10),
                 std::invalid_argument);
  }
  {
    // Equal starts are LEGAL for gathering: co-located identical agents
    // with equal delays gather before anyone can diverge.
    const std::vector<tree::NodeId> same{3, 3, 3};
    const auto v = verify_never_gather_compiled(engine, same, none, 10);
    EXPECT_TRUE(v.gathered);
    EXPECT_EQ(v.gather_round, 0u);
    EXPECT_EQ(v.gather_node, 3);
  }
}

TEST(GatherEnum, ContextMatchesOneOffCalls) {
  util::Rng rng(0xe9a1ull);
  std::vector<tree::Tree> trees;
  trees.push_back(tree::line_edge_colored(7, 0));
  trees.push_back(tree::line(6));
  constexpr std::size_t kAgents = 3;
  std::vector<EnumGrid> grids;
  for (const auto& t : trees) {
    EnumGrid grid(&t, kAgents);
    for (int q = 0; q < 40; ++q) {
      const auto starts = random_starts(t, kAgents, rng);
      std::vector<std::uint64_t> delays = random_delays(kAgents, rng);
      grid.push(starts, delays);
    }
    grids.push_back(std::move(grid));
  }
  constexpr std::uint64_t kHorizon = 100000;
  EnumerationContext ctx(grids, kHorizon);
  for (int rep = 0; rep < 8; ++rep) {
    const TabularAutomaton a =
        random_line_automaton(1 + static_cast<int>(rng.index(4)), rng)
            .tabular();
    ctx.bind(a);
    for (std::size_t g = 0; g < grids.size(); ++g) {
      const auto fused = ctx.verify_gather(g);
      ASSERT_EQ(fused.size(), grids[g].query_count());
      const CompiledConfigEngine engine(*grids[g].tree, a);
      for (std::size_t q = 0; q < fused.size(); ++q) {
        const auto gq = grids[g].query(q);
        const auto one = verify_never_gather_compiled(
            engine, gq.starts, gq.delays, kHorizon);
        ASSERT_EQ(fused[q].gathered, one.gathered) << rep << " " << q;
        ASSERT_EQ(fused[q].gather_round, one.gather_round) << rep << " " << q;
        ASSERT_EQ(fused[q].gather_node, one.gather_node) << rep << " " << q;
        ASSERT_EQ(fused[q].certified_forever, one.certified_forever)
            << rep << " " << q;
        ASSERT_EQ(fused[q].cycle_length, one.cycle_length) << rep << " " << q;
        ASSERT_EQ(fused[q].rounds_checked, one.rounds_checked)
            << rep << " " << q;
      }
      // A k != 2 grid must be refused by the meet API.
      EXPECT_THROW(ctx.verify(g), std::invalid_argument);
    }
  }
  EXPECT_GT(ctx.telemetry().queries, 0u);
}

TEST(GatherEnum, SweepIsDeterministicAcrossThreadCounts) {
  std::vector<tree::Tree> trees;
  trees.push_back(tree::line_edge_colored(7, 0));
  std::vector<EnumGrid> grids;
  {
    util::Rng rng(0x5eedull);
    EnumGrid grid(&trees[0], std::size_t{4});
    for (int q = 0; q < 30; ++q) {
      grid.push(random_starts(trees[0], 4, rng), random_delays(4, rng));
    }
    grids.push_back(std::move(grid));
  }
  const auto fn = [](EnumerationContext& ctx, std::uint64_t i) {
    util::Rng rng(2000 + i);  // per-index randomness: index-derivable
    const TabularAutomaton a =
        random_line_automaton(1 + static_cast<int>(rng.index(4)), rng)
            .tabular();
    ctx.bind(a);
    std::uint64_t ungathered = 0;
    for (std::size_t g = 0; g < ctx.grid_count(); ++g) {
      for (const GatherVerdict& v : ctx.verify_gather(g)) {
        ungathered += v.gathered ? 0 : 1;
      }
    }
    return ungathered;
  };
  const auto serial = sweep_enumeration(grids, 30, 60000, fn, 1);
  for (const unsigned threads : {2u, 5u}) {
    const auto parallel = sweep_enumeration(grids, 30, 60000, fn, threads);
    ASSERT_EQ(parallel, serial) << threads << " threads";
  }
}

}  // namespace
}  // namespace rvt::sim
