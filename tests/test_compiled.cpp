#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "lowerbound/verify.hpp"
#include "sim/automaton.hpp"
#include "sim/compiled.hpp"
#include "sim/sweep.hpp"
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

/// A random max-degree-3 tree assembled from the Theorem 4.3 families
/// (side trees, optionally joined two-sided) with randomized ports — the
/// substrate mix for the tree-generalized engine tests.
tree::Tree random_degree3_tree(util::Rng& rng) {
  const int i = 3 + static_cast<int>(rng.index(4));
  const std::uint64_t mask = rng.uniform(0, (1ull << (i - 1)) - 1);
  tree::Tree t = tree::Tree::single_node();
  if (rng.coin()) {
    t = tree::side_tree(i, mask);
  } else {
    const int j = 3 + static_cast<int>(rng.index(3));
    const tree::Tree left = tree::side_tree(i, mask);
    const tree::Tree right =
        tree::side_tree(j, rng.uniform(0, (1ull << (j - 1)) - 1));
    t = tree::two_sided_tree(left, right,
                             2 + 2 * static_cast<int>(rng.index(3)))
            .tree;
  }
  return rng.coin() ? tree::randomize_ports(t, rng) : t;
}

/// Steps a fresh TabularAutomatonAgent through the single-agent round
/// semantics of TwoAgentRun, returning the position (node + entry port)
/// after each round.
std::vector<tree::WalkPos> interpreted_trajectory(const tree::Tree& t,
                                                  const TabularAutomaton& a,
                                                  tree::NodeId start,
                                                  std::uint64_t rounds) {
  TabularAutomatonAgent agent(a);
  tree::WalkPos pos{start, -1};
  std::vector<tree::WalkPos> out{pos};
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const Observation obs{pos.in_port, t.degree(pos.node)};
    const int action = agent.step(obs);
    if (action == kStay) {
      pos.in_port = -1;
    } else {
      const int d = t.degree(pos.node);
      const tree::Port out_port = static_cast<tree::Port>(action % d);
      const tree::NodeId next = t.neighbor(pos.node, out_port);
      pos = {next, t.reverse_port(pos.node, out_port)};
    }
    out.push_back(pos);
  }
  return out;
}

TEST(CompiledOrbit, MatchesInterpretedTrajectoryAndIsRho) {
  util::Rng rng(101);
  for (int rep = 0; rep < 40; ++rep) {
    const int n = 2 + static_cast<int>(rng.index(11));
    const tree::Tree t = random_line(n, rng);
    const auto a =
        random_line_automaton(1 + static_cast<int>(rng.index(8)), rng);
    const CompiledConfigEngine engine(t, a.tabular());
    // Query every start so later orbits exercise the merge path, whose
    // spliced tails must still match the interpreted agent exactly
    // (including the entry port at the merge seam).
    for (tree::NodeId start = 0; start < t.node_count(); ++start) {
      const auto& orbit = engine.orbit(start);
      ASSERT_GE(orbit.mu, 1u);  // the first-step-pending config can't recur
      ASSERT_GE(orbit.lambda, 1u);
      const std::uint64_t horizon = orbit.mu + 2 * orbit.lambda + 5;
      const auto traj = interpreted_trajectory(t, a.tabular(), start, horizon);
      for (std::uint64_t k = 0; k <= horizon; ++k) {
        ASSERT_EQ(orbit.node_at(k), traj[k].node)
            << "rep " << rep << " start " << start << " k " << k;
        ASSERT_EQ(orbit.in_port_at(k), traj[k].in_port)
            << "rep " << rep << " start " << start << " k " << k;
      }
      // rho form: the cycle really has period lambda.
      for (std::uint64_t k = orbit.mu; k < orbit.mu + orbit.lambda; ++k) {
        ASSERT_EQ(orbit.node_at(k), orbit.node_at(k + orbit.lambda));
        ASSERT_EQ(orbit.in_port_at(k), orbit.in_port_at(k + orbit.lambda));
      }
    }
  }
}

TEST(CompiledOrbit, CachedAcrossStartsAndBoundedBySpace) {
  util::Rng rng(7);
  const tree::Tree t = tree::line_edge_colored(9, 0);
  const auto a = random_line_automaton(5, rng);
  const CompiledConfigEngine engine(t, a.tabular());
  for (tree::NodeId s = 0; s < 9; ++s) {
    const auto& o1 = engine.orbit(s);
    const auto& o2 = engine.orbit(s);
    EXPECT_EQ(&o1, &o2);  // cached
    EXPECT_LE(o1.mu + o1.lambda, engine.num_configs());
  }
}

TEST(CompiledEngine, RejectsNonLines) {
  util::Rng rng(3);
  const auto a = random_line_automaton(2, rng).tabular();
  EXPECT_THROW(CompiledConfigEngine(tree::Tree::single_node(), a),
               std::invalid_argument);
  EXPECT_THROW(CompiledConfigEngine(tree::star(4), a), std::invalid_argument);
}

// The acceptance-critical differential: the compiled verdict must match the
// legacy Brent stepper field for field over random automata, lines, starts,
// delays, and horizons (including horizon-exhausted runs).
TEST(CompiledVerify, DifferentialAgainstReferenceStepper) {
  // Seed 999 historically exposed a merge-seam entry-port bug that the
  // default seed missed; both seeds stay in the suite.
  for (const std::uint64_t seed : {0x5eed2010ull, 999ull}) {
    SCOPED_TRACE(seed);
    util::Rng rng(seed);
    int certified = 0, met = 0, exhausted = 0;
    const int kCases = 300;
    for (int rep = 0; rep < kCases; ++rep) {
    const int n = 2 + static_cast<int>(rng.index(11));
    const tree::Tree t = random_line(n, rng);
    const auto a =
        random_line_automaton(1 + static_cast<int>(rng.index(10)), rng);
    const bool identical = rng.index(4) != 0;
    const auto b =
        identical ? a
                  : random_line_automaton(
                        1 + static_cast<int>(rng.index(10)), rng);
    RunConfig cfg;
    cfg.start_a = static_cast<tree::NodeId>(rng.index(n));
    do {
      cfg.start_b = static_cast<tree::NodeId>(rng.index(n));
    } while (cfg.start_b == cfg.start_a);
    cfg.delay_a = rng.index(3) == 0 ? rng.uniform(0, 40) : 0;
    cfg.delay_b = rng.index(3) == 0 ? rng.uniform(0, 40) : 0;
    switch (rng.index(3)) {
      case 0:
        cfg.max_rounds = rng.uniform(1, 30);  // exercises horizon exhaustion
        break;
      case 1:
        cfg.max_rounds = rng.uniform(31, 3000);
        break;
      default:
        cfg.max_rounds = 1000000;
        break;
    }

    LineAutomatonAgent ra(a), rb(b);
    const auto ref = lowerbound::verify_never_meet_reference(t, ra, rb, cfg);
    LineAutomatonAgent ca(a), cb(b);
    const auto fast = lowerbound::verify_never_meet(t, ca, cb, cfg);
    EXPECT_TRUE(ca.fresh());  // compiled path does not step the agents
    ASSERT_EQ(fast.engine, VerifyEngine::kCompiled) << "rep " << rep;
    ASSERT_EQ(ref.engine, VerifyEngine::kReference) << "rep " << rep;

    ASSERT_EQ(fast.met, ref.met) << "rep " << rep;
    ASSERT_EQ(fast.certified_forever, ref.certified_forever) << "rep " << rep;
    ASSERT_EQ(fast.cycle_length, ref.cycle_length) << "rep " << rep;
    ASSERT_EQ(fast.meeting_round, ref.meeting_round) << "rep " << rep;
    ASSERT_EQ(fast.rounds_checked, ref.rounds_checked) << "rep " << rep;
    certified += ref.certified_forever;
    met += ref.met;
    exhausted += !ref.met && !ref.certified_forever;
    }
    // The case mix must actually exercise all three outcome classes.
    EXPECT_GE(certified, 20);
    EXPECT_GE(met, 20);
    EXPECT_GE(exhausted, 20);
  }
}

TEST(CompiledVerify, DirectEngineMatchesDispatcherAcrossPairsAndDelays) {
  util::Rng rng(42);
  const tree::Tree t = tree::line_symmetric_colored(9);
  const auto a = ping_pong_walker(2);
  const CompiledConfigEngine engine(t, a.tabular());
  for (tree::NodeId u = 0; u < t.node_count(); ++u) {
    for (tree::NodeId v = 0; v < t.node_count(); ++v) {
      if (u == v) continue;
      for (std::uint64_t delay : {0ull, 1ull, 7ull}) {
        const RunConfig cfg{u, v, delay, 0, 200000};
        const auto direct = verify_never_meet_compiled(engine, engine, cfg);
        LineAutomatonAgent ra(a), rb(a);
        const auto ref =
            lowerbound::verify_never_meet_reference(t, ra, rb, cfg);
        ASSERT_EQ(direct.met, ref.met) << u << " " << v << " " << delay;
        ASSERT_EQ(direct.certified_forever, ref.certified_forever);
        ASSERT_EQ(direct.cycle_length, ref.cycle_length);
      }
    }
  }
}

TEST(CompiledVerify, ExtremeDelaysMatchReference) {
  // Delays at and beyond the horizon — including UINT64_MAX — must not
  // wrap the joint-cycle arithmetic: the later agent never acts within
  // max_rounds, so only a walker-onto-parked meeting is observable and no
  // certificate is possible.
  util::Rng rng(0xdeeeull);
  constexpr std::uint64_t kMax = ~std::uint64_t{0};
  for (int rep = 0; rep < 25; ++rep) {
    const int n = 4 + static_cast<int>(rng.index(6));
    const tree::Tree t = random_line(n, rng);
    const auto a =
        random_line_automaton(1 + static_cast<int>(rng.index(6)), rng);
    const std::uint64_t M = 1 + rng.uniform(0, 80);
    const std::uint64_t extremes[] = {0, M - 1, M, M + 7, kMax - 1, kMax};
    for (const std::uint64_t dl : extremes) {
      for (const std::uint64_t dr : {std::uint64_t{0}, M, kMax}) {
        RunConfig cfg;
        cfg.start_a = static_cast<tree::NodeId>(rng.index(n));
        do {
          cfg.start_b = static_cast<tree::NodeId>(rng.index(n));
        } while (cfg.start_b == cfg.start_a);
        cfg.delay_a = dl;
        cfg.delay_b = dr;
        cfg.max_rounds = M;
        const CompiledConfigEngine engine(t, a.tabular());
        const auto fast = verify_never_meet_compiled(engine, engine, cfg);
        LineAutomatonAgent ra(a), rb(a);
        const auto ref =
            lowerbound::verify_never_meet_reference(t, ra, rb, cfg);
        ASSERT_EQ(fast.met, ref.met) << rep << " " << dl << " " << dr;
        ASSERT_EQ(fast.meeting_round, ref.meeting_round)
            << rep << " " << dl << " " << dr;
        ASSERT_EQ(fast.certified_forever, ref.certified_forever)
            << rep << " " << dl << " " << dr;
        ASSERT_EQ(fast.cycle_length, ref.cycle_length)
            << rep << " " << dl << " " << dr;
        ASSERT_EQ(fast.rounds_checked, ref.rounds_checked)
            << rep << " " << dl << " " << dr;
      }
    }
  }
}

TEST(CompiledVerify, RejectsBadConfigsLikeReference) {
  util::Rng rng(9);
  const tree::Tree t = tree::line(5);
  const auto a = random_line_automaton(3, rng);
  const CompiledConfigEngine engine(t, a.tabular());
  EXPECT_THROW(verify_never_meet_compiled(engine, engine, {0, 1, 0, 0, 0}),
               std::invalid_argument);
  EXPECT_THROW(verify_never_meet_compiled(engine, engine, {2, 2, 0, 0, 10}),
               std::invalid_argument);
  EXPECT_THROW(verify_never_meet_compiled(engine, engine, {0, 9, 0, 0, 10}),
               std::invalid_argument);
}

TEST(SweepInstances, DeterministicAcrossThreadCounts) {
  std::vector<int> items(257);
  std::iota(items.begin(), items.end(), 0);
  const auto fn = [](const int& x) {
    // Non-trivial deterministic work.
    std::uint64_t h = static_cast<std::uint64_t>(x) * 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 1000; ++i) h = h * 6364136223846793005ull + x;
    return h;
  };
  const auto serial = sweep_instances(items, fn, 1);
  for (unsigned threads : {2u, 4u, 7u}) {
    const auto parallel = sweep_instances(items, fn, threads);
    ASSERT_EQ(parallel, serial) << threads << " threads";
  }
}

TEST(SweepInstances, SweepsVerificationGridDeterministically) {
  util::Rng rng(77);
  const tree::Tree t = tree::line_edge_colored(8, 0);
  struct Case {
    LineAutomaton a;
    RunConfig cfg;
  };
  std::vector<Case> cases;
  for (int i = 0; i < 60; ++i) {
    Case c;
    c.a = random_line_automaton(1 + static_cast<int>(rng.index(6)), rng);
    c.cfg.start_a = static_cast<tree::NodeId>(rng.index(8));
    do {
      c.cfg.start_b = static_cast<tree::NodeId>(rng.index(8));
    } while (c.cfg.start_b == c.cfg.start_a);
    c.cfg.delay_a = rng.uniform(0, 5);
    c.cfg.max_rounds = 100000;
    cases.push_back(c);
  }
  const auto fn = [&](const Case& c) {
    const CompiledConfigEngine engine(t, c.a.tabular());
    const auto v = verify_never_meet_compiled(engine, engine, c.cfg);
    return std::tuple{v.met, v.certified_forever, v.cycle_length};
  };
  const auto serial = sweep_instances(cases, fn, 1);
  const auto parallel = sweep_instances(cases, fn, 4);
  ASSERT_EQ(parallel, serial);
}

TEST(SweepInstances, PropagatesExceptions) {
  std::vector<int> items{1, 2, 3, 4, 5};
  const auto fn = [](const int& x) -> int {
    if (x == 3) throw std::runtime_error("boom");
    return x;
  };
  EXPECT_THROW(sweep_instances(items, fn, 3), std::runtime_error);
}

// --- Tree-generalized engine ------------------------------------------------

TEST(CompiledConfig, OrbitMatchesInterpretedTrajectoryOnTrees) {
  util::Rng rng(2024);
  for (int rep = 0; rep < 30; ++rep) {
    const tree::Tree t = random_degree3_tree(rng);
    // Mix port-sensitive victims (random TreeAutomaton) with port-oblivious
    // ones (lifted line automata) so both walk projections are exercised.
    const TabularAutomaton a =
        rep % 2 == 0
            ? random_tree_automaton(1 + static_cast<int>(rng.index(6)), rng)
                  .tabular()
            : lift_to_tree_automaton(
                  random_line_automaton(
                      1 + static_cast<int>(rng.index(6)), rng))
                  .tabular();
    const CompiledConfigEngine engine(t, a);
    for (tree::NodeId start = 0; start < t.node_count(); ++start) {
      const auto& orbit = engine.orbit(start);
      ASSERT_GE(orbit.mu, 1u);
      ASSERT_GE(orbit.lambda, 1u);
      ASSERT_LE(orbit.mu + orbit.lambda, engine.num_configs());
      const std::uint64_t horizon = orbit.mu + 2 * orbit.lambda + 5;
      const auto traj = interpreted_trajectory(t, a, start, horizon);
      for (std::uint64_t k = 0; k <= horizon; ++k) {
        ASSERT_EQ(orbit.node_at(k), traj[k].node)
            << "rep " << rep << " start " << start << " k " << k;
        ASSERT_EQ(orbit.in_port_at(k), traj[k].in_port)
            << "rep " << rep << " start " << start << " k " << k;
      }
      for (std::uint64_t k = orbit.mu; k < orbit.mu + orbit.lambda; ++k) {
        ASSERT_EQ(orbit.node_at(k), orbit.node_at(k + orbit.lambda));
        ASSERT_EQ(orbit.in_port_at(k), orbit.in_port_at(k + orbit.lambda));
      }
    }
  }
}

// The tree-generalized acceptance differential: TreeAutomaton pairs (both
// genuinely port-sensitive and lifted line automata) on random degree-3
// trees must match the legacy Brent stepper field for field, and the
// dispatcher must route every fresh pair through the compiled engine.
TEST(CompiledConfig, DifferentialOnRandomDegree3Trees) {
  util::Rng rng(0x43ull);
  int certified = 0, met = 0, exhausted = 0;
  for (int rep = 0; rep < 200; ++rep) {
    const tree::Tree t = random_degree3_tree(rng);
    const int n = t.node_count();
    const bool lifted = rng.index(3) == 0;
    const TreeAutomaton a =
        lifted ? lift_to_tree_automaton(random_line_automaton(
                     1 + static_cast<int>(rng.index(8)), rng))
               : random_tree_automaton(
                     1 + static_cast<int>(rng.index(8)), rng);
    const bool identical = rng.index(4) != 0;
    const TreeAutomaton b =
        identical
            ? a
            : random_tree_automaton(1 + static_cast<int>(rng.index(8)), rng);
    RunConfig cfg;
    cfg.start_a = static_cast<tree::NodeId>(rng.index(n));
    do {
      cfg.start_b = static_cast<tree::NodeId>(rng.index(n));
    } while (cfg.start_b == cfg.start_a);
    cfg.delay_a = rng.index(3) == 0 ? rng.uniform(0, 40) : 0;
    cfg.delay_b = rng.index(3) == 0 ? rng.uniform(0, 40) : 0;
    switch (rng.index(3)) {
      case 0:
        cfg.max_rounds = rng.uniform(1, 30);
        break;
      case 1:
        cfg.max_rounds = rng.uniform(31, 3000);
        break;
      default:
        cfg.max_rounds = 1000000;
        break;
    }

    TreeAutomatonAgent ra(a), rb(b);
    const auto ref = lowerbound::verify_never_meet_reference(t, ra, rb, cfg);
    TreeAutomatonAgent ca(a), cb(b);
    const auto fast = lowerbound::verify_never_meet(t, ca, cb, cfg);
    EXPECT_TRUE(ca.fresh());
    ASSERT_EQ(fast.engine, VerifyEngine::kCompiled) << "rep " << rep;

    ASSERT_EQ(fast.met, ref.met) << "rep " << rep;
    ASSERT_EQ(fast.certified_forever, ref.certified_forever) << "rep " << rep;
    ASSERT_EQ(fast.cycle_length, ref.cycle_length) << "rep " << rep;
    ASSERT_EQ(fast.meeting_round, ref.meeting_round) << "rep " << rep;
    ASSERT_EQ(fast.rounds_checked, ref.rounds_checked) << "rep " << rep;
    certified += ref.certified_forever;
    met += ref.met;
    exhausted += !ref.met && !ref.certified_forever;
  }
  // The case mix must exercise all three outcome classes.
  EXPECT_GE(certified, 15);
  EXPECT_GE(met, 15);
  EXPECT_GE(exhausted, 15);
}

TEST(CompiledConfig, RejectsSubstratesOutsideTheDegreeModel) {
  util::Rng rng(12);
  const auto line2 = random_line_automaton(3, rng).tabular();  // D = 2
  EXPECT_THROW(CompiledConfigEngine(tree::star(3), line2),
               std::invalid_argument);
  const auto tree3 = random_tree_automaton(3, rng).tabular();  // D = 3
  EXPECT_NO_THROW(CompiledConfigEngine(tree::star(3), tree3));
  EXPECT_THROW(CompiledConfigEngine(tree::star(4), tree3),
               std::invalid_argument);
  // rebind must keep the degree model (substrate tables are per-degree).
  CompiledConfigEngine engine(tree::line(5), tree3);
  EXPECT_THROW(engine.rebind(line2), std::invalid_argument);
}

// --- Extraction order -------------------------------------------------------

/// Intrinsic orbit fields must be identical whatever order the starts
/// were extracted in. cycle_root / cycle_phase are extraction-order-
/// dependent bookkeeping and are instead checked for consistency (root
/// equality <=> shared cycle) plus verdict agreement below.
void expect_orbit_fields_equal(const CompiledConfigEngine::Orbit& got,
                               const CompiledConfigEngine::Orbit& want,
                               const std::string& context) {
  ASSERT_EQ(got.mu, want.mu) << context;
  ASSERT_EQ(got.lambda, want.lambda) << context;
  ASSERT_EQ(got.sn_mu, want.sn_mu) << context;
  ASSERT_EQ(got.node, want.node) << context;
  ASSERT_EQ(got.in_port, want.in_port) << context;
  ASSERT_EQ(got.first_visit, want.first_visit) << context;
}

/// Engine A warms every start ascending (plus a duplicate) through
/// warm_orbits(); engine B extracts them descending through orbit(), so
/// the two engines merge walks into different earlier orbits and pick
/// different cycle roots. Orbit fields, shared-cycle structure and the
/// verdicts of a (pair x delay) grid must still agree field for field.
void run_extraction_order_differential(const tree::Tree& t,
                                       const TabularAutomaton& a,
                                       const std::string& context) {
  const int n = t.node_count();
  const CompiledConfigEngine ascending(t, a);
  std::vector<tree::NodeId> starts;
  for (tree::NodeId s = 0; s < n; ++s) starts.push_back(s);
  starts.push_back(0);  // duplicate on purpose
  ascending.warm_orbits(starts);
  ASSERT_EQ(ascending.orbits_extracted(), static_cast<std::uint64_t>(n))
      << context;
  ascending.warm_orbits(starts);  // every start cached: extracts nothing
  ASSERT_EQ(ascending.orbits_extracted(), static_cast<std::uint64_t>(n))
      << context;

  const CompiledConfigEngine descending(t, a);
  for (tree::NodeId s = n - 1; s >= 0; --s) descending.orbit(s);
  ASSERT_EQ(descending.orbits_extracted(), static_cast<std::uint64_t>(n))
      << context;

  for (tree::NodeId s = 0; s < n; ++s) {
    expect_orbit_fields_equal(ascending.orbit(s), descending.orbit(s),
                              context + " start " + std::to_string(s));
  }
  // Shared-cycle structure must agree: roots may differ, root equality
  // must not.
  for (tree::NodeId u = 0; u < n; ++u) {
    for (tree::NodeId v = 0; v < n; ++v) {
      ASSERT_EQ(
          ascending.orbit(u).cycle_root == ascending.orbit(v).cycle_root,
          descending.orbit(u).cycle_root == descending.orbit(v).cycle_root)
          << context << " " << u << " " << v;
    }
  }

  std::vector<PairQuery> queries;
  for (tree::NodeId u = 0; u < n; ++u) {
    for (tree::NodeId v = u + 1; v < n; ++v) {
      for (const std::uint64_t d : {0ull, 1ull, 9ull}) {
        queries.push_back({u, v, d, 0});
      }
    }
  }
  const auto lhs = verify_grid(ascending, ascending, queries, 200000);
  const auto rhs = verify_grid(descending, descending, queries, 200000);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    ASSERT_EQ(lhs[i].met, rhs[i].met) << context << " " << i;
    ASSERT_EQ(lhs[i].meeting_round, rhs[i].meeting_round)
        << context << " " << i;
    ASSERT_EQ(lhs[i].certified_forever, rhs[i].certified_forever)
        << context << " " << i;
    ASSERT_EQ(lhs[i].cycle_length, rhs[i].cycle_length)
        << context << " " << i;
    ASSERT_EQ(lhs[i].rounds_checked, rhs[i].rounds_checked)
        << context << " " << i;
    ASSERT_EQ(lhs[i].engine, rhs[i].engine) << context << " " << i;
  }
}

TEST(ExtractionOrder, RandomAutomataAgreeAscendingAndDescending) {
  // Random port-sensitive and port-oblivious automata on degree-3 trees
  // and lines.
  for (const std::uint64_t seed : {0xba7c4ull, 0x51ull}) {
    util::Rng rng(seed);
    for (int rep = 0; rep < 25; ++rep) {
      const bool line_case = rep % 2 == 0;
      const tree::Tree t =
          line_case ? random_line(3 + static_cast<int>(rng.index(10)), rng)
                    : random_degree3_tree(rng);
      TabularAutomaton a;
      switch (rng.index(3)) {
        case 0:  // port-sensitive
          a = random_tree_automaton(1 + static_cast<int>(rng.index(6)), rng)
                  .tabular();
          break;
        case 1:  // port-oblivious, lifted
          a = lift_to_tree_automaton(
                  random_line_automaton(1 + static_cast<int>(rng.index(6)),
                                        rng))
                  .tabular();
          break;
        default:  // port-oblivious line table
          a = random_line_automaton(1 + static_cast<int>(rng.index(6)), rng)
                  .tabular();
          break;
      }
      if (t.max_degree() > a.max_degree) continue;  // substrate out of model
      run_extraction_order_differential(
          t, a, "seed " + std::to_string(seed) + " rep " +
                    std::to_string(rep));
    }
  }
}

TEST(ExtractionOrder, PingPongOnSymmetricLineAgrees) {
  // Orbits from the two halves of the line have different tails and
  // cycle entries, so the two orders merge into different hosts.
  run_extraction_order_differential(tree::line_symmetric_colored(15),
                                    ping_pong_walker(2).tabular(),
                                    "ping-pong(2)");
}

TEST(ExtractionOrder, WarmOrbitsRejectsOutOfRangeStart) {
  util::Rng rng(12);
  const tree::Tree t = tree::line(5);
  const CompiledConfigEngine engine(t,
                                    random_line_automaton(3, rng).tabular());
  const std::vector<tree::NodeId> bad{0, 5};
  EXPECT_THROW(engine.warm_orbits(bad), std::invalid_argument);
  const std::vector<tree::NodeId> negative{-1};
  EXPECT_THROW(engine.warm_orbits(negative), std::invalid_argument);
}

// --- Verdict grids ----------------------------------------------------------

TEST(VerifyGrid, MatchesPerQueryVerdicts) {
  util::Rng rng(314);
  const tree::Tree t = random_degree3_tree(rng);
  const auto a = random_tree_automaton(4, rng).tabular();
  const CompiledConfigEngine engine(t, a);
  std::vector<PairQuery> queries;
  for (tree::NodeId u = 0; u < t.node_count(); ++u) {
    for (tree::NodeId v = 0; v < t.node_count(); ++v) {
      if (u == v) continue;
      for (const std::uint64_t d : {0ull, 1ull, 7ull, 31ull}) {
        queries.push_back({u, v, d, 0});
      }
    }
  }
  constexpr std::uint64_t kHorizon = 100000;
  const auto serial = verify_grid(engine, engine, queries, kHorizon);
  ASSERT_EQ(serial.size(), queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto& q = queries[i];
    const auto one = verify_never_meet_compiled(
        engine, engine, {q.start_a, q.start_b, q.delay_a, q.delay_b,
                         kHorizon});
    ASSERT_EQ(serial[i].met, one.met) << i;
    ASSERT_EQ(serial[i].meeting_round, one.meeting_round) << i;
    ASSERT_EQ(serial[i].certified_forever, one.certified_forever) << i;
    ASSERT_EQ(serial[i].cycle_length, one.cycle_length) << i;
    ASSERT_EQ(serial[i].rounds_checked, one.rounds_checked) << i;
    ASSERT_EQ(serial[i].engine, VerifyEngine::kCompiled) << i;
  }
}

TEST(VerifyGrid, ValidatesQueriesUpFront) {
  util::Rng rng(6);
  const tree::Tree t = tree::line(5);
  const CompiledConfigEngine engine(t,
                                    random_line_automaton(3, rng).tabular());
  const std::vector<PairQuery> empty;
  EXPECT_TRUE(verify_grid(engine, engine, empty, 10).empty());
  const std::vector<PairQuery> equal_starts{{2, 2, 0, 0}};
  EXPECT_THROW(verify_grid(engine, engine, equal_starts, 10),
               std::invalid_argument);
  const std::vector<PairQuery> out_of_range{{0, 9, 0, 0}};
  EXPECT_THROW(verify_grid(engine, engine, out_of_range, 10),
               std::invalid_argument);
  const std::vector<PairQuery> ok{{0, 1, 0, 0}};
  EXPECT_THROW(verify_grid(engine, engine, ok, 0), std::invalid_argument);
  // A bad query late in the grid is rejected before any query is
  // answered: no orbit gets extracted.
  const std::vector<PairQuery> bad_last{{0, 1, 0, 0}, {3, 3, 0, 0}};
  EXPECT_THROW(verify_grid(engine, engine, bad_last, 10),
               std::invalid_argument);
  EXPECT_EQ(engine.orbits_extracted(), 0u);
}

// --- Dispatch boundaries ----------------------------------------------------

TEST(VerifyDispatch, EngineBudgetBoundary) {
  // compiled_engine_fits is pure arithmetic over stamp_entries; probe the
  // exact threshold. A port-oblivious automaton with K states on an n-node
  // tree needs K * 2 * n stamps.
  const tree::Tree t = tree::line(8);
  LineAutomaton a;
  const int k_fit = 1 << 20;  // 2^20 * 2 * 8 == 2^24 == budget: fits
  a.delta.assign(k_fit, {0, 0});
  a.lambda.assign(k_fit, kStay);
  EXPECT_TRUE(lowerbound::compiled_engine_fits(t, a.tabular()));
  a.delta.resize(k_fit + 1, {0, 0});  // one state past the boundary
  a.lambda.resize(k_fit + 1, kStay);
  const auto big = a.tabular();
  EXPECT_FALSE(lowerbound::compiled_engine_fits(t, big));
  EXPECT_EQ(CompiledConfigEngine::stamp_entries(t, big),
            (std::uint64_t{1} << 24) + 16);

  // End to end: the over-budget pair must fall back to the reference
  // stepper (all states stay put, so the reference certifies instantly).
  LineAutomatonAgent x(a), y(a);
  const auto r = lowerbound::verify_never_meet(t, x, y, {0, 4, 0, 0, 1000});
  EXPECT_EQ(r.engine, VerifyEngine::kReference);
  EXPECT_TRUE(r.certified_forever);
}

TEST(VerifyDispatch, NonFreshAgentsFallBackToReferenceAndReportIt) {
  const tree::Tree t = tree::line_edge_colored(6, 0);
  const auto a = ping_pong_walker(2);
  LineAutomatonAgent x(a), y(a);
  ASSERT_NE(x.tabular(), nullptr);  // capability is there...
  (void)x.step({-1, 2});
  EXPECT_FALSE(x.fresh());  // ...but the configuration is no longer initial
  const auto r = lowerbound::verify_never_meet(t, x, y, {1, 4, 0, 0, 100000});
  EXPECT_EQ(r.engine, VerifyEngine::kReference);

  LineAutomatonAgent fx(a), fy(a);
  const auto f =
      lowerbound::verify_never_meet(t, fx, fy, {1, 4, 0, 0, 100000});
  EXPECT_EQ(f.engine, VerifyEngine::kCompiled);
}

// --- Sweep-thread resolution ------------------------------------------------

class SweepThreadsEnv : public ::testing::Test {
 protected:
  void TearDown() override { unsetenv("RVT_SWEEP_THREADS"); }
  static unsigned hardware_fallback() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
  }
};

TEST_F(SweepThreadsEnv, ExplicitRequestWinsOverEnvironment) {
  setenv("RVT_SWEEP_THREADS", "3", 1);
  EXPECT_EQ(resolve_sweep_threads(7), 7u);
}

TEST_F(SweepThreadsEnv, EnvOverridesWhenUnrequested) {
  setenv("RVT_SWEEP_THREADS", "3", 1);
  EXPECT_EQ(resolve_sweep_threads(0), 3u);
}

TEST_F(SweepThreadsEnv, ZeroMeansHardwareThreads) {
  setenv("RVT_SWEEP_THREADS", "0", 1);
  EXPECT_EQ(resolve_sweep_threads(0), hardware_fallback());
  unsetenv("RVT_SWEEP_THREADS");
  EXPECT_EQ(resolve_sweep_threads(0), hardware_fallback());
}

TEST_F(SweepThreadsEnv, GarbageValuesAreRejectedDeterministically) {
  for (const char* bad : {"abc", "3x", "", " 4", "-2", "2.5",
                          "99999999999999999999999"}) {
    setenv("RVT_SWEEP_THREADS", bad, 1);
    EXPECT_EQ(resolve_sweep_threads(0), hardware_fallback()) << bad;
  }
}

TEST_F(SweepThreadsEnv, OversizedValuesAreClamped) {
  setenv("RVT_SWEEP_THREADS", "100000", 1);
  EXPECT_EQ(resolve_sweep_threads(0), kMaxSweepThreads);
}

class NegativeActionAgent final : public Agent {
 public:
  int step(const Observation&) override { return -5; }
  std::uint64_t memory_bits() const override { return 0; }
  std::string name() const override { return "negative"; }
};

TEST(RunSingle, RejectsNegativeNonStayActions) {
  const tree::Tree t = tree::line(4);
  NegativeActionAgent agent;
  EXPECT_THROW(lowerbound::run_single(t, agent, 0, 10),
               std::invalid_argument);
}

}  // namespace
}  // namespace rvt::sim
