#include <gtest/gtest.h>

#include <functional>

#include "tree/builders.hpp"
#include "tree/canonical.hpp"
#include "tree/tree.hpp"
#include "util/rng.hpp"

namespace rvt::tree {
namespace {

/// True iff automorphism f preserves the port labeling of t.
bool preserves_ports(const Tree& t, const std::vector<NodeId>& f) {
  for (NodeId v = 0; v < t.node_count(); ++v) {
    if (t.degree(f[v]) != t.degree(v)) return false;
    for (Port p = 0; p < t.degree(v); ++p) {
      if (t.neighbor(f[v], p) != f[t.neighbor(v, p)]) return false;
    }
  }
  return true;
}

bool is_identity(const std::vector<NodeId>& f) {
  for (NodeId v = 0; v < static_cast<NodeId>(f.size()); ++v) {
    if (f[v] != v) return false;
  }
  return true;
}

/// Enumerates every port labeling of t's topology (all per-node port
/// permutations) and applies `fn`; aborts early if fn returns false.
void for_all_labelings(const Tree& t, const std::function<bool(const Tree&)>& fn) {
  std::vector<std::vector<Port>> perm(t.node_count());
  for (NodeId v = 0; v < t.node_count(); ++v) {
    perm[v].resize(t.degree(v));
    for (Port p = 0; p < t.degree(v); ++p) perm[v][p] = p;
  }
  std::function<bool(NodeId)> rec = [&](NodeId v) -> bool {
    if (v == t.node_count()) return fn(t.with_ports_permuted(perm));
    std::sort(perm[v].begin(), perm[v].end());
    do {
      if (!rec(v + 1)) return false;
    } while (std::next_permutation(perm[v].begin(), perm[v].end()));
    return true;
  };
  rec(0);
}

/// Definition 1.2 by brute force: some labeling admits a port-preserving
/// automorphism carrying u to v.
bool brute_perfectly_symmetrizable(const Tree& t, NodeId u, NodeId v) {
  const auto autos = enumerate_automorphisms(t);
  bool found = false;
  for_all_labelings(t, [&](const Tree& labeled) {
    for (const auto& f : autos) {
      if (f[u] == v && preserves_ports(labeled, f)) {
        found = true;
        return false;  // stop
      }
    }
    return true;
  });
  return found;
}

TEST(Automorphisms, LineHasExactlyTwo) {
  for (NodeId n : {2, 3, 4, 5, 6}) {
    const auto autos = enumerate_automorphisms(line(n));
    EXPECT_EQ(autos.size(), 2u) << n;  // identity + mirror
  }
}

TEST(Automorphisms, StarHasFactorialMany) {
  EXPECT_EQ(enumerate_automorphisms(star(3)).size(), 6u);
  EXPECT_EQ(enumerate_automorphisms(star(4)).size(), 24u);
}

TEST(Canonizer, TopoIdInvariantUnderPortRelabeling) {
  util::Rng rng(7);
  for (int rep = 0; rep < 10; ++rep) {
    const Tree t = random_attachment(static_cast<NodeId>(3 + rng.index(8)),
                                     rng);
    const Tree u = randomize_ports(t, rng);
    Canonizer cz;
    EXPECT_EQ(cz.topo_id(t, 0, -1), cz.topo_id(u, 0, -1));
  }
}

TEST(Canonizer, TopoIdDistinguishesMarks) {
  const Tree t = line(5);
  Canonizer cz;
  // Marking different mirror-equivalent nodes gives equal ids; marking
  // non-equivalent ones differs.
  EXPECT_EQ(cz.topo_id(t, 2, -1, 0), cz.topo_id(t, 2, -1, 4));
  EXPECT_NE(cz.topo_id(t, 2, -1, 0), cz.topo_id(t, 2, -1, 1));
  EXPECT_NE(cz.topo_id(t, 2, -1, 0), cz.topo_id(t, 2, -1, -1));
}

TEST(Canonizer, PortIdSensitiveToPorts) {
  // Two stars with different port assignments at the center looked at from
  // a leaf: the port codes differ when the labeling differs structurally.
  const Tree s = star(3);
  util::Rng rng(5);
  Canonizer cz;
  const int base = cz.port_id(s, 0, -1);
  EXPECT_EQ(base, cz.port_id(s, 0, -1));  // deterministic
  // Every leaf subtree looks identical.
  EXPECT_EQ(cz.port_id(s, 1, s.port_towards(1, 0)),
            cz.port_id(s, 2, s.port_towards(2, 0)));
}

TEST(CentralSplit, LineHalves) {
  const auto cs = central_split(line(6));
  ASSERT_TRUE(cs.has_value());
  EXPECT_EQ(cs->x, 2);
  EXPECT_EQ(cs->y, 3);
  for (NodeId v = 0; v <= 2; ++v) EXPECT_TRUE(cs->in_x_half[v]);
  for (NodeId v = 3; v <= 5; ++v) EXPECT_FALSE(cs->in_x_half[v]);
  EXPECT_FALSE(central_split(line(5)).has_value());
}

TEST(Symmetry, SymmetricColoredLineIsSymmetric) {
  // Odd edge count + mirror coloring => the mirror preserves ports.
  EXPECT_TRUE(tree_symmetric(line_symmetric_colored(5)));
  EXPECT_TRUE(tree_symmetric(line_symmetric_colored(9)));
  // The default line labeling is NOT mirror symmetric for n = 4 (ports at
  // the central edge differ: 0 at node 1, 1 at node 2).
  EXPECT_FALSE(tree_symmetric(line(4)));
  // Trees with a central node are never symmetric.
  EXPECT_FALSE(tree_symmetric(line(5)));
  EXPECT_FALSE(tree_symmetric(star(4)));
  EXPECT_FALSE(tree_symmetric(complete_binary(2)));
}

TEST(Symmetry, PortSymmetryMapMatchesBruteForce) {
  util::Rng rng(17);
  std::vector<Tree> cases;
  cases.push_back(line_symmetric_colored(5));
  cases.push_back(line(6));
  cases.push_back(line(7));
  cases.push_back(star(3));
  cases.push_back(complete_binary(2));
  {
    const Tree s1 = side_tree(3, 1);
    cases.push_back(two_sided_tree(s1, s1, 2).tree);
    const Tree s2 = side_tree(3, 2);
    cases.push_back(two_sided_tree(s1, s2, 2).tree);
  }
  for (const auto& t : cases) {
    if (t.node_count() > 10) continue;
    const auto f = port_symmetry_map(t);
    const auto autos = enumerate_automorphisms(t);
    bool brute = false;
    std::vector<NodeId> brute_map;
    for (const auto& g : autos) {
      if (!is_identity(g) && preserves_ports(t, g)) {
        brute = true;
        brute_map = g;
        break;
      }
    }
    EXPECT_EQ(f.has_value(), brute) << t.to_string();
    if (f && brute) {
      EXPECT_EQ(*f, brute_map);
    }
  }
}

TEST(Symmetry, SymmetricPositionsOnColoredLine) {
  const Tree t = line_symmetric_colored(5);  // nodes 0..5
  EXPECT_TRUE(symmetric_positions(t, 0, 5));
  EXPECT_TRUE(symmetric_positions(t, 1, 4));
  EXPECT_TRUE(symmetric_positions(t, 2, 3));
  EXPECT_FALSE(symmetric_positions(t, 0, 4));
  EXPECT_FALSE(symmetric_positions(t, 1, 3));
  EXPECT_TRUE(symmetric_positions(t, 2, 2));  // identity
}

TEST(Symmetrizable, MatchesBruteForceOnSmallTrees) {
  util::Rng rng(29);
  std::vector<Tree> cases;
  for (NodeId n = 2; n <= 7; ++n) cases.push_back(line(n));
  cases.push_back(star(3));
  cases.push_back(spider(3, 1));
  cases.push_back(complete_binary(2));
  for (int rep = 0; rep < 6; ++rep) {
    cases.push_back(random_attachment(static_cast<NodeId>(4 + rep), rng));
  }
  for (const auto& t : cases) {
    if (t.node_count() > 8) continue;
    for (NodeId u = 0; u < t.node_count(); ++u) {
      for (NodeId v = 0; v < t.node_count(); ++v) {
        if (u == v) continue;
        EXPECT_EQ(perfectly_symmetrizable(t, u, v),
                  brute_perfectly_symmetrizable(t, u, v))
            << t.to_string() << " u=" << u << " v=" << v;
      }
    }
  }
}

TEST(Symmetrizable, KnownCases) {
  // Even line: exactly the mirrored pairs.
  const Tree l6 = line(6);
  EXPECT_TRUE(perfectly_symmetrizable(l6, 0, 5));
  EXPECT_TRUE(perfectly_symmetrizable(l6, 1, 4));
  EXPECT_TRUE(perfectly_symmetrizable(l6, 2, 3));
  EXPECT_FALSE(perfectly_symmetrizable(l6, 0, 4));
  EXPECT_FALSE(perfectly_symmetrizable(l6, 1, 3));

  // Odd line: central node => no symmetrizable pair (paper §1).
  const Tree l7 = line(7);
  for (NodeId u = 0; u < 7; ++u) {
    for (NodeId v = u + 1; v < 7; ++v) {
      EXPECT_FALSE(perfectly_symmetrizable(l7, u, v));
    }
  }

  // Complete binary tree: central node => none, even topologically
  // symmetric leaves (paper §1).
  const Tree cb = complete_binary(2);
  EXPECT_FALSE(perfectly_symmetrizable(cb, 3, 4));  // sibling leaves

  // Identity positions are rejected.
  EXPECT_THROW(perfectly_symmetrizable(l6, 2, 2), std::invalid_argument);
}

TEST(Symmetrizable, TwoSidedTrees) {
  const Tree s1 = side_tree(4, 0b011);
  const Tree s2 = side_tree(4, 0b110);
  const auto sym = two_sided_tree(s1, s1, 2);
  EXPECT_TRUE(perfectly_symmetrizable(sym.tree, sym.u, sym.v));
  // The built labeling is itself symmetric for the T1+T1 instance.
  EXPECT_TRUE(symmetric_positions(sym.tree, sym.u, sym.v));

  const auto asym = two_sided_tree(s1, s2, 2);
  EXPECT_FALSE(perfectly_symmetrizable(asym.tree, asym.u, asym.v));
  EXPECT_FALSE(symmetric_positions(asym.tree, asym.u, asym.v));
}

TEST(Symmetrizable, RequiresOppositeHalves) {
  const Tree l8 = line(8);
  // Nodes in the same half are never symmetrizable.
  EXPECT_FALSE(perfectly_symmetrizable(l8, 0, 3));
  EXPECT_FALSE(perfectly_symmetrizable(l8, 1, 2));
}

TEST(Symmetrizable, PerTreeFormMatchesPerPairPredicate) {
  // Every labeling of the line battery (make_line_battery(20)), seeded
  // random trees with n <= 12 and mirrored two-sided trees, so both
  // answers occur.
  std::vector<Tree> cases;
  for (NodeId n = 3; n <= 20; ++n) {
    cases.push_back(line(n));
    cases.push_back(line_edge_colored(n, 0));
    cases.push_back(line_edge_colored(n, 1));
    if (n % 2 == 0) cases.push_back(line_symmetric_colored(n - 1));
  }
  util::Rng rng(0x5e77);
  for (int rep = 0; rep < 40; ++rep) {
    const auto n = static_cast<NodeId>(2 + rng.index(11));
    cases.push_back(randomize_ports(random_attachment(n, rng), rng));
  }
  for (std::uint64_t mask = 0; mask < 8; ++mask) {
    const Tree side = side_tree(4, mask);
    cases.push_back(two_sided_tree(side, side, 2 + 2 * (mask % 2)).tree);
  }
  std::size_t pairs = 0, symmetrizable = 0;
  for (const Tree& t : cases) {
    const SymmetrizablePairs per_tree(t);
    for (NodeId u = 0; u < t.node_count(); ++u) {
      for (NodeId v = 0; v < t.node_count(); ++v) {
        if (u == v) continue;
        const bool want = perfectly_symmetrizable(t, u, v);
        EXPECT_EQ(per_tree(u, v), want)
            << t.to_string() << " u=" << u << " v=" << v;
        ++pairs;
        symmetrizable += want ? 1 : 0;
      }
    }
    EXPECT_THROW(per_tree(0, 0), std::invalid_argument);
  }
  EXPECT_GT(symmetrizable, 100u);
  EXPECT_GT(pairs - symmetrizable, 1000u);
}

TEST(Automorphisms, GuardsLargeTrees) {
  EXPECT_THROW(enumerate_automorphisms(line(11)), std::invalid_argument);
}

}  // namespace
}  // namespace rvt::tree
