#include "tree/canonical.hpp"

#include <algorithm>
#include <queue>
#include <stdexcept>
#include <utility>

#include "tree/center.hpp"

namespace rvt::tree {

namespace {
constexpr std::int64_t kTagTopo = 0;
constexpr std::int64_t kTagPort = 1;
}  // namespace

int Canonizer::intern(std::vector<std::int64_t> key) {
  auto [it, inserted] = table_.try_emplace(std::move(key), next_);
  if (inserted) ++next_;
  return it->second;
}

int Canonizer::topo_id(const Tree& t, NodeId root, NodeId parent,
                       NodeId marked) {
  // Iterative post-order; recursion would overflow on long paths.
  struct Frame {
    NodeId node;
    NodeId parent;
    std::size_t next_port = 0;
    std::vector<int> child_ids;
  };
  std::vector<Frame> stack;
  stack.push_back({root, parent, 0, {}});
  int result = -1;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const int d = t.degree(f.node);
    bool descended = false;
    while (f.next_port < static_cast<std::size_t>(d)) {
      const Port p = static_cast<Port>(f.next_port++);
      const NodeId c = t.neighbor(f.node, p);
      if (c == f.parent) continue;
      stack.push_back({c, f.node, 0, {}});
      descended = true;
      break;
    }
    if (descended) continue;
    std::sort(f.child_ids.begin(), f.child_ids.end());
    std::vector<std::int64_t> key;
    key.reserve(f.child_ids.size() + 2);
    key.push_back(kTagTopo);
    key.push_back(f.node == marked ? 1 : 0);
    for (int id : f.child_ids) key.push_back(id);
    const int id = intern(std::move(key));
    stack.pop_back();
    if (stack.empty()) {
      result = id;
    } else {
      stack.back().child_ids.push_back(id);
    }
  }
  return result;
}

int Canonizer::port_id(const Tree& t, NodeId root, Port parent_port,
                       NodeId marked) {
  struct Frame {
    NodeId node;
    Port parent_port;
    std::size_t next_port = 0;
    std::vector<std::int64_t> parts;  // p, reverse_port, child_id triples
  };
  std::vector<Frame> stack;
  stack.push_back({root, parent_port, 0, {}});
  int result = -1;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const int d = t.degree(f.node);
    bool descended = false;
    while (f.next_port < static_cast<std::size_t>(d)) {
      const Port p = static_cast<Port>(f.next_port++);
      if (p == f.parent_port) continue;
      f.parts.push_back(p);
      f.parts.push_back(t.reverse_port(f.node, p));
      stack.push_back({t.neighbor(f.node, p), t.reverse_port(f.node, p), 0,
                       {}});
      descended = true;
      break;
    }
    if (descended) continue;
    std::vector<std::int64_t> key;
    key.reserve(f.parts.size() + 4);
    key.push_back(kTagPort);
    key.push_back(f.node == marked ? 1 : 0);
    key.push_back(d);
    key.push_back(f.parent_port);
    for (std::int64_t x : f.parts) key.push_back(x);
    const int id = intern(std::move(key));
    stack.pop_back();
    if (stack.empty()) {
      result = id;
    } else {
      stack.back().parts.push_back(id);
    }
  }
  return result;
}

std::optional<CentralSplit> central_split(const Tree& t) {
  const Center c = find_center(t);
  if (!c.has_edge()) return std::nullopt;
  CentralSplit s;
  s.x = c.edge->first;
  s.y = c.edge->second;
  s.port_x = t.port_towards(s.x, s.y);
  s.port_y = t.port_towards(s.y, s.x);
  s.in_x_half.assign(t.node_count(), 0);
  std::queue<NodeId> q;
  q.push(s.x);
  s.in_x_half[s.x] = 1;
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    for (Port p = 0; p < t.degree(v); ++p) {
      const NodeId w = t.neighbor(v, p);
      if (w == s.y && v == s.x) continue;  // don't cross the central edge
      if (!s.in_x_half[w]) {
        s.in_x_half[w] = 1;
        q.push(w);
      }
    }
  }
  return s;
}

std::optional<std::vector<NodeId>> port_symmetry_map(const Tree& t) {
  const auto cs = central_split(t);
  if (!cs) return std::nullopt;  // central node => cannot be symmetric
  if (cs->port_x != cs->port_y) return std::nullopt;
  Canonizer cz;
  const int idx = cz.port_id(t, cs->x, cs->port_x);
  const int idy = cz.port_id(t, cs->y, cs->port_y);
  if (idx != idy) return std::nullopt;

  // The port-preserving isomorphism between the halves is unique: pair
  // children port by port.
  std::vector<NodeId> f(t.node_count(), -1);
  struct Pair {
    NodeId a, b;
    Port pa, pb;  // parent ports at a and b
  };
  std::vector<Pair> stack{{cs->x, cs->y, cs->port_x, cs->port_y}};
  f[cs->x] = cs->y;
  f[cs->y] = cs->x;
  while (!stack.empty()) {
    const Pair pr = stack.back();
    stack.pop_back();
    if (t.degree(pr.a) != t.degree(pr.b)) return std::nullopt;
    for (Port p = 0; p < t.degree(pr.a); ++p) {
      if (p == pr.pa) continue;
      if (p == pr.pb) return std::nullopt;  // parent ports must coincide
      const NodeId a2 = t.neighbor(pr.a, p);
      const NodeId b2 = t.neighbor(pr.b, p);
      const Port ra = t.reverse_port(pr.a, p);
      const Port rb = t.reverse_port(pr.b, p);
      if (ra != rb) return std::nullopt;
      f[a2] = b2;
      f[b2] = a2;
      stack.push_back({a2, b2, ra, rb});
    }
  }
  return f;
}

bool tree_symmetric(const Tree& t) { return port_symmetry_map(t).has_value(); }

bool symmetric_positions(const Tree& t, NodeId u, NodeId v) {
  if (u == v) return true;
  const auto f = port_symmetry_map(t);
  return f && (*f)[u] == v;
}

namespace {

/// Topological id of `node`'s half of the central split, rooted at the
/// half's central endpoint and marked at `node`.
int marked_half_id(const Tree& t, const CentralSplit& cs, Canonizer& cz,
                   NodeId node) {
  return cs.in_x_half[node] ? cz.topo_id(t, cs.x, cs.y, node)
                            : cz.topo_id(t, cs.y, cs.x, node);
}

void require_distinct(NodeId u, NodeId v) {
  if (u == v) {
    throw std::invalid_argument(
        "perfectly_symmetrizable: initial positions must differ");
  }
}

}  // namespace

bool perfectly_symmetrizable(const Tree& t, NodeId u, NodeId v) {
  require_distinct(u, v);
  const auto cs = central_split(t);
  if (!cs) return false;  // central node: every automorphism would fix it
  if (cs->in_x_half[u] == cs->in_x_half[v]) return false;
  Canonizer cz;
  return marked_half_id(t, *cs, cz, u) == marked_half_id(t, *cs, cz, v);
}

SymmetrizablePairs::SymmetrizablePairs(const Tree& t) {
  auto cs = central_split(t);
  if (!cs) return;
  Canonizer cz;
  half_id_.resize(static_cast<std::size_t>(t.node_count()));
  for (NodeId v = 0; v < t.node_count(); ++v) {
    half_id_[v] = marked_half_id(t, *cs, cz, v);
  }
  in_x_half_ = std::move(cs->in_x_half);
}

bool SymmetrizablePairs::operator()(NodeId u, NodeId v) const {
  require_distinct(u, v);
  return !in_x_half_.empty() && in_x_half_[u] != in_x_half_[v] &&
         half_id_[u] == half_id_[v];
}

namespace {
void extend_automorphism(const Tree& t, const std::vector<NodeId>& order,
                         std::size_t k, std::vector<NodeId>& f,
                         std::vector<char>& used,
                         const std::vector<NodeId>& bfs_parent,
                         std::vector<std::vector<NodeId>>& out) {
  if (k == order.size()) {
    out.push_back(f);
    return;
  }
  const NodeId a = order[k];
  const NodeId pa = bfs_parent[a];
  for (NodeId img = 0; img < t.node_count(); ++img) {
    if (used[img] || t.degree(img) != t.degree(a)) continue;
    if (pa >= 0 && t.port_towards(f[pa], img) < 0) continue;  // adjacency
    f[a] = img;
    used[img] = 1;
    extend_automorphism(t, order, k + 1, f, used, bfs_parent, out);
    used[img] = 0;
    f[a] = -1;
  }
}
}  // namespace

std::vector<std::vector<NodeId>> enumerate_automorphisms(const Tree& t) {
  const NodeId n = t.node_count();
  if (n > 10) {
    throw std::invalid_argument("enumerate_automorphisms: n <= 10 only");
  }
  std::vector<NodeId> order, bfs_parent(n, -1);
  std::vector<char> seen(n, 0);
  std::queue<NodeId> q;
  q.push(0);
  seen[0] = 1;
  while (!q.empty()) {
    const NodeId v = q.front();
    q.pop();
    order.push_back(v);
    for (Port p = 0; p < t.degree(v); ++p) {
      const NodeId w = t.neighbor(v, p);
      if (!seen[w]) {
        seen[w] = 1;
        bfs_parent[w] = v;
        q.push(w);
      }
    }
  }
  std::vector<NodeId> f(n, -1);
  std::vector<char> used(n, 0);
  std::vector<std::vector<NodeId>> out;
  extend_automorphism(t, order, 0, f, used, bfs_parent, out);
  return out;
}

}  // namespace rvt::tree
