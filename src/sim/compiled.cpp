#include "sim/compiled.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "sim/verify_core.hpp"

namespace rvt::sim {

CompiledConfigEngine::CompiledConfigEngine(const tree::Tree& t,
                                           const TabularAutomaton& a)
    : tree_(&t), n_(t.node_count()) {
  if (n_ < 2) {
    throw std::invalid_argument("CompiledConfigEngine: need >= 2 nodes");
  }
  a.validate();
  if (t.max_degree() > a.max_degree) {
    throw std::invalid_argument(
        "CompiledConfigEngine: tree degree exceeds the automaton's model");
  }
  if (n_ >= (1 << 24)) {  // nbrev_ packs the neighbor into 24 bits
    throw std::invalid_argument("CompiledConfigEngine: tree too large");
  }
  // Flatten the substrate: the orbit walk is the hot loop of every
  // certification, and the generic Tree accessors cost several
  // indirections per step. nbrev_ packs (neighbor << 8 | reverse_port)
  // into one load (ports fit 8 bits: max_degree <= 255 by validate()).
  max_deg_ = a.max_degree;
  deg_.resize(static_cast<std::size_t>(n_));
  nbrev_.resize(static_cast<std::size_t>(n_) * max_deg_);
  for (tree::NodeId v = 0; v < n_; ++v) {
    const int d = t.degree(v);
    deg_[v] = static_cast<std::uint8_t>(d);
    for (tree::Port p = 0; p < d; ++p) {
      nbrev_[static_cast<std::size_t>(v) * max_deg_ + p] =
          (static_cast<std::uint32_t>(t.neighbor(v, p)) << 8) |
          static_cast<std::uint32_t>(t.reverse_port(v, p));
    }
  }
  orbits_.resize(static_cast<std::size_t>(n_));
  orbit_epoch_.assign(static_cast<std::size_t>(n_), 0);
  node_positions_.resize(static_cast<std::size_t>(n_));
  if (n_ <= kCollisionIndexMaxN) {
    const std::size_t nn = static_cast<std::size_t>(n_) * n_;
    cindex_epoch_.assign(nn, 0);
    cindex_slot_.resize(nn);
  }
  bind_automaton(a, a.port_oblivious());
}

void CompiledConfigEngine::rebind(const TabularAutomaton& a) {
  a.validate();
  rebind_validated(a, a.port_oblivious());
}

void CompiledConfigEngine::rebind_validated(const TabularAutomaton& a,
                                            bool port_oblivious) {
  ++epoch_;  // cached orbits belong to the previous automaton
  bind_automaton(a, port_oblivious);
}

void CompiledConfigEngine::bind_automaton(const TabularAutomaton& a,
                                          bool port_oblivious) {
  if (a.max_degree != max_deg_) {
    throw std::invalid_argument(
        "CompiledConfigEngine: rebind must keep max_degree (the substrate "
        "tables are laid out per degree)");
  }
  if (a.num_states() >= (1 << 23)) {
    throw std::invalid_argument("CompiledConfigEngine: too many states");
  }
  automaton_ = a;
  // Pre-reduce the action per (state, degree): lambda[s] mod d, or -1 for
  // kStay — the walk then indexes actd_ instead of dividing per step.
  const int K = automaton_.num_states();
  actd_.resize(static_cast<std::size_t>(K) * max_deg_);
  for (int s = 0; s < K; ++s) {
    const int act = automaton_.lambda[s];
    for (int d = 1; d <= max_deg_; ++d) {
      actd_[static_cast<std::size_t>(s) * max_deg_ + (d - 1)] =
          act == kStay ? -1 : (act < d ? act : act % d);
    }
  }
  port_slots_ = port_oblivious ? 1 : max_deg_ + 1;
  const std::uint64_t walk_space = static_cast<std::uint64_t>(
                                       automaton_.num_states()) *
                                   2 * static_cast<std::uint64_t>(n_) *
                                   static_cast<std::uint64_t>(port_slots_);
  if (walk_space > (std::uint64_t{1} << 31)) {
    throw std::invalid_argument(
        "CompiledConfigEngine: state space too large");
  }
  if (walk_space > stamps_.size()) {
    stamps_.resize(walk_space);  // new slots start with epoch 0 (unstamped)
  }
}

std::uint64_t CompiledConfigEngine::num_configs() const {
  return static_cast<std::uint64_t>(automaton_.num_states()) * 2 *
         static_cast<std::uint64_t>(n_) *
         static_cast<std::uint64_t>(max_deg_ + 1);
}

std::uint64_t CompiledConfigEngine::stamp_entries(const tree::Tree& t,
                                                  const TabularAutomaton& a) {
  const std::uint64_t slots = a.port_oblivious() ? 1 : a.max_degree + 1;
  return static_cast<std::uint64_t>(a.num_states()) * 2 *
         static_cast<std::uint64_t>(t.node_count()) * slots;
}

// Splice `out` — whose own prefix (hit_index steps) is already recorded in
// out.node/out.in_port — into completed orbit `host`, hit at host step
// hit_j. At the merge step itself the walker keeps ITS OWN entry port
// (`seam_port`: under the oblivious projection the port is determined by
// the predecessor pair, and the walker's predecessor differs from the
// host's; in the full-configuration walk the ports coincide anyway); from
// the next step on the host's records apply. The final seam comparison
// decides whether full-configuration periodicity starts at sn_mu or one
// step later.
void CompiledConfigEngine::finalize_merged(Orbit& out, const Orbit& host,
                                           std::uint64_t hit_index,
                                           std::uint32_t hit_j,
                                           std::int16_t seam_port) const {
  out.lambda = host.lambda;
  out.sn_mu = hit_index + (host.sn_mu > hit_j ? host.sn_mu - hit_j : 0);
  out.cycle_root = host.cycle_root;
  // This orbit enters the cycle at host step max(hit_j, host.sn_mu).
  out.cycle_phase =
      (host.cycle_phase + (std::max<std::uint64_t>(hit_j, host.sn_mu) -
                           host.sn_mu)) %
      host.lambda;
  const std::uint64_t need = out.sn_mu + out.lambda + 1;
  std::uint64_t m = hit_j;  // rolling index into the host's arrays
  for (std::uint64_t i = hit_index; i < need; ++i) {
    out.node.push_back(host.node[m]);
    out.in_port.push_back(i == hit_index ? seam_port : host.in_port[m]);
    if (++m == host.node.size()) m = host.mu;
  }
  if (out.in_port[out.sn_mu] == out.in_port[out.sn_mu + out.lambda]) {
    out.mu = out.sn_mu;
    out.node.pop_back();
    out.in_port.pop_back();
  } else {
    out.mu = out.sn_mu + 1;
  }
}

// One stamped walk over the autonomous projection — (signature, node) for
// port-oblivious automata, the full (signature, node, entry port)
// configuration otherwise — recovers the full rho form in exactly
// mu + lambda + 1 steps: the walk stops at the first already-visited
// point. A point stamped by THIS walk closes the cycle (sn_mu = first
// visit, lambda = index gap); a point stamped by an EARLIER orbit of the
// same epoch means the trajectory merged into that orbit, whose cycle is
// inherited wholesale. Under the oblivious projection the entry port is
// determined by the predecessor pair, so full-configuration periodicity
// starts at sn_mu or one step later — decided by comparing the entry
// ports at the two ends of the seam. When the walked space is the full
// configuration the seam comparison is an equality by construction and
// mu == sn_mu.
void CompiledConfigEngine::extract_orbit(tree::NodeId start,
                                         Orbit& out) const {
  // Stepper over an unpacked (sig, node, in_port) configuration, reading
  // only the flattened tables.
  struct Conf {
    std::int32_t sig;
    tree::NodeId node;
    tree::Port in_port;
  };
  const std::uint8_t* deg = deg_.data();
  const std::uint32_t* nbrev = nbrev_.data();
  const int* delta = automaton_.delta.data();
  const std::int32_t* actd = actd_.data();
  const std::int32_t D = max_deg_;
  const auto step = [deg, nbrev, delta, actd, D](const Conf& c) {
    const int d = deg[c.node];
    const std::int32_t s2 =
        (c.sig & 1)
            ? (c.sig >> 1)
            : delta[(static_cast<std::size_t>(c.sig >> 1) * (D + 1) +
                     (c.in_port + 1)) *
                        D +
                    (d - 1)];
    const int outp = actd[static_cast<std::size_t>(s2) * D + (d - 1)];
    if (outp < 0) return Conf{s2 << 1, c.node, -1};
    const std::uint32_t packed =
        nbrev[static_cast<std::size_t>(c.node) * D + outp];
    return Conf{s2 << 1, static_cast<tree::NodeId>(packed >> 8),
                static_cast<tree::Port>(packed & 255)};
  };

  ++extracted_count_;
  out.node.clear();
  out.in_port.clear();
  Conf cur{(automaton_.initial << 1) | 1, start, -1};
  const std::uint32_t self = static_cast<std::uint32_t>(start);
  const std::uint32_t sig_span =
      static_cast<std::uint32_t>(automaton_.num_states()) * 2;
  const std::int32_t pslots = port_slots_;
  std::uint64_t hit_index = 0;
  std::uint32_t hit_owner = 0, hit_j = 0;
  for (std::uint64_t i = 0;; ++i) {
    const std::int32_t pslot = pslots == 1 ? 0 : cur.in_port + 1;
    Stamp& stamp = stamps_[(static_cast<std::size_t>(cur.node) * pslots +
                            pslot) *
                               sig_span +
                           cur.sig];
    if (stamp.epoch == epoch_) {
      hit_index = i;
      hit_owner = stamp.owner;
      hit_j = stamp.index;
      break;
    }
    stamp = {epoch_, self, static_cast<std::uint32_t>(i)};
    out.node.push_back(cur.node);
    out.in_port.push_back(static_cast<std::int16_t>(cur.in_port));
    cur = step(cur);
  }

  if (hit_owner == self) {
    out.sn_mu = hit_j;
    out.lambda = hit_index - hit_j;
    out.cycle_root = self;
    out.cycle_phase = 0;
    if (static_cast<tree::Port>(out.in_port[out.sn_mu]) == cur.in_port) {
      out.mu = out.sn_mu;
    } else {
      out.mu = out.sn_mu + 1;
      out.node.push_back(cur.node);  // == node[sn_mu]: same projection pair
      out.in_port.push_back(static_cast<std::int16_t>(cur.in_port));
    }
  } else {
    // Merged into orbit `hit_owner` at its step hit_j after hit_index own
    // steps: inherit its cycle and splice the tail.
    finalize_merged(out, orbits_[hit_owner], hit_index, hit_j,
                    static_cast<std::int16_t>(cur.in_port));
  }
}

std::span<const std::uint8_t> CompiledConfigEngine::cycle_pair_collisions(
    std::uint32_t root_a, std::uint32_t root_b) const {
  const std::size_t ckey =
      static_cast<std::size_t>(root_a) * n_ + root_b;
  const bool dense = !cindex_epoch_.empty();
  if (dense && cindex_epoch_[ckey] == epoch_) {
    return collision_[cindex_slot_[ckey]].table;
  }
  CyclePair* slot = nullptr;
  std::size_t slot_index = 0;
  if (dense) {
    // The dense index is authoritative: a miss means the pair is not
    // built this epoch — recycle any stale entry without scanning.
    for (std::size_t i = 0; i < collision_.size(); ++i) {
      if (collision_[i].epoch != epoch_) {
        slot = &collision_[i];
        slot_index = i;
        break;
      }
    }
  } else {
    for (std::size_t i = 0; i < collision_.size(); ++i) {
      CyclePair& p = collision_[i];
      if (p.epoch == epoch_) {
        if (p.root_a == root_a && p.root_b == root_b) return p.table;
      } else if (slot == nullptr) {
        slot = &p;  // recycle a stale slot (keeps its table capacity)
        slot_index = i;
      }
    }
  }
  if (slot == nullptr) {
    slot_index = collision_.size();
    slot = &collision_.emplace_back();
  }
  slot->root_a = root_a;
  slot->root_b = root_b;
  slot->epoch = epoch_;
  if (dense) {
    cindex_epoch_[ckey] = epoch_;
    cindex_slot_[ckey] = static_cast<std::uint32_t>(slot_index);
  }
  auto& table = slot->table;
  table.clear();
  const Orbit& ra = orbit(static_cast<tree::NodeId>(root_a));
  const Orbit& rb = orbit(static_cast<tree::NodeId>(root_b));
  const std::uint64_t la = ra.lambda, lb = rb.lambda;
  if (la > kCollisionLimit || lb > kCollisionLimit) {
    return table;  // empty: callers scan
  }
  const std::uint64_t g = la == lb ? la : std::gcd(la, lb);
  const tree::NodeId* cyc_a = ra.node.data() + ra.sn_mu;
  const tree::NodeId* cyc_b = rb.node.data() + rb.sn_mu;
  // Mark every alignment class (i - j mod g) that co-locates position i
  // of cycle a with position j of cycle b. The build is quadratic in
  // per-node occupancy; degenerate cycles (e.g. stay-heavy automata
  // parked on one node) would cost more than the scans the table saves,
  // so give up beyond a linear budget and leave the table empty —
  // callers then fall back to scanning.
  const std::uint64_t budget = 8 * (la + lb) + 64;
  table.assign(g, 0);
  for (std::uint64_t j = 0; j < lb; ++j) {
    node_positions_[cyc_b[j]].push_back(static_cast<std::uint32_t>(j % g));
  }
  bool aborted = false;
  std::uint64_t marks = 0;
  std::uint32_t im = 0;  // i mod g, maintained incrementally
  for (std::uint64_t i = 0; i < la; ++i) {
    const auto& positions = node_positions_[cyc_a[i]];
    marks += positions.size();
    if (marks > budget) {
      aborted = true;
      break;
    }
    for (const std::uint32_t jm : positions) {
      table[im >= jm ? im - jm : im + g - jm] = 1;
    }
    if (++im == g) im = 0;
  }
  for (std::uint64_t j = 0; j < lb; ++j) {
    node_positions_[cyc_b[j]].clear();
  }
  if (aborted) table.clear();
  return table;
}

const CompiledConfigEngine::Orbit& CompiledConfigEngine::orbit(
    tree::NodeId start) const {
  if (start < 0 || start >= n_) {
    throw std::invalid_argument("CompiledConfigEngine::orbit: bad start");
  }
  const std::size_t slot = static_cast<std::size_t>(start);
  if (orbit_epoch_[slot] != epoch_) {
    extract_orbit(start, orbits_[slot]);
    orbit_epoch_[slot] = epoch_;
  }
  return orbits_[slot];
}

void CompiledConfigEngine::warm_orbits(
    std::span<const tree::NodeId> starts) const {
  for (const tree::NodeId start : starts) orbit(start);
}

std::shared_ptr<const CompiledConfigEngine::OrbitSet>
CompiledConfigEngine::snapshot_orbits() const {
  auto set = std::make_shared<OrbitSet>();
  const std::size_t n = static_cast<std::size_t>(n_);
  set->orbits.resize(n);
  set->has_orbit.assign(n, 0);
  std::size_t bytes = sizeof(OrbitSet) + n * (sizeof(Orbit) + 1);
  for (std::size_t s = 0; s < n; ++s) {
    if (orbit_epoch_[s] != epoch_) continue;
    Orbit& dst = set->orbits[s];
    dst = orbits_[s];
    // The set format carries each orbit's first-visit table, which the
    // engine's own orbits do not keep.
    dst.first_visit.assign(n, Orbit::kNever);
    for (std::uint32_t k = 0; k < dst.node.size(); ++k) {
      std::uint32_t& fv = dst.first_visit[dst.node[k]];
      if (fv == Orbit::kNever) fv = k;
    }
    set->has_orbit[s] = 1;
    bytes += dst.node.size() * sizeof(tree::NodeId) +
             dst.in_port.size() * sizeof(std::int16_t) +
             dst.first_visit.size() * sizeof(std::uint32_t);
  }
  if (!cindex_epoch_.empty()) {
    set->collision_index.assign(static_cast<std::size_t>(n_) * n_, -1);
  }
  std::size_t live = 0;
  for (const CyclePair& p : collision_) {
    live += p.epoch == epoch_ ? 1 : 0;
  }
  set->collisions.reserve(live);
  for (const CyclePair& p : collision_) {
    if (p.epoch == epoch_) {
      if (!set->collision_index.empty()) {
        set->collision_index[static_cast<std::size_t>(p.root_a) * n_ +
                             p.root_b] =
            static_cast<std::int32_t>(set->collisions.size());
      }
      set->collisions.push_back(p);
      bytes += sizeof(CyclePair) + p.table.size();
    }
  }
  bytes += set->collision_index.size() * sizeof(std::int32_t);
  set->bytes = bytes;
  return set;
}

Verdict verify_never_meet_compiled(const CompiledConfigEngine& engine_a,
                                   const CompiledConfigEngine& engine_b,
                                   const RunConfig& cfg) {
  if (&engine_a.tree() != &engine_b.tree()) {
    throw std::invalid_argument(
        "verify_never_meet_compiled: engines over different trees");
  }
  if (cfg.max_rounds == 0) {
    throw std::invalid_argument(
        "verify_never_meet_compiled: max_rounds must be > 0");
  }
  const tree::Tree& t = engine_a.tree();
  if (cfg.start_a < 0 || cfg.start_a >= t.node_count() || cfg.start_b < 0 ||
      cfg.start_b >= t.node_count()) {
    throw std::invalid_argument("verify_never_meet_compiled: start range");
  }
  if (cfg.start_a == cfg.start_b) {
    throw std::invalid_argument(
        "verify_never_meet_compiled: starts must differ");
  }
  const bool same_engine = &engine_a == &engine_b;
  const auto& A = engine_a.orbit(cfg.start_a);
  const auto& B = engine_b.orbit(cfg.start_b);
  return detail::verify_pair_core(engine_a, A, B, same_engine, cfg.delay_a,
                                  cfg.delay_b, cfg.max_rounds);
}

GatherVerdict verify_never_gather_compiled(
    const CompiledConfigEngine& engine, std::span<const tree::NodeId> starts,
    std::span<const std::uint64_t> delays, std::uint64_t max_rounds) {
  const std::size_t k = starts.size();
  if (k < 2) {
    throw std::invalid_argument(
        "verify_never_gather_compiled: need >= 2 agents");
  }
  if (k > kMaxGatherAgents) {
    throw std::invalid_argument(
        "verify_never_gather_compiled: too many agents");
  }
  if (!delays.empty() && delays.size() != k) {
    throw std::invalid_argument(
        "verify_never_gather_compiled: delays size mismatch");
  }
  if (max_rounds == 0) {
    throw std::invalid_argument(
        "verify_never_gather_compiled: max_rounds must be > 0");
  }
  const tree::NodeId n = engine.tree().node_count();
  for (const tree::NodeId s : starts) {
    if (s < 0 || s >= n) {
      throw std::invalid_argument(
          "verify_never_gather_compiled: start out of range");
    }
  }
  const CompiledConfigEngine::Orbit* orbs[kMaxGatherAgents];
  for (std::size_t i = 0; i < k; ++i) orbs[i] = &engine.orbit(starts[i]);
  const std::uint64_t zeros[kMaxGatherAgents] = {};
  return detail::gather_with_state(
      detail::make_tuple_state(engine, orbs, starts.data(), k),
      delays.empty() ? zeros : delays.data(), max_rounds);
}

std::vector<Verdict> verify_grid(const CompiledConfigEngine& engine_a,
                                 const CompiledConfigEngine& engine_b,
                                 std::span<const PairQuery> queries,
                                 std::uint64_t max_rounds) {
  if (&engine_a.tree() != &engine_b.tree()) {
    throw std::invalid_argument("verify_grid: engines over different trees");
  }
  if (max_rounds == 0) {
    throw std::invalid_argument("verify_grid: max_rounds must be > 0");
  }
  const tree::NodeId n = engine_a.tree().node_count();
  for (const PairQuery& q : queries) {
    if (q.start_a < 0 || q.start_a >= n || q.start_b < 0 || q.start_b >= n) {
      throw std::invalid_argument("verify_grid: start range");
    }
    if (q.start_a == q.start_b) {
      throw std::invalid_argument("verify_grid: starts must differ");
    }
  }
  const bool same_engine = &engine_a == &engine_b;
  std::vector<Verdict> out(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const PairQuery& q = queries[i];
    const auto& A = engine_a.orbit(q.start_a);
    const auto& B = engine_b.orbit(q.start_b);
    out[i] = detail::verify_pair_core(engine_a, A, B, same_engine, q.delay_a,
                                      q.delay_b, max_rounds);
  }
  return out;
}

}  // namespace rvt::sim
