// Compiled joint-configuration engine for tabular automata (perf core of
// the lower-bound certification pipeline).
//
// A TabularAutomaton on ANY port-labeled tree has a finite single-agent
// configuration space
//     (state, first-step flag, node, entry port)  —  at most K*2*n*(D+1)
// points, and its dynamics is a deterministic self-map F of that space. A
// single-agent trajectory is therefore a rho-shaped orbit (tail of length
// mu followed by a cycle of length lambda); the engine extracts it with a
// stamped walk over F and caches it per start node. F itself is compiled
// ahead of the walk: the tree's adjacency and the automaton's transition
// tables are flattened into contiguous successor arrays (per-(node, port)
// and per-(state, entry port, degree)), so one orbit step is a handful of
// indexed loads with no virtual dispatch, no Observation construction and
// no snapshot hashing. Entry-port-oblivious automata — every line
// automaton, every lifted victim — keep the smaller (state, node)
// projection the original line engine walked (the entry port is then a
// function of the predecessor configuration); port-sensitive automata walk
// the full space. (A dense per-configuration successor table was
// benchmarked here and rejected: it costs O(space) per automaton rebind
// while a whole battery of queries only ever touches the reachable orbits,
// which are far smaller. So was an 8-lane batched stepper with AVX2
// gathers: one walk per start beat it on every shape measured, since the
// walks are short and each stops at the first configuration an earlier
// orbit stamped.)
//
// Joint two-agent verification needs no joint stepping at all: the two
// agents evolve independently, so the joint configuration sequence observed
// by the legacy verifier (lowerbound/verify.cpp) is the componentwise pair
// of two rho orbits. Its pre-period and minimal period are
//     mu_joint     = max of the per-agent tails (delay-adjusted)
//     lambda_joint = lcm(lambda_a, lambda_b)
// and a meeting exists iff one occurs in the transient, or two in-cycle
// positions collide on a round compatible modulo gcd(lambda_a, lambda_b).
// The verdict — including the exact round Brent's algorithm in the legacy
// stepper would have certified at, and the exact cycle length it would
// have reported — is reconstructed analytically, so the compiled engine is
// a drop-in replacement validated field-for-field by differential tests.
// Start delays only shift the alignment of the two orbits, so sweeping a
// whole (start-pair x delay) grid against one engine re-uses every orbit;
// verify_grid() answers such grids in query order, and
// sim/enumeration.hpp fuses rebind + grid for exhaustive batteries.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "sim/automaton.hpp"
#include "sim/simulator.hpp"
#include "sim/verdict.hpp"
#include "tree/tree.hpp"

namespace rvt::sim {

/// Compiled dynamics + per-start orbit cache for one (tree, automaton)
/// pair. Reuse the same engine across many start pairs and delays (e.g.
/// the E10/E11 batteries) — orbits are computed once per start node — and
/// rebind() it to sweep automata over a fixed tree without reallocating.
/// Lazy caches make the engine non-thread-safe: use one engine per sweep
/// worker.
class CompiledConfigEngine {
 public:
  /// Throws std::invalid_argument if the automaton is malformed, the tree
  /// has fewer than 2 nodes, or the tree's max degree exceeds the
  /// automaton's (the table has no entries for such inputs). The tree
  /// reference must outlive the engine; the automaton is copied.
  CompiledConfigEngine(const tree::Tree& t, const TabularAutomaton& a);

  /// Swaps in a new automaton over the same tree, invalidating cached
  /// orbits (references returned by orbit() become stale) but keeping all
  /// buffer capacity — the zero-allocation path for exhaustive sweeps.
  /// Validates `a` like the constructor.
  void rebind(const TabularAutomaton& a);

  /// rebind() for an automaton its caller has already validated, given
  /// its port_oblivious() value: an enumeration context checks each
  /// binding once, however many grid engines it rebinds. Only the
  /// engine's own limits (same max_degree, state count) are checked.
  void rebind_validated(const TabularAutomaton& a, bool port_oblivious);

  /// rho decomposition of the single-agent orbit from a start node:
  /// node[k] is the node occupied after k steps (node[0] == start), stored
  /// for the tail and one full cycle (mu + lambda entries). The tail is
  /// never empty (the initial "first step pending" configuration cannot
  /// recur), so mu >= 1.
  ///
  /// mu and lambda describe the FULL configuration (incl. entry port). For
  /// port-oblivious automata the walk itself runs over the autonomous
  /// (state, node) projection — the entry port is a function of the
  /// predecessor pair — so sn_mu (the projection's tail, mu or mu - 1) and
  /// the per-step entry ports are kept for orbit-merging bookkeeping; for
  /// port-sensitive automata the walked space IS the full configuration
  /// and sn_mu == mu.
  struct Orbit {
    std::uint64_t mu = 0;
    std::uint64_t lambda = 0;
    std::uint64_t sn_mu = 0;
    /// Cycle identity: start node of the orbit that first walked this
    /// cycle, and this orbit's entry phase in that orbit's cycle
    /// coordinates. Two orbits of one engine share a cycle iff their
    /// cycle_root matches; their relative phase then decides meeting
    /// existence via the per-cycle collision table. (Which start owns a
    /// shared cycle depends on extraction order, but root equality,
    /// phases and collision answers are consistent within an epoch.)
    std::uint32_t cycle_root = 0;
    std::uint64_t cycle_phase = 0;
    /// Payload: cleared (capacity kept) when the slot is re-extracted.
    std::vector<tree::NodeId> node;
    std::vector<std::int16_t> in_port;  ///< entry port after k steps
    /// first_visit[w]: first step at which the orbit occupies node w
    /// (kNever if it never does). Filled only in snapshot_orbits() copies,
    /// for the OrbitSet wire format: the engine's own orbits leave it
    /// empty, since an n-entry table per extracted orbit cost more than
    /// the few lookups a binding makes (see first_step_at).
    std::vector<std::uint32_t> first_visit;
    static constexpr std::uint32_t kNever = ~0u;

    /// First step at which the orbit occupies node w, or kNever: a scan
    /// of the tail plus one cycle, which covers every node the orbit
    /// ever touches.
    std::uint32_t first_step_at(tree::NodeId w) const {
      for (std::size_t k = 0; k < node.size(); ++k) {
        if (node[k] == w) return static_cast<std::uint32_t>(k);
      }
      return kNever;
    }

    tree::NodeId node_at(std::uint64_t k) const {
      return k < node.size()
                 ? node[k]
                 : node[mu + (k - mu) % lambda];
    }
    std::int16_t in_port_at(std::uint64_t k) const {
      return k < in_port.size()
                 ? in_port[k]
                 : in_port[mu + (k - mu) % lambda];
    }
  };

  /// Collision table of one (cycle, cycle) pair, cached per ordered
  /// (cycle_root_a, cycle_root_b): entry c is nonzero iff positions i of
  /// root_a's cycle and j of root_b's cycle with i - j == c (mod g),
  /// g = gcd(lambda_a, lambda_b), put both agents on one node — the O(1)
  /// answer to "can two agents locked into these cycles at a given
  /// alignment ever meet" (once both are in-cycle, their position pair
  /// sweeps exactly the alignment class i - j mod g). A root pair with
  /// root_a == root_b is the classic same-cycle case (g = lambda). An
  /// EMPTY table means the build gave up (degenerate occupancy); callers
  /// fall back to scanning one joint period.
  struct CyclePair {
    std::uint32_t root_a = 0;
    std::uint32_t root_b = 0;
    std::uint32_t epoch = 0;       ///< binding the table belongs to
    std::vector<std::uint8_t> table;  ///< g entries; empty = gave up
  };

  /// An immutable copy of one (tree, automaton) binding's extracted
  /// orbits + collision tables, produced by snapshot_orbits(). The
  /// OrbitCache set API and the OrbitSet wire codec (dist/serialize.hpp)
  /// still carry it; no engine consumes one.
  struct OrbitSet {
    std::vector<Orbit> orbits;            ///< indexed by start node
    std::vector<std::uint8_t> has_orbit;  ///< 1 iff orbits[start] populated
    /// Cycle-pair collision tables (epoch field unused). A pair present
    /// with an empty table means the build gave up.
    std::vector<CyclePair> collisions;
    /// Dense (root_a * n + root_b) -> collisions index (-1 = absent),
    /// present when the tree is small enough (kCollisionIndexMaxN).
    std::vector<std::int32_t> collision_index;
    std::size_t bytes = 0;  ///< approximate footprint, for cache budgeting
  };

  /// Orbit from `start`, built on first use and cached until rebind().
  const Orbit& orbit(tree::NodeId start) const;

  /// orbit(start) for every start in order (duplicates and cached starts
  /// cost nothing); throws std::invalid_argument on an out-of-range start.
  /// Kept only for the benchmark harness's traced probe; the next change
  /// to the benchmark calls orbit() directly and deletes this.
  void warm_orbits(std::span<const tree::NodeId> starts) const;

  /// Copies every extracted orbit and collision table of the current
  /// binding into an OrbitSet. The engine keeps its buffers —
  /// snapshotting does not disturb the zero-allocation rebind loop.
  std::shared_ptr<const OrbitSet> snapshot_orbits() const;

  /// Number of orbits this engine extracted by walking (cached orbits do
  /// not count).
  std::uint64_t orbits_extracted() const { return extracted_count_; }

  const tree::Tree& tree() const { return *tree_; }
  const TabularAutomaton& automaton() const { return automaton_; }
  /// Size of the full configuration space (K * 2 * n * (D+1)); every orbit
  /// satisfies mu + lambda <= num_configs().
  std::uint64_t num_configs() const;
  /// Entries of the visit-stamp table this binding needs — K * 2 * n for a
  /// port-oblivious automaton, K * 2 * n * (D+1) otherwise. The
  /// verification dispatcher budgets on this before building an engine.
  static std::uint64_t stamp_entries(const tree::Tree& t,
                                     const TabularAutomaton& a);

 private:
  /// Flattens an already validated `a` into the successor tables.
  void bind_automaton(const TabularAutomaton& a, bool port_oblivious);
  void extract_orbit(tree::NodeId start, Orbit& out) const;
  /// Splices `out` (whose own prefix of `hit_index` steps is already
  /// recorded) into completed orbit `host`, which it hit at host step
  /// `hit_j` with entry port `seam_port`.
  void finalize_merged(Orbit& out, const Orbit& host, std::uint64_t hit_index,
                       std::uint32_t hit_j, std::int16_t seam_port) const;

  const tree::Tree* tree_;
  TabularAutomaton automaton_;
  std::int32_t n_ = 0;
  std::int32_t max_deg_ = 0;   ///< automaton_.max_degree
  std::int32_t port_slots_ = 1;  ///< stamped entry-port slots: 1 or D+1
  // Flattened successor tables: substrate per (node, port); transitions
  // per (state, entry port, degree) are automaton_.delta itself.
  std::vector<std::uint8_t> deg_;     ///< deg_[v]
  std::vector<std::uint32_t> nbrev_;  ///< (neighbor << 8 | rev_port) per port
  /// Resolved action per (state, degree): lambda[s] reduced mod d, or -1
  /// for kStay — removes the per-step modulo from the walk.
  std::vector<std::int32_t> actd_;
  // Orbit cache, epoch-invalidated by rebind() so slots and their node
  // vectors keep their capacity across automata.
  mutable std::vector<Orbit> orbits_;
  mutable std::vector<std::uint32_t> orbit_epoch_;
  mutable std::uint32_t epoch_ = 1;
  mutable std::uint64_t extracted_count_ = 0;
  // Visit stamps over the walked projection — (state-signature, node) when
  // the automaton is port-oblivious, (state-signature, node, entry port)
  // otherwise — shared by every orbit of the current epoch: a walk stops
  // the moment it touches any already-extracted orbit and inherits that
  // orbit's cycle instead of re-walking it, so each configuration is
  // visited at most once per automaton no matter how many starts are
  // queried.
  struct Stamp {
    std::uint32_t epoch = 0;
    std::uint32_t owner = 0;  ///< start node whose walk stamped this config
    std::uint32_t index = 0;  ///< step index within that walk
  };
  // Node-major layout ((node * port_slots + pslot) * 2K + sig): the node
  // moves by at most one edge per step while the state may jump, so
  // consecutive walk steps touch neighboring blocks — the walk stays
  // cache-resident.
  mutable std::vector<Stamp> stamps_;
  // Cycle-pair collision tables, built lazily per ordered
  // (cycle_root_a, cycle_root_b) and epoch-gated; slots plus their table
  // capacity are recycled across rebinds. On small trees
  // (n <= kCollisionIndexMaxN) the epoch-stamped dense index below makes
  // the lookup O(1) — the battery loops refresh a pair state millions of
  // times per sweep — while large trees fall back to a linear scan of
  // the handful of entries.
  mutable std::vector<CyclePair> collision_;
  mutable std::vector<std::uint32_t> cindex_epoch_;  ///< n*n, 0 = stale
  mutable std::vector<std::uint32_t> cindex_slot_;   ///< index into collision_
  mutable std::vector<std::vector<std::uint32_t>> node_positions_;  // scratch

 public:
  /// Collision table of the ordered cycle pair (root_a, root_b) — both
  /// Orbit::cycle_root values of this engine, extracted this epoch; see
  /// CyclePair for semantics. Lazily built; pairs with a cycle longer
  /// than kCollisionLimit return an empty span ("scan instead"), as do
  /// builds that gave up.
  std::span<const std::uint8_t> cycle_pair_collisions(
      std::uint32_t root_a, std::uint32_t root_b) const;

  /// Inline fast path of cycle_pair_collisions: answers dense-index hits
  /// without the out-of-line call — the per-pair lookup the battery loops
  /// make millions of times per sweep.
  std::span<const std::uint8_t> cycle_pair_lookup(std::uint32_t root_a,
                                                  std::uint32_t root_b) const {
    const std::size_t ckey = static_cast<std::size_t>(root_a) * n_ + root_b;
    if (!cindex_epoch_.empty() && cindex_epoch_[ckey] == epoch_) {
      return collision_[cindex_slot_[ckey]].table;
    }
    return cycle_pair_collisions(root_a, root_b);
  }
  static constexpr std::uint64_t kCollisionLimit = 512;
  /// Largest node count for which the dense cycle-pair index (n*n
  /// entries) is kept; larger substrates use a linear table scan.
  static constexpr std::int32_t kCollisionIndexMaxN = 256;
};

/// Table-driven equivalent of lowerbound::verify_never_meet for two
/// tabular automata on the SAME tree object (pass the same engine twice
/// for identical agents). Produces field-for-field the result the legacy
/// Brent-certificate stepper computes, in O(mu + lambda) table work per
/// agent instead of up to max_rounds interpreted rounds. Throws
/// std::invalid_argument on bad config (max_rounds == 0, equal or
/// out-of-range starts, engines over different trees).
Verdict verify_never_meet_compiled(const CompiledConfigEngine& engine_a,
                                   const CompiledConfigEngine& engine_b,
                                   const RunConfig& cfg);

/// Table-driven equivalent of sim::run_gathering for k identical agents
/// (the enumeration model: one automaton, one engine) on the engine's
/// tree. `starts` holds the k >= 2 start nodes (equal starts ALLOWED —
/// co-located identical agents with equal delays stay merged, exactly as
/// the interpreting reference behaves); `delays` is empty (all zero) or
/// one delay per agent. Produces field-for-field the GatherResult the
/// per-round reference computes — gathered / gather_round / gather_node,
/// and rounds_checked == its rounds_executed — in O(sum mu_i + lcm lambda_i)
/// table work instead of up to max_rounds interpreted rounds, plus the
/// never-gather certificate the reference cannot give (see GatherVerdict).
/// Orbits are per-agent, so extraction is the pair pipeline's orbit().
/// Throws
/// std::invalid_argument on bad config (k < 2, k > kMaxGatherAgents,
/// delay arity mismatch, out-of-range start, max_rounds == 0).
GatherVerdict verify_never_gather_compiled(
    const CompiledConfigEngine& engine, std::span<const tree::NodeId> starts,
    std::span<const std::uint64_t> delays, std::uint64_t max_rounds);

/// One point of a verdict grid: a start pair plus per-agent start
/// delays. max_rounds is shared by the whole grid (verify_grid argument).
struct PairQuery {
  tree::NodeId start_a = -1;
  tree::NodeId start_b = -1;
  std::uint64_t delay_a = 0;
  std::uint64_t delay_b = 0;
};

/// verify_never_meet_compiled over a (start-pair x delay) grid:
/// answers[i] corresponds to queries[i]. Every query is validated first
/// (distinct in-range starts; std::invalid_argument otherwise, before any
/// query is answered), then the queries are answered in order, each
/// orbit and collision table extracted on first use.
std::vector<Verdict> verify_grid(const CompiledConfigEngine& engine_a,
                                 const CompiledConfigEngine& engine_b,
                                 std::span<const PairQuery> queries,
                                 std::uint64_t max_rounds);

}  // namespace rvt::sim
