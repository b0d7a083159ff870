// Fused rebind + grid enumeration.
//
// The exhaustive batteries (E10-style: every K-state automaton against a
// fixed set of instances, E11-style: a victim per instance against its
// start-pair x delay grid) used to drive verify_grid() per automaton —
// paying, per (automaton, tree), a verdict-vector allocation, an index
// indirection, a re-validation of the same grid, and a second pass over
// the queries to warm orbits. EnumerationContext fuses the whole
// per-automaton pipeline into one object that lives for a worker's entire
// sweep:
//
//   bind(a)          swap the automaton in (engines rebind lazily,
//                    keeping every buffer),
//   verify(g)        answer grid g into a reused verdict buffer —
//                    every start's orbit extracted (one walk each),
//                    queries answered by the inlined verdict core,
//   count_unmet(g)   the number of defeats of grid g — the one count
//                    kind — no verdict, no per-pair state,
//   first_unmet(g)   the adaptive variant: scan grid g until the first
//                    defeat (verdict with met == false), early-exiting —
//                    the shape of a "smallest defeating instance" search;
//                    each query is answered from its two orbits alone
//                    (detail::orbits_met), with no collision table,
//   verify_gather(g) gathering verdicts of grid g, any arity.
//
// Grids are k-AGENT (EnumGrid::agents, flat query-major start/delay
// storage): the meet API (verify / count_unmet / first_unmet) is the
// k = 2 specialization, and verify_gather serves any arity through the
// k-tuple verdict core (sim/verify_core.hpp), over the very same engines
// and warmed orbits (orbits are per-agent; nothing below this layer
// knows k).
//
// count_unmet is a caller of the occupancy unit (sim/occupancy.hpp): it
// hands the unit the grid's distinct-start orbits in bit order and the
// grid's CountPlan, which is built at the grid's first count in the
// context and shared by content-identical copies — contexts that only
// ever serve memo hits, or never count, pay nothing for it. When the unit
// declines (more than kOccupancyStarts distinct starts, or a table past
// kOccupancyWords), the context counts the grid query by query with the
// same two-orbit predicate as first_unmet (detail::orbits_met) and adds
// it to fallback_counts. Only verify() and verify_gather() build
// collision tables.
//
// Grids are validated once at construction; the steady state allocates
// nothing. The constructor also maps each grid to its first content-
// identical grid (same tree structure, arity, starts and delays): a
// battery may hold copies (the E10 battery's 42 grids have 35 distinct
// contents), and first_unmet on a copy returns the original's answer for
// the binding — asked there if it was not yet.
//
// When an OrbitCache is attached, count_unmet is memoized in it, one ROW
// per (grid list, trajectory class): the counts of every meet-capable
// grid. The class is trajectory_automaton_key's: automata whose agents
// walk the same position sequences from every start share it, and a
// count depends on nothing else — so the row is exact for counts, though
// not for the full verdicts (rounds_checked, cycle_length) no row holds.
// The grid list's battery key is hashed once at construction. A
// binding's first count keys its row and probes it once, without
// claiming; a hit answers that count and every later one of the binding
// from the row, with no call into the cache (the hits served reach the
// cache's stats once per binding). A miss claims the row and computes it
// EAGERLY — every distinct meet-capable grid once, copies copied — then
// publishes it. Every shipped count caller asks every grid of a binding;
// a caller asking one grid per binding should not attach a cache, since
// each miss pays for the whole row. The verdict and early-exit calls
// (verify, verify_gather, first_unmet) never touch the cache: they
// extract the binding's orbits in the context's own engines, whether or
// not a cache is attached.
//
// sweep_enumeration() fans an automaton range across workers, one context
// per worker (sweep_indexed), with deterministic result ordering and
// aggregated telemetry.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/compiled.hpp"
#include "sim/occupancy.hpp"
#include "sim/orbit_cache.hpp"
#include "sim/sweep.hpp"
#include "sim/verdict.hpp"

namespace rvt::sim {

/// One query of a k-agent enumeration grid, viewing the grid's flat
/// storage: the agents' start nodes and start delays. The pair query of
/// the PR 1-3 pipeline is exactly the k = 2 case.
struct GatherQuery {
  std::span<const tree::NodeId> starts;
  std::span<const std::uint64_t> delays;
  std::size_t agents() const { return starts.size(); }
};

/// One grid of an enumeration battery: a substrate tree plus the
/// (start-tuple x delay) queries to answer on it. All `agents` agents of
/// a query run the bound automaton (the enumeration model: k identical
/// anonymous agents); the grid's arity is fixed, and starts/delays are
/// stored flat, query-major, `agents` entries per query — the shape the
/// verdict loops stream. Pair grids (agents == 2) are the same type: push
/// PairQuery points and the meet API (verify/count_unmet/first_unmet)
/// consumes them, while verify_gather serves any arity, k = 2 included.
/// The tree must outlive every context using the grid.
struct EnumGrid {
  const tree::Tree* tree = nullptr;
  std::size_t agents = 2;             ///< k, fixed per grid (>= 2)
  std::vector<tree::NodeId> starts;   ///< query-major, `agents` per query
  std::vector<std::uint64_t> delays;  ///< same shape as starts

  EnumGrid() = default;
  EnumGrid(const tree::Tree* t, std::size_t k) : tree(t), agents(k) {}
  /// Convenience for the historical pair-grid literals: a tree plus pair
  /// queries (agents == 2).
  EnumGrid(const tree::Tree* t, std::initializer_list<PairQuery> qs)
      : tree(t) {
    for (const PairQuery& q : qs) push(q);
  }

  std::size_t query_count() const {
    return agents == 0 ? 0 : starts.size() / agents;
  }
  GatherQuery query(std::size_t i) const {
    return {{starts.data() + i * agents, agents},
            {delays.data() + i * agents, agents}};
  }
  /// Appends one k-tuple query; `d` may be empty (all-zero delays) or one
  /// delay per agent. Arity mismatches throw here — two compensating
  /// mis-sized pushes would pass the context's aggregate-shape validation
  /// while silently misaligning delays across queries.
  void push(std::span<const tree::NodeId> s,
            std::span<const std::uint64_t> d) {
    if (s.size() != agents || (!d.empty() && d.size() != s.size())) {
      throw std::invalid_argument(
          "EnumGrid::push: query arity must match the grid's agents "
          "(delays empty or one per agent)");
    }
    starts.insert(starts.end(), s.begin(), s.end());
    if (d.empty()) {
      delays.insert(delays.end(), s.size(), 0);
    } else {
      delays.insert(delays.end(), d.begin(), d.end());
    }
  }
  /// The k = 2 specialization: appends a pair query.
  void push(const PairQuery& q) {
    starts.insert(starts.end(), {q.start_a, q.start_b});
    delays.insert(delays.end(), {q.delay_a, q.delay_b});
  }
};

/// Telemetry aggregated across the workers of one sweep_enumeration call
/// (or collected manually from a directly-driven context).
struct EnumTelemetry {
  std::uint64_t queries = 0;           ///< verdicts computed (memo hits: 0)
  std::uint64_t bindings = 0;          ///< (automaton, grid) preparations
  /// (automaton, grid) counts served from a memoized row.
  std::uint64_t cache_hits = 0;
  /// (automaton, grid) counts computed into a memo row.
  std::uint64_t cache_misses = 0;
  std::uint64_t orbits_extracted = 0;  ///< orbit walks actually run
  /// Counted bindings whose trajectory class has fewer states than their
  /// table (unreachable states, or states no trajectory tells apart) —
  /// tables the row key merges with smaller ones. Counted when a count
  /// keys its row, so only with a cache attached.
  std::uint64_t canonical_collapses = 0;
  /// Grid counts computed query by query (detail::orbits_met): grids the
  /// occupancy unit declined (more than kOccupancyStarts distinct starts,
  /// or a table past kOccupancyWords under the binding).
  std::uint64_t fallback_counts = 0;
  /// Queries of first_unmet and of fallback counts that the two-orbit
  /// walk declined and the table-less pair core answered: pairs whose
  /// joint period lcm(lambda_a, lambda_b) passes 4 (lambda_a + lambda_b).
  std::uint64_t walk_fallbacks = 0;
  double hit_rate() const {
    const std::uint64_t total = cache_hits + cache_misses;
    return total == 0 ? 0.0
                      : static_cast<double>(cache_hits) /
                            static_cast<double>(total);
  }
};

/// Per-worker state of a fused enumeration sweep. Not thread-safe; build
/// one per worker (sweep_enumeration does). Grids and the optional cache
/// must outlive the context.
class EnumerationContext {
 public:
  /// Validates every grid up front (non-null tree, >= 2 nodes, arity
  /// within [2, kMaxGatherAgents], starts/delays of matching k-fold
  /// shape, in-range starts, max_rounds > 0) and throws
  /// std::invalid_argument on the first violation — the query loops then
  /// run unchecked. Equal starts within a query are allowed (the
  /// gathering model permits co-located agents); the MEET API addition-
  /// ally requires agents == 2 and pairwise-distinct starts and throws
  /// std::invalid_argument from verify()/count_unmet()/first_unmet() on
  /// grids that violate it.
  EnumerationContext(std::span<const EnumGrid> grids,
                     std::uint64_t max_rounds, OrbitCache* cache = nullptr);

  /// Makes `a` the automaton under test. Engines rebind lazily on the
  /// next query call per grid, so early-exiting a binding costs nothing
  /// for the grids never touched; `a` is validated at the binding's
  /// first engine rebind, once however many grid engines it reaches
  /// (std::invalid_argument from that query call). `a` must stay alive
  /// until the next bind().
  void bind(const TabularAutomaton& a);

  /// Meet verdicts of pair grid g under the bound automaton, in query
  /// order. The span aliases an internal buffer reused by the next
  /// verify() call on this context.
  std::span<const Verdict> verify(std::size_t g);

  /// Index of the first query of pair grid g whose verdict has
  /// met == false (the automaton is DEFEATED: non-meeting certified or
  /// horizon exhausted), or -1 if every query meets. Early-exits: queries
  /// past the first defeat are not answered — and the binding is
  /// prepared LAZILY (orbits extract as the scan touches them), so an
  /// adaptive sweep that defeats most automata on their first pairs never
  /// pays for the whole grid's warm-up. Each query walks its two orbits
  /// in lockstep over the pair's own bound (detail::walk_met) and builds
  /// no collision table; a pair whose joint period passes
  /// 4 (lambda_a + lambda_b) goes to the table-less pair core instead,
  /// counted in EnumTelemetry::walk_fallbacks.
  std::ptrdiff_t first_unmet(std::size_t g);

  /// Number of pair-grid-g queries with met == false, without
  /// materializing verdicts — the accumulation shape of defeat-density
  /// profiles. Answered by the occupancy unit (one bit test per query;
  /// sim/occupancy.hpp), or query by query from the two orbits, as
  /// first_unmet answers, when the unit declines.
  /// Equals counting met == false over verify(g). With a cache attached
  /// the count comes from the binding's row (battery key, trajectory
  /// key): a hit returns it without touching the engine; a miss claims
  /// the row, computes every distinct meet-capable grid locally and
  /// publishes the row (the claim is abandoned on an exception).
  std::uint64_t count_unmet(std::size_t g);

  /// Gathering verdicts of grid g (any arity, k = 2 included) under the
  /// bound automaton, in query order — each field-for-field what
  /// sim::run_gathering would report for that query, answered by the
  /// k-tuple verdict core over the same warmed orbits the meet API uses.
  /// The span aliases an internal buffer reused by the next
  /// verify_gather() call.
  std::span<const GatherVerdict> verify_gather(std::size_t g);

  std::size_t grid_count() const { return grids_.size(); }

  /// Telemetry accumulated by this context so far (orbits_extracted sums
  /// over the engines built so far). Also reports the memo hits served
  /// from rows to the attached cache's stats(), which otherwise receive
  /// them at the next bind() or at destruction.
  EnumTelemetry telemetry() const;

 private:
  /// Memo hits served from rows and not yet added to the cache's
  /// stats. Reports them on flush() and at destruction; a
  /// moved-from tally holds none, so a moved-from context reports nothing.
  class HitTally {
   public:
    explicit HitTally(OrbitCache* cache) : cache_(cache) {}
    HitTally(HitTally&& o) noexcept
        : cache_(o.cache_), pending_(std::exchange(o.pending_, 0)) {}
    HitTally& operator=(HitTally&& o) noexcept {
      if (this != &o) {
        flush();
        cache_ = o.cache_;
        pending_ = std::exchange(o.pending_, 0);
      }
      return *this;
    }
    ~HitTally() { flush(); }
    void add() { ++pending_; }
    void flush() {
      if (pending_ != 0) cache_->add_hits(std::exchange(pending_, 0));
    }

   private:
    OrbitCache* cache_;
    std::uint64_t pending_ = 0;
  };

  struct Slot {
    std::optional<CompiledConfigEngine> engine;
    std::vector<tree::NodeId> warm_starts;  ///< unique starts of the grid
    /// Orbit pointer per start node, refreshed by prepare(): the verdict
    /// loop then reads k pointers per query instead of going through the
    /// engine's epoch-checked orbit() lookup.
    std::vector<const CompiledConfigEngine::Orbit*> orbit_ptr;
    std::uint64_t bound_serial = 0;   ///< engine bound to this binding
    std::uint64_t warmed_serial = 0;  ///< orbits warmed + orbit_ptr valid
    /// Grid qualifies for the meet API: agents == 2 with pairwise
    /// distinct starts per query (precomputed by the constructor).
    bool meet_ok = false;
    /// Occupancy form of the grid's queries (bit i names warm_starts[i]),
    /// built at its first count; see count_plan.
    std::optional<CountPlan> plan;
    /// first_unmet's answer for the binding named by first_serial.
    std::ptrdiff_t first_index = 0;
    std::uint64_t first_serial = 0;
  };

  /// The binding's memo row.
  struct MemoRow {
    /// Count per grid (meet-capable grids only), from the cache or
    /// `computed`. Valid for the binding `serial` names and the
    /// cache epoch `epoch` names.
    const std::uint64_t* counts = nullptr;
    std::uint64_t serial = 0;
    std::uint64_t epoch = 0;
    /// This binding computed the row: `owed` marks the grids it computed
    /// whose first count is not asked yet — already accounted as misses,
    /// so serving them counts no hit.
    bool local = false;
    std::vector<std::uint64_t> computed;
    std::vector<std::uint8_t> owed;
  };

  /// Throws unless grid g qualifies for the meet API (see meet_ok).
  void require_meet(std::size_t g) const;

  /// Ensures slot g's engine is bound to the current automaton with its
  /// orbits warmed and orbit_ptr refreshed; returns the slot.
  Slot& prepare(std::size_t g);
  /// Prepares every grid a row computes, before any is counted.
  void prepare_row();
  /// prepare()'s work on a slot not yet warmed for the binding, with its
  /// rvt_enum_bind_ns sample opened at obs_t0 (0: none); returns the
  /// sample's end.
  std::uint64_t warm(std::size_t g, std::uint64_t obs_t0);
  /// Binding only (no warm-up, orbit_ptr not refreshed) — the lazy path
  /// of first_unmet().
  Slot& prepare_scan(std::size_t g);
  /// Binds slot g's engine to the current automaton, building it on the
  /// slot's first binding. The automaton is validated, and its
  /// port-obliviousness computed, once per binding at its first engine
  /// rebind, not once per grid engine; bind() itself checks nothing, so
  /// a binding served from memo rows alone never pays for the check.
  void bind_engine(std::size_t g);
  /// The bound automaton's trajectory key (trajectory_automaton_key,
  /// which allocates nothing), computed once per binding; counts a
  /// canonical collapse in the telemetry when the class has fewer states
  /// than the bound table.
  const OrbitKey& automaton_key();
  /// The binding's row, looked up (or computed and published) at the
  /// binding's first count, or after the cache's epoch moved.
  MemoRow& memo_row() {
    if (row_.serial == serial_ && row_.epoch == cache_->epoch()) return row_;
    return lookup_row();
  }
  MemoRow& lookup_row();
  /// Grid g's count from the binding's row.
  std::uint64_t memoized_count(std::size_t g);
  /// The count over a locally prepared slot of grid g.
  std::uint64_t scan_unmet(std::size_t g);
  /// Meet grid g's CountPlan, kept on its first content-identical grid's
  /// slot.
  const CountPlan& count_plan(std::size_t g);
  /// The early-exit scan behind first_unmet.
  std::ptrdiff_t scan_first_unmet(std::size_t g);

  std::span<const EnumGrid> grids_;
  std::uint64_t max_rounds_;
  OrbitCache* cache_;
  const TabularAutomaton* automaton_ = nullptr;
  std::uint64_t serial_ = 0;
  /// The binding bind_engine() last validated, and its automaton's
  /// port_oblivious().
  std::uint64_t checked_serial_ = 0;
  bool port_oblivious_ = false;
  OrbitKey automaton_key_;
  bool automaton_key_valid_ = false;
  std::vector<Slot> slots_;
  /// Per grid, the first grid with identical content (itself if none).
  std::vector<std::size_t> distinct_;
  /// Content hash of the grid list, in order; only with a cache.
  OrbitKey battery_key_;
  MemoRow row_;
  mutable HitTally row_hits_;
  std::vector<Verdict> verdicts_;
  OccupancyCounter occupancy_;
  /// scan_unmet's distinct-start orbits in bit order.
  std::vector<const CompiledConfigEngine::Orbit*> start_orbits_;
  std::vector<GatherVerdict> gather_verdicts_;
  EnumTelemetry stats_;
};

/// Fans fn(ctx, index) for index in [0, count) across sweep workers, one
/// EnumerationContext per worker, with deterministic result ordering
/// (results[i] == fn(ctx, i) regardless of thread count — automata must
/// therefore be derivable from the index alone, the usual enumeration
/// shape). num_threads == 0 means one worker per hardware thread
/// (RVT_SWEEP_THREADS overrides). Telemetry from every worker context is
/// summed into *telemetry when given. The first exception thrown by fn is
/// rethrown after the workers join.
template <typename Fn>
auto sweep_enumeration(std::span<const EnumGrid> grids, std::uint64_t count,
                       std::uint64_t max_rounds, Fn fn,
                       unsigned num_threads = 0, OrbitCache* cache = nullptr,
                       EnumTelemetry* telemetry = nullptr)
    -> std::vector<std::invoke_result_t<Fn&, EnumerationContext&,
                                        std::uint64_t>> {
  std::mutex stats_mu;
  auto results = sweep_indexed(
      count,
      [&] { return EnumerationContext(grids, max_rounds, cache); },
      [&](EnumerationContext& ctx, std::uint64_t i) { return fn(ctx, i); },
      [&](EnumerationContext& ctx) {
        if (telemetry == nullptr) return;
        const EnumTelemetry t = ctx.telemetry();
        const std::lock_guard<std::mutex> lk(stats_mu);
        telemetry->queries += t.queries;
        telemetry->bindings += t.bindings;
        telemetry->cache_hits += t.cache_hits;
        telemetry->cache_misses += t.cache_misses;
        telemetry->orbits_extracted += t.orbits_extracted;
        telemetry->canonical_collapses += t.canonical_collapses;
        telemetry->fallback_counts += t.fallback_counts;
        telemetry->walk_fallbacks += t.walk_fallbacks;
      },
      num_threads);
  return results;
}

}  // namespace rvt::sim
