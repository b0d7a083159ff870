#include "sim/enumeration.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "sim/verify_core.hpp"

namespace rvt::sim {

namespace {

/// Latency of one full binding preparation (rebind + orbit warm-up), in
/// ns, from t0_ns to now; returns now, which opens the next back-to-back
/// sample. Gated: a disabled process pays exactly the obs::enabled()
/// relaxed load — the callers pass t0 == 0 and this returns on the first
/// branch. The registry reference is a static local, so the lookup mutex
/// is paid once per process, not per binding.
inline std::uint64_t note_binding_prepared(std::uint64_t t0_ns) {
  if (t0_ns == 0) return 0;
  static obs::Histogram& bind_ns =
      obs::Registry::instance().histogram("rvt_enum_bind_ns");
  const std::uint64_t t1_ns = obs::now_ns();
  bind_ns.record(t1_ns - t0_ns);
  return t1_ns;
}

/// Exact content equality of two grids: tree structure (degrees,
/// neighbors and reverse ports), arity, starts and delays. The cheap
/// checks run first: battery grids on one tree size share their query
/// lists and differ in port labeling.
bool same_content(const EnumGrid& x, const EnumGrid& y) {
  const tree::Tree& a = *x.tree;
  const tree::Tree& b = *y.tree;
  if (a.node_count() != b.node_count() || x.agents != y.agents ||
      x.starts.size() != y.starts.size()) {
    return false;
  }
  if (&a != &b) {
    for (tree::NodeId v = 0; v < a.node_count(); ++v) {
      if (a.degree(v) != b.degree(v)) return false;
      for (tree::Port p = 0; p < a.degree(v); ++p) {
        if (a.neighbor(v, p) != b.neighbor(v, p) ||
            a.reverse_port(v, p) != b.reverse_port(v, p)) {
          return false;
        }
      }
    }
  }
  return x.starts == y.starts && x.delays == y.delays;
}

}  // namespace

EnumerationContext::EnumerationContext(std::span<const EnumGrid> grids,
                                       std::uint64_t max_rounds,
                                       OrbitCache* cache)
    : grids_(grids), max_rounds_(max_rounds), cache_(cache),
      row_hits_(cache) {
  if (max_rounds_ == 0) {
    throw std::invalid_argument(
        "EnumerationContext: max_rounds must be > 0");
  }
  slots_.resize(grids_.size());
  // The battery key hashes each grid's content key (tree key, arity,
  // starts, delays, horizon) in order: the grid-list half of every row
  // key, so contexts over the same grid list share rows.
  KeyHasher battery;
  battery.feed(grids_.size());
  for (std::size_t g = 0; g < grids_.size(); ++g) {
    const EnumGrid& grid = grids_[g];
    if (grid.tree == nullptr || grid.tree->node_count() < 2) {
      throw std::invalid_argument(
          "EnumerationContext: grid needs a tree with >= 2 nodes");
    }
    if (grid.agents < 2 || grid.agents > kMaxGatherAgents) {
      throw std::invalid_argument(
          "EnumerationContext: grid arity out of [2, kMaxGatherAgents]");
    }
    if (grid.starts.size() % grid.agents != 0 ||
        grid.delays.size() != grid.starts.size()) {
      throw std::invalid_argument(
          "EnumerationContext: grid storage is not k-fold (starts/delays "
          "must hold `agents` entries per query)");
    }
    const tree::NodeId n = grid.tree->node_count();
    Slot& slot = slots_[g];
    slot.meet_ok = grid.agents == 2;
    std::vector<std::uint8_t> seen(static_cast<std::size_t>(n), 0);
    const std::size_t k = grid.agents;
    for (std::size_t q = 0; q < grid.query_count(); ++q) {
      const tree::NodeId* s = grid.starts.data() + q * k;
      for (std::size_t i = 0; i < k; ++i) {
        if (s[i] < 0 || s[i] >= n) {
          throw std::invalid_argument("EnumerationContext: start range");
        }
        if (!seen[static_cast<std::size_t>(s[i])]) {
          seen[static_cast<std::size_t>(s[i])] = 1;
          slot.warm_starts.push_back(s[i]);
        }
      }
      // Equal starts are legal (gathering permits co-located agents) but
      // disqualify the grid from the meet API, whose pair semantics
      // require distinct agents.
      if (k == 2 && s[0] == s[1]) slot.meet_ok = false;
    }
    slot.orbit_ptr.assign(static_cast<std::size_t>(n), nullptr);
    if (cache_ != nullptr) {
      KeyHasher h;
      h.feed(tree_orbit_key(*grid.tree));
      h.feed(k);
      h.feed(grid.query_count());
      for (std::size_t i = 0; i < grid.starts.size(); ++i) {
        h.feed(static_cast<std::uint64_t>(grid.starts[i]));
        h.feed(grid.delays[i]);
      }
      h.feed(max_rounds_);
      battery.feed(h.key());
    }
    std::size_t first = 0;
    while (!same_content(grids_[first], grid)) ++first;
    distinct_.push_back(first);
  }
  if (cache_ == nullptr) return;
  battery_key_ = battery.key();
  row_.computed.resize(grids_.size());
  row_.owed.resize(grids_.size());
}

void EnumerationContext::require_meet(std::size_t g) const {
  if (!slots_[g].meet_ok) {
    throw std::invalid_argument(
        "EnumerationContext: the meet API needs a 2-agent grid with "
        "distinct starts per query (use verify_gather otherwise)");
  }
}

void EnumerationContext::bind(const TabularAutomaton& a) {
  row_hits_.flush();  // the previous binding's hits, in one add
  automaton_ = &a;
  ++serial_;
  automaton_key_valid_ = false;
}

const OrbitKey& EnumerationContext::automaton_key() {
  if (!automaton_key_valid_) {
    // Trajectory key: automata with the same position sequences from
    // every start share one row — one computation of its counts. Exact
    // for counts only, which is all a row holds. Streamed, so keying a
    // binding allocates nothing.
    bool collapsed = false;
    automaton_key_ = trajectory_automaton_key(*automaton_, &collapsed);
    if (collapsed) ++stats_.canonical_collapses;
    automaton_key_valid_ = true;
  }
  return automaton_key_;
}

EnumerationContext::MemoRow& EnumerationContext::lookup_row() {
  // Before the first bind() no row matches (rows start at epoch 0, the
  // cache at 1), so every unbound count lands here.
  if (automaton_ == nullptr) {
    throw std::logic_error("EnumerationContext: bind() an automaton first");
  }
  const std::uint64_t epoch = cache_->epoch();
  const OrbitKey key = row_memo_key(battery_key_, automaton_key());
  MemoRow& row = row_;
  row.local = false;
  row.counts = cache_->find_row(key);
  if (row.counts == nullptr) row.counts = cache_->acquire_row(key);
  if (row.counts == nullptr) {
    // We hold the claim: compute every distinct grid of the row once and
    // copy the rest. A row covers the meet-capable grids only.
    std::uint64_t computed = 0;
    try {
      prepare_row();
      std::fill(row.owed.begin(), row.owed.end(), 0);
      for (std::size_t g = 0; g < grids_.size(); ++g) {
        if (!slots_[g].meet_ok) {
          row.computed[g] = 0;
        } else if (distinct_[g] != g) {
          row.computed[g] = row.computed[distinct_[g]];
        } else {
          row.computed[g] = scan_unmet(g);
          row.owed[g] = 1;
          ++computed;
          ++stats_.cache_misses;
        }
      }
    } catch (...) {
      cache_->abandon(key);
      throw;
    }
    cache_->publish_row(key, row.computed, computed);
    row.counts = row.computed.data();
    row.local = true;
  }
  row.serial = serial_;
  row.epoch = epoch;
  return row;
}

EnumerationContext::Slot& EnumerationContext::prepare(std::size_t g) {
  if (automaton_ == nullptr) {
    throw std::logic_error("EnumerationContext: bind() an automaton first");
  }
  Slot& slot = slots_[g];
  if (slot.warmed_serial != serial_) {
    warm(g, obs::enabled() ? obs::now_ns() : 0);
  }
  return slot;
}

void EnumerationContext::prepare_row() {
  // Back to back, so with obs armed one clock read closes one binding's
  // latency sample and opens the next: half the reads of timing each
  // binding alone, the armed site's main cost.
  std::uint64_t t_ns = 0;
  for (std::size_t g = 0; g < grids_.size(); ++g) {
    if (distinct_[g] != g || slots_[g].warmed_serial == serial_ ||
        !slots_[g].meet_ok) {
      continue;
    }
    if (!obs::enabled()) {
      t_ns = 0;
    } else if (t_ns == 0) {
      t_ns = obs::now_ns();
    }
    t_ns = warm(g, t_ns);
  }
}

std::uint64_t EnumerationContext::warm(std::size_t g, std::uint64_t obs_t0) {
  Slot& slot = slots_[g];
  if (slot.bound_serial != serial_) bind_engine(g);  // else via prepare_scan
  // Orbit references are stable for the rest of the binding; snapshot
  // them for the verdict loops.
  for (const tree::NodeId s : slot.warm_starts) {
    slot.orbit_ptr[static_cast<std::size_t>(s)] = &slot.engine->orbit(s);
  }
  slot.warmed_serial = serial_;
  return note_binding_prepared(obs_t0);
}

void EnumerationContext::bind_engine(std::size_t g) {
  Slot& slot = slots_[g];
  if (!slot.engine.has_value()) {
    slot.engine.emplace(*grids_[g].tree, *automaton_);  // validates
  } else {
    if (checked_serial_ != serial_) {
      automaton_->validate();
      port_oblivious_ = automaton_->port_oblivious();
      checked_serial_ = serial_;
    }
    slot.engine->rebind_validated(*automaton_, port_oblivious_);
  }
  ++stats_.bindings;
  slot.bound_serial = serial_;
}

std::uint64_t EnumerationContext::memoized_count(std::size_t g) {
  MemoRow& row = memo_row();
  // A grid this binding just computed was its miss; every other count
  // served from the row is a hit. A hit prepares no binding, so it
  // records no binding latency: reading the row costs less than reading
  // the clock.
  if (row.local && row.owed[g] != 0) {
    row.owed[g] = 0;
  } else {
    row_hits_.add();
    ++stats_.bindings;
    ++stats_.cache_hits;
  }
  return row.counts[g];
}

EnumerationContext::Slot& EnumerationContext::prepare_scan(std::size_t g) {
  if (automaton_ == nullptr) {
    throw std::logic_error("EnumerationContext: bind() an automaton first");
  }
  Slot& slot = slots_[g];
  if (slot.bound_serial != serial_) bind_engine(g);
  return slot;
}

namespace {

/// Battery grids are pair-major runs of delays: refresh the pair-invariant
/// state only when the start pair (and so the orbit pair) changes.
inline void refresh_pair(detail::PairState& st,
                         const CompiledConfigEngine::Orbit* const* optr,
                         const tree::NodeId* s) {
  if (st.A != optr[s[0]] || st.B != optr[s[1]]) {
    st = detail::make_pair_state(*optr[s[0]], *optr[s[1]]);
  }
}

/// Tuple-major analogue: refresh the tuple-invariant state only when the
/// k-tuple of starts changes.
inline void refresh_tuple(detail::TupleState& st,
                          const CompiledConfigEngine::Orbit* const* optr,
                          const tree::NodeId* s, std::size_t k) {
  if (st.k == k &&
      std::memcmp(st.start, s, k * sizeof(tree::NodeId)) == 0) {
    return;
  }
  const CompiledConfigEngine::Orbit* orbs[kMaxGatherAgents];
  for (std::size_t i = 0; i < k; ++i) orbs[i] = optr[s[i]];
  st = detail::make_tuple_state(orbs, s, k);
}

}  // namespace

std::span<const Verdict> EnumerationContext::verify(std::size_t g) {
  require_meet(g);
  const Slot& slot = prepare(g);
  const auto* optr = slot.orbit_ptr.data();
  const EnumGrid& grid = grids_[g];
  const std::size_t nq = grid.query_count();
  verdicts_.resize(nq);
  detail::PairState st;
  for (std::size_t i = 0; i < nq; ++i) {
    const tree::NodeId* s = grid.starts.data() + 2 * i;
    const std::uint64_t* d = grid.delays.data() + 2 * i;
    refresh_pair(st, optr, s);
    verdicts_[i] = detail::verify_with_state(st, d[0], d[1], max_rounds_);
  }
  stats_.queries += nq;
  return {verdicts_.data(), nq};
}

std::ptrdiff_t EnumerationContext::first_unmet(std::size_t g) {
  require_meet(g);
  // Scanned once per (binding, distinct grid), on the distinct grid.
  Slot& first = slots_[distinct_[g]];
  if (first.first_serial != serial_ || automaton_ == nullptr) {
    first.first_index = scan_first_unmet(distinct_[g]);
    first.first_serial = serial_;
  }
  return first.first_index;
}

std::ptrdiff_t EnumerationContext::scan_first_unmet(std::size_t g) {
  Slot& slot = prepare_scan(g);
  const CompiledConfigEngine& e = *slot.engine;
  const EnumGrid& grid = grids_[g];
  const std::size_t nq = grid.query_count();
  for (std::size_t i = 0; i < nq; ++i) {
    const tree::NodeId* s = grid.starts.data() + 2 * i;
    const std::uint64_t* d = grid.delays.data() + 2 * i;
    // orbit() extracts on demand: a scan that defeats on the first pairs
    // only ever walks those pairs' orbits.
    const CompiledConfigEngine::Orbit& A = e.orbit(s[0]);
    const CompiledConfigEngine::Orbit& B = e.orbit(s[1]);
    ++stats_.queries;
    if (!detail::orbits_met(A, B, d[0], d[1], max_rounds_,
                            stats_.walk_fallbacks)) {
      return static_cast<std::ptrdiff_t>(i);
    }
  }
  return -1;
}

std::uint64_t EnumerationContext::count_unmet(std::size_t g) {
  require_meet(g);
  return cache_ == nullptr ? scan_unmet(g) : memoized_count(g);
}

const CountPlan& EnumerationContext::count_plan(
    std::size_t g) {
  Slot& owner = slots_[distinct_[g]];
  if (!owner.plan.has_value()) {
    const EnumGrid& grid = grids_[distinct_[g]];
    owner.plan =
        plan_counts(grid.starts, grid.delays, owner.warm_starts, max_rounds_);
  }
  return *owner.plan;
}

std::uint64_t EnumerationContext::scan_unmet(std::size_t g) {
  const Slot& slot = prepare(g);
  const EnumGrid& grid = grids_[g];
  const std::size_t nq = grid.query_count();
  stats_.queries += nq;
  const auto* optr = slot.orbit_ptr.data();
  start_orbits_.clear();
  for (const tree::NodeId s : slot.warm_starts) {
    start_orbits_.push_back(optr[s]);
  }
  if (const auto unmet = occupancy_.count_unmet(
          start_orbits_, count_plan(g),
          static_cast<std::size_t>(grid.tree->node_count()))) {
    return *unmet;
  }
  // Declined: query by query, from the two orbits.
  ++stats_.fallback_counts;
  std::uint64_t unmet = 0;
  for (std::size_t i = 0; i < nq; ++i) {
    const tree::NodeId* s = grid.starts.data() + 2 * i;
    const std::uint64_t* d = grid.delays.data() + 2 * i;
    unmet += detail::orbits_met(*optr[s[0]], *optr[s[1]], d[0], d[1],
                                max_rounds_, stats_.walk_fallbacks)
                 ? 0
                 : 1;
  }
  return unmet;
}

std::span<const GatherVerdict> EnumerationContext::verify_gather(
    std::size_t g) {
  const Slot& slot = prepare(g);
  const auto* optr = slot.orbit_ptr.data();
  const EnumGrid& grid = grids_[g];
  const std::size_t k = grid.agents;
  const std::size_t nq = grid.query_count();
  gather_verdicts_.resize(nq);
  detail::TupleState st;
  for (std::size_t i = 0; i < nq; ++i) {
    const tree::NodeId* s = grid.starts.data() + k * i;
    const std::uint64_t* d = grid.delays.data() + k * i;
    refresh_tuple(st, optr, s, k);
    gather_verdicts_[i] = detail::gather_with_state(st, d, max_rounds_);
  }
  stats_.queries += nq;
  return {gather_verdicts_.data(), nq};
}

EnumTelemetry EnumerationContext::telemetry() const {
  row_hits_.flush();
  EnumTelemetry t = stats_;
  for (const Slot& slot : slots_) {
    if (slot.engine.has_value()) {
      t.orbits_extracted += slot.engine->orbits_extracted();
    }
  }
  return t;
}

}  // namespace rvt::sim
