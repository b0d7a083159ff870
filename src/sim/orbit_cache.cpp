#include "sim/orbit_cache.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <new>
#include <numeric>

namespace rvt::sim {

namespace {

/// Domain word of row-memo keys: no orbit-set key is ever hashed from a
/// stream starting with it.
constexpr std::uint64_t kRowMemoDomain = 0x726f772d6d656d6full;  // "row-memo"
/// Marks a trajectory-key word that stands for every entry port of one
/// degree (they all agree).
constexpr std::uint64_t kAllPorts = std::uint64_t{1} << 63;

/// act_code's table for actions below kActTable - 1 and degrees within
/// the streamed bound: v[d][act + 1].
constexpr int kActTable = 64;
struct ActCodes {
  std::int8_t v[kStreamedKeyMaxDegree + 1][kActTable];
};
constexpr ActCodes make_act_codes() {
  ActCodes t{};
  for (int d = 1; d <= kStreamedKeyMaxDegree; ++d) {
    t.v[d][0] = static_cast<std::int8_t>(kStay);
    for (int act = 0; act + 1 < kActTable; ++act) {
      t.v[d][act + 1] = static_cast<std::int8_t>(act % d);
    }
  }
  return t;
}
constexpr ActCodes kActCodes = make_act_codes();

/// What acting with `act` (kStay or a port candidate) at a node of degree
/// d does: kStay, or the exit port. A table lookup for the small values
/// enumerated tables hold: the data-dependent branches and division of
/// the direct form would cost more than the rest of a K = 3 key.
inline int act_code(int act, int d) {
  const auto u = static_cast<unsigned>(act + 1);
  if (u < kActTable && d <= kStreamedKeyMaxDegree) return kActCodes.v[d][u];
  return act < 0 ? kStay : act % d;
}
/// Initial-action codes packed per word of the trajectory key.
constexpr int kCodesPerWord = 12;

/// Working arrays of trajectory_automaton_key, indexed by reach index
/// (BFS discovery order from the initial state), class, or reach index x
/// input. T holds reach indices, classes and action codes: std::int8_t
/// within the streamed bounds, std::int32_t above them. (The key code
/// copies these pointers into locals: int8 stores may alias anything, and
/// would otherwise reload every pointer after each store.)
template <typename T>
struct TrajectoryScratch {
  T* order;   ///< reach index -> state (one spare slot at the end)
  T* index;   ///< state -> reach index, -1 = not reached yet
  T* succ;    ///< (reach index, input) -> successor's reach index
  T* out;     ///< (reach index, input) -> act_code of the successor
  T* cls;     ///< reach index -> class (two buffers: current, next)
  T* fresh;
  T* rep;     ///< class -> its first reach index
};

/// Inputs per state: every (entry port i, degree d) with -1 <= i < d <= D,
/// or one per degree when no successor depends on the entry port.
constexpr int trajectory_inputs(int D, bool oblivious) {
  return oblivious ? D : D * (D + 3) / 2;
}

/// Reachable states in BFS order from the initial state, with each one's
/// successor and output on every input: the Mealy machine the refinement
/// minimizes. With `oblivious` only entry port -1 is read per degree, and
/// the walk returns -1 as soon as a reached state's successor depends on
/// the entry port; otherwise it returns the reached count.
template <typename T>
int reach_trajectory_machine(const TabularAutomaton& a, bool oblivious,
                             const TrajectoryScratch<T>& w) {
  const int D = a.max_degree;
  const std::size_t row = static_cast<std::size_t>(D + 1) * D;
  const int* const delta = a.delta.data();
  const int* const lambda = a.lambda.data();
  T* const order = w.order;
  T* const index = w.index;
  T* succ = w.succ;
  T* out = w.out;
  for (int s = 0; s < a.num_states(); ++s) index[s] = -1;
  index[a.initial] = 0;
  order[0] = static_cast<T>(a.initial);
  int reached = 1;
  for (int r = 0; r < reached; ++r) {
    const int* const next = delta + static_cast<std::size_t>(order[r]) * row;
    for (int d = 1; d <= D; ++d) {
      // next[(i + 1) * D + d - 1] is the successor on input (i, d).
      const int* const col = next + (d - 1);
      for (int i = -1; i < (oblivious ? 0 : d); ++i, ++succ, ++out) {
        const int t = col[(i + 1) * D];
        if (oblivious) {
          for (int p = 0; p < d; ++p) {
            if (col[(p + 1) * D] != t) return -1;
          }
        }
        // Branch-free discovery: order has a spare slot past the last
        // state, so the speculative write is harmless.
        const bool found = index[t] < 0;
        if (found) index[t] = static_cast<T>(reached);
        order[reached] = static_cast<T>(t);
        reached += found ? 1 : 0;
        *succ = index[t];
        *out = static_cast<T>(act_code(lambda[t], d));
      }
    }
  }
  return reached;
}

template <typename T>
OrbitKey trajectory_key(const TabularAutomaton& a, bool* collapsed,
                        const TrajectoryScratch<T>& w) {
  const int D = a.max_degree;
  // When no reached state's successor depends on the entry port, every
  // entry port of degree d is one input: the partition and the words
  // below come out the same from one input per degree.
  bool oblivious = true;
  int reached = reach_trajectory_machine(a, oblivious, w);
  if (reached < 0) {
    oblivious = false;
    reached = reach_trajectory_machine(a, oblivious, w);
  }
  const int inputs = trajectory_inputs(D, oblivious);
  const T* const succ = w.succ;
  const T* const out = w.out;
  T* cls = w.cls;
  T* fresh = w.fresh;
  T* const rep = w.rep;
  // Moore-style refinement from one class: two states stay together iff
  // they share a class and, on every input, the output and the
  // successor's class. Refinement only splits, so a round that makes no
  // new class is the fixpoint; a discrete partition is one too.
  for (int r = 0; r < reached; ++r) cls[r] = 0;
  int classes = 1;
  for (;;) {
    int next_classes = 0;
    for (int r = 0; r < reached; ++r) {
      const T* const sr = succ + static_cast<std::size_t>(r) * inputs;
      const T* const orow = out + static_cast<std::size_t>(r) * inputs;
      // Compare against every class formed so far without early exits:
      // the trip counts are then all the branches there are.
      int match = next_classes;
      for (int c = 0; c < next_classes; ++c) {
        const int q = rep[c];
        const T* const sq = succ + static_cast<std::size_t>(q) * inputs;
        const T* const oq = out + static_cast<std::size_t>(q) * inputs;
        bool same = cls[q] == cls[r];
        for (int in = 0; in < inputs; ++in) {
          same &= (orow[in] == oq[in]) & (cls[sr[in]] == cls[sq[in]]);
        }
        match = same ? c : match;
      }
      rep[next_classes] = static_cast<T>(r);  // kept only if r is new
      next_classes += match == next_classes ? 1 : 0;
      fresh[r] = static_cast<T>(match);
    }
    std::swap(cls, fresh);
    const bool stable = next_classes == classes || next_classes == reached;
    classes = next_classes;
    if (stable) break;
  }
  if (collapsed != nullptr) *collapsed = classes < a.num_states();
  // Stream the minimized machine in BFS order from the initial class.
  // The rounds number classes by their first reach index, and that is
  // already BFS order: a class first appears among the successors of the
  // first-reached state of an earlier class, in input order, exactly as
  // a BFS over classes would meet it. Per class and degree: one
  // kAllPorts word when every entry port gives the same (output,
  // successor), else one word per entry port.
  KeyHasher h;
  h.feed(static_cast<std::uint64_t>(classes) << 32 |
         static_cast<std::uint64_t>(D));
  const int act0 = a.lambda[static_cast<std::size_t>(a.initial)];
  for (int d0 = 1; d0 <= D; d0 += kCodesPerWord) {
    std::uint64_t codes = 0;
    for (int d = d0; d < d0 + kCodesPerWord && d <= D; ++d) {
      codes |= static_cast<std::uint64_t>(act_code(act0, d) + 1)
               << (5 * (d - d0));
    }
    h.feed(codes);
  }
  const auto word = [&](T o, T t) {
    return (static_cast<std::uint64_t>(o + 1) << 32) |
           static_cast<std::uint64_t>(cls[t]);
  };
  for (int c = 0; c < classes; ++c) {
    const T* sr = succ + static_cast<std::size_t>(rep[c]) * inputs;
    const T* orow = out + static_cast<std::size_t>(rep[c]) * inputs;
    for (int d = 1; d <= D; ++d) {
      const int width = oblivious ? 1 : d + 1;
      bool uniform = true;
      for (int j = 1; j < width; ++j) {
        uniform &= (orow[j] == orow[0]) & (cls[sr[j]] == cls[sr[0]]);
      }
      if (uniform) {
        h.feed(kAllPorts | word(orow[0], sr[0]));
      } else {
        for (int j = 0; j < width; ++j) h.feed(word(orow[j], sr[j]));
      }
      sr += width;
      orow += width;
    }
  }
  return h.key();
}

}  // namespace

OrbitKey tree_orbit_key(const tree::Tree& t) {
  KeyHasher h;
  const tree::NodeId n = t.node_count();
  h.feed(static_cast<std::uint64_t>(n));
  for (tree::NodeId v = 0; v < n; ++v) {
    const int d = t.degree(v);
    h.feed(static_cast<std::uint64_t>(d));
    for (tree::Port p = 0; p < d; ++p) {
      h.feed((static_cast<std::uint64_t>(t.neighbor(v, p)) << 16) |
             static_cast<std::uint64_t>(t.reverse_port(v, p)));
    }
  }
  return h.key();
}

OrbitKey automaton_orbit_key(const TabularAutomaton& a) {
  KeyHasher h;
  h.feed(static_cast<std::uint64_t>(a.initial));
  h.feed(static_cast<std::uint64_t>(a.max_degree));
  h.feed(static_cast<std::uint64_t>(a.delta.size()));
  for (const int x : a.delta) {
    h.feed(static_cast<std::uint64_t>(static_cast<std::int64_t>(x)));
  }
  for (const int x : a.lambda) {
    h.feed(static_cast<std::uint64_t>(static_cast<std::int64_t>(x)) ^
           0xa5a5a5a5a5a5a5a5ull);
  }
  return h.key();
}

OrbitKey canonical_automaton_key(const TabularAutomaton& a,
                                 bool* collapsed) {
  const int D = a.max_degree;
  const int K = a.num_states();
  if (K > kStreamedKeyMaxStates || D > kStreamedKeyMaxDegree) {
    const TabularAutomaton canon = canonical_reachable_form(a);
    if (collapsed != nullptr) *collapsed = !(canon == a);
    return automaton_orbit_key(canon);
  }
  // canonical_reachable_form's BFS over every input a tree of max degree
  // <= D can present, in stack arrays: discovery order is the canonical
  // numbering.
  int order[kStreamedKeyMaxStates];
  int renum[kStreamedKeyMaxStates];
  std::fill_n(renum, K, -1);
  int reached = 1;
  renum[a.initial] = 0;
  order[0] = a.initial;
  for (int head = 0; head < reached; ++head) {
    const int s = order[head];
    for (int d = 1; d <= D; ++d) {
      for (int i = -1; i < d; ++i) {
        const int t = a.next(s, i, d);
        if (renum[t] < 0) {
          renum[t] = reached;
          order[reached++] = t;
        }
      }
    }
  }
  int act_mod = 1;
  for (int d = 2; d <= D; ++d) act_mod = std::lcm(act_mod, d);
  // Stream automaton_orbit_key's words of the canonical table — initial
  // state 0, the degree, the table size, delta in storage order (state,
  // entry port, degree; impossible inputs i >= d are 0), then lambda —
  // comparing each against `a`'s own entry on the way.
  const std::size_t row = static_cast<std::size_t>(D + 1) * D;
  KeyHasher h;
  h.feed(0);
  h.feed(static_cast<std::uint64_t>(D));
  h.feed(static_cast<std::uint64_t>(reached) * row);
  bool same = a.initial == 0 && reached == K;
  for (int s2 = 0; s2 < reached; ++s2) {
    const int s = order[s2];
    const int* out = a.delta.data() + static_cast<std::size_t>(s2) * row;
    for (int i = -1; i < D; ++i) {
      for (int d = 1; d <= D; ++d, ++out) {
        const int v = i < d ? renum[a.next(s, i, d)] : 0;
        h.feed(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)));
        same = same && *out == v;
      }
    }
  }
  for (int s2 = 0; s2 < reached; ++s2) {
    const int act = a.lambda[static_cast<std::size_t>(order[s2])];
    const int v = act < 0 ? kStay : act % act_mod;
    h.feed(static_cast<std::uint64_t>(static_cast<std::int64_t>(v)) ^
           0xa5a5a5a5a5a5a5a5ull);
    same = same && a.lambda[static_cast<std::size_t>(s2)] == v;
  }
  if (collapsed != nullptr) *collapsed = !same;
  return h.key();
}

OrbitKey trajectory_automaton_key(const TabularAutomaton& a,
                                  bool* collapsed) {
  const int D = a.max_degree;
  const int K = a.num_states();
  if (K <= kStreamedKeyMaxStates && D <= kStreamedKeyMaxDegree) {
    constexpr int kK = kStreamedKeyMaxStates;
    constexpr int kCells = kK * trajectory_inputs(kStreamedKeyMaxDegree, false);
    std::int8_t order[kK + 1], index[kK], succ[kCells], out[kCells], cls[kK],
        fresh[kK], rep[kK];
    return trajectory_key<std::int8_t>(
        a, collapsed, {order, index, succ, out, cls, fresh, rep});
  }
  const auto k = static_cast<std::size_t>(K);
  const std::size_t cells =
      k * static_cast<std::size_t>(trajectory_inputs(D, false));
  std::vector<std::int32_t> order(k + 1), index(k), succ(cells), out(cells),
      cls(k), fresh(k), rep(k);
  return trajectory_key<std::int32_t>(
      a, collapsed,
      {order.data(), index.data(), succ.data(), out.data(), cls.data(),
       fresh.data(), rep.data()});
}

OrbitKey combine_orbit_keys(const OrbitKey& tree, const OrbitKey& automaton) {
  KeyHasher h;
  h.feed(tree);
  h.feed(automaton);
  return h.key();
}

OrbitKey row_memo_key(const OrbitKey& battery, const OrbitKey& automaton) {
  KeyHasher h;
  h.feed(kRowMemoDomain);
  h.feed(battery);
  h.feed(automaton);
  return h.key();
}

OrbitCache::OrbitCache(unsigned shard_count, std::size_t capacity,
                       std::size_t max_bytes)
    : shards_(std::bit_ceil(std::max<std::size_t>(shard_count, 1))),
      shard_mask_(shards_.size() - 1),
      max_bytes_(max_bytes) {
  const std::size_t per_shard = std::bit_ceil(
      std::max<std::size_t>(capacity / shards_.size(), 8));
  table_bytes_ = shards_.size() * per_shard * sizeof(Slot);
  // Anonymous pages read as zero and are only backed once written: an
  // all-zero Slot is an empty slot, so nothing is initialized here.
  table_ = ::mmap(nullptr, table_bytes_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (table_ == MAP_FAILED) throw std::bad_alloc();
  Slot* const slots = static_cast<Slot*>(table_);
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    shards_[i].slots = slots + i * per_shard;
    shards_[i].mask = per_shard - 1;
  }
}

OrbitCache::~OrbitCache() { ::munmap(table_, table_bytes_); }

const OrbitCache::Slot* OrbitCache::acquire_slot(const OrbitKey& key,
                                                 std::uintptr_t& tag) {
  Shard& sh = shard_for(key);
  // Hit fast path: slots go empty -> published exactly once per epoch and
  // entries are immutable, so a lock-free linear probe suffices.
  if (const Slot* slot = find(sh, key, tag); slot != nullptr) return slot;
  std::unique_lock<std::mutex> lk(sh.mu);
  for (;;) {
    // Re-check under the lock: a publisher may have finished while we
    // queued on the mutex (or while we waited on the condvar).
    if (const Slot* slot = find(sh, key, tag); slot != nullptr) return slot;
    const auto claim =
        std::find(sh.claimed.begin(), sh.claimed.end(), key);
    if (claim == sh.claimed.end()) {
      sh.claimed.push_back(key);
      return nullptr;  // caller is now the publisher
    }
    waits_.fetch_add(1, std::memory_order_relaxed);
    sh.cv.wait(lk);
  }
}

std::shared_ptr<const OrbitCache::OrbitSet> OrbitCache::acquire(
    const OrbitKey& key) {
  std::uintptr_t tag = 0;
  if (acquire_slot(key, tag) == nullptr) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  // Orbit-set and row keys are domain-separated (row_memo_key), so a slot
  // found here holds a set.
  if (row_of(tag) != nullptr) return nullptr;
  return *reinterpret_cast<const std::shared_ptr<const OrbitSet>*>(tag);
}

const std::uint64_t* OrbitCache::acquire_row(const OrbitKey& key) {
  std::uintptr_t tag = 0;
  return acquire_slot(key, tag) == nullptr ? nullptr : row_of(tag);
}

void OrbitCache::publish(const OrbitKey& key,
                         std::shared_ptr<const OrbitSet> set) {
  const std::size_t sz = set != nullptr ? set->bytes : 0;
  install(key, set != nullptr, sz, [&](Shard& sh) {
    return reinterpret_cast<std::uintptr_t>(
        &sh.sets.emplace_back(std::move(set)));
  });
}

void OrbitCache::publish_row(const OrbitKey& key,
                             std::span<const std::uint64_t> row,
                             std::uint64_t computed) {
  misses_.fetch_add(computed, std::memory_order_relaxed);
  install(key, /*entry=*/true, /*bytes=*/0, [&](Shard& sh) {
    std::uint64_t* const copy =
        sh.rows
            .emplace_back(
                std::make_unique_for_overwrite<std::uint64_t[]>(row.size()))
            .get();
    std::copy(row.begin(), row.end(), copy);
    return reinterpret_cast<std::uintptr_t>(copy) | kRowBit;
  });
}

template <typename Make>
void OrbitCache::install(const OrbitKey& key, bool entry, std::size_t bytes,
                         Make make) {
  Shard& sh = shard_for(key);
  {
    const std::lock_guard<std::mutex> lk(sh.mu);
    const auto claim = std::find(sh.claimed.begin(), sh.claimed.end(), key);
    if (claim != sh.claimed.end()) sh.claimed.erase(claim);
    // Keep the probe table under 7/8 load so lookups stay short.
    const std::size_t slots = sh.mask + 1;
    const bool fits = entry &&
                      bytes_.load(std::memory_order_relaxed) + bytes <=
                          max_bytes_ &&
                      sh.filled + 1 <= slots - slots / 8;
    if (fits) {
      std::size_t i = static_cast<std::size_t>(key.hi) & sh.mask;
      while (std::atomic_ref<std::uintptr_t>(sh.slots[i].tag)
                 .load(std::memory_order_relaxed) != 0) {
        i = (i + 1) & sh.mask;
      }
      Slot& slot = sh.slots[i];
      slot.hi = key.hi;
      slot.lo = key.lo;
      std::atomic_ref<std::uintptr_t>(slot.tag).store(
          make(sh), std::memory_order_release);
      ++sh.filled;
      bytes_.fetch_add(bytes, std::memory_order_relaxed);
      publishes_.fetch_add(1, std::memory_order_relaxed);
    } else {
      rejects_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  sh.cv.notify_all();
}

void OrbitCache::abandon(const OrbitKey& key) {
  Shard& sh = shard_for(key);
  {
    const std::lock_guard<std::mutex> lk(sh.mu);
    const auto claim =
        std::find(sh.claimed.begin(), sh.claimed.end(), key);
    if (claim != sh.claimed.end()) sh.claimed.erase(claim);
  }
  sh.cv.notify_all();
}

void OrbitCache::advance_epoch() {
  epoch_.fetch_add(1, std::memory_order_acq_rel);
  for (Shard& sh : shards_) sh.mu.lock();
  // Dropping the pages zeroes every slot again — which is why slots
  // carry no epoch — and the untouched ones cost nothing; memset is the
  // fallback should the kernel refuse.
  if (::madvise(table_, table_bytes_, MADV_DONTNEED) != 0) {
    std::memset(table_, 0, table_bytes_);
  }
  for (Shard& sh : shards_) {
    sh.sets.clear();
    sh.rows.clear();
    sh.filled = 0;
    sh.mu.unlock();
  }
  bytes_.store(0, std::memory_order_relaxed);
}

OrbitCache::Stats OrbitCache::stats() const {
  return {hits_.load(std::memory_order_relaxed),
          misses_.load(std::memory_order_relaxed),
          waits_.load(std::memory_order_relaxed),
          publishes_.load(std::memory_order_relaxed),
          rejects_.load(std::memory_order_relaxed)};
}

}  // namespace rvt::sim
