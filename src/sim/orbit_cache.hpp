// Sharded cross-worker defeat-count memo (and orbit-set table).
//
// Exhaustive enumeration fans (automaton x instance) grids across sweep
// workers, and each worker owns a private CompiledConfigEngine. The
// cache memoizes ANSWERS, one ROW per (grid list, trajectory class): the
// defeat count (count_unmet, the one count kind) of every grid of an
// EnumerationContext's battery for one class of automata with the same
// trajectories (trajectory_automaton_key), published under row_memo_key
// — the row key needs no kind. A binding's first count looks its row up
// with one lock-free probe (find_row: no claim, no blocking, no stats),
// and every later count of that binding is read from the row. A row
// lives in its shard's row storage; its probe slot holds the address.
//
// The same table can also hold immutable OrbitSets (snapshot_orbits())
// under a 128-bit content key of the (tree, automaton) binding, through
// acquire() / publish(). No engine adopts a published set, and no
// shipped enumeration path publishes one; the set half stays only for
// the benchmark harness's acquire/publish probes.
//
// Concurrency design:
//  * N shards, selected by key hash. Each shard keeps its published
//    entries in a fixed-capacity open-addressed table of 32-byte slots
//    — the HIT path linear-probes it lock-free (acquire loads only;
//    entries are immutable and never removed within an epoch, so probing
//    is sound without any reader coordination). Capacity is fixed up
//    front: an enumeration knows its scale, and a growable lock-free
//    table is complexity the workloads don't need — a full shard simply
//    rejects further publishes (counted), and the caller recomputes.
//  * The slot tables live in one anonymous mapping: the kernel hands out
//    zero pages on first touch, so construction costs nothing per slot
//    and a sparsely used cache keeps most of its table unbacked.
//  * Misses take the shard mutex. The first worker to miss a key CLAIMS
//    it (acquire()/acquire_row() report a miss) and must publish() /
//    publish_row() or abandon() it; workers that miss a claimed key
//    block on the shard condition variable until the publisher finishes,
//    then adopt the published entry — so nothing is computed twice for
//    one (key, epoch), which the concurrency tests assert. (If a publish is rejected over budget or
//    capacity, or a claim abandoned, the blocked workers re-contend and
//    one of them recomputes — the no-duplicate guarantee is best-effort
//    only once the table is full.)
//  * Epochs invalidate in O(1): advance_epoch() bumps the epoch counter,
//    zeroes the whole slot table and frees the orbit sets and rows. It
//    is NOT safe concurrently with acquire/publish — quiesce workers
//    between sweeps first (the enumeration harness does: epochs advance
//    between phases, never inside one). Because every slot is empty
//    again afterwards, no entry needs to record the epoch it was
//    published in.
//
// The memory budget (max_bytes) caps the bytes of published ORBIT SETS;
// past it, their publishes are rejected (counted) and workers simply keep
// their private results — the cache degrades to a no-op rather than
// evicting under readers. Rows are not charged against it: each takes a
// slot, so slot capacity x grid count bounds them. A cache that serves
// one known workload should be sized for it (capacity_for): the table is
// 32 bytes per slot, and a hashed workload touches every page of it.
// svc::run_worker and `rvt_cli shard run` pass dist::memo_cache_capacity,
// room for one row per enumeration index of their workload.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "sim/compiled.hpp"

namespace rvt::sim {

/// 128-bit content key identifying one (tree, automaton) binding. Two
/// independent 64-bit FNV-1a streams over the serialized tables make an
/// accidental collision astronomically unlikely at enumeration scale
/// (~2^-65 per pair of distinct bindings).
struct OrbitKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend bool operator==(const OrbitKey&, const OrbitKey&) = default;
};

/// The streaming hash behind every key: feed 64-bit words, read the key.
/// Two independent FNV-1a-style streams (different offset bases and an
/// extra avalanche on the low half) over the same words.
class KeyHasher {
 public:
  void feed(std::uint64_t word) {
    hi_ = (hi_ ^ word) * 0x100000001b3ull;
    lo_ = (lo_ ^ (word * 0xff51afd7ed558ccdull)) * 0xc4ceb9fe1a85ec53ull;
    lo_ ^= lo_ >> 33;
  }
  void feed(const OrbitKey& k) {
    feed(k.hi);
    feed(k.lo);
  }
  OrbitKey key() const { return {hi_, lo_}; }

 private:
  std::uint64_t hi_ = 0xcbf29ce484222325ull;
  std::uint64_t lo_ = 0x9e3779b97f4a7c15ull;
};

/// Content hash of a tree's port-labeled structure (degree sequence +
/// (neighbor, reverse port) per port). Compute once per tree and combine
/// with automaton keys — hashing the tree per rebind would waste the
/// zero-allocation sweep loop.
OrbitKey tree_orbit_key(const tree::Tree& t);
/// Content hash of an automaton's tables.
OrbitKey automaton_orbit_key(const TabularAutomaton& a);
/// Content hash of the automaton's canonical reachable form
/// (sim::canonical_reachable_form): enumerated bindings that differ only
/// in unreachable states, state numbering, impossible-input entries or
/// degree-equivalent actions hash to ONE key. Key-equal automata walk
/// the same (state, node) configurations, so they share full verdicts,
/// rounds_checked and cycle_length included — the key for orbit sets.
/// Count rows use the coarser trajectory_automaton_key.
///
/// Always equal to automaton_orbit_key(canonical_reachable_form(a)), but
/// computed without building the canonical table: the BFS renumbering
/// runs in stack arrays and the canonical words stream straight into the
/// hasher, so keying allocates nothing (automata above
/// kStreamedKeyMaxStates states or kStreamedKeyMaxDegree fall back to the
/// allocating form). When `collapsed` is non-null it receives whether
/// the canonical form differs from `a` itself, i.e.
/// !(canonical_reachable_form(a) == a).
OrbitKey canonical_automaton_key(const TabularAutomaton& a,
                                 bool* collapsed = nullptr);
/// Bounds of the allocation-free paths of canonical_automaton_key and
/// trajectory_automaton_key.
inline constexpr int kStreamedKeyMaxStates = 64;
inline constexpr int kStreamedKeyMaxDegree = 16;
/// Key of the automaton's TRAJECTORY CLASS, the count memo's row key:
/// automata sharing it give the same position sequence from every start
/// on every tree of max degree <= D. The table is read as a Mealy
/// machine over every input (entry port i, degree d), -1 <= i < d <= D:
/// on input (i, d) state s moves to s' = next(s, i, d) and outputs what
/// acting with lambda(s') at a degree-d node does (kStay, or the exit
/// port lambda(s') mod d). Two states are equivalent iff on every input
/// their outputs agree and their successors are equivalent; the key
/// hashes the minimized reachable machine. Unlike the canonical key it
/// merges states that differ only in ways no trajectory shows (actions
/// that agree on the degrees the state is entered at, successors that
/// are themselves equivalent).
///
/// Exact for defeat COUNTS, not for full verdicts: met / gathered depend
/// only on the agents' positions (a first meeting, if any, comes before
/// the Brent detection round), while rounds_checked and cycle_length
/// follow the cycle of (state, node) configurations, which merging
/// states can shorten. Key only what a trajectory determines with it.
///
/// The hashed words, in order: (classes << 32 | D); the initial state's
/// act_code(lambda(initial), d) + 1 for d = 1..D, 5 bits each, packed
/// 12 per word from the low bits (act_code: kStay, or the action mod d);
/// then per class in BFS order from the initial state's class
/// (successors met in input order: d ascending, then i ascending) and per
/// degree d = 1..D: when all d + 1 entry ports give one (output,
/// successor), the single word 2^63 | (output + 1) << 32 | successor's
/// BFS number; otherwise one such word without the top bit per entry port
/// i = -1..d-1. When no reachable state's successor depends on the entry
/// port, the refinement reads one input per degree and gives the same
/// words. Allocation-free within kStreamedKeyMaxStates /
/// kStreamedKeyMaxDegree (stack arrays), allocating above. `collapsed`,
/// when non-null, receives whether the class has fewer states than `a`
/// (unreachable or merged states).
OrbitKey trajectory_automaton_key(const TabularAutomaton& a,
                                  bool* collapsed = nullptr);
/// Order-sensitive combination of two keys.
OrbitKey combine_orbit_keys(const OrbitKey& tree, const OrbitKey& automaton);

/// Key of one memoized count row: the battery key of a grid list (its
/// grids' content keys in order — see EnumerationContext) x the
/// automaton's trajectory key. A row holds count_unmet's counts, the one
/// count kind. Domain-separated from the orbit-set keys of
/// combine_orbit_keys, so both share one table.
OrbitKey row_memo_key(const OrbitKey& battery, const OrbitKey& automaton);

class OrbitCache {
 public:
  using OrbitSet = CompiledConfigEngine::OrbitSet;

  struct Stats {
    /// acquire()s served a published set, plus row counts served
    /// (add_hits)
    std::uint64_t hits = 0;
    /// acquire()s granted a claim, plus grid counts computed into rows
    /// (publish_row)
    std::uint64_t misses = 0;
    std::uint64_t waits = 0;      ///< lookups blocked on another's claim
    std::uint64_t publishes = 0;  ///< entries (sets, rows) accepted
    std::uint64_t rejects = 0;    ///< publishes dropped (budget/capacity)
  };

  /// `shard_count` is rounded up to a power of two (default 16);
  /// `capacity` is the total slot count across shards (rounded so each
  /// shard's table is a power of two; at most 7/8 of the slots fill, so
  /// the default 2^19 slots — a 16 MiB table — hold ~458k entries; a
  /// K = 3 campaign pass memoizes 3476 rows); `max_bytes` caps the
  /// approximate footprint of published orbit sets (default 2 GiB — far
  /// above the batteries' needs, so rejects only guard runaway
  /// workloads). Rows are not charged against it.
  explicit OrbitCache(unsigned shard_count = 16,
                      std::size_t capacity = std::size_t{1} << 19,
                      std::size_t max_bytes = std::size_t{1} << 31);
  ~OrbitCache();

  OrbitCache(const OrbitCache&) = delete;
  OrbitCache& operator=(const OrbitCache&) = delete;

  /// The `capacity` that holds `entries` published entries at the 7/8
  /// load limit (before the per-shard power-of-two rounding).
  static constexpr std::size_t capacity_for(std::size_t entries) {
    return (entries * 8 + 6) / 7;
  }

  /// Lock-free on hit: the published set for `key` in the current epoch.
  /// On miss the caller becomes the key's PUBLISHER (returns nullptr) and
  /// must call publish() or abandon() for the same key — other workers
  /// asking for it block until then.
  std::shared_ptr<const OrbitSet> acquire(const OrbitKey& key);

  /// Publishes the claimed key's set and wakes its waiters. Over budget
  /// the set is dropped (waiters wake, re-contend, and one re-extracts).
  void publish(const OrbitKey& key, std::shared_ptr<const OrbitSet> set);

  /// Non-claiming lock-free row lookup: the counts published under `key`
  /// (as many as the publisher's row held), or nullptr — with no claim,
  /// no blocking and no stats. The row stays valid until advance_epoch().
  /// A nullptr proves nothing about later calls (another worker may be
  /// computing the row): acquire_row() claims it. A caller serving counts
  /// from a row reports them through add_hits().
  const std::uint64_t* find_row(const OrbitKey& key) const {
    std::uintptr_t tag = 0;
    return find(shard_for(key), key, tag) == nullptr ? nullptr : row_of(tag);
  }

  /// The claiming row lookup: the published row, or nullptr — and then
  /// the caller holds the claim and must call publish_row() or abandon().
  /// Blocks while another worker holds the claim, then adopts its row.
  /// Records waits only: the caller accounts hits (add_hits) and misses
  /// (publish_row) per count.
  const std::uint64_t* acquire_row(const OrbitKey& key);

  /// Publishes a copy of the claimed key's row and wakes its waiters;
  /// `computed` grid counts of it were computed by the caller, each one
  /// miss (counted even when a full shard rejects the row, and the
  /// waiters then recompute). Charges no bytes.
  void publish_row(const OrbitKey& key, std::span<const std::uint64_t> row,
                   std::uint64_t computed);

  /// Adds `n` counts served from rows to stats().hits.
  void add_hits(std::uint64_t n) {
    hits_.fetch_add(n, std::memory_order_relaxed);
  }

  /// Releases a claim without publishing (the computation failed);
  /// waiters re-contend for the claim.
  void abandon(const OrbitKey& key);

  /// Invalidates every entry and frees them. Requires quiescence: no
  /// concurrent acquire/publish, no outstanding claims.
  void advance_epoch();

  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  /// Approximate bytes of the published orbit sets (rows cost none).
  std::size_t bytes() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  Stats stats() const;

 private:
  /// One probe slot, padded to 32 bytes so it never straddles a cache
  /// line (the table is page-aligned). Trivially zero-initialized: the
  /// table is a fresh anonymous mapping, and an all-zero slot is empty.
  ///
  /// `tag` is the publication marker, only ever accessed through
  /// std::atomic_ref: 0 = empty; with kRowBit set, the address of a row
  /// in its shard's `rows` (plus the bit); otherwise the address of the
  /// published orbit set's shared_ptr in its shard's `sets`. The
  /// publisher (under the shard mutex, into an empty slot) writes hi and
  /// lo first and then release-stores tag; readers acquire-load tag and
  /// read the key (and the entry it points at) only once it is non-zero.
  /// A slot is written once per epoch, so those plain reads never race
  /// with a write.
  struct alignas(32) Slot {
    std::uintptr_t tag;
    std::uint64_t hi;
    std::uint64_t lo;
  };
  static_assert(sizeof(Slot) == 32);
  static constexpr std::uintptr_t kRowBit = 1;  ///< entries are 8-aligned

  static const std::uint64_t* row_of(std::uintptr_t tag) {
    return (tag & kRowBit) == 0
               ? nullptr
               : reinterpret_cast<const std::uint64_t*>(tag & ~kRowBit);
  }

  struct Shard {
    /// Open-addressed, linear-probed, power-of-two sized window of the
    /// shared mapping. Slots go from empty to published exactly once per
    /// epoch (store-release under the shard mutex); readers probe with
    /// acquire loads only.
    Slot* slots = nullptr;
    std::size_t mask = 0;
    std::size_t filled = 0;  ///< guarded by mu
    std::mutex mu;
    std::condition_variable cv;
    std::vector<OrbitKey> claimed;  ///< keys currently being computed
    /// Orbit-set storage; the deque keeps the elements in place, so a
    /// slot's tag can point at one.
    std::deque<std::shared_ptr<const OrbitSet>> sets;
    /// Row storage; each row is its own array, so a tag can point at it.
    std::vector<std::unique_ptr<std::uint64_t[]>> rows;
  };

  /// The claim protocol shared by acquire() and acquire_row(): the
  /// published slot (its acquire-loaded tag in `tag`), or nullptr when
  /// the caller now holds the claim. Counts waits only.
  const Slot* acquire_slot(const OrbitKey& key, std::uintptr_t& tag);
  /// Releases the claim and, when `entry` and there is room (the shard
  /// under 7/8 load, `bytes` within the byte budget), installs the tag
  /// that make(shard) returns. Wakes waiters.
  template <typename Make>
  void install(const OrbitKey& key, bool entry, std::size_t bytes,
               Make make);

  Shard& shard_for(const OrbitKey& key) {
    return shards_[static_cast<std::size_t>(key.lo >> 53) & shard_mask_];
  }
  const Shard& shard_for(const OrbitKey& key) const {
    return shards_[static_cast<std::size_t>(key.lo >> 53) & shard_mask_];
  }
  /// Lock-free probe for `key`: the published slot or nullptr, with its
  /// acquire-loaded tag in `tag`.
  static const Slot* find(const Shard& sh, const OrbitKey& key,
                          std::uintptr_t& tag) {
    for (std::size_t i = static_cast<std::size_t>(key.hi) & sh.mask;;
         i = (i + 1) & sh.mask) {
      Slot& slot = sh.slots[i];
      tag = std::atomic_ref<std::uintptr_t>(slot.tag).load(
          std::memory_order_acquire);
      if (tag == 0) return nullptr;  // key absent: slots fill front-first
      if (slot.hi == key.hi && slot.lo == key.lo) return &slot;
    }
  }

  std::vector<Shard> shards_;
  std::size_t shard_mask_ = 0;
  std::size_t max_bytes_ = 0;
  void* table_ = nullptr;  ///< the anonymous mapping behind every shard
  std::size_t table_bytes_ = 0;
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::size_t> bytes_{0};
  std::atomic<std::uint64_t> hits_{0}, misses_{0}, waits_{0}, publishes_{0},
      rejects_{0};
};

}  // namespace rvt::sim
