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

OrbitKey combine_orbit_keys(const OrbitKey& tree, const OrbitKey& automaton) {
  KeyHasher h;
  h.feed(tree);
  h.feed(automaton);
  return h.key();
}

OrbitKey row_memo_key(const OrbitKey& battery, const OrbitKey& automaton,
                      CountKind kind) {
  KeyHasher h;
  h.feed(kRowMemoDomain);
  h.feed(static_cast<std::uint64_t>(kind));
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

const OrbitCache::OrbitSet* OrbitCache::peek(const OrbitKey& key) const {
  std::uintptr_t tag = 0;
  if (find(shard_for(key), key, tag) == nullptr || row_of(tag) != nullptr) {
    return nullptr;
  }
  return reinterpret_cast<const std::shared_ptr<const OrbitSet>*>(tag)
      ->get();
}

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
