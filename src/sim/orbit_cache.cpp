#include "sim/orbit_cache.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <new>

namespace rvt::sim {

namespace {

/// Domain word of count-memo keys: no orbit-set key is ever hashed from
/// a stream starting with it.
constexpr std::uint64_t kCountMemoDomain = 0x636f756e742d6d65ull;  // "count-me"

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

OrbitKey canonical_automaton_key(const TabularAutomaton& a) {
  return automaton_orbit_key(canonical_reachable_form(a));
}

OrbitKey combine_orbit_keys(const OrbitKey& tree, const OrbitKey& automaton) {
  KeyHasher h;
  h.feed(tree);
  h.feed(automaton);
  return h.key();
}

OrbitKey count_memo_key(const OrbitKey& grid, const OrbitKey& automaton,
                        CountKind kind) {
  KeyHasher h;
  h.feed(kCountMemoDomain);
  h.feed(static_cast<std::uint64_t>(kind));
  h.feed(grid);
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

OrbitCache::Shard& OrbitCache::shard_for(const OrbitKey& key) {
  return shards_[static_cast<std::size_t>(key.lo >> 53) & shard_mask_];
}

const OrbitCache::Shard& OrbitCache::shard_for(const OrbitKey& key) const {
  return shards_[static_cast<std::size_t>(key.lo >> 53) & shard_mask_];
}

const OrbitCache::OrbitSet* OrbitCache::peek(const OrbitKey& key) const {
  const Node* n =
      find(shard_for(key), key, epoch_.load(std::memory_order_acquire));
  return n != nullptr ? n->set.get() : nullptr;
}

const OrbitCache::Node* OrbitCache::find(const Shard& sh,
                                         const OrbitKey& key,
                                         std::uint64_t epoch) {
  for (std::size_t i = static_cast<std::size_t>(key.hi) & sh.mask;;
       i = (i + 1) & sh.mask) {
    Slot& slot = sh.slots[i];
    const Node* n =
        std::atomic_ref<Node*>(slot.node).load(std::memory_order_acquire);
    if (n == nullptr) return nullptr;  // key absent: slots fill front-first
    if (slot.hi == key.hi && n->key.lo == key.lo && n->epoch == epoch) {
      return n;
    }
  }
}

const OrbitCache::Node* OrbitCache::acquire_node(const OrbitKey& key) {
  Shard& sh = shard_for(key);
  const std::uint64_t ep = epoch_.load(std::memory_order_acquire);
  // Hit fast path: slots go empty -> published exactly once per epoch and
  // entries are immutable, so a lock-free linear probe suffices.
  if (const Node* n = find(sh, key, ep); n != nullptr) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return n;
  }
  std::unique_lock<std::mutex> lk(sh.mu);
  for (;;) {
    // Re-check under the lock: a publisher may have finished while we
    // queued on the mutex (or while we waited on the condvar).
    if (const Node* n = find(sh, key, ep); n != nullptr) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return n;
    }
    const auto claim =
        std::find(sh.claimed.begin(), sh.claimed.end(), key);
    if (claim == sh.claimed.end()) {
      sh.claimed.push_back(key);
      misses_.fetch_add(1, std::memory_order_relaxed);
      return nullptr;  // caller is now the publisher
    }
    waits_.fetch_add(1, std::memory_order_relaxed);
    sh.cv.wait(lk);
  }
}

std::shared_ptr<const OrbitCache::OrbitSet> OrbitCache::acquire(
    const OrbitKey& key) {
  const Node* n = acquire_node(key);
  return n != nullptr ? n->set : nullptr;
}

std::optional<std::uint64_t> OrbitCache::acquire_count(const OrbitKey& key) {
  const Node* n = acquire_node(key);
  if (n == nullptr) return std::nullopt;
  return n->count;
}

void OrbitCache::publish(const OrbitKey& key,
                         std::shared_ptr<const OrbitSet> set) {
  const std::size_t sz = set != nullptr ? set->bytes : 0;
  const bool accept = set != nullptr;
  install(Node{key, 0, std::move(set), 0}, sz, accept);
}

void OrbitCache::publish_count(const OrbitKey& key, std::uint64_t count) {
  install(Node{key, 0, nullptr, count}, sizeof(Node), true);
}

void OrbitCache::install(Node node, std::size_t sz, bool accept) {
  Shard& sh = shard_for(node.key);
  {
    const std::lock_guard<std::mutex> lk(sh.mu);
    const auto claim =
        std::find(sh.claimed.begin(), sh.claimed.end(), node.key);
    if (claim != sh.claimed.end()) sh.claimed.erase(claim);
    // Keep the probe table under 7/8 load so lookups stay short.
    const std::size_t slots = sh.mask + 1;
    const bool fits = accept &&
                      bytes_.load(std::memory_order_relaxed) + sz <=
                          max_bytes_ &&
                      sh.filled + 1 <= slots - slots / 8;
    if (fits) {
      std::size_t i = static_cast<std::size_t>(node.key.hi) & sh.mask;
      while (std::atomic_ref<Node*>(sh.slots[i].node)
                 .load(std::memory_order_relaxed) != nullptr) {
        i = (i + 1) & sh.mask;
      }
      node.epoch = epoch_.load(std::memory_order_relaxed);
      Node& stored = sh.nodes.emplace_back(std::move(node));
      sh.slots[i].hi = stored.key.hi;
      std::atomic_ref<Node*>(sh.slots[i].node)
          .store(&stored, std::memory_order_release);
      ++sh.filled;
      bytes_.fetch_add(sz, std::memory_order_relaxed);
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
  // Dropping the pages zeroes every slot again, and the untouched ones
  // cost nothing; memset is the fallback should the kernel refuse.
  if (::madvise(table_, table_bytes_, MADV_DONTNEED) != 0) {
    std::memset(table_, 0, table_bytes_);
  }
  for (Shard& sh : shards_) {
    sh.nodes.clear();
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
