#include "sim/occupancy.hpp"

#include <algorithm>
#include <bit>
#include <tuple>

#include "sim/verify_core.hpp"

namespace rvt::sim {

namespace {

inline std::uint64_t saturating_add(std::uint64_t x, std::uint64_t y) {
  return x > UINT64_MAX - y ? UINT64_MAX : x + y;
}

}  // namespace

CountPlan plan_counts(std::span<const tree::NodeId> starts,
                      std::span<const std::uint64_t> delays,
                      std::span<const tree::NodeId> distinct,
                      std::uint64_t max_rounds) {
  CountPlan plan;
  if (distinct.size() > kOccupancyStarts) return plan;
  tree::NodeId top = 0;
  for (const tree::NodeId s : distinct) top = std::max(top, s);
  std::vector<std::uint8_t> bit(static_cast<std::size_t>(top) + 1, 0);
  for (std::size_t i = 0; i < distinct.size(); ++i) {
    bit[static_cast<std::size_t>(distinct[i])] = static_cast<std::uint8_t>(i);
  }
  // Canonical form of a query: b starts no later than a, time runs from
  // the round before b's first move (both agents sit on their distinct
  // starts until then), and a is delayed by the gap.
  struct Item {
    std::uint8_t a;
    std::uint64_t gap;
    std::uint64_t horizon;
    std::uint8_t b;
  };
  std::vector<Item> items;
  items.reserve(starts.size() / 2);
  for (std::size_t q = 0; 2 * q < starts.size(); ++q) {
    const tree::NodeId* s = starts.data() + 2 * q;
    const std::uint64_t* d = delays.data() + 2 * q;
    const bool swap = d[0] < d[1];
    const std::uint64_t lo = swap ? d[0] : d[1];
    const std::uint64_t hi = swap ? d[1] : d[0];
    if (lo >= max_rounds) {  // nobody moves within the horizon
      ++plan.never;
      continue;
    }
    items.push_back({bit[static_cast<std::size_t>(swap ? s[1] : s[0])],
                     hi - lo, max_rounds - lo,
                     bit[static_cast<std::size_t>(swap ? s[0] : s[1])]});
  }
  std::sort(items.begin(), items.end(), [](const Item& x, const Item& y) {
    return std::tie(x.a, x.gap, x.horizon) < std::tie(y.a, y.gap, y.horizon);
  });
  for (const Item& it : items) {
    if (plan.masks.empty() || plan.masks.back().a != it.a ||
        plan.masks.back().gap != it.gap ||
        plan.masks.back().horizon != it.horizon) {
      plan.masks.push_back({it.a, it.gap, it.horizon, 0});
      if (it.gap < it.horizon) plan.max_gap = std::max(plan.max_gap, it.gap);
      plan.max_horizon = std::max(plan.max_horizon, it.horizon);
    }
    const std::uint64_t b = std::uint64_t{1} << it.b;
    if ((plan.masks.back().want & b) != 0) {
      plan.repeats.push_back((plan.masks.size() - 1) << 6 | it.b);
    }
    plan.masks.back().want |= b;
  }
  return plan;
}

std::optional<std::uint64_t> OccupancyCounter::count_unmet(
    std::span<const Orbit* const> orbits, const CountPlan& plan,
    std::size_t nodes) {
  if (orbits.size() > kOccupancyStarts) return std::nullopt;
  const std::size_t n = nodes;
  // reach = H + L - 1, H the longest tail and L the largest lcm of two
  // cycle lengths. b's first visit to a parked a, if any, falls at or
  // before round reach; once a walks (from round gap + 1), both agents
  // are in-cycle from Tc <= gap + H, so their first meeting, if any,
  // falls at or before Tc + lcm(lambda_a, lambda_b) - 1 <= gap + reach.
  std::uint64_t tail = 0;
  std::uint64_t period = 1;
  std::uint64_t lens[kOccupancyStarts];
  std::size_t nlens = 0;
  for (const Orbit* o : orbits) {
    tail = std::max(tail, o->mu);
    if (std::find(lens, lens + nlens, o->lambda) == lens + nlens) {
      lens[nlens++] = o->lambda;
    }
  }
  for (std::size_t i = 0; i < nlens; ++i) {
    for (std::size_t j = i; j < nlens; ++j) {
      period = std::max(period, detail::saturating_lcm(lens[i], lens[j]));
    }
  }
  const std::uint64_t reach = saturating_add(tail, period) - 1;
  const std::uint64_t rows =
      std::min(plan.max_horizon, saturating_add(plan.max_gap, reach));
  if (rows > kOccupancyWords / n) return std::nullopt;

  // occ_[t * n + w]: starts whose undelayed agent is on w at round t + 1.
  occ_.assign(static_cast<std::size_t>(rows) * n, 0);
  for (std::size_t i = 0; i < orbits.size(); ++i) {
    const Orbit& o = *orbits[i];
    const std::uint64_t bit = std::uint64_t{1} << i;
    const tree::NodeId* node = o.node.data();
    const std::size_t size = o.node.size();
    std::size_t j = 0;
    std::uint64_t* row = occ_.data();
    for (std::uint64_t t = 0; t < rows; ++t, row += n) {
      if (++j == size) j = o.mu;
      row[node[j]] |= bit;
    }
  }

  // One OR per mask, shared by the masks of one (a, gap): horizons run
  // ascending, so each extends the rounds of the one before.
  masks_.resize(plan.masks.size());
  std::uint64_t unmet = plan.never;
  const std::uint64_t* occ = occ_.data();
  for (std::size_t k = 0; k < plan.masks.size();) {
    const std::uint8_t a = plan.masks[k].a;
    const std::uint64_t gap = plan.masks[k].gap;
    const Orbit& o = *orbits[a];
    const tree::NodeId* node = o.node.data();
    const std::size_t size = o.node.size();
    const std::uint64_t* parked_col = occ + node[0];  // a's start
    const std::uint64_t parked_cap = std::min(gap, reach);
    const std::uint64_t walk_cap = saturating_add(gap, reach);
    std::uint64_t acc = 0;
    std::uint64_t parked = 0;  // parked rounds ORed so far
    std::uint64_t t = gap;     // last walking round ORed so far
    std::size_t j = 0;
    for (; k < plan.masks.size() && plan.masks[k].a == a &&
           plan.masks[k].gap == gap;
         ++k) {
      const std::uint64_t horizon = plan.masks[k].horizon;
      for (const std::uint64_t end = std::min(parked_cap, horizon);
           parked < end; ++parked) {
        acc |= parked_col[parked * n];
      }
      for (const std::uint64_t end = std::min(walk_cap, horizon); t < end;
           ++t) {
        if (++j == size) j = o.mu;
        acc |= occ[t * n + static_cast<std::size_t>(node[j])];
      }
      masks_[k] = acc;
      unmet += static_cast<std::uint64_t>(
          std::popcount(plan.masks[k].want & ~acc));
    }
  }
  for (const std::uint64_t r : plan.repeats) {
    unmet += ((masks_[r >> 6] >> (r & 63)) & 1) ^ 1;
  }
  return unmet;
}

}  // namespace rvt::sim
