// Batched multi-walk orbit extraction for CompiledConfigEngine.
//
// extract_orbits_batch() advances up to kBatchWalks independent
// configuration walks (different start nodes of one binding) in lockstep
// through one interleaved loop. Each iteration first runs the stamp phase
// lane by lane in a fixed order — check the visit stamp, retire the lane
// on a hit, record the configuration otherwise — and then advances every
// surviving lane one step of the compiled dynamics. The step is where the
// batch pays off: a single walk is a serial chain of dependent indexed
// loads (deg -> delta -> actd -> nbrev), so its throughput is bounded by
// memory latency; eight interleaved walks issue eight independent chains,
// filling the memory-level parallelism the hardware has to offer. The
// step has two structurally identical implementations — a scalar lane
// loop, and an AVX2 kernel that replaces the per-lane loads with vector
// gathers — selected at runtime via sim/simd.hpp. Both stamp in the same
// lane order, so the extracted orbits are bit-identical across paths.
//
// Because the lanes share the epoch's stamp table, a walk can retire
// against a configuration stamped by another IN-FLIGHT lane of the same
// batch, not just against a completed orbit. The resolution pass after
// the stepping loop finalizes lanes in dependency order:
//
//   1. lanes that hit their own stamp close their cycle directly;
//   2. lanes whose hit owner is complete (a previous extraction, or a
//      lane finalized earlier in this pass) splice via the same
//      finalize_merged() path the one-walk extractor uses;
//   3. what remains are dependency rings — lane A retired on a stamp of
//      lane B which retired on a stamp of A (possibly through more
//      lanes). The lanes of a ring jointly walked one new cycle: each
//      lane owns the segment [J_pred, I) of it, where I is the lane's
//      own length and J_pred the index at which its ring predecessor hit
//      it, so lambda is the sum of the segment lengths, each lane's
//      projection tail ends at its segment head (sn_mu = J_pred), and
//      the node/port arrays are completed by splicing the ring segments
//      in order — the entry port at each segment head is the seam port
//      its ring predecessor retired with, exactly the one-walk merge
//      seam rule applied around a ring.
//
// Ring resolution can strand chains (a lane pending on a ring lane), so
// steps 2 and 3 alternate until every lane is finalized. Which start ends
// up owning a shared cycle (Orbit::cycle_root) depends on this order and
// may differ from one-at-a-time extraction; root equality, phases and all
// verdict-relevant fields remain consistent — the differential tests
// assert orbits match field for field.
#include <cstdint>

#include "sim/compiled.hpp"
#include "sim/simd.hpp"

#if defined(RVT_SIMD_AVX2) && defined(__x86_64__)
#include <immintrin.h>
#endif

namespace rvt::sim {

namespace {

/// Flattened-table pointers the lane steppers read (no engine access).
struct StepTables {
  const std::int32_t* deg32;
  const std::int32_t* delta;
  const std::int32_t* actd;
  const std::uint32_t* nbrev;
  std::int32_t D;
};

/// One compiled-dynamics step for every lane in [0, W). Lanes hold
/// (sig, node, in_port) unpacked as int32; sig's low bit is the
/// first-step flag.
void step_lanes_scalar(const StepTables& tb, std::int32_t* sig,
                       std::int32_t* node, std::int32_t* inp,
                       std::size_t W) {
  const std::int32_t D = tb.D;
  for (std::size_t w = 0; w < W; ++w) {
    const std::int32_t d = tb.deg32[node[w]];
    const std::int32_t s2 =
        (sig[w] & 1)
            ? (sig[w] >> 1)
            : tb.delta[(static_cast<std::size_t>(sig[w] >> 1) * (D + 1) +
                        (inp[w] + 1)) *
                           D +
                       (d - 1)];
    const std::int32_t outp =
        tb.actd[static_cast<std::size_t>(s2) * D + (d - 1)];
    sig[w] = s2 << 1;
    if (outp >= 0) {
      const std::uint32_t packed =
          tb.nbrev[static_cast<std::size_t>(node[w]) * D + outp];
      node[w] = static_cast<std::int32_t>(packed >> 8);
      inp[w] = static_cast<std::int32_t>(packed & 255);
    } else {
      inp[w] = -1;
    }
  }
}

#if defined(RVT_SIMD_AVX2) && defined(__x86_64__)
/// The same step as vector gathers over all kBatchWalks lanes at once.
/// Retired lanes keep stepping harmlessly ("zombie lanes"): the compiled
/// map is total, so their state stays in-domain and is simply never read
/// again — cheaper than masking every gather.
__attribute__((target("avx2"))) void step_lanes_avx2(const StepTables& tb,
                                                     std::int32_t* sig,
                                                     std::int32_t* node,
                                                     std::int32_t* inp) {
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i zero = _mm256_setzero_si256();
  const __m256i vD = _mm256_set1_epi32(tb.D);
  const __m256i vD1 = _mm256_set1_epi32(tb.D + 1);

  const __m256i vsig =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(sig));
  const __m256i vnode =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(node));
  const __m256i vinp =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(inp));

  const __m256i vd = _mm256_i32gather_epi32(tb.deg32, vnode, 4);
  const __m256i dm1 = _mm256_sub_epi32(vd, one);
  const __m256i s1 = _mm256_srai_epi32(vsig, 1);
  // delta index: (s1 * (D + 1) + (inp + 1)) * D + (d - 1)
  const __m256i didx = _mm256_add_epi32(
      _mm256_mullo_epi32(
          _mm256_add_epi32(_mm256_mullo_epi32(s1, vD1),
                           _mm256_add_epi32(vinp, one)),
          vD),
      dm1);
  const __m256i vdelta = _mm256_i32gather_epi32(tb.delta, didx, 4);
  // First-step lanes (sig bit 0) act from their state without transition.
  const __m256i first =
      _mm256_cmpeq_epi32(_mm256_and_si256(vsig, one), one);
  const __m256i s2 = _mm256_blendv_epi8(vdelta, s1, first);
  // Resolved action per (state, degree): -1 = stay, else the exit port.
  const __m256i aidx =
      _mm256_add_epi32(_mm256_mullo_epi32(s2, vD), dm1);
  const __m256i vout = _mm256_i32gather_epi32(tb.actd, aidx, 4);
  const __m256i stay = _mm256_cmpgt_epi32(zero, vout);
  // Stay lanes gather port 0 (always in range) and discard the result.
  const __m256i nidx = _mm256_add_epi32(_mm256_mullo_epi32(vnode, vD),
                                        _mm256_max_epi32(vout, zero));
  const __m256i packed = _mm256_i32gather_epi32(
      reinterpret_cast<const std::int32_t*>(tb.nbrev), nidx, 4);
  const __m256i moved_node = _mm256_srli_epi32(packed, 8);
  const __m256i moved_port =
      _mm256_and_si256(packed, _mm256_set1_epi32(255));

  _mm256_store_si256(reinterpret_cast<__m256i*>(sig),
                     _mm256_slli_epi32(s2, 1));
  _mm256_store_si256(reinterpret_cast<__m256i*>(node),
                     _mm256_blendv_epi8(moved_node, vnode, stay));
  _mm256_store_si256(
      reinterpret_cast<__m256i*>(inp),
      _mm256_blendv_epi8(moved_port, _mm256_set1_epi32(-1), stay));
}
#endif

}  // namespace

void CompiledConfigEngine::extract_orbits_batch(
    std::span<const tree::NodeId> starts) const {
  const std::size_t W = starts.size();
  // Lane state, unpacked SoA so the SIMD kernel can load it whole.
  alignas(32) std::int32_t sig[kBatchWalks];
  alignas(32) std::int32_t node[kBatchWalks];
  alignas(32) std::int32_t inp[kBatchWalks];
  struct Lane {
    std::uint32_t start = 0;
    std::uint64_t steps = 0;       ///< own recorded length I
    bool active = false;
    bool resolved = false;
    std::uint32_t hit_owner = 0;   ///< stamp owner the lane retired on
    std::uint32_t hit_j = 0;       ///< stamp index within the owner's walk
    std::int16_t seam_port = 0;    ///< lane's own entry port at retirement
    Orbit* out = nullptr;
  };
  Lane lane[kBatchWalks];

  const std::int32_t init_sig = (automaton_.initial << 1) | 1;
  for (std::size_t w = 0; w < kBatchWalks; ++w) {
    // Unused lanes carry lane 0's start configuration: the SIMD kernel
    // steps all kBatchWalks lanes unconditionally, so every lane must
    // hold in-domain values; inactive lanes never stamp or record.
    const tree::NodeId s = w < W ? starts[w] : starts[0];
    sig[w] = init_sig;
    node[w] = s;
    inp[w] = -1;
    if (w < W) {
      lane[w].start = static_cast<std::uint32_t>(s);
      lane[w].active = true;
      lane[w].out = &orbits_[static_cast<std::size_t>(s)];
      lane[w].out->node.clear();
      lane[w].out->in_port.clear();
    }
  }
  extracted_count_ += W;

  const StepTables tb{deg32_.data(), delta_.data(), actd_.data(),
                      nbrev_.data(), max_deg_};
  const std::uint32_t sig_span =
      static_cast<std::uint32_t>(automaton_.num_states()) * 2;
  const std::int32_t pslots = port_slots_;
#if defined(RVT_SIMD_AVX2) && defined(__x86_64__)
  const bool use_avx2 = simd_enabled();
#endif

  std::size_t remaining = W;
  while (remaining > 0) {
    // Stamp phase, in lane order (the order defines which walk owns a
    // configuration both lanes reach the same iteration — deterministic
    // and identical across the scalar and SIMD step paths).
    for (std::size_t w = 0; w < W; ++w) {
      Lane& L = lane[w];
      if (!L.active) continue;
      const std::int32_t pslot = pslots == 1 ? 0 : inp[w] + 1;
      Stamp& stamp =
          stamps_[(static_cast<std::size_t>(node[w]) * pslots + pslot) *
                      sig_span +
                  sig[w]];
      if (stamp.epoch == epoch_) {
        L.active = false;
        L.hit_owner = stamp.owner;
        L.hit_j = stamp.index;
        L.seam_port = static_cast<std::int16_t>(inp[w]);
        --remaining;
        continue;
      }
      stamp = {epoch_, L.start, static_cast<std::uint32_t>(L.steps)};
      L.out->node.push_back(static_cast<tree::NodeId>(node[w]));
      L.out->in_port.push_back(static_cast<std::int16_t>(inp[w]));
      ++L.steps;
    }
    if (remaining == 0) break;
#if defined(RVT_SIMD_AVX2) && defined(__x86_64__)
    if (use_avx2) {
      step_lanes_avx2(tb, sig, node, inp);
    } else {
      step_lanes_scalar(tb, sig, node, inp, W);
    }
#else
    step_lanes_scalar(tb, sig, node, inp, W);
#endif
  }

  // --- Resolution ---------------------------------------------------------
  const auto lane_of = [&](std::uint32_t owner) -> int {
    for (std::size_t w = 0; w < W; ++w) {
      if (lane[w].start == owner) return static_cast<int>(w);
    }
    return -1;
  };
  const auto finalize_seams = [&](Orbit& out) {
    if (out.in_port[out.sn_mu] == out.in_port[out.sn_mu + out.lambda]) {
      out.mu = out.sn_mu;
      out.node.pop_back();
      out.in_port.pop_back();
    } else {
      out.mu = out.sn_mu + 1;
    }
    build_first_visit(out, n_);
  };

  // 1. Lanes that closed their own cycle.
  std::size_t unresolved = W;
  for (std::size_t w = 0; w < W; ++w) {
    Lane& L = lane[w];
    if (L.hit_owner != L.start) continue;
    Orbit& out = *L.out;
    out.sn_mu = L.hit_j;
    out.lambda = L.steps - L.hit_j;
    out.cycle_root = L.start;
    out.cycle_phase = 0;
    if (out.in_port[out.sn_mu] == L.seam_port) {
      out.mu = out.sn_mu;
    } else {
      out.mu = out.sn_mu + 1;
      out.node.push_back(out.node[out.sn_mu]);  // same projection pair
      out.in_port.push_back(L.seam_port);
    }
    build_first_visit(out, n_);
    orbit_epoch_[L.start] = epoch_;
    L.resolved = true;
    --unresolved;
  }

  while (unresolved > 0) {
    // 2. Chains onto completed orbits (previous extractions or lanes
    // already finalized this pass).
    bool progress = false;
    for (std::size_t w = 0; w < W; ++w) {
      Lane& L = lane[w];
      if (L.resolved) continue;
      const int ow = lane_of(L.hit_owner);
      if (ow >= 0 && !lane[ow].resolved) continue;
      finalize_merged(*L.out, orbits_[L.hit_owner], L.steps, L.hit_j,
                      L.seam_port);
      orbit_epoch_[L.start] = epoch_;
      L.resolved = true;
      --unresolved;
      progress = true;
    }
    if (progress || unresolved == 0) continue;

    // 3. A dependency ring. Follow owner links from the first unresolved
    // lane; the cyclic part of the walk is the ring (the prefix, if any,
    // is a chain step 2 will pick up afterwards).
    int walk_pos[kBatchWalks];
    int walk_order[kBatchWalks];
    for (std::size_t w = 0; w < kBatchWalks; ++w) walk_pos[w] = -1;
    int cur = -1;
    for (std::size_t w = 0; w < W; ++w) {
      if (!lane[w].resolved) {
        cur = static_cast<int>(w);
        break;
      }
    }
    int depth = 0;
    while (walk_pos[cur] < 0) {
      walk_pos[cur] = depth;
      walk_order[depth++] = cur;
      cur = lane_of(lane[cur].hit_owner);  // unresolved in-batch by step 2
    }
    const int ring_begin = walk_pos[cur];
    const int c = depth - ring_begin;
    const int* ring = walk_order + ring_begin;  // r[t]'s owner is r[t+1 mod c]

    // Segment of r[t] is [J_pred, I_t): the jointly-walked cycle in order.
    std::uint64_t lambda = 0;
    std::uint64_t seg_len[kBatchWalks];
    for (int t = 0; t < c; ++t) {
      const Lane& pred = lane[ring[(t + c - 1) % c]];
      seg_len[t] = lane[ring[t]].steps - pred.hit_j;
      lambda += seg_len[t];
    }
    std::uint64_t phase = 0;
    for (int t = 0; t < c; ++t) {
      Lane& L = lane[ring[t]];
      const Lane& pred = lane[ring[(t + c - 1) % c]];
      Orbit& out = *L.out;
      out.lambda = lambda;
      out.sn_mu = pred.hit_j;
      out.cycle_root = lane[ring[0]].start;
      out.cycle_phase = phase;
      // Splice the remaining cycle + seam entry from the ring segments,
      // starting at the lane's own retirement point. Only indices below a
      // host's own length are read, so hosts finalized earlier in this
      // ring (whose arrays have grown) still serve their segment intact.
      const std::uint64_t need = out.sn_mu + lambda + 1;
      int u = (t + 1) % c;
      std::uint64_t m = L.hit_j;
      bool at_head = true;
      for (std::uint64_t i = L.steps; i < need; ++i) {
        const Lane& H = lane[ring[u]];
        const Lane& hpred = lane[ring[(u + c - 1) % c]];
        out.node.push_back(H.out->node[m]);
        out.in_port.push_back(at_head ? hpred.seam_port
                                      : H.out->in_port[m]);
        at_head = false;
        if (++m == H.steps) {
          u = (u + 1) % c;
          m = lane[ring[(u + c - 1) % c]].hit_j;
          at_head = true;
        }
      }
      finalize_seams(out);
      orbit_epoch_[L.start] = epoch_;
      L.resolved = true;
      --unresolved;
      phase += seg_len[t];
    }
  }
}

}  // namespace rvt::sim
