// The shared verification verdict (one type for every engine).
//
// Both the compiled configuration engine (sim/compiled.hpp) and the legacy
// per-round reference stepper (lowerbound/verify.cpp) answer the same
// question — does a specific agent pair on a specific instance ever meet,
// and if not, is non-meeting certified forever by a configuration cycle? —
// so they share one verdict struct. `engine` records which engine actually
// produced the verdict: the dispatcher in lowerbound::verify_never_meet
// picks an engine by capability and budget, and a silent fallback to the
// (orders of magnitude slower) reference stepper used to be invisible to
// callers; benches now assert on the field.
#pragma once

#include <cstddef>
#include <cstdint>

namespace rvt::sim {

/// Which engine produced a Verdict.
enum class VerifyEngine : std::uint8_t {
  kNone = 0,   ///< default-constructed / not yet verified
  kCompiled,   ///< compiled configuration engine (sim/compiled.hpp)
  kReference,  ///< legacy per-round Brent stepper (lowerbound/verify.cpp)
};

inline const char* to_string(VerifyEngine e) {
  switch (e) {
    case VerifyEngine::kCompiled:
      return "compiled";
    case VerifyEngine::kReference:
      return "reference";
    default:
      return "none";
  }
}

struct Verdict {
  bool met = false;                 ///< construction FAILED if true
  std::uint64_t meeting_round = 0;  ///< valid when met
  bool certified_forever = false;   ///< configuration cycle found
  std::uint64_t cycle_length = 0;   ///< period of the certified cycle
  std::uint64_t rounds_checked = 0;
  VerifyEngine engine = VerifyEngine::kNone;
};

/// Historical name from when the compiled engine kept its own mirror of
/// lowerbound::NeverMeetResult; both are now the same type.
using CompiledVerdict = Verdict;

/// Most agents a gathering query may carry (paper §1.3: k >= 2 agents must
/// co-locate). A compile-time cap keeps the k-tuple verdict core's state on
/// the stack — battery loops refresh it millions of times — and 8 is far
/// above the k = 3, 4 the gathering workloads exercise.
inline constexpr std::size_t kMaxGatherAgents = 8;

/// Verdict of a k-agent gathering query, mirroring sim::GatherResult (the
/// interpreting reference in sim/simulator.cpp) field for field where both
/// can speak: `gathered`/`gather_round`/`gather_node` match the reference
/// exactly, and `rounds_checked` equals the reference's rounds_executed
/// (the gathering round when gathered, the full horizon otherwise — the
/// reference has no early-out certificate). `certified_forever` is
/// compiled-only enrichment: the k-fold joint configuration is periodic
/// once every agent is in-cycle, so scanning one joint period (or proving
/// some pair can never co-locate in-cycle) certifies never-gathering
/// beyond any horizon, which the per-round reference cannot do.
struct GatherVerdict {
  bool gathered = false;             ///< construction FAILED if true
  std::uint64_t gather_round = 0;    ///< valid when gathered
  std::int32_t gather_node = -1;     ///< tree::NodeId; valid when gathered
  bool certified_forever = false;    ///< never-gather proven for all rounds
  std::uint64_t cycle_length = 0;    ///< joint period (lcm of the k cycle
                                     ///< lengths) when certified; 0 when
                                     ///< the lcm overflowed (a pairwise
                                     ///< table certificate needs no period)
  std::uint64_t rounds_checked = 0;  ///< == reference rounds_executed
  VerifyEngine engine = VerifyEngine::kNone;
};

}  // namespace rvt::sim
