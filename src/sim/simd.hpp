// Name of the orbit-extraction path, for the benchmark harness's header
// line. Orbits are always extracted one walk at a time, so this is a
// constant; the next change to the benchmark harness drops its use and
// deletes this header.
#pragma once

namespace rvt::sim {

inline const char* simd_path_name() { return "scalar"; }

}  // namespace rvt::sim
