#pragma once
// Per-node power-cap schedule.
//
// The fleet-level budget allocator (fleet/allocator.hpp) redistributes a
// global Watts budget across nodes once per epoch of *simulated* time; each
// node receives its slice as a PowerCapSchedule and the cap-aware policies
// (ecoshift, comppow) read the cap in force at every monitoring sample. A
// schedule is plain data -- computed once from the manifest before any node
// runs, copied into the policies at make time -- so it adds no cross-node
// coupling at simulation time and the byte-identical determinism contract
// (results depend only on seed + manifest) is preserved at any job count.

#include <vector>

#include "magus/common/quantity.hpp"

namespace magus::core {

/// One node's power cap over simulated time: `epoch_cap_w[e]` is the cap in
/// Watts during epoch e = floor(t / epoch_s), the last entry holding beyond
/// the schedule (a node stretched past its estimated runtime keeps its final
/// allocation). `fixed_cap_w` is the static, manifest-set node cap used
/// when no epoch schedule exists. An inactive schedule means "uncapped".
struct PowerCapSchedule {
  double epoch_s = 1.0;
  double fixed_cap_w = 0.0;          ///< 0 = no static cap
  std::vector<double> epoch_cap_w;   ///< empty = no epoch schedule

  [[nodiscard]] bool active() const noexcept {
    return fixed_cap_w > 0.0 || (!epoch_cap_w.empty() && epoch_s > 0.0);
  }

  /// Cap in force at simulated time `now`; +infinity when inactive (a
  /// cap-aware policy under an inactive schedule can never be over cap).
  [[nodiscard]] double cap_at(common::Seconds now) const noexcept;
};

}  // namespace magus::core
