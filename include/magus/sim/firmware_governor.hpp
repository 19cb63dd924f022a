#pragma once
// Stock Intel firmware behaviour: the uncore frequency is lowered ONLY when
// CPU package power approaches TDP (Andre et al. '22, validated by the
// paper's Fig. 1). This governor reproduces that: below the back-off point
// the firmware cap rides at ladder max regardless of workload, which is the
// power-waste mechanism MAGUS exists to fix. NodeModel::tick updates it once
// per socket per tick, so the step is defined inline here.

#include <algorithm>

#include "magus/common/contracts.hpp"
#include "magus/common/quantity.hpp"
#include "magus/sim/system_preset.hpp"

namespace magus::sim {

class FirmwareGovernor {
 public:
  FirmwareGovernor(const CpuSpec& spec, double backoff_frac)
      : threshold_w_(spec.tdp_w * backoff_frac),
        floor_ghz_(spec.uncore_min_ghz),
        ceiling_ghz_(spec.uncore_max_ghz),
        cap_ghz_(ceiling_ghz_) {}

  /// Evaluate with the current per-socket package power; returns the
  /// firmware uncore cap (unquantised: the uncore clamps it to its ladder).
  common::Ghz update(common::Seconds dt, common::Watts pkg_power_per_socket) {
    MAGUS_EXPECT(dt >= common::Seconds(0.0));
    if (pkg_power_per_socket.value() > threshold_w_) {
      cap_ghz_ = std::max(floor_ghz_, cap_ghz_ - kStepGhz);
      hold_s_ = kRaiseDwellS;
    } else {
      hold_s_ -= dt.value();
      if (hold_s_ <= 0.0 && cap_ghz_ < ceiling_ghz_) {
        cap_ghz_ = std::min(ceiling_ghz_, cap_ghz_ + kStepGhz);
        hold_s_ = kRaiseDwellS;
      }
    }
    MAGUS_ENSURE(cap_ghz_ >= floor_ghz_ && cap_ghz_ <= ceiling_ghz_);
    return common::Ghz(cap_ghz_);
  }

  [[nodiscard]] common::Ghz cap() const noexcept { return common::Ghz(cap_ghz_); }

 private:
  static constexpr double kStepGhz = 0.1;
  static constexpr double kRaiseDwellS = 0.05;

  double threshold_w_;  ///< tdp_w * backoff_frac
  double floor_ghz_;    ///< spec uncore min (unquantised)
  double ceiling_ghz_;  ///< spec uncore max (unquantised)
  double cap_ghz_;
  double hold_s_ = 0.0;  ///< dwell before raising the cap back up
};

}  // namespace magus::sim
