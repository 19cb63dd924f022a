#pragma once
// GPU board model: SM-clock governor (adapts to load, Fig. 1b) and board
// power including the idle floor that dominates the multi-GPU energy
// economics in Fig. 4c. tick() runs every simulated tick, so it is defined
// inline; keep its expression order (the goldens pin the bit patterns).

#include <algorithm>
#include <cmath>

#include "magus/sim/system_preset.hpp"

namespace magus::sim {

class GpuModel {
 public:
  explicit GpuModel(const GpuSpec& spec)
      : base_clock_ghz_(spec.base_clock_ghz),
        max_clock_ghz_(spec.max_clock_ghz),
        idle_w_(spec.idle_w),
        peak_w_(spec.peak_w),
        count_(spec.count),
        clock_ghz_(base_clock_ghz_),
        power_w_(idle_w_ * count_) {}

  /// Advance one tick with the *effective* utilisation (workload utilisation
  /// divided by the node stretch factor: a starved host pipeline stalls the
  /// device).
  void tick(double dt, double util_effective) {
    const double util = std::clamp(util_effective, 0.0, 1.0);
    // SM clock boosts with load (sub-linear: boost bins saturate early).
    const double target =
        base_clock_ghz_ + (max_clock_ghz_ - base_clock_ghz_) * std::pow(util, 0.7);
    const double alpha = 1.0 - std::exp(-dt / kGovernorTau);
    clock_ghz_ += (target - clock_ghz_) * alpha;

    const double clock_frac = clock_ghz_ / max_clock_ghz_;
    const double per_board = idle_w_ + (peak_w_ - idle_w_) * util * clock_frac * clock_frac;
    power_w_ = per_board * count_;
    energy_j_ += power_w_ * dt;
  }

  [[nodiscard]] double clock_ghz() const noexcept { return clock_ghz_; }

  /// Board power (all `count` boards summed).
  [[nodiscard]] double power_w() const noexcept { return power_w_; }

  /// Cumulative board energy in joules (all boards).
  [[nodiscard]] double energy_j() const noexcept { return energy_j_; }

  [[nodiscard]] int count() const noexcept { return count_; }

  /// Per-board power (power_w() / count).
  [[nodiscard]] double board_power_w() const noexcept {
    return count_ > 0 ? power_w_ / count_ : 0.0;
  }

 private:
  static constexpr double kGovernorTau = 0.08;  ///< governor smoothing (s)

  double base_clock_ghz_;
  double max_clock_ghz_;
  double idle_w_;
  double peak_w_;
  int count_;
  double clock_ghz_;
  double power_w_;  ///< all boards summed
  double energy_j_ = 0.0;
};

}  // namespace magus::sim
