#pragma once
// GPU board model: SM-clock governor (adapts to load, Fig. 1b) and board
// power including the idle floor that dominates the multi-GPU energy
// economics in Fig. 4c. tick() runs every simulated tick, so it is defined
// inline; keep its expression order (the goldens pin the bit patterns). The
// governor smoothing factor and the boost curve are pure functions of dt and
// the clamped utilisation, so tick() caches each keyed on its last input
// (DESIGN.md §12).

#include <algorithm>
#include <cmath>
#include <limits>

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
    if (util != boost_util_) {
      boost_util_ = util;
      boost_ = std::pow(util, 0.7);
    }
    const double target = base_clock_ghz_ + (max_clock_ghz_ - base_clock_ghz_) * boost_;
    if (dt != alpha_dt_) {
      alpha_dt_ = dt;
      alpha_ = 1.0 - std::exp(-dt / kGovernorTau);
    }
    clock_ghz_ += (target - clock_ghz_) * alpha_;

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
  /// pow(util, 0.7) for util == boost_util_ (NaN: unset).
  double boost_util_ = std::numeric_limits<double>::quiet_NaN();
  double boost_ = 0.0;
  /// Governor smoothing 1 - exp(-dt/tau) for dt == alpha_dt_ (NaN: unset).
  double alpha_dt_ = std::numeric_limits<double>::quiet_NaN();
  double alpha_ = 0.0;
};

}  // namespace magus::sim
