#pragma once
// Core domain: the stock per-core DVFS governor (cores *do* adapt to load,
// unlike the uncore -- paper Fig. 1a) plus the core power model and the
// fixed-counter state (instructions / cycles) the UPS baseline reads. The
// per-tick methods are defined inline; keep their expression order (the
// goldens pin the bit patterns). The governor's smoothing factor depends on
// dt alone, so tick() caches it keyed on the last dt (DESIGN.md §12).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "magus/common/quantity.hpp"
#include "magus/sim/system_preset.hpp"

namespace magus::sim {

class CoreModel {
 public:
  explicit CoreModel(const CpuSpec& spec)
      : min_ghz_(spec.core_min_ghz),
        max_ghz_(spec.core_max_ghz),
        idle_w_(spec.core_idle_w),
        dyn_w_(spec.core_dyn_w),
        total_cores_(spec.total_cores()),
        freq_ghz_(min_ghz_) {}

  /// Advance one tick: `util` in [0,1] is average active-core utilisation,
  /// `ipc_eff` the effective instructions-per-cycle after memory stalls.
  void tick(double dt, double util, double ipc_eff) {
    util = std::clamp(util, 0.0, 1.0);
    // Stock DVFS: frequency follows load, saturating toward max under load.
    const double target = std::min(max_ghz_, min_ghz_ + (max_ghz_ - min_ghz_) * util * 1.4);
    if (dt != alpha_dt_) {
      alpha_dt_ = dt;
      alpha_ = 1.0 - std::exp(-dt / kGovernorTau);
    }
    freq_ghz_ += (target - freq_ghz_) * alpha_;

    // Fixed counters advance only while cores are unhalted.
    const double active = std::max(util, 0.02);  // housekeeping threads
    const double cycles_delta = freq_ghz_ * 1e9 * active * dt;
    cycles_ += cycles_delta;
    instructions_ += cycles_delta * std::max(0.05, ipc_eff);
  }

  /// Governor-driven average core frequency (GHz).
  [[nodiscard]] double freq_ghz() const noexcept { return freq_ghz_; }

  /// Display frequency of a representative core (adds per-core spread, used
  /// by the Fig. 1 trace channels).
  [[nodiscard]] double display_freq_ghz(int core, common::Seconds now) const noexcept;

  /// Core (non-uncore) power per socket at the current operating point.
  [[nodiscard]] double power_w(double util) const noexcept {
    util = std::clamp(util, 0.0, 1.0);
    const double ffrac = freq_ghz_ / max_ghz_;
    return idle_w_ + dyn_w_ * util * ffrac * ffrac;
  }

  /// Cumulative fixed counters for core `c` (node-wide indexing).
  [[nodiscard]] std::uint64_t instructions_retired(int core) const;
  [[nodiscard]] std::uint64_t cycles_unhalted(int core) const;
  [[nodiscard]] int core_count() const noexcept { return total_cores_; }

 private:
  static constexpr double kGovernorTau = 0.15;  ///< governor smoothing (s)

  double min_ghz_;
  double max_ghz_;
  double idle_w_;
  double dyn_w_;
  int total_cores_;
  double freq_ghz_;
  double cycles_ = 0.0;        ///< per-core cumulative unhalted cycles
  double instructions_ = 0.0;  ///< per-core cumulative retired instructions
  /// Governor smoothing 1 - exp(-dt/tau) for dt == alpha_dt_ (NaN: unset).
  double alpha_dt_ = std::numeric_limits<double>::quiet_NaN();
  double alpha_ = 0.0;
};

}  // namespace magus::sim
