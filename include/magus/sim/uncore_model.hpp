#pragma once
// Per-die uncore domain: frequency state machine, power curve, and the
// bandwidth-capacity curve that couples uncore frequency to deliverable
// memory throughput (paper Fig. 2). NodeModel::tick calls these methods every
// simulated tick, so they are defined inline here.
//
// The golden determinism tests pin the bit patterns of this arithmetic. Keep
// every expression in its current order -- reassociating a sum or hoisting a
// multiply changes bit patterns and breaks the goldens.

#include <algorithm>

#include "magus/common/contracts.hpp"
#include "magus/common/quantity.hpp"
#include "magus/hw/uncore_freq.hpp"
#include "magus/sim/system_preset.hpp"

namespace magus::sim {

class UncoreModel {
 public:
  /// `share` > 1 models one die of a multi-die socket: power coefficients
  /// and peak bandwidth divide evenly across the dies (x / 1.0 == x, so a
  /// single-die socket keeps the per-socket values bit-exactly).
  explicit UncoreModel(const CpuSpec& spec, int share = 1)
      : ladder_(spec.uncore_min_ghz, spec.uncore_max_ghz),
        util_floor_(spec.uncore_util_floor),
        bw_floor_frac_(spec.bw_floor_frac),
        ladder_max_ghz_(ladder_.max_ghz()),
        policy_limit_ghz_(ladder_max_ghz_),
        firmware_cap_ghz_(ladder_max_ghz_),
        freq_ghz_(ladder_max_ghz_) {
    MAGUS_EXPECT(share >= 1);
    const double dies = static_cast<double>(share);
    leak_w_ = spec.uncore_leak_w / dies;
    k1_w_per_ghz_ = spec.uncore_k1_w_per_ghz / dies;
    k2_w_per_ghz2_ = spec.uncore_k2_w_per_ghz2 / dies;
    peak_mem_bw_mbps_ = spec.peak_mem_bw_mbps / dies;
  }

  /// Policy-programmed max ratio limit (what MSR 0x620 writes set).
  void set_policy_limit(common::Ghz freq) {
    policy_limit_ghz_ = ladder_.clamp_ghz(freq.value());
    MAGUS_ENSURE(policy_limit_ghz_ >= ladder_.min_ghz() &&
                 policy_limit_ghz_ <= ladder_.max_ghz());
  }
  [[nodiscard]] common::Ghz policy_limit() const noexcept {
    return common::Ghz(policy_limit_ghz_);
  }

  /// Firmware cap applied on top of the policy limit (TDP back-off).
  void set_firmware_cap(common::Ghz freq) {
    firmware_cap_ghz_ = ladder_.clamp_ghz(freq.value());
  }
  [[nodiscard]] common::Ghz firmware_cap() const noexcept {
    return common::Ghz(firmware_cap_ghz_);
  }

  /// Advance the frequency state machine: the effective frequency slews
  /// toward min(policy limit, firmware cap) with a short transition time.
  void tick(common::Seconds dt) {
    MAGUS_EXPECT(dt >= common::Seconds(0.0));
    const double target = std::min(policy_limit_ghz_, firmware_cap_ghz_);
    const double max_step = kSlewGhzPerS * dt.value();
    if (freq_ghz_ < target) {
      freq_ghz_ = std::min(target, freq_ghz_ + max_step);
    } else if (freq_ghz_ > target) {
      freq_ghz_ = std::max(target, freq_ghz_ - max_step);
    }
  }

  /// Effective uncore frequency right now.
  [[nodiscard]] common::Ghz freq() const noexcept { return common::Ghz(freq_ghz_); }

  /// Deliverable DRAM bandwidth at the current frequency (per die).
  [[nodiscard]] common::Mbps capacity() const noexcept {
    return capacity_at(common::Ghz(freq_ghz_));
  }
  [[nodiscard]] common::Mbps capacity_at(common::Ghz freq) const noexcept {
    const double frac =
        bw_floor_frac_ + (1.0 - bw_floor_frac_) * (freq.value() / ladder_max_ghz_);
    return common::Mbps(peak_mem_bw_mbps_ * frac);
  }

  /// Uncore power at the current frequency and a given utilisation in [0,1].
  [[nodiscard]] common::Watts power(double utilization) const noexcept {
    const double u = std::clamp(utilization, 0.0, 1.0);
    const double f = freq_ghz_;
    const double dyn = k1_w_per_ghz_ * f + k2_w_per_ghz2_ * f * f;
    const double activity = util_floor_ + (1.0 - util_floor_) * u;
    return common::Watts(leak_w_ + dyn * activity);
  }

  [[nodiscard]] const hw::UncoreFreqLadder& ladder() const noexcept { return ladder_; }

 private:
  /// Uncore frequency transitions complete within ~10 ms (MSR writes are
  /// near-instant; PLL relock and traffic draining dominate).
  static constexpr double kSlewGhzPerS = 150.0;

  hw::UncoreFreqLadder ladder_;
  double leak_w_ = 0.0;
  double k1_w_per_ghz_ = 0.0;
  double k2_w_per_ghz2_ = 0.0;
  double peak_mem_bw_mbps_ = 0.0;
  double util_floor_;
  double bw_floor_frac_;
  double ladder_max_ghz_;    ///< quantised ladder top, not the spec value
  double policy_limit_ghz_;  ///< MSR 0x620 MAX_RATIO, ladder-clamped
  double firmware_cap_ghz_;  ///< TDP back-off cap on top of the limit
  double freq_ghz_;          ///< effective frequency (slews to the min)
};

}  // namespace magus::sim
