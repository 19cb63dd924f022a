#include "magus/baseline/ecoshift.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>

#include "magus/core/policy_factory.hpp"

namespace magus::baseline {

EcoShiftController::EcoShiftController(hw::IMemThroughputCounter& mem_counter,
                                       hw::IEnergyCounter& energy_counter,
                                       hw::IMsrDevice& msr,
                                       const hw::UncoreFreqLadder& ladder,
                                       EcoShiftConfig cfg,
                                       const core::PowerCapSchedule* cap,
                                       hw::IUncoreDomainSet* domains)
    : energy_counter_(energy_counter),
      domains_(msr, ladder, &mem_counter, domains),
      cfg_(cfg),
      share_mbps_per_ghz_(cfg.capacity_mbps_per_ghz / static_cast<double>(domains_.count())),
      domain_prev_mb_(static_cast<std::size_t>(domains_.count()), 0.0),
      domain_target_(domain_prev_mb_.size(), common::Ghz(ladder.max_ghz())),
      util_(domain_prev_mb_.size(), 0.0) {
  if (cap != nullptr) cap_ = *cap;
}

double EcoShiftController::measure_power_w(common::Seconds now) {
  // RAPL-style accumulation: package + DRAM over every socket, differenced
  // against the previous sample. The first call only primes the counters.
  double energy_j = 0.0;
  const int sockets = energy_counter_.socket_count();
  for (int s = 0; s < sockets; ++s) {
    energy_j += energy_counter_.pkg_energy_j(s);
    energy_j += energy_counter_.dram_energy_j(s);
  }
  const double dt = now.value() - prev_t_;
  const double watts =
      primed_ && dt > 0.0 ? (energy_j - prev_energy_j_) / dt : 0.0;
  prev_energy_j_ = energy_j;
  return watts;
}

void EcoShiftController::on_start(common::Seconds now) {
  if (cfg_.scaling_enabled && cap_.active()) {
    for (std::size_t d = 0; d < domain_target_.size(); ++d) {
      domains_.write_max_ghz(static_cast<int>(d), common::Ghz(domains_.ladder().max_ghz()));
    }
  }
  prime(now);
}

void EcoShiftController::prime(common::Seconds now) {
  for (std::size_t d = 0; d < domain_prev_mb_.size(); ++d) {
    domain_prev_mb_[d] = domains_.domain_mb(static_cast<int>(d));
  }
  (void)measure_power_w(now);
  prev_t_ = now.value();
  primed_ = true;
}

void EcoShiftController::on_sample(common::Seconds now) {
  const auto n = domain_target_.size();
  const double dt = now.value() - prev_t_;
  if (!primed_ || dt <= 0.0) {
    prime(now);
    return;
  }
  // Per-domain utilisation against each domain's share of the calibrated
  // node capacity; the node-level power verdict picks which domain moves.
  double util_sum = 0.0;
  for (std::size_t d = 0; d < n; ++d) {
    const double mb = domains_.domain_mb(static_cast<int>(d));
    const double delivered = (mb - domain_prev_mb_[d]) / dt;
    domain_prev_mb_[d] = mb;
    const double capacity =
        std::max(1.0, share_mbps_per_ghz_ * domain_target_[d].value());
    util_[d] = delivered / capacity;
    util_sum += util_[d];
  }
  last_util_ = util_sum / static_cast<double>(n);
  last_power_w_ = measure_power_w(now);
  prev_t_ = now.value();

  const double cap_w = cap_.cap_at(now);
  const auto& ladder = domains_.ladder();
  if (last_power_w_ > cap_w) {
    // Shed power where it costs the least performance: the least-utilised
    // domain that still has ladder room steps down. Ties break on the lower
    // index so the walk is deterministic.
    std::size_t victim = n;
    for (std::size_t d = 0; d < n; ++d) {
      if (domain_target_[d].value() <= ladder.min_ghz()) continue;
      if (victim == n || util_[d] < util_[victim]) victim = d;
    }
    if (victim < n) {
      domain_target_[victim] = common::Ghz(ladder.step_down(domain_target_[victim].value()));
      if (cfg_.scaling_enabled) {
        domains_.write_max_ghz(static_cast<int>(victim), domain_target_[victim]);
      }
    }
  } else if (last_power_w_ < cap_w * (1.0 - cfg_.headroom_frac)) {
    // Recover where it buys the most: the most-utilised domain above the
    // restore gate steps up. Same lowest-index tie break.
    std::size_t winner = n;
    for (std::size_t d = 0; d < n; ++d) {
      if (!(util_[d] > cfg_.restore_util)) continue;  // a NaN reading never restores
      if (domain_target_[d].value() >= ladder.max_ghz()) continue;
      if (winner == n || util_[d] > util_[winner]) winner = d;
    }
    if (winner < n) {
      domain_target_[winner] = common::Ghz(ladder.step_up(domain_target_[winner].value()));
      if (cfg_.scaling_enabled) {
        domains_.write_max_ghz(static_cast<int>(winner), domain_target_[winner]);
      }
    }
  }
}

int register_ecoshift_policy() {
  static const bool done = [] {
    core::PolicyFactory::instance().register_policy(
        "ecoshift",
        [](const core::PolicyContext& ctx) -> std::unique_ptr<core::IPolicy> {
          core::require_backend(ctx.mem_counter, "ecoshift",
                                "a memory-throughput counter");
          core::require_backend(ctx.energy_counter, "ecoshift", "an energy counter");
          core::require_backend(ctx.msr, "ecoshift", "an MSR device");
          core::require_backend(ctx.ladder, "ecoshift", "an uncore frequency ladder");
          return std::make_unique<EcoShiftController>(
              *ctx.mem_counter, *ctx.energy_counter, *ctx.msr, *ctx.ladder,
              ctx.ecoshift ? *ctx.ecoshift : EcoShiftConfig{}, ctx.power_cap,
              ctx.domains);
        },
        "performance-aware throttling under a node power cap (EcoShift)",
        /*is_runtime=*/true);
    return true;
  }();
  return done ? 1 : 0;
}

}  // namespace magus::baseline
