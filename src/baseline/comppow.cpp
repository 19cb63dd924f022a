#include "magus/baseline/comppow.hpp"

#include <algorithm>
#include <cstddef>
#include <limits>
#include <memory>

#include "magus/common/units.hpp"
#include "magus/core/policy_factory.hpp"

namespace magus::baseline {

CompPowController::CompPowController(hw::IMemThroughputCounter& mem_counter,
                                     hw::IEnergyCounter& energy_counter,
                                     hw::IMsrDevice& msr,
                                     const hw::UncoreFreqLadder& ladder,
                                     CompPowConfig cfg,
                                     const core::PowerCapSchedule* cap,
                                     hw::IUncoreDomainSet* domains)
    : domains_(msr, ladder, &mem_counter, domains),
      cfg_(cfg),
      dies_(static_cast<double>(domains_.count()) /
            static_cast<double>(std::max(1, energy_counter.socket_count()))),
      domain_prev_mb_(static_cast<std::size_t>(domains_.count()), 0.0),
      domain_target_(domain_prev_mb_.size(), common::Ghz(ladder.max_ghz())),
      delivered_(domain_prev_mb_.size(), 0.0) {
  if (cap != nullptr) cap_ = *cap;
}

double CompPowController::fit_ghz(double budget_w) const {
  // Walk the ladder top-down: the model P(f) is monotone in f, so the first
  // frequency that fits is the best one. Nothing fitting clamps to min.
  const auto& ladder = domains_.ladder();
  for (unsigned r = ladder.max_ratio(); r >= ladder.min_ratio(); --r) {
    const double f = common::ratio_to_ghz(r);
    const double power = cfg_.leak_w + cfg_.k1_w_per_ghz * f + cfg_.k2_w_per_ghz2 * f * f;
    if (power <= budget_w) return f;
  }
  return ladder.min_ghz();
}

void CompPowController::prime(common::Seconds now) {
  for (std::size_t d = 0; d < domain_prev_mb_.size(); ++d) {
    domain_prev_mb_[d] = domains_.domain_mb(static_cast<int>(d));
  }
  prev_t_ = now.value();
  primed_ = true;
}

void CompPowController::on_start(common::Seconds now) {
  if (cfg_.scaling_enabled && cap_.active()) {
    for (std::size_t d = 0; d < domain_target_.size(); ++d) {
      domains_.write_max_ghz(static_cast<int>(d), common::Ghz(domains_.ladder().max_ghz()));
    }
  }
  prime(now);
}

void CompPowController::on_sample(common::Seconds now) {
  const auto n = domain_target_.size();
  const double dt = now.value() - prev_t_;
  if (!primed_ || dt <= 0.0) {
    prime(now);
    return;
  }
  prev_t_ = now.value();

  double total_delivered = 0.0;
  for (std::size_t d = 0; d < n; ++d) {
    const double mb = domains_.domain_mb(static_cast<int>(d));
    delivered_[d] = std::max(0.0, (mb - domain_prev_mb_[d]) / dt);
    domain_prev_mb_[d] = mb;
    total_delivered += delivered_[d];
  }
  // Utilisation against the node's capacity. The one expression where
  // node-wide and per-domain runs fork: the whole node measures against its
  // live target, separate domains against the full ladder. Budget-oracle
  // digests pin both (DESIGN.md, "Per-domain simulation & policy loops").
  const auto& ladder = domains_.ladder();
  const double capacity_ghz = n == 1 ? domain_target_[0].value() : ladder.max_ghz();
  const double capacity = std::max(1.0, cfg_.capacity_mbps_per_ghz * capacity_ghz);
  last_util_ = std::min(1.0, total_delivered / capacity);

  const double cap_w = cap_.cap_at(now);
  if (cap_w == std::numeric_limits<double>::infinity()) return;  // uncapped: inert

  // Component split: the uncore earns a utilisation-scaled share of the node
  // cap. Per-domain budgets: half the uncore share splits evenly (every
  // domain keeps a base allowance), half follows the measured traffic split.
  const double share =
      cfg_.uncore_share_min + (cfg_.uncore_share_max - cfg_.uncore_share_min) * last_util_;
  last_uncore_budget_w_ = share * cap_w;
  for (std::size_t d = 0; d < n; ++d) {
    const double traffic_w =
        total_delivered > 0.0 ? delivered_[d] / total_delivered : 1.0 / static_cast<double>(n);
    const double budget_d =
        last_uncore_budget_w_ * (0.5 / static_cast<double>(n) + 0.5 * traffic_w);
    const common::Ghz next{ladder.clamp_ghz(fit_ghz(budget_d * dies_))};
    if (next != domain_target_[d]) {
      domain_target_[d] = next;
      if (cfg_.scaling_enabled) domains_.write_max_ghz(static_cast<int>(d), next);
    }
  }
}

int register_comppow_policy() {
  static const bool done = [] {
    core::PolicyFactory::instance().register_policy(
        "comppow",
        [](const core::PolicyContext& ctx) -> std::unique_ptr<core::IPolicy> {
          core::require_backend(ctx.mem_counter, "comppow",
                                "a memory-throughput counter");
          core::require_backend(ctx.energy_counter, "comppow", "an energy counter");
          core::require_backend(ctx.msr, "comppow", "an MSR device");
          core::require_backend(ctx.ladder, "comppow", "an uncore frequency ladder");
          return std::make_unique<CompPowController>(
              *ctx.mem_counter, *ctx.energy_counter, *ctx.msr, *ctx.ladder,
              ctx.comppow ? *ctx.comppow : CompPowConfig{}, ctx.power_cap, ctx.domains);
        },
        "component-level split of the node cap between core and uncore power",
        /*is_runtime=*/true);
    return true;
  }();
  return done ? 1 : 0;
}

}  // namespace magus::baseline
