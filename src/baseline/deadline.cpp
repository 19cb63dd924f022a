#include "magus/baseline/deadline.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>

#include "magus/common/units.hpp"
#include "magus/core/policy_factory.hpp"

namespace magus::baseline {

DeadlineController::DeadlineController(hw::IMemThroughputCounter& mem_counter,
                                       hw::IMsrDevice& msr,
                                       const hw::UncoreFreqLadder& ladder,
                                       DeadlineConfig cfg, hw::IUncoreDomainSet* domains)
    : domains_(msr, ladder, &mem_counter, domains),
      cfg_(cfg),
      capacity_coef_(cfg.capacity_mbps_per_ghz),
      domain_prev_mb_(static_cast<std::size_t>(domains_.count()), 0.0),
      demand_mbps_(domain_prev_mb_.size(), 0.0),
      domain_target_(domain_prev_mb_.size(), common::Ghz(ladder.max_ghz())) {}

double DeadlineController::select_ghz(double needed_mbps, double coef) const {
  const auto& ladder = domains_.ladder();
  for (unsigned r = ladder.min_ratio(); r <= ladder.max_ratio(); ++r) {  // ascending
    const double f = common::ratio_to_ghz(r);
    if (coef * f >= needed_mbps) return f;
  }
  return ladder.max_ghz();
}

void DeadlineController::prime(common::Seconds now) {
  for (std::size_t d = 0; d < domain_prev_mb_.size(); ++d) {
    domain_prev_mb_[d] = domains_.domain_mb(static_cast<int>(d));
  }
  prev_t_ = now.value();
  primed_ = true;
}

void DeadlineController::on_start(common::Seconds now) {
  if (cfg_.scaling_enabled) {
    for (std::size_t d = 0; d < domain_target_.size(); ++d) {
      domains_.write_max_ghz(static_cast<int>(d), common::Ghz(domains_.ladder().max_ghz()));
    }
  }
  prime(now);
}

void DeadlineController::on_sample(common::Seconds now) {
  const auto n = domain_target_.size();
  const double dt = now.value() - prev_t_;
  if (!primed_ || dt <= 0.0) {
    prime(now);
    return;
  }
  prev_t_ = now.value();

  // Each domain carries its own EWMA demand predictor against its share of
  // the learned capacity model (node-calibrated, split evenly). Capacity
  // relearning: only near-saturation observations reveal the ceiling, and
  // then delivered / frequency *is* a direct sample of the coefficient.
  const double a = cfg_.learn_rate;
  const double coef = std::max(1.0, capacity_coef_ / static_cast<double>(n));
  for (std::size_t d = 0; d < n; ++d) {
    const double mb = domains_.domain_mb(static_cast<int>(d));
    const double delivered = (mb - domain_prev_mb_[d]) / dt;
    domain_prev_mb_[d] = mb;
    double& demand = demand_mbps_[d];
    demand = demand == 0.0 ? delivered : (1.0 - a) * demand + a * delivered;
    const double predicted_capacity = std::max(1.0, coef * domain_target_[d].value());
    if (delivered / predicted_capacity > cfg_.saturation_util &&
        domain_target_[d].value() > 0.0) {
      capacity_coef_ = (1.0 - a) * capacity_coef_ +
                       a * (delivered / domain_target_[d].value()) * static_cast<double>(n);
    }
    // Provision the lowest frequency that keeps the memory stretch inside
    // the slowdown bound: capacity >= demand / (1 + bound).
    const double needed = demand / (1.0 + cfg_.slowdown_bound_pct / 100.0);
    // The one expression where node-wide and per-domain runs fork: the
    // whole node selects with the coefficient this sample just relearnt,
    // separate domains with the one the sample started with. Budget-oracle
    // digests pin both (DESIGN.md, "Per-domain simulation & policy loops").
    const double select_coef = n == 1 ? std::max(1.0, capacity_coef_) : coef;
    const common::Ghz next{select_ghz(needed, select_coef)};
    if (next != domain_target_[d]) {
      domain_target_[d] = next;
      if (cfg_.scaling_enabled) domains_.write_max_ghz(static_cast<int>(d), next);
    }
  }
}

int register_deadline_policy() {
  static const bool done = [] {
    core::PolicyFactory::instance().register_policy(
        "deadline",
        [](const core::PolicyContext& ctx) -> std::unique_ptr<core::IPolicy> {
          core::require_backend(ctx.mem_counter, "deadline",
                                "a memory-throughput counter");
          core::require_backend(ctx.msr, "deadline", "an MSR device");
          core::require_backend(ctx.ladder, "deadline", "an uncore frequency ladder");
          return std::make_unique<DeadlineController>(
              *ctx.mem_counter, *ctx.msr, *ctx.ladder,
              ctx.deadline ? *ctx.deadline : DeadlineConfig{}, ctx.domains);
        },
        "data-driven frequency selection against a slowdown bound (Ilager et al.)",
        /*is_runtime=*/true);
    return true;
  }();
  return done ? 1 : 0;
}

}  // namespace magus::baseline
