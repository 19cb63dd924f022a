#include "magus/baseline/duf.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>

#include "magus/core/policy_factory.hpp"

namespace magus::baseline {

DufController::DufController(hw::IMemThroughputCounter& mem_counter, hw::IMsrDevice& msr,
                             const hw::UncoreFreqLadder& ladder, DufConfig cfg,
                             hw::IUncoreDomainSet* domains)
    : domains_(msr, ladder, &mem_counter, domains),
      cfg_(cfg),
      share_mbps_per_ghz_(cfg.capacity_mbps_per_ghz / static_cast<double>(domains_.count())),
      domain_prev_mb_(static_cast<std::size_t>(domains_.count()), 0.0),
      domain_target_(domain_prev_mb_.size(), common::Ghz(ladder.max_ghz())) {}

void DufController::prime(common::Seconds now) {
  for (std::size_t d = 0; d < domain_prev_mb_.size(); ++d) {
    domain_prev_mb_[d] = domains_.domain_mb(static_cast<int>(d));
  }
  prev_t_ = now.value();
  primed_ = true;
}

void DufController::on_start(common::Seconds now) {
  if (cfg_.scaling_enabled) {
    for (std::size_t d = 0; d < domain_target_.size(); ++d) {
      domains_.write_max_ghz(static_cast<int>(d), common::Ghz(domains_.ladder().max_ghz()));
    }
  }
  prime(now);
}

void DufController::on_sample(common::Seconds now) {
  const double dt = now.value() - prev_t_;
  if (!primed_ || dt <= 0.0) {
    prime(now);
    return;
  }
  prev_t_ = now.value();

  // Utilisation is relative to what the domain's *current* target can deliver.
  const auto n = domain_target_.size();
  const auto& ladder = domains_.ladder();
  double util_sum = 0.0;
  for (std::size_t d = 0; d < n; ++d) {
    const double mb = domains_.domain_mb(static_cast<int>(d));
    const double throughput = (mb - domain_prev_mb_[d]) / dt;
    domain_prev_mb_[d] = mb;

    const double capacity =
        std::max(1.0, share_mbps_per_ghz_ * domain_target_[d].value());
    const double util = throughput / capacity;
    util_sum += util;

    common::Ghz next = domain_target_[d];
    if (util > cfg_.high_util) {
      next = common::Ghz(ladder.max_ghz());  // bandwidth-starved: give it everything
    } else if (util < cfg_.low_util) {
      next = common::Ghz(ladder.step_down(domain_target_[d].value()));  // creep down
    }
    if (next != domain_target_[d]) {
      domain_target_[d] = next;
      if (cfg_.scaling_enabled) domains_.write_max_ghz(static_cast<int>(d), next);
    }
  }
  last_util_ = util_sum / static_cast<double>(n);
}

int register_duf_policy() {
  static const bool done = [] {
    core::PolicyFactory::instance().register_policy(
        "duf",
        [](const core::PolicyContext& ctx) -> std::unique_ptr<core::IPolicy> {
          core::require_backend(ctx.mem_counter, "duf", "a memory-throughput counter");
          core::require_backend(ctx.msr, "duf", "an MSR device");
          core::require_backend(ctx.ladder, "duf", "an uncore frequency ladder");
          return std::make_unique<DufController>(*ctx.mem_counter, *ctx.msr, *ctx.ladder,
                                                 ctx.duf ? *ctx.duf : DufConfig{},
                                                 ctx.domains);
        },
        "bandwidth-utilisation ladder walker (Andre et al. '22)", /*is_runtime=*/true);
    return true;
  }();
  return done ? 1 : 0;
}

}  // namespace magus::baseline
