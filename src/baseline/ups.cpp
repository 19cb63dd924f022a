#include "magus/baseline/ups.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <utility>

#include "magus/core/policy_factory.hpp"

namespace magus::baseline {

UpsController::UpsController(hw::IEnergyCounter& energy, hw::ICoreCounters& cores,
                             hw::IMsrDevice& msr, const hw::UncoreFreqLadder& ladder,
                             UpsConfig cfg, hw::IUncoreDomainSet* domains)
    : energy_(energy), cores_(cores), domains_(msr, ladder, nullptr, domains), cfg_(cfg) {
  // One group per socket when every socket has its own domains; one group
  // spanning every socket when the whole node is one domain.
  const int sockets = energy.socket_count();
  const int groups = domains_.count() < sockets ? 1 : sockets;
  sockets_per_group_ = sockets / groups;
  domains_per_group_ = domains_.count() / groups;
  groups_.assign(static_cast<std::size_t>(groups), Group{common::Ghz(ladder.max_ghz())});
  prev_.group_dram_j.assign(groups_.size(), 0.0);
  cur_.group_dram_j.assign(groups_.size(), 0.0);
}

common::Ghz UpsController::current_target() const noexcept {
  common::Ghz lo = groups_[0].target;
  for (const Group& g : groups_) {
    if (g.target.value() < lo.value()) lo = g.target;
  }
  return lo;
}

void UpsController::sweep(Snapshot& s) {
  s.dram_j = 0.0;
  int sock = 0;
  for (double& group_j : s.group_dram_j) {
    group_j = 0.0;
    for (int k = 0; k < sockets_per_group_; ++k, ++sock) {
      const double j = energy_.dram_energy_j(sock);
      s.dram_j += j;
      group_j += j;
    }
  }
  // The expensive part: two MSR reads for every core in the node.
  s.instructions = 0;
  s.cycles = 0;
  for (int c = 0; c < cores_.core_count(); ++c) {
    s.instructions += cores_.instructions_retired(c);
    s.cycles += cores_.cycles_unhalted(c);
  }
}

void UpsController::write_group(std::size_t g, common::Ghz ghz) {
  const int first = static_cast<int>(g) * domains_per_group_;
  for (int d = first; d < first + domains_per_group_; ++d) domains_.write_max_ghz(d, ghz);
}

void UpsController::on_start(common::Seconds now) {
  if (cfg_.scaling_enabled) {
    const common::Ghz max(domains_.ladder().max_ghz());
    for (std::size_t g = 0; g < groups_.size(); ++g) {
      write_group(g, max);
      groups_[g].target = max;
    }
  }
  sweep(prev_);
  prev_t_ = now.value();
  primed_ = true;
}

void UpsController::on_sample(common::Seconds now) {
  sweep(cur_);
  if (!primed_) {
    std::swap(prev_, cur_);
    prev_t_ = now.value();
    primed_ = true;
    return;
  }
  const double dt = now.value() - prev_t_;
  if (dt <= 0.0) return;

  last_dram_ = common::Watts((cur_.dram_j - prev_.dram_j) / dt);
  const auto dcycles = static_cast<double>(cur_.cycles - prev_.cycles);
  const auto dinst = static_cast<double>(cur_.instructions - prev_.instructions);
  last_ipc_ = dcycles > 0.0 ? dinst / dcycles : 0.0;

  const auto& ladder = domains_.ladder();
  for (std::size_t g = 0; g < groups_.size(); ++g) {
    Group& group = groups_[g];
    const double dram_w = (cur_.group_dram_j[g] - prev_.group_dram_j[g]) / dt;

    // Phase-boundary detection on this group's own DRAM power.
    const bool phase_change =
        group.phase_ref_w < 0.0 ||
        std::abs(dram_w - group.phase_ref_w) >
            cfg_.dram_phase_rel * std::max(group.phase_ref_w, 1.0);
    if (phase_change) {
      ++phase_changes_;
      group.phase_ref_w = dram_w;
      group.best_ipc = last_ipc_;
      group.target = common::Ghz(ladder.max_ghz());
      if (cfg_.scaling_enabled) write_group(g, group.target);
      continue;
    }

    group.best_ipc = std::max(group.best_ipc, last_ipc_);

    // Within a phase: scavenge downward while IPC holds, back off when it slips.
    const common::Ghz next(last_ipc_ >= cfg_.ipc_guard * group.best_ipc
                               ? ladder.step_down(group.target.value())
                               : ladder.step_up(group.target.value()));
    if (next != group.target) {
      group.target = next;
      if (cfg_.scaling_enabled) write_group(g, next);
    }
  }
  std::swap(prev_, cur_);
  prev_t_ = now.value();
}

int register_ups_policy() {
  static const bool done = [] {
    core::PolicyFactory::instance().register_policy(
        "ups",
        [](const core::PolicyContext& ctx) -> std::unique_ptr<core::IPolicy> {
          core::require_backend(ctx.energy_counter, "ups", "an energy counter");
          core::require_backend(ctx.core_counters, "ups", "per-core counters");
          core::require_backend(ctx.msr, "ups", "an MSR device");
          core::require_backend(ctx.ladder, "ups", "an uncore frequency ladder");
          return std::make_unique<UpsController>(*ctx.energy_counter, *ctx.core_counters,
                                                 *ctx.msr, *ctx.ladder,
                                                 ctx.ups ? *ctx.ups : UpsConfig{},
                                                 ctx.domains);
        },
        "Uncore Power Scavenger baseline (Gholkar et al. SC'19)", /*is_runtime=*/true);
    return true;
  }();
  return done ? 1 : 0;
}

}  // namespace magus::baseline
