#include "magus/core/runtime.hpp"

#include <cmath>
#include <cstddef>
#include <string>

#include "magus/common/error.hpp"
#include "magus/common/thread_annotations.hpp"
#include "magus/core/policy_factory.hpp"
#include "magus/telemetry/event_log.hpp"
#include "magus/telemetry/registry.hpp"

namespace magus::core {

MagusRuntime::MagusRuntime(hw::IMemThroughputCounter& mem_counter, hw::IMsrDevice& msr,
                           const hw::UncoreFreqLadder& ladder, MagusConfig cfg,
                           hw::IUncoreDomainSet* domains)
    : binding_(msr, ladder, &mem_counter, domains), cfg_(cfg) {
  cfg_.validate();
  loops_.reserve(static_cast<std::size_t>(binding_.count()));
  for (int d = 0; d < binding_.count(); ++d) loops_.emplace_back(cfg_, ladder);
}

void MagusRuntime::attach_telemetry(telemetry::MetricsRegistry& reg,
                                    telemetry::EventLog* events) {
  events_ = events;
  m_samples_ = reg.counter("magus_runtime_samples_total",
                           "Throughput samples processed by the control loop");
  m_throughput_ = reg.gauge("magus_runtime_throughput_mbps",
                            "Last observed memory throughput");
  m_target_ghz_ = reg.gauge("magus_runtime_uncore_target_ghz",
                            "Currently executed uncore max-frequency target");
  m_tuning_events_ = reg.counter("magus_mdfs_tuning_events_total",
                                 "Executed uncore retargets (frequency actually changed)");
  m_hf_phases_ = reg.counter("magus_mdfs_high_freq_phases_total",
                             "High-frequency phase entries (Algorithm 2)");
  m_hf_active_ = reg.gauge("magus_mdfs_high_freq_active",
                           "1 while high-frequency status holds, else 0");
  m_temporary_ghz_ = reg.gauge("magus_mdfs_temporary_target_ghz",
                               "Prediction-phase temporary decision");
  m_derivative_ = reg.gauge("magus_mdfs_derivative_mbps",
                            "Windowed throughput derivative feeding the trend prediction");
  m_pred_increase_ = reg.counter("magus_mdfs_predictions_increase_total",
                                 "Rounds predicting a throughput increase");
  m_pred_decrease_ = reg.counter("magus_mdfs_predictions_decrease_total",
                                 "Rounds predicting a throughput decrease");
  m_pred_stable_ = reg.counter("magus_mdfs_predictions_stable_total",
                               "Rounds predicting stable throughput");
  m_sample_errors_ = reg.counter("magus_runtime_sample_errors_total",
                                 "Samples rejected by validation (NaN/negative/read error)");
  m_msr_failures_ = reg.counter("magus_runtime_msr_failures_total",
                                "MSR write bursts that threw DeviceError");
  m_msr_retries_ = reg.counter("magus_runtime_msr_retries_total",
                               "Retry attempts after a failed MSR write burst");
  m_degraded_ = reg.gauge("magus_runtime_degraded",
                          "1 once the runtime released the uncore after repeated "
                          "failures, else 0");
  const auto n = loops_.size();
  m_domain_target_.resize(n, nullptr);
  m_domain_throughput_.resize(n, nullptr);
  for (std::size_t d = 0; d < n; ++d) {
    const std::string k = std::to_string(d);
    m_domain_target_[d] = reg.gauge("magus_uncore_domain" + k + "_target_ghz",
                                    "Executed uncore max-frequency target for domain " + k);
    m_domain_throughput_[d] =
        reg.gauge("magus_uncore_domain" + k + "_throughput_mbps",
                  "Last observed memory throughput attributed to domain " + k);
  }
  binding_.attach_telemetry(reg);
}

void MagusRuntime::on_start(common::Seconds now) {
  const common::Ghz max(binding_.ladder().max_ghz());
  for (std::size_t d = 0; d < loops_.size(); ++d) {
    if (cfg_.scaling_enabled && !degraded_) write_domain(d, max, now);
  }
  telemetry::set(m_target_ghz_, max.value());
  // Prime every domain's baseline. A domain whose read fails stays unprimed
  // so its first valid on_sample primes it.
  for (std::size_t d = 0; d < loops_.size(); ++d) {
    loops_[d].primed = false;
    sample_domain(d, now);
    if (loops_[d].rejected) {
      ++bad_samples_;
      telemetry::inc(m_sample_errors_);
    }
  }
}

void MagusRuntime::sample_domain(std::size_t d, common::Seconds now) {
  DomainLoop& loop = loops_[d];
  loop.rejected = false;
  loop.decided = false;
  loop.target.reset();
  double mb = 0.0;
  bool readable = true;
  try {
    mb = binding_.domain_mb(static_cast<int>(d));
  } catch (const common::DeviceError&) {
    readable = false;
  }
  if (!readable || !std::isfinite(mb) || mb < 0.0) {
    loop.rejected = true;
  } else if (!loop.primed) {
    loop.prev_mb = mb;
    loop.prev_t = now.value();
    loop.primed = true;
    return;
  } else {
    const double dt = now.value() - loop.prev_t;
    if (dt <= 0.0) return;
    const double mbps = (mb - loop.prev_mb) / dt;
    // A cumulative counter never decreases; a drop means a corrupt reading.
    loop.rejected = mbps < 0.0;
    if (!loop.rejected) {
      loop.throughput = common::Mbps(mbps);
      loop.prev_mb = mb;
      loop.prev_t = now.value();
    }
  }
  // A rejected reading feeds the last good throughput, so MDFS keeps cadence.
  if (!loop.primed) return;
  loop.target = loop.mdfs.on_throughput(now, loop.throughput);
  loop.decided = true;
}

void MagusRuntime::on_sample(common::Seconds now) {
  // The sample→decide core runs inside a compiler-checked lock-free section
  // (taking any AnnotatedMutex here is a -Wthread-safety error; see
  // DESIGN.md §14). The consequences that may lock, emit events, or sleep --
  // write_domain's bounded-retry backoff, note_domain -- run after the
  // section ends, steered by the outcome recorded per domain.
  {
    const common::HotPathSection hot_section;
    for (std::size_t d = 0; d < loops_.size(); ++d) sample_domain(d, now);
  }
  bool decided = false;
  double total_mbps = 0.0;
  for (std::size_t d = 0; d < loops_.size(); ++d) {
    const DomainLoop& loop = loops_[d];
    if (loop.rejected) {
      ++bad_samples_;
      telemetry::inc(m_sample_errors_);
      if (events_) {
        events_->emit(telemetry::Event(now.value(), "sample_rejected")
                          .num("domain", static_cast<double>(d))
                          .num("held_throughput_mbps", loop.throughput.value()));
      }
    }
    total_mbps += loop.throughput.value();
    if (!loop.decided) continue;
    decided = true;
    if (loop.target && cfg_.scaling_enabled && !degraded_) {
      write_domain(d, *loop.target, now);
    }
    if (m_samples_ || events_) note_domain(d, now);
  }
  last_throughput_ = common::Mbps(total_mbps);
  if (decided) {
    telemetry::inc(m_samples_);
    telemetry::set(m_throughput_, total_mbps);
  }
}

void MagusRuntime::write_domain(std::size_t d, common::Ghz ghz, common::Seconds now) {
  const ResilienceConfig& res = cfg_.resilience;
  common::Seconds backoff = res.backoff_base;
  for (int attempt = 0; attempt <= res.write_retries; ++attempt) {
    if (attempt > 0) {
      telemetry::inc(m_msr_retries_);
      if (backoff_sleeper_) backoff_sleeper_(backoff);
      backoff = common::Seconds(backoff.value() * res.backoff_mult);
    }
    try {
      binding_.write_max_ghz(static_cast<int>(d), ghz);
      consecutive_write_failures_ = 0;
      return;
    } catch (const common::DeviceError&) {
      telemetry::inc(m_msr_failures_);
    }
  }
  ++write_failures_;
  ++consecutive_write_failures_;
  if (events_) {
    events_->emit(telemetry::Event(now.value(), "uncore_write_failed")
                      .num("domain", static_cast<double>(d))
                      .num("target_ghz", ghz.value())
                      .num("consecutive", consecutive_write_failures_));
  }
  if (consecutive_write_failures_ >= res.max_consecutive_failures) {
    enter_degraded(now);
  }
}

void MagusRuntime::enter_degraded(common::Seconds now) {
  if (degraded_) return;
  degraded_ = true;
  // Safe fallback: best-effort release of every domain to the ladder maximum
  // (the firmware default), one try per socket or domain -- a device that is
  // still failing is left to the firmware watchdog.
  binding_.release_all();
  const double max_ghz = binding_.ladder().max_ghz();
  telemetry::set(m_degraded_, 1.0);
  telemetry::set(m_target_ghz_, max_ghz);
  if (events_) {
    events_->emit(telemetry::Event(now.value(), "runtime_degraded")
                      .num("consecutive_failures", consecutive_write_failures_)
                      .num("release_ghz", max_ghz));
  }
}

void MagusRuntime::note_domain(std::size_t d, common::Seconds now) {
  DomainLoop& loop = loops_[d];
  const DecisionRecord& rec = loop.mdfs.log().back();
  if (!rec.warmup) {
    switch (rec.prediction) {
      case Trend::kIncrease: telemetry::inc(m_pred_increase_); break;
      case Trend::kDecrease: telemetry::inc(m_pred_decrease_); break;
      case Trend::kStable: telemetry::inc(m_pred_stable_); break;
    }
  }
  const bool hf = loop.mdfs.high_freq_status();
  if (d == 0) {
    telemetry::set(m_temporary_ghz_, loop.mdfs.temporary_target().value());
    telemetry::set(m_derivative_, rec.derivative.value());
    telemetry::set(m_hf_active_, hf ? 1.0 : 0.0);
  }
  if (d < m_domain_target_.size()) {
    telemetry::set(m_domain_target_[d], loop.mdfs.current_target().value());
    telemetry::set(m_domain_throughput_[d], loop.throughput.value());
  }
  if (loop.target) {
    telemetry::inc(m_tuning_events_);
    if (d == 0) telemetry::set(m_target_ghz_, loop.target->value());
    if (events_) {
      events_->emit(telemetry::Event(now.value(), "uncore_retarget")
                        .num("domain", static_cast<double>(d))
                        .num("target_ghz", loop.target->value())
                        .num("throughput_mbps", loop.throughput.value())
                        .flag("high_freq", hf));
    }
  }
  if (hf != loop.last_hf) {
    if (hf) telemetry::inc(m_hf_phases_);
    if (events_) {
      events_->emit(telemetry::Event(now.value(), hf ? "high_freq_enter" : "high_freq_exit")
                        .num("domain", static_cast<double>(d))
                        .num("throughput_mbps", loop.throughput.value()));
    }
    loop.last_hf = hf;
  }
}

int register_magus_policy() {
  static const bool done = [] {
    PolicyFactory::instance().register_policy(
        "magus",
        [](const PolicyContext& ctx) -> std::unique_ptr<IPolicy> {
          require_backend(ctx.mem_counter, "magus", "a memory-throughput counter");
          require_backend(ctx.msr, "magus", "an MSR device");
          require_backend(ctx.ladder, "magus", "an uncore frequency ladder");
          auto magus = std::make_unique<MagusRuntime>(
              *ctx.mem_counter, *ctx.msr, *ctx.ladder,
              ctx.magus ? *ctx.magus : MagusConfig{}, ctx.domains);
          if (ctx.metrics) magus->attach_telemetry(*ctx.metrics, ctx.events);
          return magus;
        },
        "the paper's adaptive uncore-scaling runtime (MDFS)", /*is_runtime=*/true);
    return true;
  }();
  return done ? 1 : 0;
}

}  // namespace magus::core
