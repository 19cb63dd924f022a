#include "magus/sim/engine.hpp"

#include <limits>

#include "magus/common/error.hpp"
#include "magus/common/thread_annotations.hpp"
#include "magus/sim/program_executor.hpp"
#include "magus/telemetry/registry.hpp"

namespace magus::sim {

namespace {
// Disabled tracing / sampling is "scheduled at infinity": the hot loop
// then pays a single always-false double compare instead of re-testing
// std::function presence every tick.
constexpr double kNever = std::numeric_limits<double>::infinity();
}  // namespace

SimEngine::SimEngine(SystemSpec spec, wl::PhaseProgram program, EngineConfig cfg)
    : program_(std::move(program)),
      cfg_(cfg),
      node_(std::move(spec), cfg.seed),
      msr_(node_, meter_),
      mem_counter_(node_, meter_),
      energy_counter_(node_, meter_),
      gpu_sensor_(node_),
      core_counters_(node_, meter_),
      domains_(node_, meter_) {
  program_.validate();
  if (cfg_.tick_s <= 0.0 || cfg_.record_dt_s <= 0.0) {
    throw common::ConfigError("SimEngine: non-positive tick or record step");
  }
  if (cfg_.record_traces) {
    for (int c = 0; c < cfg_.display_cores; ++c) {
      core_channels_.push_back(std::string(trace::channel::kCoreFreq) + "_" +
                               std::to_string(c));
    }
  }
}

void SimEngine::attach_telemetry(telemetry::MetricsRegistry& reg) {
  m_steps_ = reg.counter("magus_sim_steps_total", "Simulation ticks executed");
  m_sim_time_ = reg.gauge("magus_sim_time_seconds",
                          "Simulated time of the current/most recent run");
  m_invocations_ =
      reg.counter("magus_sim_policy_invocations_total", "Policy on_sample invocations");
  m_runs_ = reg.counter("magus_sim_runs_total", "Completed SimEngine::run calls");
}

SimResult SimEngine::run(const PolicyHook& policy) {
  // The whole run is a lock-free hot section: no annotated lock may be
  // taken in this scope.
  const common::HotPathSection hot_section;
  SimResult result;
  result.policy_name = policy.name;
  ProgramExecutor exec(program_);
  const CpuSpec& cpu = node_.spec().cpu;
  const double dt = cfg_.tick_s;
  const double max_sim =
      cfg_.max_sim_s > 0.0 ? cfg_.max_sim_s : 4.0 * program_.nominal_duration_s() + 30.0;
  double next_sample_t = policy.on_sample ? policy.period_s : kNever;
  double next_record_t = cfg_.record_traces ? 0.0 : kNever;
  double monitor_busy_until = 0.0;
  double monitor_power_w = 0.0;
  double t = 0.0;
  unsigned long long ticks = 0;
  if (policy.on_start) policy.on_start(common::Seconds(0.0));

  WorkSlice slice;
  TickOutput out;
  for (;;) {
    // Tick up to the next trace record or policy boundary. The monitor
    // charge only changes at boundaries, so holding it constant here is
    // exact.
    bool record = false;
    bool finished = false;
    // magus:hot-path-begin
    for (;;) {
      if (exec.done() || t >= max_sim) {
        finished = true;
        break;
      }
      slice = exec.slice();
      const double extra_w = (t < monitor_busy_until) ? monitor_power_w : 0.0;
      out = node_.tick(dt, slice, extra_w);
      exec.advance(dt * out.progress_rate);
      ++ticks;
      if (t >= next_record_t) {
        record = true;
        break;
      }
      t += dt;
      if (t >= next_sample_t) break;
    }
    // magus:hot-path-end
    if (finished) break;
    if (record) {
      record_tick(t, slice, out);
      next_record_t = t + cfg_.record_dt_s;
      t += dt;
      if (t < next_sample_t) continue;
    }

    // Policy boundary: invoke on_sample and charge its measured cost.
    const AccessMeter before = meter_;
    policy.on_sample(common::Seconds(t));
    const auto msr_delta =
        (meter_.msr_reads - before.msr_reads) + (meter_.msr_writes - before.msr_writes);
    const auto pcm_delta = meter_.pcm_reads - before.pcm_reads;
    const double cost = static_cast<double>(msr_delta) * cpu.msr_read_latency_s +
                        static_cast<double>(pcm_delta) * cpu.pcm_read_latency_s;
    const double equiv_reads = static_cast<double>(msr_delta) +
                               cpu.pcm_equivalent_reads * static_cast<double>(pcm_delta);
    monitor_power_w = cpu.monitor_base_power_w + cpu.monitor_per_read_power_w * equiv_reads;
    monitor_busy_until = t + cost;
    ++result.invocations;
    result.total_invocation_s += cost;
    // Next monitoring cycle starts `period` after this invocation returns
    // (paper section 6.5: 0.1 s invocation + 0.2 s period = 0.3 s cadence).
    next_sample_t = t + cost + policy.period_s;
    // Live progress for a scraping exporter, keyed on sim time only.
    telemetry::set(m_sim_time_, t);
  }

  result.completed = exec.done();
  result.duration_s = t;
  result.ticks = ticks;
  result.pkg_energy_j = node_.total_pkg_energy_j();
  result.dram_energy_j = node_.total_dram_energy_j();
  result.gpu_energy_j = node_.gpu().energy_j();
  if (t > 0.0) {
    result.avg_pkg_power_w = result.pkg_energy_j / t;
    result.avg_dram_power_w = result.dram_energy_j / t;
    result.avg_gpu_power_w = result.gpu_energy_j / t;
  }
  result.accesses = meter_;
  const int domains = node_.domain_count();
  for (int d = 0; d < domains; ++d) {
    result.domain_uncore_energy_j.push_back(node_.domain_uncore_energy_j(d));
    result.domain_stretch_time_s.push_back(node_.domain_stretch_time_s(d));
    result.domain_traffic_mb.push_back(node_.domain_traffic_mb(d));
  }

  telemetry::inc(m_steps_, ticks);
  telemetry::inc(m_invocations_, result.invocations);
  telemetry::inc(m_runs_);
  telemetry::set(m_sim_time_, t);
  return result;
}

void SimEngine::record_tick(double t, const WorkSlice& slice, const TickOutput& out) {
  recorder_.record(trace::channel::kMemThroughput, t, out.delivered_mbps);
  recorder_.record(trace::channel::kMemDemand, t, slice.demand_mbps);
  recorder_.record(trace::channel::kUncoreFreq, t, out.uncore_freq_ghz);
  recorder_.record(trace::channel::kPkgPower, t, out.pkg_power_w);
  recorder_.record(trace::channel::kDramPower, t, out.dram_power_w);
  recorder_.record(trace::channel::kGpuPower, t, out.gpu_power_w);
  recorder_.record(trace::channel::kGpuClock, t, node_.gpu().clock_ghz());
  recorder_.record(trace::channel::kTotalPower, t,
                   out.pkg_power_w + out.dram_power_w + out.gpu_power_w);
  for (std::size_t c = 0; c < core_channels_.size(); ++c) {
    recorder_.record(core_channels_[c], t,
                     node_.cores().display_freq_ghz(static_cast<int>(c), common::Seconds(t)));
  }
}

}  // namespace magus::sim
