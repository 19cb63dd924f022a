#pragma once
// SimEngine: the discrete-time driver, and the only simulator loop.
//
// Executes a PhaseProgram on a NodeModel while periodically invoking a
// runtime policy. Invocation cost is *measured*, not assumed: the engine
// snapshots the AccessMeter around each policy callback and charges
// per-read latency plus active monitor power for the duration -- the
// mechanism that makes Table 2's MAGUS/UPS overhead gap fall out of the
// number of counters each method reads.
//
// A BatchEngine lane is a SimEngine whose run() the batch calls, so a fleet
// lane and a standalone run execute the very same code.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "magus/common/quantity.hpp"
#include "magus/sim/backends.hpp"
#include "magus/sim/node.hpp"
#include "magus/sim/system_preset.hpp"
#include "magus/trace/recorder.hpp"
#include "magus/wl/phase.hpp"

namespace magus::telemetry {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace magus::telemetry

namespace magus::sim {

/// A runtime policy bound into the engine. `on_sample` typically reads
/// counters through the engine's backends and may write MSR 0x620.
struct PolicyHook {
  std::string name = "default";
  double period_s = 0.2;
  std::function<void(common::Seconds now)> on_start;   ///< once, at t=0 (optional)
  std::function<void(common::Seconds now)> on_sample;  ///< every period (optional)
};

struct EngineConfig {
  double tick_s = 0.002;
  double record_dt_s = 0.02;   ///< trace channel sampling
  double max_sim_s = 0.0;      ///< 0 -> auto: 4x nominal duration + 30 s
  std::uint64_t seed = 42;
  bool record_traces = true;
  int display_cores = 4;       ///< per-core frequency channels for Fig. 1
};

struct SimResult {
  std::string policy_name;
  bool completed = false;
  double duration_s = 0.0;
  double pkg_energy_j = 0.0;
  double dram_energy_j = 0.0;
  double gpu_energy_j = 0.0;
  double avg_pkg_power_w = 0.0;
  double avg_dram_power_w = 0.0;
  double avg_gpu_power_w = 0.0;
  unsigned long long invocations = 0;
  double total_invocation_s = 0.0;
  unsigned long long ticks = 0;  ///< simulation steps executed
  AccessMeter accesses;  ///< cumulative over the whole run

  // Per-uncore-domain breakdown (size = sockets * dies_per_socket; one
  // entry per socket on single-die parts). Uncore energy feeds per-domain
  // joules-saved rollups; stretch-time / duration is the domain's average
  // memory stretch.
  std::vector<double> domain_uncore_energy_j;
  std::vector<double> domain_stretch_time_s;
  std::vector<double> domain_traffic_mb;

  /// CPU-side power metric the paper reports (package + DRAM).
  [[nodiscard]] double cpu_energy_j() const noexcept { return pkg_energy_j + dram_energy_j; }
  /// Total energy-to-solution (CPU package + DRAM + GPU boards).
  [[nodiscard]] double total_energy_j() const noexcept {
    return cpu_energy_j() + gpu_energy_j;
  }
  [[nodiscard]] double avg_cpu_power_w() const noexcept {
    return avg_pkg_power_w + avg_dram_power_w;
  }
  [[nodiscard]] double avg_invocation_s() const noexcept {
    return invocations ? total_invocation_s / static_cast<double>(invocations) : 0.0;
  }
};

class SimEngine {
 public:
  SimEngine(SystemSpec spec, wl::PhaseProgram program, EngineConfig cfg = {});
  // Backends and the executor point into the engine; pin the address.
  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  /// Run to completion (or the safety cap) under `policy`. An exception a
  /// policy callback throws propagates unchanged.
  SimResult run(const PolicyHook& policy = {});

  /// Register the engine series on `reg` (magus_sim_steps_total,
  /// magus_sim_time_seconds, magus_sim_policy_invocations_total,
  /// magus_sim_runs_total). Metrics are keyed on simulated time only and
  /// never feed back into the simulation, so results stay bit-identical
  /// with or without telemetry. The registry must outlive the engine.
  void attach_telemetry(telemetry::MetricsRegistry& reg);

  // Backends a policy binds to. Valid for the engine's lifetime.
  [[nodiscard]] hw::IMsrDevice& msr() noexcept { return msr_; }
  [[nodiscard]] hw::IMemThroughputCounter& mem_counter() noexcept { return mem_counter_; }
  [[nodiscard]] hw::IEnergyCounter& energy_counter() noexcept { return energy_counter_; }
  [[nodiscard]] hw::IGpuPowerSensor& gpu_sensor() noexcept { return gpu_sensor_; }
  [[nodiscard]] hw::ICoreCounters& core_counters() noexcept { return core_counters_; }
  [[nodiscard]] hw::IUncoreDomainSet& domains() noexcept { return domains_; }

  [[nodiscard]] NodeModel& node() noexcept { return node_; }
  [[nodiscard]] const trace::TraceRecorder& recorder() const noexcept { return recorder_; }

 private:
  void record_tick(double t, const WorkSlice& slice, const TickOutput& out);

  wl::PhaseProgram program_;
  EngineConfig cfg_;
  NodeModel node_;
  AccessMeter meter_;
  SimMsrDevice msr_;
  SimMemThroughputCounter mem_counter_;
  SimEnergyCounter energy_counter_;
  SimGpuPowerSensor gpu_sensor_;
  SimCoreCounters core_counters_;
  SimUncoreDomainSet domains_;
  trace::TraceRecorder recorder_;
  std::vector<std::string> core_channels_;  ///< core_freq_ghz_<c>, built once

  // Telemetry handles; all nullptr until attach_telemetry.
  telemetry::Counter* m_steps_ = nullptr;
  telemetry::Counter* m_invocations_ = nullptr;
  telemetry::Counter* m_runs_ = nullptr;
  telemetry::Gauge* m_sim_time_ = nullptr;
};

}  // namespace magus::sim
