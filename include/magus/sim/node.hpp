#pragma once
// NodeModel: the whole heterogeneous node -- sockets (core + uncore + DRAM),
// GPUs, the stock firmware governor, and the cumulative counters the hw
// backends (sim/backends.hpp) expose to runtimes. tick() composes the member
// model objects into one node step; SimEngine drives it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "magus/common/rng.hpp"
#include "magus/sim/core_model.hpp"
#include "magus/sim/firmware_governor.hpp"
#include "magus/sim/gpu_model.hpp"
#include "magus/sim/memory_system.hpp"
#include "magus/sim/system_preset.hpp"
#include "magus/sim/uncore_model.hpp"

namespace magus::sim {

/// Hard cap on sockets * dies_per_socket: the per-domain tick path uses
/// fixed stack scratch (no heap in the hot path). Enforced by the NodeModel
/// constructor and by manifest validation.
inline constexpr int kMaxDomains = 64;

/// Instantaneous workload requirements for one tick.
struct WorkSlice {
  double demand_mbps = 0.0;     ///< node-wide DRAM traffic demand
  double mem_bound_frac = 0.0;  ///< progress fraction gated on memory
  double cpu_util = 0.0;
  double gpu_util = 0.0;
};

/// Results of one tick, consumed by the engine for progress + tracing.
struct TickOutput {
  double progress_rate = 1.0;  ///< d(progress)/dt, <= 1 when stretched
  double delivered_mbps = 0.0;
  double pkg_power_w = 0.0;   ///< all sockets
  double dram_power_w = 0.0;  ///< all sockets
  double gpu_power_w = 0.0;   ///< all boards
  double uncore_freq_ghz = 0.0;
  double stretch = 1.0;
};

class NodeModel {
 public:
  /// Throws ConfigError on dies_per_socket < 1, numa_skew outside [0, 1) or
  /// more than kMaxDomains uncore domains.
  NodeModel(SystemSpec spec, std::uint64_t noise_seed);

  /// Advance the node by dt under `slice`; `monitor_extra_w` is the power of
  /// an actively executing monitoring runtime (lands on socket 0).
  TickOutput tick(double dt, const WorkSlice& slice, double monitor_extra_w);

  [[nodiscard]] const SystemSpec& spec() const noexcept { return spec_; }

  // --- state the hw backends expose ---------------------------------------
  [[nodiscard]] int socket_count() const noexcept { return spec_.cpu.sockets; }
  [[nodiscard]] int dies_per_socket() const noexcept { return spec_.cpu.dies_per_socket; }
  /// Uncore domain count (sockets * dies_per_socket).
  [[nodiscard]] int domain_count() const noexcept {
    return static_cast<int>(uncores_.size());
  }
  /// Index is a *domain* (socket-major: socket * dies_per_socket + die);
  /// with one die per socket it coincides with the socket index.
  [[nodiscard]] UncoreModel& uncore(int domain) {
    return uncores_[static_cast<std::size_t>(domain)];
  }
  [[nodiscard]] const UncoreModel& uncore(int domain) const {
    return uncores_[static_cast<std::size_t>(domain)];
  }
  [[nodiscard]] CoreModel& cores() noexcept { return cores_; }
  [[nodiscard]] const CoreModel& cores() const noexcept { return cores_; }
  [[nodiscard]] GpuModel& gpu() noexcept { return gpu_; }
  [[nodiscard]] const GpuModel& gpu() const noexcept { return gpu_; }

  /// Cumulative DRAM traffic (MB) -- what the PCM-style counter reports.
  [[nodiscard]] double total_traffic_mb() const noexcept { return traffic_mb_; }
  /// Per-domain cumulative DRAM traffic (MB).
  [[nodiscard]] double domain_traffic_mb(int domain) const {
    return domain_traffic_mb_[static_cast<std::size_t>(domain)];
  }
  /// Per-domain cumulative uncore energy (J) -- per-domain joules-saved.
  [[nodiscard]] double domain_uncore_energy_j(int domain) const {
    return domain_uncore_energy_j_[static_cast<std::size_t>(domain)];
  }
  /// Per-domain integral of the memory stretch factor over sim time (s).
  [[nodiscard]] double domain_stretch_time_s(int domain) const {
    return domain_stretch_time_s_[static_cast<std::size_t>(domain)];
  }

  [[nodiscard]] double pkg_energy_j(int socket) const {
    return pkg_energy_j_[static_cast<std::size_t>(socket)];
  }
  [[nodiscard]] double dram_energy_j(int socket) const {
    return dram_energy_j_[static_cast<std::size_t>(socket)];
  }
  [[nodiscard]] double total_pkg_energy_j() const noexcept;
  [[nodiscard]] double total_dram_energy_j() const noexcept;

  /// Node-wide deliverable bandwidth at current uncore frequencies.
  [[nodiscard]] double capacity_mbps() const noexcept;

  [[nodiscard]] const TickOutput& last() const noexcept { return last_; }

 private:
  SystemSpec spec_;
  std::vector<UncoreModel> uncores_;
  std::vector<FirmwareGovernor> firmware_;
  CoreModel cores_;
  GpuModel gpu_;
  common::Rng noise_;
  double traffic_mb_ = 0.0;
  std::vector<double> pkg_energy_j_;
  std::vector<double> dram_energy_j_;
  std::vector<double> last_socket_pkg_w_;
  std::vector<double> domain_traffic_mb_;
  std::vector<double> domain_uncore_energy_j_;
  std::vector<double> domain_stretch_time_s_;
  TickOutput last_;
};

}  // namespace magus::sim
