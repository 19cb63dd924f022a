#pragma once
// Simulator-backed implementations of the hw interfaces.
//
// Runtimes (MAGUS, UPS) are written against magus::hw only; binding them to
// these backends runs them against the simulated node, binding them to the
// Linux backends runs them against real silicon. The AccessMeter records
// every counter access so the engine can charge invocation latency and
// monitor power emergently (Table 2).

#include <cstdint>
#include <vector>

#include "magus/hw/counters.hpp"
#include "magus/hw/msr.hpp"
#include "magus/hw/rapl.hpp"
#include "magus/hw/uncore_domain.hpp"
#include "magus/sim/node.hpp"

namespace magus::sim {

/// Counts hardware accesses made by a runtime during one invocation.
struct AccessMeter {
  unsigned long long msr_reads = 0;
  unsigned long long msr_writes = 0;
  unsigned long long pcm_reads = 0;

  void reset() noexcept { *this = AccessMeter{}; }
};

/// RAPL unit descriptor every simulated node advertises (typical server
/// values: energy LSB = 1/2^14 J).
[[nodiscard]] const hw::RaplUnits& sim_rapl_units() noexcept;

/// Encode cumulative joules as the wrapping 32-bit energy-status value MSR
/// 0x611/0x619 would report.
[[nodiscard]] std::uint64_t sim_energy_status(double joules) noexcept;

/// MSR device over the simulated node. Supports the registers MAGUS and UPS
/// touch; unknown registers throw common::DeviceError like real hardware
/// faults would surface.
class SimMsrDevice final : public hw::IMsrDevice {
 public:
  SimMsrDevice(NodeModel& node, AccessMeter& meter);

  [[nodiscard]] int socket_count() const override;
  [[nodiscard]] std::uint64_t read(int socket, std::uint32_t reg) override;
  void write(int socket, std::uint32_t reg, std::uint64_t value) override;

 private:
  NodeModel& node_;
  AccessMeter& meter_;
  std::vector<std::uint64_t> raw_0x620_;
};

/// PCM-style aggregated memory-traffic counter with per-domain resolution
/// (each domain read is its own PCM sweep for overhead accounting).
class SimMemThroughputCounter final : public hw::IMemThroughputCounter {
 public:
  SimMemThroughputCounter(NodeModel& node, AccessMeter& meter)
      : node_(node), meter_(meter) {}

  [[nodiscard]] double total_mb() override;
  [[nodiscard]] int domain_count() override;
  [[nodiscard]] double domain_mb(int domain) override;

 private:
  NodeModel& node_;
  AccessMeter& meter_;
};

/// Uncore-domain set over the simulated node. Mirrors the MSR 0x620 access
/// discipline (read, skip if already programmed, else write) so the meter
/// charges multi-domain policies the same way real-silicon control would.
class SimUncoreDomainSet final : public hw::IUncoreDomainSet {
 public:
  SimUncoreDomainSet(NodeModel& node, AccessMeter& meter)
      : node_(node), meter_(meter) {}

  [[nodiscard]] int domain_count() const override;
  [[nodiscard]] hw::DomainId domain_id(int domain) const override;
  [[nodiscard]] common::Ghz min_ghz(int domain) override;
  [[nodiscard]] common::Ghz max_ghz(int domain) override;
  [[nodiscard]] common::Ghz current_ghz(int domain) override;
  void write_max_ghz(int domain, common::Ghz freq) override;
  void write_min_ghz(int domain, common::Ghz freq) override;

 private:
  void check_domain(int domain) const;

  NodeModel& node_;
  AccessMeter& meter_;
};

/// RAPL-style energy counters (one MSR read per query).
class SimEnergyCounter final : public hw::IEnergyCounter {
 public:
  SimEnergyCounter(NodeModel& node, AccessMeter& meter) : node_(node), meter_(meter) {}

  [[nodiscard]] int socket_count() const override;
  [[nodiscard]] double pkg_energy_j(int socket) override;
  [[nodiscard]] double dram_energy_j(int socket) override;

 private:
  NodeModel& node_;
  AccessMeter& meter_;
};

/// NVML-style GPU board power/energy (does not count as MSR traffic).
class SimGpuPowerSensor final : public hw::IGpuPowerSensor {
 public:
  explicit SimGpuPowerSensor(NodeModel& node) : node_(node) {}

  [[nodiscard]] int gpu_count() const override;
  [[nodiscard]] double power_w(int gpu) override;
  [[nodiscard]] double energy_j(int gpu) override;

 private:
  NodeModel& node_;
};

/// Per-core fixed counters (two MSR reads per core per sample for UPS).
class SimCoreCounters final : public hw::ICoreCounters {
 public:
  SimCoreCounters(NodeModel& node, AccessMeter& meter) : node_(node), meter_(meter) {}

  [[nodiscard]] int core_count() const override;
  [[nodiscard]] std::uint64_t instructions_retired(int core) override;
  [[nodiscard]] std::uint64_t cycles_unhalted(int core) override;

 private:
  NodeModel& node_;
  AccessMeter& meter_;
};

}  // namespace magus::sim
