#pragma once
// Hardware specifications for the simulated heterogeneous nodes.
//
// Three presets mirror the paper's testbeds (section 5): Intel+A100,
// Intel+4A100, and Intel+Max1550. Power-model coefficients are calibrated to
// the paper's headline magnitudes (DESIGN.md section 5): the Intel+A100
// preset shows ~80 W package delta between min and max uncore under a
// UNet-like load and ~30 W idle power for a single A100-40GB.

#include <string>

namespace magus::sim {

/// CPU (whole-node) specification. Power coefficients are per socket.
struct CpuSpec {
  std::string model;
  int sockets = 2;
  /// Uncore frequency domains per socket (package_XX_die_YY granularity).
  /// 1 on the paper's Ice Lake SP testbeds; >1 models multi-die parts whose
  /// per-socket uncore power and bandwidth split evenly across dies.
  int dies_per_socket = 1;
  int cores_per_socket = 40;
  double tdp_w = 270.0;  ///< per socket

  // Frequency domains.
  double uncore_min_ghz = 0.8;
  double uncore_max_ghz = 2.2;
  double core_min_ghz = 0.8;
  double core_max_ghz = 3.4;

  // Core power: P_core = idle + dyn * util * (f/f_max)^2.
  double core_idle_w = 36.0;
  double core_dyn_w = 110.0;

  // Uncore power: P_un = leak + (k1*f + k2*f^2) * (floor + (1-floor)*util).
  double uncore_leak_w = 5.0;
  double uncore_k1_w_per_ghz = 2.0;
  double uncore_k2_w_per_ghz2 = 13.0;
  double uncore_util_floor = 0.35;

  // DRAM power: P_dram = idle + dyn * (delivered / peak).
  double dram_idle_w = 8.0;
  double dram_dyn_w = 25.0;

  // Memory bandwidth: capacity(f) = peak * (floor + (1-floor) * f/f_max),
  // per socket.
  double peak_mem_bw_mbps = 80'000.0;
  double bw_floor_frac = 0.25;

  // Monitoring access costs (drive Table 2's overhead gap emergently).
  double msr_read_latency_s = 0.0018;   ///< one per-core MSR read
  double pcm_read_latency_s = 0.1;      ///< one aggregated PCM system sweep
  double monitor_base_power_w = 1.5;    ///< monitor process active power
  double monitor_per_read_power_w = 0.05;
  double pcm_equivalent_reads = 32.0;   ///< PCM sweep ~= this many MSR reads

  [[nodiscard]] int total_cores() const noexcept { return sockets * cores_per_socket; }
};

/// GPU (per-board) specification.
struct GpuSpec {
  std::string model;
  int count = 1;
  double idle_w = 30.0;
  double peak_w = 400.0;
  double base_clock_ghz = 0.765;
  double max_clock_ghz = 1.410;
};

struct SystemSpec {
  std::string name;
  CpuSpec cpu;
  GpuSpec gpu;
  /// Stock firmware starts throttling the uncore at this fraction of TDP.
  double tdp_backoff_frac = 0.93;
  /// NUMA skew in [0,1): this fraction of memory demand pins to domain 0,
  /// the remainder spreads evenly across all uncore domains. 0 = uniform.
  /// Any non-zero value (or dies_per_socket > 1) switches NodeModel::tick
  /// to the per-domain memory path.
  double numa_skew = 0.0;
};

/// Chameleon node: 2x Xeon Platinum 8380 + 1x A100-40GB (uncore 0.8-2.2 GHz).
[[nodiscard]] SystemSpec intel_a100();

/// Same CPUs + 4x A100-80GB over PCIe (idle floor ~200 W across boards).
[[nodiscard]] SystemSpec intel_4a100();

/// 2x Xeon Max 9462 + Data Center GPU Max 1550 (uncore 0.8-2.5 GHz).
[[nodiscard]] SystemSpec intel_max1550();

/// Portability demonstration (paper section 6.6): an AMD EPYC-style node
/// whose "uncore" is the Infinity Fabric / SoC domain (FCLK ladder driven
/// through an amd_hsmp-like interface) paired with an MI250X-class GPU.
/// MAGUS's logic is unchanged; only the ladder and power curve differ.
[[nodiscard]] SystemSpec amd_mi250();

/// Lookup by name ("intel_a100", "intel_4a100", "intel_max1550",
/// "amd_mi250").
[[nodiscard]] SystemSpec system_by_name(const std::string& name);

}  // namespace magus::sim
