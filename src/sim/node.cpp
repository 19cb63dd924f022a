#include "magus/sim/node.hpp"

#include <algorithm>
#include <string>

#include "magus/common/error.hpp"
#include "magus/common/quantity.hpp"

namespace magus::sim {

namespace {
constexpr double kBaseIpc = 1.6;
/// Relative measurement/transport noise on delivered traffic.
constexpr double kTrafficNoiseRel = 0.002;
/// OS + housekeeping DRAM traffic always present (MB/s).
constexpr double kBackgroundTrafficMbps = 300.0;

/// DRAM bandwidth utilisation of a socket delivering `mbps` (0 without a peak).
double dram_bw_frac(double mbps, double peak_mbps) {
  return peak_mbps > 0.0 ? std::clamp(mbps / peak_mbps, 0.0, 1.0) : 0.0;
}
}  // namespace

NodeModel::NodeModel(SystemSpec spec, std::uint64_t noise_seed)
    : spec_(std::move(spec)), cores_(spec_.cpu), gpu_(spec_.gpu), noise_(noise_seed) {
  if (spec_.cpu.dies_per_socket < 1) {
    throw common::ConfigError("NodeModel: dies_per_socket must be >= 1");
  }
  if (spec_.numa_skew < 0.0 || spec_.numa_skew >= 1.0) {
    throw common::ConfigError("NodeModel: numa_skew must be in [0, 1)");
  }
  if (spec_.cpu.sockets * spec_.cpu.dies_per_socket > kMaxDomains) {
    throw common::ConfigError("NodeModel: sockets * dies_per_socket exceeds " +
                              std::to_string(kMaxDomains));
  }
  const auto sockets = static_cast<std::size_t>(spec_.cpu.sockets);
  const auto domains = sockets * static_cast<std::size_t>(spec_.cpu.dies_per_socket);
  uncores_.reserve(domains);
  firmware_.reserve(sockets);
  for (std::size_t d = 0; d < domains; ++d) {
    uncores_.emplace_back(spec_.cpu, spec_.cpu.dies_per_socket);
  }
  for (std::size_t s = 0; s < sockets; ++s) {
    firmware_.emplace_back(spec_.cpu, spec_.tdp_backoff_frac);
  }
  pkg_energy_j_.assign(sockets, 0.0);
  dram_energy_j_.assign(sockets, 0.0);
  last_socket_pkg_w_.assign(sockets, 0.0);
  domain_traffic_mb_.assign(domains, 0.0);
  domain_uncore_energy_j_.assign(domains, 0.0);
  domain_stretch_time_s_.assign(domains, 0.0);
}

double NodeModel::capacity_mbps() const noexcept {
  double cap = 0.0;
  for (const auto& u : uncores_) cap += u.capacity().value();
  return cap;
}

double NodeModel::total_pkg_energy_j() const noexcept {
  double e = 0.0;
  for (double j : pkg_energy_j_) e += j;
  return e;
}

double NodeModel::total_dram_energy_j() const noexcept {
  double e = 0.0;
  for (double j : dram_energy_j_) e += j;
  return e;
}

// magus:hot-path-begin
// Two bodies share the entry point. One die per socket with no NUMA skew
// takes the legacy path, whose statement order mirrors the original tick
// exactly -- the seed goldens pin its bit patterns; the per-domain
// accumulators added to it only read values the legacy sequence already
// computed. Multi-die or NUMA-skewed nodes take the per-domain path: demand
// splits across domains (numa_skew pinned to domain 0, remainder uniform),
// each domain services its share against its own die capacity, and node
// stretch is the worst domain's. Socket `s` owns domains
// s * dies_per_socket .. + dies_per_socket - 1 (socket-major). Keep every
// expression in its current order: reassociating a sum or hoisting a
// multiply changes bit patterns and breaks the goldens. Core power is read
// once per tick: it is a pure function of the post-tick governor state and
// cpu_util, so every socket gets the same double.
TickOutput NodeModel::tick(double dt, const WorkSlice& slice, double monitor_extra_w) {
  const common::Seconds step(dt);
  const CpuSpec& cpu = spec_.cpu;
  const int sockets = cpu.sockets;
  const int dies = cpu.dies_per_socket;
  TickOutput& out = last_;

  if (dies == 1 && spec_.numa_skew == 0.0) {
    // 1. Firmware governor per socket (stock TDP-coupled uncore behaviour),
    //    using the previous tick's power (sensor delay is ~1 tick anyway).
    for (int s = 0; s < sockets; ++s) {
      const auto i = static_cast<std::size_t>(s);
      UncoreModel& uncore = uncores_[i];
      uncore.set_firmware_cap(firmware_[i].update(step, common::Watts(last_socket_pkg_w_[i])));
      uncore.tick(step);
    }

    // 2. Memory service against the combined capacity.
    const double demand = slice.demand_mbps + kBackgroundTrafficMbps;
    double capacity = 0.0;
    for (int s = 0; s < sockets; ++s) {
      capacity += uncores_[static_cast<std::size_t>(s)].capacity().value();
    }
    const MemoryService mem =
        service_memory(common::Mbps(demand), common::Mbps(capacity), slice.mem_bound_frac);

    // 3. Core + GPU domains. Memory stalls depress effective IPC and the
    //    device's achieved utilisation alike.
    const double ipc_eff = kBaseIpc / mem.stretch;
    cores_.tick(dt, slice.cpu_util, ipc_eff);
    gpu_.tick(dt, slice.gpu_util / mem.stretch);

    // 4. Power + energy. The workload splits evenly across sockets; a running
    //    monitor executes on socket 0.
    const double delivered_noisy =
        std::max(0.0, mem.delivered.value() * noise_.jitter(kTrafficNoiseRel));
    traffic_mb_ += delivered_noisy * dt;

    double pkg_total = 0.0;
    double dram_total = 0.0;
    const double socket_mbps = mem.delivered.value() / static_cast<double>(sockets);
    const double bw_frac_per_socket = dram_bw_frac(socket_mbps, cpu.peak_mem_bw_mbps);
    const double domain_mb = delivered_noisy * dt / static_cast<double>(sockets);
    const double core_w = cores_.power_w(slice.cpu_util);
    for (int s = 0; s < sockets; ++s) {
      const auto i = static_cast<std::size_t>(s);
      const double uncore_w = uncores_[i].power(mem.utilization).value();
      const double monitor_w = (s == 0) ? monitor_extra_w : 0.0;
      const double pkg_w = core_w + uncore_w + monitor_w;
      const double dram_w = cpu.dram_idle_w + cpu.dram_dyn_w * bw_frac_per_socket;
      pkg_energy_j_[i] += pkg_w * dt;
      dram_energy_j_[i] += dram_w * dt;
      last_socket_pkg_w_[i] = pkg_w;
      pkg_total += pkg_w;
      dram_total += dram_w;
      // Per-domain accumulators (domain == socket here). These feed the
      // per-domain rollups only; nothing below reads them back.
      domain_uncore_energy_j_[i] += uncore_w * dt;
      domain_traffic_mb_[i] += domain_mb;
      domain_stretch_time_s_[i] += mem.stretch * dt;
    }

    out.progress_rate = 1.0 / mem.stretch;
    out.delivered_mbps = delivered_noisy;
    out.pkg_power_w = pkg_total;
    out.dram_power_w = dram_total;
    out.gpu_power_w = gpu_.power_w();
    out.uncore_freq_ghz = uncores_[0].freq().value();
    out.stretch = mem.stretch;
    return out;
  }

  // --- per-domain path (dies_per_socket > 1 or numa_skew != 0) -------------
  const int domains = sockets * dies;

  // 1. Firmware per socket; its cap applies to every die in the package.
  for (int s = 0; s < sockets; ++s) {
    const auto i = static_cast<std::size_t>(s);
    const common::Ghz cap = firmware_[i].update(step, common::Watts(last_socket_pkg_w_[i]));
    for (int k = 0; k < dies; ++k) {
      UncoreModel& uncore = uncores_[static_cast<std::size_t>(s * dies + k)];
      uncore.set_firmware_cap(cap);
      uncore.tick(step);
    }
  }

  // 2. Per-domain memory service: numa_skew of the demand pins to domain 0,
  //    the rest spreads evenly; each domain runs against its die capacity.
  const double demand = slice.demand_mbps + kBackgroundTrafficMbps;
  const double spread = (1.0 - spec_.numa_skew) / static_cast<double>(domains);
  double delivered_d[kMaxDomains];
  double util_d[kMaxDomains];
  double stretch_d[kMaxDomains];
  double stretch = 1.0;
  for (int d = 0; d < domains; ++d) {
    const double share = spread + ((d == 0) ? spec_.numa_skew : 0.0);
    const double cap_d = uncores_[static_cast<std::size_t>(d)].capacity().value();
    const MemoryService m = service_memory(common::Mbps(demand * share),
                                           common::Mbps(cap_d), slice.mem_bound_frac);
    delivered_d[d] = m.delivered.value();
    util_d[d] = m.utilization;
    stretch_d[d] = m.stretch;
    stretch = std::max(stretch, m.stretch);
  }

  // 3. Core + GPU see the worst domain's stretch (the critical path).
  const double ipc_eff = kBaseIpc / stretch;
  cores_.tick(dt, slice.cpu_util, ipc_eff);
  gpu_.tick(dt, slice.gpu_util / stretch);

  // 4. One jitter draw per tick (same stream cadence as the legacy path),
  //    applied to every domain's delivered traffic.
  const double jitter = noise_.jitter(kTrafficNoiseRel);
  double delivered_noisy = 0.0;
  for (int d = 0; d < domains; ++d) {
    const auto i = static_cast<std::size_t>(d);
    const double noisy_d = std::max(0.0, delivered_d[d] * jitter);
    domain_traffic_mb_[i] += noisy_d * dt;
    domain_stretch_time_s_[i] += stretch_d[d] * dt;
    delivered_noisy += noisy_d;
  }
  traffic_mb_ += delivered_noisy * dt;

  // 5. Power + energy: socket uncore power is the sum of its dies.
  double pkg_total = 0.0;
  double dram_total = 0.0;
  const double core_w = cores_.power_w(slice.cpu_util);
  for (int s = 0; s < sockets; ++s) {
    const auto i = static_cast<std::size_t>(s);
    double uncore_w = 0.0;
    double socket_delivered = 0.0;
    for (int k = 0; k < dies; ++k) {
      const int d = s * dies + k;
      const double die_w = uncores_[static_cast<std::size_t>(d)].power(util_d[d]).value();
      domain_uncore_energy_j_[static_cast<std::size_t>(d)] += die_w * dt;
      uncore_w += die_w;
      socket_delivered += delivered_d[d];
    }
    const double bw_frac = dram_bw_frac(socket_delivered, cpu.peak_mem_bw_mbps);
    const double monitor_w = (s == 0) ? monitor_extra_w : 0.0;
    const double pkg_w = core_w + uncore_w + monitor_w;
    const double dram_w = cpu.dram_idle_w + cpu.dram_dyn_w * bw_frac;
    pkg_energy_j_[i] += pkg_w * dt;
    dram_energy_j_[i] += dram_w * dt;
    last_socket_pkg_w_[i] = pkg_w;
    pkg_total += pkg_w;
    dram_total += dram_w;
  }

  out.progress_rate = 1.0 / stretch;
  out.delivered_mbps = delivered_noisy;
  out.pkg_power_w = pkg_total;
  out.dram_power_w = dram_total;
  out.gpu_power_w = gpu_.power_w();
  out.uncore_freq_ghz = uncores_[0].freq().value();
  out.stretch = stretch;
  return out;
}
// magus:hot-path-end

}  // namespace magus::sim
