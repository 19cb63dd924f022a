#pragma once
// MagusRuntime: the deployable MAGUS policy.
//
// Binds the MDFS controller (Algorithm 3) to hardware, once per uncore
// domain: one PCM-style memory-throughput read per domain per monitoring
// cycle in, one max-limit write per retarget out (MSR 0x620 on every socket
// when the whole node is the one domain). This is the entire per-cycle
// hardware footprint -- the reason MAGUS's overheads undercut
// per-core-counter methods (paper Table 2).

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "magus/core/config.hpp"
#include "magus/core/mdfs.hpp"
#include "magus/core/policy.hpp"
#include "magus/hw/counters.hpp"
#include "magus/hw/uncore_domain.hpp"

namespace magus::telemetry {
class Counter;
class EventLog;
class Gauge;
class MetricsRegistry;
}  // namespace magus::telemetry

namespace magus::core {

class MagusRuntime final : public IPolicy {
 public:
  /// `domains` (optional) picks what the runtime controls, through
  /// hw::DomainBinding: a set with more than one uncore domain gets one MDFS
  /// controller per domain, fed by that domain's throughput
  /// (IMemThroughputCounter::domain_mb) and written through the set; null or
  /// a one-domain set makes the whole node one domain, read through
  /// total_mb() and written through MSR 0x620 on every socket.
  MagusRuntime(hw::IMemThroughputCounter& mem_counter, hw::IMsrDevice& msr,
               const hw::UncoreFreqLadder& ladder, MagusConfig cfg = {},
               hw::IUncoreDomainSet* domains = nullptr);

  [[nodiscard]] std::string name() const override { return "magus"; }
  [[nodiscard]] double period_s() const override { return cfg_.period.value(); }

  /// Sets the uncore to max (the paper's initial condition) and primes the
  /// throughput counter.
  void on_start(common::Seconds now) override;

  /// One monitoring cycle, one body for any domain count. The sample→decide
  /// core -- every domain's read, validation and MDFS decision -- runs inside
  /// a lock-free HotPathSection (compiler-checked under -Wthread-safety:
  /// acquiring any AnnotatedMutex there is a compile error). Event emission,
  /// retrying writes, backoff sleeps and telemetry run after the section,
  /// domain by domain in index order.
  void on_sample(common::Seconds now) override;

  /// Domain 0's controller: the whole node's in node-wide mode.
  [[nodiscard]] const MdfsController& controller() const noexcept { return loops_[0].mdfs; }
  [[nodiscard]] const MagusConfig& config() const noexcept { return cfg_; }

  /// Sum over domains of the throughput each controller was last fed, for
  /// diagnostics (the node throughput in node-wide mode).
  [[nodiscard]] common::Mbps last_throughput() const noexcept { return last_throughput_; }

  /// Domains under independent control (1 in node-wide mode).
  [[nodiscard]] int domain_count() const noexcept { return static_cast<int>(loops_.size()); }
  /// Per-domain controller, valid indices [0, domain_count()).
  [[nodiscard]] const MdfsController& domain_controller(int domain) const {
    return loops_[static_cast<std::size_t>(domain)].mdfs;
  }

  /// True once repeated MSR-write failures exhausted the retry budget
  /// `resilience.max_consecutive_failures` times in a row: the uncore has
  /// been released to the ladder maximum (firmware default) and the runtime
  /// keeps monitoring but issues no further writes.
  [[nodiscard]] bool degraded() const noexcept override { return degraded_; }

  /// Samples rejected by validation (NaN / negative / counter moved
  /// backwards / read threw), counted per domain. Each held that domain's
  /// previous good throughput.
  [[nodiscard]] std::uint64_t bad_samples() const noexcept { return bad_samples_; }

  /// Individual MSR write bursts that failed (before retry accounting).
  [[nodiscard]] std::uint64_t msr_write_failures() const noexcept {
    return write_failures_;
  }

  /// Install a hook invoked with each retry backoff delay. The simulator
  /// leaves this unset (virtual time must not stall); the daemon installs a
  /// real sleep. Must be set before on_start.
  void set_backoff_sleeper(std::function<void(common::Seconds)> sleeper) {
    backoff_sleeper_ = std::move(sleeper);
  }

  /// Register the runtime/MDFS series on `reg` (magus_runtime_*,
  /// magus_mdfs_*, magus_uncore_domain<k>_* and magus_hw_msr_writes_total)
  /// and optionally emit discrete events (uncore_retarget,
  /// high_freq_enter/exit) into `events`. Call before on_start; both must
  /// outlive the runtime. Without this call the runtime stays at its no-op
  /// NullRegistry default: one branch per sample, nothing recorded.
  void attach_telemetry(telemetry::MetricsRegistry& reg,
                        telemetry::EventLog* events = nullptr);

 private:
  /// One domain's control loop. A domain whose read fails validation holds
  /// its own last good throughput, and its baseline (MB and time) stays put
  /// so the next good reading averages across the gap; siblings proceed.
  struct DomainLoop {
    DomainLoop(const MagusConfig& cfg, const hw::UncoreFreqLadder& ladder)
        : mdfs(cfg, common::Ghz(ladder.min_ghz()), common::Ghz(ladder.max_ghz())) {}

    MdfsController mdfs;
    bool primed = false;
    double prev_mb = 0.0;
    double prev_t = 0.0;
    common::Mbps throughput{0.0};
    bool last_hf = false;
    // This cycle's outcome, recorded inside the hot section.
    bool rejected = false;  ///< the read failed validation
    bool decided = false;   ///< MDFS was fed this cycle
    std::optional<common::Ghz> target;
  };

  /// Read, validate and decide one domain (an unprimed one only primes).
  void sample_domain(std::size_t d, common::Seconds now);
  /// Telemetry and events for one domain's decision. Callers skip it when
  /// telemetry is detached: one branch per domain per sample.
  void note_domain(std::size_t d, common::Seconds now);
  /// Bounded-retry limit write; exhaustion feeds the degradation counter.
  void write_domain(std::size_t d, common::Ghz ghz, common::Seconds now);
  void enter_degraded(common::Seconds now);

  hw::DomainBinding binding_;
  MagusConfig cfg_;
  std::vector<DomainLoop> loops_;
  common::Mbps last_throughput_{0.0};

  // Degradation ladder state (DESIGN.md §11).
  bool degraded_ = false;
  int consecutive_write_failures_ = 0;
  std::uint64_t bad_samples_ = 0;
  std::uint64_t write_failures_ = 0;
  std::function<void(common::Seconds)> backoff_sleeper_;

  // Telemetry handles; all nullptr until attach_telemetry. The node-level
  // MDFS gauges mirror domain 0; magus_uncore_domain<k>_* carry every domain.
  telemetry::EventLog* events_ = nullptr;
  telemetry::Counter* m_samples_ = nullptr;
  telemetry::Counter* m_tuning_events_ = nullptr;
  telemetry::Counter* m_hf_phases_ = nullptr;
  telemetry::Counter* m_pred_increase_ = nullptr;
  telemetry::Counter* m_pred_decrease_ = nullptr;
  telemetry::Counter* m_pred_stable_ = nullptr;
  telemetry::Gauge* m_throughput_ = nullptr;
  telemetry::Gauge* m_derivative_ = nullptr;
  telemetry::Gauge* m_target_ghz_ = nullptr;
  telemetry::Gauge* m_temporary_ghz_ = nullptr;
  telemetry::Gauge* m_hf_active_ = nullptr;
  telemetry::Counter* m_sample_errors_ = nullptr;
  telemetry::Counter* m_msr_failures_ = nullptr;
  telemetry::Counter* m_msr_retries_ = nullptr;
  telemetry::Gauge* m_degraded_ = nullptr;
  std::vector<telemetry::Gauge*> m_domain_target_;
  std::vector<telemetry::Gauge*> m_domain_throughput_;
};

/// Self-registration anchor for the "magus" PolicyFactory entry (defined in
/// runtime.cpp). The internal-linkage initializer below runs in every TU
/// that includes this header, forcing the registrar's archive member into
/// the link — without it a static-library build could silently drop the
/// registration.
int register_magus_policy();
namespace {
[[maybe_unused]] const int kMagusPolicyAnchor = register_magus_policy();
}

}  // namespace magus::core
