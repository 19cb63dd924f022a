#pragma once
// Uncore-domain model: the control-plane unit below the node.
//
// Real Xeon servers expose one uncore clock per (package, die) pair -- a
// single domain per socket on Ice Lake SP, several on multi-die Sapphire
// Rapids parts -- through the intel_uncore_frequency sysfs driver. This
// header defines the domain identity and the `IUncoreDomainSet` interface
// policies program against, the MSR-backed adapter that presents the
// whole-node 0x620 path as a one-domain set, and the DomainBinding every
// runtime policy drives: a legacy node is simply the one-domain case.
//
// Implementations: MsrDomainSet (below), SysfsUncoreDomainSet
// (hw/sysfs_uncore.hpp) and SimUncoreDomainSet (sim/backends.hpp).

#include <string>

#include "magus/common/quantity.hpp"
#include "magus/hw/counters.hpp"
#include "magus/hw/msr.hpp"
#include "magus/hw/uncore_freq.hpp"

namespace magus::hw {

/// Identity of one uncore frequency domain, mirroring the sysfs
/// `package_XX_die_YY` naming.
struct DomainId {
  int package = 0;
  int die = 0;

  bool operator==(const DomainId&) const = default;
};

/// "package_00_die_01" -- the sysfs directory spelling of a DomainId.
[[nodiscard]] std::string to_string(const DomainId& id);

/// A set of independently programmable uncore frequency domains. Domains are
/// indexed 0..domain_count()-1 in (package, die) lexicographic order. Reads
/// and writes may touch hardware and throw common::DeviceError; writes clamp
/// to what the silicon supports.
class IUncoreDomainSet {
 public:
  virtual ~IUncoreDomainSet() = default;

  [[nodiscard]] virtual int domain_count() const = 0;
  [[nodiscard]] virtual DomainId domain_id(int domain) const = 0;

  /// Currently programmed min/max frequency clamps.
  [[nodiscard]] virtual common::Ghz min_ghz(int domain) = 0;
  [[nodiscard]] virtual common::Ghz max_ghz(int domain) = 0;

  /// Live uncore frequency right now (perf-status style readback).
  [[nodiscard]] virtual common::Ghz current_ghz(int domain) = 0;

  virtual void write_max_ghz(int domain, common::Ghz freq) = 0;
  virtual void write_min_ghz(int domain, common::Ghz freq) = 0;
};

/// MSR 0x620 adapter: one logical domain spanning every socket, so a config
/// written against the node-wide controller is a one-domain set. Max-limit
/// writes delegate to UncoreFreqController (same read/decode/skip-if-already
/// -programmed/encode/write sequence and therefore the same access counts);
/// min-limit writes rewrite the MIN_RATIO field with the same discipline.
class MsrDomainSet final : public IUncoreDomainSet {
 public:
  MsrDomainSet(IMsrDevice& msr, UncoreFreqLadder ladder);

  [[nodiscard]] int domain_count() const override { return 1; }
  [[nodiscard]] DomainId domain_id(int domain) const override;

  [[nodiscard]] common::Ghz min_ghz(int domain) override;
  [[nodiscard]] common::Ghz max_ghz(int domain) override;
  [[nodiscard]] common::Ghz current_ghz(int domain) override;

  void write_max_ghz(int domain, common::Ghz freq) override;
  void write_min_ghz(int domain, common::Ghz freq) override;

  /// MSR writes performed through this set (for overhead accounting).
  [[nodiscard]] unsigned long long write_count() const noexcept {
    return ctl_.write_count() + min_writes_;
  }

  [[nodiscard]] const UncoreFreqLadder& ladder() const noexcept { return ctl_.ladder(); }

  /// Best-effort release of every socket to `freq`: one attempt per socket,
  /// a failing socket does not stop its siblings (write_max_ghz stops at the
  /// first failure, so a retry re-reads from socket 0).
  void release_max_ghz(common::Ghz freq);

  /// Mirror max-ratio writes into `magus_hw_msr_writes_total` on `reg`.
  void attach_telemetry(telemetry::MetricsRegistry& reg) { ctl_.attach_telemetry(reg); }

 private:
  void check_domain(int domain) const;

  IMsrDevice& msr_;
  UncoreFreqController ctl_;
  unsigned long long min_writes_ = 0;
};

/// The uncore domains a runtime policy drives, and its memory counter
/// resolved to those domains. Every runtime family binds through this type:
///   * a caller-supplied set with more than one domain is driven as is, and
///     domain d's traffic is the counter's domain_mb(d);
///   * otherwise (no set, or a one-domain set) the whole node is one domain:
///     an MsrDomainSet over the policy's MSR device -- so fault decorators on
///     that device still apply -- whose traffic is the counter's node
///     aggregate, total_mb().
/// Policies hold it by value; it points into itself, so it never moves.
class DomainBinding {
 public:
  /// `mem` may be null for policies that read no memory counter.
  DomainBinding(IMsrDevice& msr, const UncoreFreqLadder& ladder, IMemThroughputCounter* mem,
                IUncoreDomainSet* domains);
  DomainBinding(const DomainBinding&) = delete;
  DomainBinding& operator=(const DomainBinding&) = delete;

  [[nodiscard]] int count() const noexcept { return count_; }
  [[nodiscard]] const UncoreFreqLadder& ladder() const noexcept { return node_.ladder(); }

  /// Cumulative MB attributed to `domain` (one PCM-style read).
  [[nodiscard]] double domain_mb(int domain) {
    return set_ == &node_ ? mem_->total_mb() : mem_->domain_mb(domain);
  }

  void write_max_ghz(int domain, common::Ghz freq) { set_->write_max_ghz(domain, freq); }

  /// Best-effort release of every domain to the ladder maximum (the firmware
  /// default): one attempt per hardware unit, DeviceErrors swallowed.
  void release_all();

  /// Register `magus_hw_msr_writes_total` for the node-wide MSR path.
  void attach_telemetry(telemetry::MetricsRegistry& reg) { node_.attach_telemetry(reg); }

 private:
  MsrDomainSet node_;
  IMemThroughputCounter* mem_;
  IUncoreDomainSet* set_;
  int count_;
};

}  // namespace magus::hw
