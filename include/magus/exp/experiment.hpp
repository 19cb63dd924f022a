#pragma once
// Single-run experiment wiring: system preset x workload x policy -> result.
//
// Policies are constructed by name through core::PolicyFactory and bound to
// the simulator backends by exp::BatchRun (exp/batch.hpp); run_policy is a
// one-job BatchRun, so every figure and every fleet node uses one wiring.

#include <string>

#include "magus/baseline/comppow.hpp"
#include "magus/baseline/deadline.hpp"
#include "magus/baseline/duf.hpp"
#include "magus/baseline/ecoshift.hpp"
#include "magus/baseline/static_policy.hpp"
#include "magus/baseline/ups.hpp"
#include "magus/common/quantity.hpp"
#include "magus/core/config.hpp"
#include "magus/core/power_cap.hpp"
#include "magus/core/runtime.hpp"
#include "magus/fault/config.hpp"
#include "magus/fault/injectors.hpp"
#include "magus/sim/engine.hpp"
#include "magus/sim/system_preset.hpp"
#include "magus/trace/recorder.hpp"
#include "magus/wl/phase.hpp"

namespace magus::telemetry {
class EventLog;
class MetricsRegistry;
}  // namespace magus::telemetry

namespace magus::exp {

struct RunOptions {
  sim::EngineConfig engine;
  core::MagusConfig magus;
  baseline::UpsConfig ups;
  baseline::DufConfig duf;
  baseline::EcoShiftConfig ecoshift;
  baseline::DeadlineConfig deadline;
  baseline::CompPowConfig comppow;
  common::Ghz static_ghz{0.0};  ///< pin target for the "static" policy
  /// Per-node power-cap schedule the cap-aware policies (ecoshift, comppow)
  /// read; inactive (the default) means uncapped and those policies are
  /// inert at ladder max.
  core::PowerCapSchedule power_cap;
  /// When set, the engine, the MAGUS runtime, and the repetition protocol
  /// report into this registry. Telemetry never feeds back into the
  /// simulation: results are bit-identical with any registry (including
  /// telemetry::null_registry()) or none.
  telemetry::MetricsRegistry* metrics = nullptr;
  telemetry::EventLog* events = nullptr;  ///< optional decision event stream
  /// Fault weather applied to the hw backends the policy reads/writes. With
  /// rate 0 (the default) no decorators are constructed and the run is
  /// byte-identical to a build without the fault layer.
  fault::FaultConfig fault;
  /// Node identity for the fault schedule (fleet index; 0 standalone).
  std::uint64_t fault_node = 0;
};

struct RunOutput {
  sim::SimResult result;
  trace::TraceRecorder traces;
  /// Faults the decorators actually injected (all-zero when fault.rate == 0).
  fault::FaultStats faults;
  /// True when the policy entered its safe fallback (IPolicy::degraded).
  bool policy_degraded = false;
};

/// Run one workload under one named policy on one system. Policy names are
/// resolved through core::PolicyFactory::instance(); unknown names throw
/// common::ConfigError listing every registered policy. An exception the
/// policy throws mid-run propagates with its original type.
[[nodiscard]] RunOutput run_policy(const sim::SystemSpec& system,
                                   const wl::PhaseProgram& workload,
                                   const std::string& policy, const RunOptions& opts = {});

/// The Table 2 protocol workload: an (almost) idle node for `duration_s`.
[[nodiscard]] wl::PhaseProgram idle_workload(double duration_s);

}  // namespace magus::exp
