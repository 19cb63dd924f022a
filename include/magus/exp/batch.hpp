#pragma once
// Policy wiring for the simulator: the one place factory-made policies are
// bound to simulator backends.
//
// A BatchRun collects (system, workload, policy, options) jobs. Each job is
// one sim::BatchEngine lane: its SimEngine, the factory-made policy bound to
// that engine's backends (through fault decorators when the options enable
// faults), and the hook that drives it. exp::run_policy is a one-job
// BatchRun, so a fleet lane and a standalone run share this wiring as well
// as the simulator loop.

#include <cstddef>
#include <deque>
#include <memory>
#include <string>

#include "magus/core/policy.hpp"
#include "magus/exp/experiment.hpp"
#include "magus/fault/injectors.hpp"
#include "magus/fault/plan.hpp"
#include "magus/hw/uncore_freq.hpp"
#include "magus/sim/batch_engine.hpp"

namespace magus::exp {

class BatchRun {
 public:
  BatchRun() = default;
  // Jobs point at the engine and at each other; pin the address.
  BatchRun(const BatchRun&) = delete;
  BatchRun& operator=(const BatchRun&) = delete;

  /// Queue one job; returns its index. Policy names resolve through
  /// core::PolicyFactory::instance(); a throwing maker (or invalid options)
  /// propagates out of this call. opts.metrics is attached to the job's
  /// engine as well as handed to the policy.
  std::size_t add(const sim::SystemSpec& system, const wl::PhaseProgram& workload,
                  const std::string& policy, const RunOptions& opts);

  /// Run every queued job. Call at most once.
  void run_all();

  /// True when the job's policy threw (at start or at a sample boundary).
  [[nodiscard]] bool failed(std::size_t job) const { return engine_.lane_failed(job); }
  [[nodiscard]] const std::string& error(std::size_t job) const {
    return engine_.lane_error(job);
  }
  /// Output of a successful job (unspecified when failed(job)).
  [[nodiscard]] const RunOutput& output(std::size_t job) const {
    return jobs_[job].out;
  }
  /// Move a job's output out; rethrows the exception a failed job threw.
  [[nodiscard]] RunOutput take(std::size_t job);

  [[nodiscard]] std::size_t job_count() const noexcept { return jobs_.size(); }
  [[nodiscard]] unsigned long long total_ticks() const noexcept {
    return engine_.total_ticks();
  }

 private:
  struct Job {
    hw::UncoreFreqLadder ladder;
    std::unique_ptr<fault::FaultPlan> plan;
    std::unique_ptr<fault::FaultyMemThroughputCounter> faulty_mem;
    std::unique_ptr<fault::FaultyMsrDevice> faulty_msr;
    std::unique_ptr<core::IPolicy> policy;
    RunOutput out;
  };

  sim::BatchEngine engine_;
  std::deque<Job> jobs_;  ///< stable addresses: hooks capture into these
};

}  // namespace magus::exp
