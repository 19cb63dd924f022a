#pragma once
// BatchEngine: many independent simulator runs behind one interface.
//
// A lane is one SimEngine plus the policy hook bound to it. run_all runs
// every lane through SimEngine::run in lane order, so a lane's result is
// exactly what SimEngine::run returns for the same (system, program,
// config, hook): there is one tick loop and one set of simulator backends.
//
// A lane whose policy throws (at start or at a sample boundary) is marked
// failed and keeps the exception; its siblings run on unaffected.

#include <cstddef>
#include <deque>
#include <exception>
#include <string>

#include "magus/sim/engine.hpp"
#include "magus/sim/system_preset.hpp"
#include "magus/wl/phase.hpp"

namespace magus::sim {

class BatchEngine {
 public:
  BatchEngine() = default;
  // Lanes are pinned in place (policies hold their backends); so is the engine.
  BatchEngine(const BatchEngine&) = delete;
  BatchEngine& operator=(const BatchEngine&) = delete;

  /// Add one lane: a SimEngine over (system, program, cfg), validated by
  /// its constructor. Returns the lane index used by every other accessor.
  std::size_t add_lane(const SystemSpec& system, wl::PhaseProgram program,
                       const EngineConfig& cfg);

  /// Bind the policy hook for a lane (default: the no-op "default" hook).
  void set_hook(std::size_t lane, PolicyHook hook);

  /// The lane's engine (recorder, telemetry, node state).
  [[nodiscard]] SimEngine& engine(std::size_t lane) { return lanes_[lane].engine; }

  // Backends a policy binds to: the lane engine's. Valid for the engine's
  // lifetime.
  [[nodiscard]] hw::IMsrDevice& msr(std::size_t lane) { return engine(lane).msr(); }
  [[nodiscard]] hw::IMemThroughputCounter& mem_counter(std::size_t lane) {
    return engine(lane).mem_counter();
  }
  [[nodiscard]] hw::IEnergyCounter& energy_counter(std::size_t lane) {
    return engine(lane).energy_counter();
  }
  [[nodiscard]] hw::IGpuPowerSensor& gpu_sensor(std::size_t lane) {
    return engine(lane).gpu_sensor();
  }
  [[nodiscard]] hw::ICoreCounters& core_counters(std::size_t lane) {
    return engine(lane).core_counters();
  }
  [[nodiscard]] hw::IUncoreDomainSet& domains(std::size_t lane) {
    return engine(lane).domains();
  }

  /// Run every lane to completion (or its safety cap). Call at most once.
  void run_all();

  [[nodiscard]] std::size_t lane_count() const noexcept { return lanes_.size(); }
  [[nodiscard]] bool lane_failed(std::size_t lane) const {
    return lanes_[lane].error != nullptr;
  }
  /// what() of a failed lane's exception.
  [[nodiscard]] const std::string& lane_error(std::size_t lane) const {
    return lanes_[lane].message;
  }
  /// The exception a failed lane's policy threw (null when it did not fail).
  [[nodiscard]] std::exception_ptr lane_exception(std::size_t lane) const {
    return lanes_[lane].error;
  }
  /// Result for a successfully finished lane (unspecified if lane_failed).
  [[nodiscard]] const SimResult& result(std::size_t lane) const {
    return lanes_[lane].result;
  }
  /// Simulation steps executed across all finished lanes.
  [[nodiscard]] unsigned long long total_ticks() const noexcept { return total_ticks_; }

 private:
  struct Lane {
    Lane(const SystemSpec& system, wl::PhaseProgram program, const EngineConfig& cfg)
        : engine(system, std::move(program), cfg) {}

    /// Record the exception in flight; call only from a catch block.
    void fail();

    SimEngine engine;
    PolicyHook hook;
    SimResult result;
    std::exception_ptr error;
    std::string message;
  };

  std::deque<Lane> lanes_;  ///< deque: lane addresses stay stable
  unsigned long long total_ticks_ = 0;
  bool ran_ = false;
};

}  // namespace magus::sim
