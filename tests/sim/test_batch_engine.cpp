// BatchEngine is a scheduler over SimEngines: a lane must reproduce a solo
// SimEngine::run exactly (results and traces), a throwing policy must fail
// only its own lane, and a policy's exception must reach callers of
// SimEngine::run and exp::run_policy with its original type.

#include <gtest/gtest.h>

#include <exception>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>

#include "magus/common/error.hpp"
#include "magus/exp/batch.hpp"
#include "magus/exp/experiment.hpp"
#include "magus/fault/injectors.hpp"
#include "magus/fault/plan.hpp"
#include "magus/hw/msr.hpp"
#include "magus/sim/batch_engine.hpp"
#include "magus/sim/engine.hpp"
#include "magus/wl/patterns.hpp"

namespace mc = magus::common;
namespace mf = magus::fault;
namespace mh = magus::hw;
namespace ms = magus::sim;
namespace mw = magus::wl;

namespace {

mw::PhaseProgram two_phase_program() {
  return mw::PhaseProgram("two_phase",
                          {mw::patterns::steady("mem", 1.5, 40'000.0, 0.6, 0.3, 0.2),
                           mw::patterns::steady("gpu", 1.0, 4'000.0, 0.1, 0.2, 0.9)});
}

/// Odd lanes run on a 2-die, NUMA-skewed node so per-domain state is covered.
ms::SystemSpec system_for(int lane) {
  ms::SystemSpec system = ms::intel_a100();
  if (lane % 2 == 1) {
    system.cpu.dies_per_socket = 2;
    system.numa_skew = 0.3;
  }
  return system;
}

ms::EngineConfig config_for(int lane, bool traces) {
  ms::EngineConfig cfg;
  cfg.seed = 100 + static_cast<std::uint64_t>(lane);
  cfg.record_traces = traces;
  return cfg;
}

/// A small runtime over one engine's backends: reads traffic and energy,
/// then moves the uncore limit with the traffic, so each sample both charges
/// metered reads and changes what the next ticks simulate. With
/// `throw_at` > 0 the throw_at-th sample throws std::runtime_error.
ms::PolicyHook probe_hook(mh::IMsrDevice& msr, mh::IMemThroughputCounter& mem,
                          mh::IEnergyCounter& energy, int throw_at = 0) {
  auto samples = std::make_shared<int>(0);
  ms::PolicyHook hook;
  hook.name = "probe";
  hook.on_sample = [&msr, &mem, &energy, samples, throw_at](mc::Seconds) {
    if (++*samples == throw_at) throw std::runtime_error("probe failed");
    const double mb = mem.total_mb();
    (void)energy.pkg_energy_j(0);
    const std::uint64_t raw = msr.read(0, mh::msr::kUncoreRatioLimit);
    mh::UncoreRatioLimit limit = mh::UncoreRatioLimit::decode(raw);
    limit.max_ratio = static_cast<long long>(mb / 5000.0) % 2 == 0 ? 12u : 22u;
    msr.write(0, mh::msr::kUncoreRatioLimit, limit.encode(raw));
  };
  return hook;
}

ms::PolicyHook probe_hook(ms::SimEngine& engine, int throw_at = 0) {
  return probe_hook(engine.msr(), engine.mem_counter(), engine.energy_counter(), throw_at);
}

ms::PolicyHook probe_hook(ms::BatchEngine& batch, std::size_t lane, int throw_at = 0) {
  return probe_hook(batch.msr(lane), batch.mem_counter(lane), batch.energy_counter(lane),
                    throw_at);
}

/// Field-by-field exact equality (doubles compared with ==, not a tolerance).
void expect_same(const ms::SimResult& a, const ms::SimResult& b) {
  EXPECT_EQ(a.policy_name, b.policy_name);
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_EQ(a.duration_s, b.duration_s);
  EXPECT_EQ(a.pkg_energy_j, b.pkg_energy_j);
  EXPECT_EQ(a.dram_energy_j, b.dram_energy_j);
  EXPECT_EQ(a.gpu_energy_j, b.gpu_energy_j);
  EXPECT_EQ(a.avg_pkg_power_w, b.avg_pkg_power_w);
  EXPECT_EQ(a.avg_dram_power_w, b.avg_dram_power_w);
  EXPECT_EQ(a.avg_gpu_power_w, b.avg_gpu_power_w);
  EXPECT_EQ(a.invocations, b.invocations);
  EXPECT_EQ(a.total_invocation_s, b.total_invocation_s);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.accesses.msr_reads, b.accesses.msr_reads);
  EXPECT_EQ(a.accesses.msr_writes, b.accesses.msr_writes);
  EXPECT_EQ(a.accesses.pcm_reads, b.accesses.pcm_reads);
  EXPECT_EQ(a.domain_uncore_energy_j, b.domain_uncore_energy_j);
  EXPECT_EQ(a.domain_stretch_time_s, b.domain_stretch_time_s);
  EXPECT_EQ(a.domain_traffic_mb, b.domain_traffic_mb);
}

std::string csv_of(const magus::trace::TraceRecorder& recorder) {
  std::ostringstream os;
  recorder.write_csv(os);
  return os.str();
}

}  // namespace

TEST(BatchEngine, ThrowingPolicyFailsOnlyItsLane) {
  // 40 lanes span two scheduling blocks. Lane 5 throws at its third sample,
  // lane 33 (second block) at start; every other lane must come out exactly
  // as a solo SimEngine::run of the same inputs.
  constexpr int kLanes = 40;
  const mw::PhaseProgram program = two_phase_program();
  ms::BatchEngine batch;
  for (int i = 0; i < kLanes; ++i) {
    const std::size_t lane = batch.add_lane(system_for(i), program, config_for(i, false));
    ASSERT_EQ(lane, static_cast<std::size_t>(i));
    batch.set_hook(lane, probe_hook(batch, lane, i == 5 ? 3 : 0));
  }
  ms::PolicyHook bad_start = probe_hook(batch, 33);
  bad_start.on_start = [](mc::Seconds) { throw mc::DeviceError("start failed"); };
  batch.set_hook(33, bad_start);
  batch.run_all();

  ASSERT_TRUE(batch.lane_failed(5));
  EXPECT_EQ(batch.lane_error(5), "probe failed");
  EXPECT_THROW(std::rethrow_exception(batch.lane_exception(5)), std::runtime_error);
  ASSERT_TRUE(batch.lane_failed(33));
  EXPECT_EQ(batch.lane_error(33), "start failed");
  EXPECT_THROW(std::rethrow_exception(batch.lane_exception(33)), mc::DeviceError);

  unsigned long long ticks = 0;
  for (int i = 0; i < kLanes; ++i) {
    if (i == 5 || i == 33) continue;
    SCOPED_TRACE("lane " + std::to_string(i));
    ASSERT_FALSE(batch.lane_failed(static_cast<std::size_t>(i)));
    EXPECT_EQ(batch.lane_exception(static_cast<std::size_t>(i)), nullptr);
    ms::SimEngine solo(system_for(i), program, config_for(i, false));
    const ms::SimResult expect = solo.run(probe_hook(solo));
    EXPECT_GT(expect.invocations, 0u);
    expect_same(batch.result(static_cast<std::size_t>(i)), expect);
    ticks += expect.ticks;
  }
  EXPECT_EQ(batch.total_ticks(), ticks);
}

TEST(BatchEngine, TracedLaneRecorderEqualsSimEngine) {
  const mw::PhaseProgram program = two_phase_program();
  ms::BatchEngine batch;
  for (int i = 0; i < 2; ++i) {
    const std::size_t lane = batch.add_lane(system_for(i), program, config_for(i, true));
    batch.set_hook(lane, probe_hook(batch, lane));
  }
  batch.run_all();
  for (int i = 0; i < 2; ++i) {
    SCOPED_TRACE("lane " + std::to_string(i));
    ms::SimEngine solo(system_for(i), program, config_for(i, true));
    const ms::SimResult expect = solo.run(probe_hook(solo));
    expect_same(batch.result(static_cast<std::size_t>(i)), expect);
    const auto& traced = batch.engine(static_cast<std::size_t>(i)).recorder();
    EXPECT_TRUE(traced.has("core_freq_ghz_3"));
    EXPECT_FALSE(traced.has("core_freq_ghz_4"));
    EXPECT_EQ(traced.channels(), solo.recorder().channels());
    EXPECT_EQ(csv_of(traced), csv_of(solo.recorder()));
  }
}

TEST(BatchEngine, SimEngineRunRethrowsPolicyExceptionType) {
  // Every MSR operation through the decorator fails with -EIO.
  mf::FaultConfig faults;
  faults.rate = 1.0;
  faults.latency_spike_weight = 0.0;
  const mf::FaultPlan plan(faults, 0);
  mf::FaultStats stats;
  ms::SimEngine engine(ms::intel_a100(), two_phase_program());
  mf::FaultyMsrDevice faulty(engine.msr(), plan, stats);
  const ms::PolicyHook hook =
      probe_hook(faulty, engine.mem_counter(), engine.energy_counter());
  EXPECT_THROW((void)engine.run(hook), mc::DeviceError);
}

TEST(BatchEngine, RunPolicyRethrowsPolicyExceptionType) {
  // UPS does not ride the degradation ladder: an injected MSR -EIO escapes
  // its sample and must surface from run_policy as the DeviceError itself.
  magus::exp::RunOptions opts;
  opts.engine.record_traces = false;
  opts.fault.rate = 1.0;
  opts.fault.latency_spike_weight = 0.0;
  EXPECT_THROW(
      (void)magus::exp::run_policy(ms::intel_a100(), two_phase_program(), "ups", opts),
      mc::DeviceError);
}

TEST(BatchEngine, RunPolicyReturnsTheLaneTraces) {
  magus::exp::RunOptions opts;
  const auto out =
      magus::exp::run_policy(ms::intel_a100(), two_phase_program(), "magus", opts);
  EXPECT_TRUE(out.result.completed);
  EXPECT_TRUE(out.traces.has(magus::trace::channel::kUncoreFreq));
  EXPECT_FALSE(out.traces.series(magus::trace::channel::kUncoreFreq).empty());
}

TEST(BatchEngine, BatchRunSurvivesAJobWhosePolicyCannotBeMade) {
  // add() throws for the bad job, but its lane was already queued; run_all
  // must still run (and not dereference) it, and the good job stays exact.
  magus::exp::RunOptions opts;
  opts.engine.record_traces = false;
  const mw::PhaseProgram program = two_phase_program();
  magus::exp::BatchRun batch;
  const std::size_t good = batch.add(ms::intel_a100(), program, "magus", opts);
  EXPECT_THROW((void)batch.add(ms::intel_a100(), program, "no_such_policy", opts),
               mc::ConfigError);
  batch.run_all();
  ASSERT_FALSE(batch.failed(good));
  const auto solo = magus::exp::run_policy(ms::intel_a100(), program, "magus", opts);
  expect_same(batch.output(good).result, solo.result);
}
