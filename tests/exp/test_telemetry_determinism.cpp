#include <gtest/gtest.h>

#include <vector>

#include "magus/common/thread_pool.hpp"
#include "magus/exp/evaluation.hpp"
#include "magus/exp/repeat.hpp"
#include "magus/telemetry/registry.hpp"
#include "magus/wl/catalog.hpp"

// The telemetry determinism contract: attaching a MetricsRegistry (live,
// null, or none) to the experiment layer must be unobservable in the
// results, bit for bit, at any job count. Telemetry only reads values the
// simulation already computed; it never feeds back.

namespace me = magus::exp;
namespace mc = magus::common;
namespace mt = magus::telemetry;

namespace {

void expect_same(const me::AggregateResult& a, const me::AggregateResult& b) {
  EXPECT_DOUBLE_EQ(a.runtime.value(), b.runtime.value());
  EXPECT_DOUBLE_EQ(a.pkg_energy.value(), b.pkg_energy.value());
  EXPECT_DOUBLE_EQ(a.dram_energy.value(), b.dram_energy.value());
  EXPECT_DOUBLE_EQ(a.gpu_energy.value(), b.gpu_energy.value());
  EXPECT_DOUBLE_EQ(a.avg_cpu_power.value(), b.avg_cpu_power.value());
  EXPECT_DOUBLE_EQ(a.avg_gpu_power.value(), b.avg_gpu_power.value());
  EXPECT_DOUBLE_EQ(a.avg_invocation.value(), b.avg_invocation.value());
  EXPECT_EQ(a.reps_used, b.reps_used);
  EXPECT_EQ(a.reps_total, b.reps_total);
}

struct JobsGuard {
  explicit JobsGuard(std::size_t jobs) { mc::set_default_jobs(jobs); }
  ~JobsGuard() { mc::set_default_jobs(0); }
};

/// Attaches the shared pool to `reg` and detaches (via the disabled null
/// registry) before `reg` can go out of scope — the pool outlives it.
struct PoolTelemetryGuard {
  explicit PoolTelemetryGuard(mt::MetricsRegistry& reg) {
    mc::default_pool().attach_telemetry(reg);
  }
  ~PoolTelemetryGuard() { mc::default_pool().attach_telemetry(mt::null_registry()); }
};

}  // namespace

TEST(TelemetryDeterminism, RunRepeatedIdenticalWithAndWithoutTelemetry) {
  me::RepeatSpec spec;
  spec.repetitions = 5;
  spec.seed = 321;
  const auto system = magus::sim::intel_a100();
  const auto program = magus::wl::make_workload("bfs");

  for (std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE(jobs);
    JobsGuard guard(jobs);

    me::RunOptions plain_opts;  // metrics == nullptr

    mt::MetricsRegistry reg;
    PoolTelemetryGuard pool_guard(reg);
    me::RunOptions live_opts;
    live_opts.metrics = &reg;

    me::RunOptions null_opts;
    null_opts.metrics = &mt::null_registry();

    const auto plain =
        me::run_repeated(system, program, "magus", spec, plain_opts);
    const auto live =
        me::run_repeated(system, program, "magus", spec, live_opts);
    const auto null_reg =
        me::run_repeated(system, program, "magus", spec, null_opts);

    expect_same(plain, live);
    expect_same(plain, null_reg);

    // The live registry must actually have observed the run.
    EXPECT_EQ(reg.counter("magus_exp_reps_completed_total")->value(), 5u);
    EXPECT_GE(reg.counter("magus_runtime_samples_total")->value(), 1u);
    EXPECT_GE(reg.counter("magus_sim_steps_total")->value(), 1u);
  }
}

TEST(TelemetryDeterminism, SensitivitySweepIdenticalWithAndWithoutTelemetry) {
  me::SweepSpec spec;
  spec.inc_values = {100.0, 300.0};
  spec.dec_values = {500.0};
  spec.hf_values = {0.4, 0.8};
  spec.repeat = {2, 7, {}};
  const auto system = magus::sim::intel_a100();

  JobsGuard guard(4);

  me::SweepSpec plain_spec = spec;  // metrics == nullptr
  const auto plain = me::sensitivity_sweep(system, "bfs", plain_spec);

  mt::MetricsRegistry reg;
  me::SweepSpec live_spec = spec;
  live_spec.metrics = &reg;
  const auto live = me::sensitivity_sweep(system, "bfs", live_spec);

  me::SweepSpec null_spec = spec;
  null_spec.metrics = &mt::null_registry();
  const auto nul = me::sensitivity_sweep(system, "bfs", null_spec);

  ASSERT_EQ(plain.size(), live.size());
  ASSERT_EQ(plain.size(), nul.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    SCOPED_TRACE(i);
    for (const auto* other : {&live[i], &nul[i]}) {
      EXPECT_DOUBLE_EQ(plain[i].inc_threshold, other->inc_threshold);
      EXPECT_DOUBLE_EQ(plain[i].dec_threshold, other->dec_threshold);
      EXPECT_DOUBLE_EQ(plain[i].high_freq_threshold, other->high_freq_threshold);
      EXPECT_DOUBLE_EQ(plain[i].runtime_s, other->runtime_s);
      EXPECT_DOUBLE_EQ(plain[i].energy_j, other->energy_j);
      EXPECT_EQ(plain[i].on_front, other->on_front);
      EXPECT_EQ(plain[i].is_recommended, other->is_recommended);
    }
  }

  // Sweep progress metrics saw every combination exactly once.
  EXPECT_DOUBLE_EQ(reg.gauge("magus_exp_sweep_combos")->value(),
                   static_cast<double>(plain.size()));
  EXPECT_EQ(reg.counter("magus_exp_sweep_combos_completed_total")->value(), plain.size());
  EXPECT_EQ(reg.counter("magus_exp_reps_completed_total")->value(), 2u * plain.size());
}

TEST(TelemetryDeterminism, RunPolicyIdenticalWithTelemetry) {
  const auto system = magus::sim::intel_a100();
  const auto program = magus::wl::make_workload("unet");

  me::RunOptions plain;
  const auto base = me::run_policy(system, program, "magus", plain);

  mt::MetricsRegistry reg;
  me::RunOptions with;
  with.metrics = &reg;
  const auto instrumented = me::run_policy(system, program, "magus", with);

  EXPECT_DOUBLE_EQ(base.result.duration_s, instrumented.result.duration_s);
  EXPECT_DOUBLE_EQ(base.result.pkg_energy_j, instrumented.result.pkg_energy_j);
  EXPECT_DOUBLE_EQ(base.result.dram_energy_j, instrumented.result.dram_energy_j);
  EXPECT_DOUBLE_EQ(base.result.gpu_energy_j, instrumented.result.gpu_energy_j);
  EXPECT_EQ(base.result.invocations, instrumented.result.invocations);

  // MDFS instrumentation mirrors the decision log exactly.
  EXPECT_EQ(reg.counter("magus_runtime_samples_total")->value(),
            base.result.invocations);
  EXPECT_GE(reg.counter("magus_mdfs_tuning_events_total")->value(), 1u);
}

TEST(TelemetryDeterminism, MsrWriteCounterMatchesMeteredWrites) {
  // A single-domain MAGUS run writes MSR 0x620 through the node-wide domain
  // set; magus_hw_msr_writes_total counts exactly the writes the engine
  // metered.
  const auto system = magus::sim::intel_a100();
  const auto program = magus::wl::make_workload("unet");
  mt::MetricsRegistry reg;
  me::RunOptions opts;
  opts.metrics = &reg;
  const auto out = me::run_policy(system, program, "magus", opts);

  ASSERT_GT(out.result.accesses.msr_writes, 0u);
  EXPECT_EQ(reg.counter("magus_hw_msr_writes_total")->value(),
            out.result.accesses.msr_writes);
}
