#include "magus/exp/batch.hpp"

#include <exception>
#include <utility>

#include "magus/core/policy_factory.hpp"

namespace magus::exp {

std::size_t BatchRun::add(const sim::SystemSpec& system, const wl::PhaseProgram& workload,
                          const std::string& policy, const RunOptions& opts) {
  const std::size_t lane = engine_.add_lane(system, workload, opts.engine);
  sim::SimEngine& engine = engine_.engine(lane);
  if (opts.metrics) engine.attach_telemetry(*opts.metrics);
  jobs_.push_back(
      Job{hw::UncoreFreqLadder(system.cpu.uncore_min_ghz, system.cpu.uncore_max_ghz),
          {},
          {},
          {},
          {},
          {}});
  Job& job = jobs_.back();

  core::PolicyContext ctx;
  ctx.mem_counter = &engine.mem_counter();
  ctx.energy_counter = &engine.energy_counter();
  ctx.core_counters = &engine.core_counters();
  ctx.msr = &engine.msr();
  ctx.ladder = &job.ladder;

  // Fault decorators slot in between the policy and the engine backends.
  // Constructed only when enabled so a rate-0 run takes the exact same code
  // path (and produces bit-identical results) as before the fault layer.
  if (opts.fault.enabled()) {
    job.plan = std::make_unique<fault::FaultPlan>(opts.fault, opts.fault_node);
    job.faulty_mem = std::make_unique<fault::FaultyMemThroughputCounter>(
        engine.mem_counter(), *job.plan, job.out.faults);
    job.faulty_msr =
        std::make_unique<fault::FaultyMsrDevice>(engine.msr(), *job.plan, job.out.faults);
    ctx.mem_counter = job.faulty_mem.get();
    ctx.msr = job.faulty_msr.get();
  }
  ctx.magus = &opts.magus;
  ctx.ups = &opts.ups;
  ctx.duf = &opts.duf;
  ctx.ecoshift = &opts.ecoshift;
  ctx.deadline = &opts.deadline;
  ctx.comppow = &opts.comppow;
  ctx.static_ghz = opts.static_ghz;
  ctx.power_cap = &opts.power_cap;
  ctx.metrics = opts.metrics;
  ctx.events = opts.events;
  // The simulator's domain set only on multi-domain nodes. Without it the
  // policies bind the whole node as one domain over the (possibly
  // fault-decorated) MSR device; a legacy multi-socket node given this set
  // would instead get per-socket control, a different model.
  if (system.cpu.dies_per_socket > 1 || system.numa_skew != 0.0) {
    ctx.domains = &engine.domains();
  }

  const core::PolicyFactory& factory = core::PolicyFactory::instance();
  job.policy = factory.make_policy(policy, ctx);

  sim::PolicyHook hook;
  hook.name = job.policy->name();
  hook.period_s = job.policy->period_s();
  core::IPolicy* bound = job.policy.get();  // deque: stable for the engine's life
  hook.on_start = [bound](common::Seconds now) { bound->on_start(now); };
  // Default and static policies do nothing per sample; skip the callback so
  // the engine charges them zero monitoring overhead (they are not runtimes).
  if (factory.is_runtime(policy)) {
    hook.on_sample = [bound](common::Seconds now) { bound->on_sample(now); };
  }
  engine_.set_hook(lane, std::move(hook));
  return lane;
}

void BatchRun::run_all() {
  engine_.run_all();
  for (std::size_t i = 0; i < jobs_.size(); ++i) {
    Job& job = jobs_[i];
    // A job whose policy could not be made (add threw) has no output.
    if (engine_.lane_failed(i) || !job.policy) continue;
    job.out.result = engine_.result(i);
    job.out.traces = engine_.engine(i).recorder();
    job.out.policy_degraded = job.policy->degraded();
  }
}

RunOutput BatchRun::take(std::size_t job) {
  if (engine_.lane_failed(job)) std::rethrow_exception(engine_.lane_exception(job));
  return std::move(jobs_[job].out);
}

}  // namespace magus::exp
