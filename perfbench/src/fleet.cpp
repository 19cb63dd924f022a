// fleet_sweep: closed batches of whole-fleet runs through the public
// magus::fleet API on the batch engine, plus the traced budgeted reference
// fleet that times the allocator and fault layers for every workload.
//
// One batch = build the synthetic manifest, round-trip it through JSONL,
// construct the FleetRunner (set-up), then run() and serialize the rollup
// (the timed region). After each batch a stratified node subsample is
// re-simulated on per-node SimEngines with every policy's on_sample timed:
// the host cost per sample of this fleet's policy mix. The traced run
// re-simulates a wider subsample through sim::BatchEngine with each sample
// in a span, which splits simulator self time from policy time.

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "magus/common/rng.hpp"
#include "magus/common/thread_pool.hpp"
#include "magus/fleet/allocator.hpp"
#include "magus/fleet/manifest.hpp"
#include "magus/fleet/runner.hpp"
#include "magus/sim/batch_engine.hpp"
#include "magus/telemetry/event_log.hpp"
#include "magus/telemetry/registry.hpp"
#include "magus/wl/catalog.hpp"
#include "magus/wl/jitter.hpp"

namespace perfbench {

namespace {

using namespace magus;

/// A fleet run differs only in the manifest.
struct FleetShape {
  int nodes = 0;
  bool budgeted = false;  ///< cap-aware policies, 4 dies, skew, faults, clipping budget
  int per_stratum = 0;    ///< decomposition pass: nodes per (policy, system) pair
  int jobs_check_nodes = 0;  ///< 1-job vs N-job invariance subsample size
};

constexpr FleetShape kSweep{1000, false, 4, 48};
/// The traced reference: every layer fleet_sweep does not reach (the budget
/// allocator, cap-aware policies on 4 dies, fault injection and retries).
constexpr FleetShape kBudgetReference{64, true, 2, 8};
constexpr double kBudgetPerNodeW = 220.0;

fleet::FleetManifest make_manifest(int nodes, std::uint64_t seed, bool budgeted) {
  fleet::FleetManifest manifest = fleet::synth_fleet(nodes, seed);
  if (!budgeted) return manifest;
  const std::vector<std::string> cap_aware = {"ecoshift", "deadline", "comppow"};
  std::size_t index = 0;
  manifest.mutate_nodes([&](fleet::NodeSpec& node) {
    node.policy(cap_aware[index++ % cap_aware.size()]).dies(4).numa_skew(0.2);
  });
  manifest.fault_rate(0.05)
      .fault_seed(seed + 1)
      .power_budget_w(kBudgetPerNodeW * nodes)
      .budget_epoch_s(1.0);
  return manifest;
}

struct Batch {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::size_t manifest_bytes = 0;
  bool roundtrip_ok = false;
  fleet::FleetResult result;
  std::string rollup;
};

/// One closed batch. With `spans` set every public call is a span; with
/// `registry` set the runner reports into it (the telemetry comparison).
Batch run_batch(const FleetShape& shape, std::uint64_t seed, SpanLog* spans,
                telemetry::MetricsRegistry* registry = nullptr,
                telemetry::EventLog* events = nullptr) {
  Batch b;
  Scope batch(spans, "fleet.batch", seed);
  const std::int64_t t0 = now_ns();
  std::string text;
  {
    Scope s(spans, "fleet.manifest_build", seed, batch.index());
    text = make_manifest(shape.nodes, seed, shape.budgeted).to_jsonl();
  }
  fleet::FleetManifest parsed;
  {
    Scope s(spans, "fleet.manifest_parse", seed, batch.index());
    parsed = fleet::FleetManifest::from_jsonl(text);
  }
  std::optional<fleet::FleetRunner> runner;
  {
    Scope s(spans, "fleet.ctor", seed, batch.index());
    runner.emplace(std::move(parsed));
  }
  runner->set_engine(fleet::FleetEngine::kBatch);
  if (registry) runner->attach_telemetry(*registry, events);
  const std::int64_t t1 = now_ns();
  {
    Scope s(spans, "fleet.run", seed, batch.index());
    b.result = runner->run();
  }
  {
    Scope s(spans, "fleet.rollup", seed, batch.index());
    b.rollup = b.result.to_jsonl();
  }
  const std::int64_t t2 = now_ns();
  b.setup_s = seconds_between(t0, t1);
  b.wall_s = seconds_between(t1, t2);
  b.manifest_bytes = text.size();
  b.roundtrip_ok = runner->manifest().to_jsonl() == text;
  return b;
}

// --- node inputs, re-derived through the public API --------------------------

wl::PhaseProgram node_program(const fleet::FleetManifest& manifest,
                              const fleet::NodeSpec& spec, std::size_t index) {
  common::Rng rng = common::Rng(manifest.seed()).fork(index);
  wl::PhaseProgram program = wl::make_workload(spec.app());
  if (spec.gpus() > 1) program = wl::scale_for_gpus(program, spec.gpus());
  return wl::apply_jitter(program, rng, manifest.jitter());
}

/// The inputs FleetRunner hands its engines for node `index`: jitter stream
/// Rng(seed).fork(index), engine seed seed * 1000003 + index, manifest domain
/// knobs over the preset (fleet/runner.hpp determinism contract).
EngineJob node_input(const fleet::FleetManifest& manifest,
                     const std::vector<fleet::NodeSpec>& expanded, std::size_t index,
                     const std::vector<core::PowerCapSchedule>& caps) {
  const fleet::NodeSpec& spec = expanded[index];
  EngineJob in{sim::system_by_name(spec.system()), node_program(manifest, spec, index), {},
               spec.policy()};
  in.system.cpu.dies_per_socket = spec.dies();
  in.system.numa_skew = spec.numa_skew();
  in.opts.engine.seed = manifest.seed() * 1000003ull + index;
  in.opts.engine.record_traces = false;
  in.opts.static_ghz = spec.static_uncore();
  in.opts.fault = manifest.fault();
  in.opts.fault_node = index;
  if (!caps.empty()) in.opts.power_cap = caps[index];
  return in;
}

/// The budget pre-pass the FleetRunner constructor runs (fleet/runner.cpp),
/// rebuilt from the public allocator API so each call can be timed: program
/// build and demand estimate per node, one water-filling round per epoch.
struct CapPass {
  std::vector<core::PowerCapSchedule> caps;
  std::vector<double> program_build_ns;
  std::vector<double> demand_ns;
  std::vector<double> allocate_ns;
};

CapPass compute_caps(const fleet::FleetManifest& manifest,
                     const std::vector<fleet::NodeSpec>& expanded, SpanLog* spans) {
  CapPass pass;
  const std::size_t total = expanded.size();
  std::vector<sim::SystemSpec> systems;
  std::vector<wl::PhaseProgram> programs;
  double span_s = 0.0;
  for (std::size_t i = 0; i < total; ++i) {
    const std::int64_t t0 = now_ns();
    programs.push_back(node_program(manifest, expanded[i], i));
    const std::int64_t t1 = now_ns();
    pass.program_build_ns.push_back(static_cast<double>(t1 - t0));
    if (spans) spans->add("wl.program_build", t0, t1, -1, i);
    systems.push_back(sim::system_by_name(expanded[i].system()));
    span_s = std::max(span_s, programs.back().nominal_duration_s());
  }
  const double budget_w = manifest.power_budget_w();
  if (budget_w <= 0.0) return pass;

  const double epoch_s = manifest.budget_epoch_s();
  const std::size_t epochs =
      std::max<std::size_t>(1, static_cast<std::size_t>(std::ceil(span_s / epoch_s)));
  std::vector<std::vector<double>> demand(total);
  std::vector<fleet::NodeDemand> bounds(total);
  pass.caps.assign(total, core::PowerCapSchedule{});
  for (std::size_t i = 0; i < total; ++i) {
    const std::int64_t t0 = now_ns();
    demand[i] = fleet::estimate_epoch_demand_w(systems[i], programs[i], epoch_s, epochs);
    const std::int64_t t1 = now_ns();
    pass.demand_ns.push_back(static_cast<double>(t1 - t0));
    if (spans) spans->add("fleet.demand_estimate", t0, t1, -1, i);
    bounds[i].floor_w = fleet::node_floor_w(systems[i]);
    bounds[i].ceiling_w = fleet::node_ceiling_w(systems[i]);
    pass.caps[i].epoch_s = epoch_s;
  }
  std::vector<fleet::NodeDemand> epoch_nodes(total);
  for (std::size_t e = 0; e < epochs; ++e) {
    for (std::size_t i = 0; i < total; ++i) {
      epoch_nodes[i] = bounds[i];
      epoch_nodes[i].demand_w = demand[i][e];
    }
    const std::int64_t t0 = now_ns();
    const std::vector<double> alloc = fleet::PowerBudgetAllocator::allocate(epoch_nodes, budget_w);
    const std::int64_t t1 = now_ns();
    pass.allocate_ns.push_back(static_cast<double>(t1 - t0));
    if (spans) spans->add("fleet.allocate", t0, t1, -1, e);
    for (std::size_t i = 0; i < total; ++i) pass.caps[i].epoch_cap_w.push_back(alloc[i]);
  }
  return pass;
}

// --- decomposition pass -------------------------------------------------------

struct Decomposition {
  std::map<std::string, SampleLog> by_policy;  ///< per policy name
  sim::AccessMeter accesses;
  unsigned long long invocations = 0;
  unsigned long long ticks = 0;
  double run_s = 0.0;  ///< summed BatchEngine::run_all wall time of the shards
};

/// One shard of the pass: its own BatchEngine over a contiguous slice of
/// the subsample, like a FleetRunner shard.
struct Shard {
  sim::BatchEngine engine;
  std::deque<EngineJob> inputs;
  std::deque<TimedPolicy> bound;
  std::map<std::string, SampleLog> logs;
  double run_s = 0.0;
};

/// The traced decomposition: re-simulate `indices` (policy runs only, no
/// twins) through sim::BatchEngine in `pool.size() + 1` shards run
/// concurrently, each policy's on_sample wrapped in a span under its shard's
/// run_all span, so simulator self time separates from policy time.
Decomposition decompose(const fleet::FleetManifest& manifest,
                        const std::vector<fleet::NodeSpec>& expanded,
                        const std::vector<core::PowerCapSchedule>& caps,
                        const std::vector<std::size_t>& indices, common::ThreadPool& pool,
                        SpanLog& spans) {
  const std::size_t count = std::min(indices.size(), pool.size() + 1);
  std::deque<Shard> shards(count);
  for (std::size_t k = 0; k < count; ++k) {
    Shard& shard = shards[k];
    for (std::size_t j = k * indices.size() / count; j < (k + 1) * indices.size() / count; ++j) {
      const std::size_t i = indices[j];
      shard.inputs.push_back(node_input(manifest, expanded, i, caps));
      const EngineJob& in = shard.inputs.back();
      const std::size_t lane = shard.engine.add_lane(in.system, in.program, in.opts.engine);
      sim::BatchEngine& e = shard.engine;
      const Backends backends{&e.msr(lane), &e.mem_counter(lane), &e.energy_counter(lane),
                              &e.core_counters(lane), &e.domains(lane)};
      SampleLog& log = shard.logs[in.policy];
      log.spans = &spans;
      shard.bound.emplace_back(in.system, backends, in.policy, in.opts, log, i);
      e.set_hook(lane, shard.bound.back().hook());
    }
  }
  pool.parallel_for_each(count, [&](std::size_t k) {
    Shard& shard = shards[k];
    const std::int64_t t0 = now_ns();
    Scope run(&spans, "sim.run_all", k);
    for (auto& [name, log] : shard.logs) log.parent = run.index();
    shard.engine.run_all();
    shard.run_s = seconds_between(t0, now_ns());
  });

  Decomposition d;
  for (const Shard& shard : shards) {
    d.run_s += shard.run_s;
    for (std::size_t lane = 0; lane < shard.engine.lane_count(); ++lane) {
      if (shard.engine.lane_failed(lane)) continue;
      const sim::SimResult& r = shard.engine.result(lane);
      d.accesses.msr_reads += r.accesses.msr_reads;
      d.accesses.msr_writes += r.accesses.msr_writes;
      d.accesses.pcm_reads += r.accesses.pcm_reads;
      d.invocations += r.invocations;
      d.ticks += r.ticks;
    }
    for (const auto& [name, log] : shard.logs) {
      std::vector<double>& ns = d.by_policy[name].ns;
      ns.insert(ns.end(), log.ns.begin(), log.ns.end());
    }
  }
  return d;
}

/// The first `per_stratum` nodes (fleet order) of every (policy, system)
/// pair: a subsample whose policy and system mix is the same for every seed.
std::vector<std::size_t> stratified(const std::vector<fleet::NodeSpec>& expanded,
                                    int per_stratum) {
  std::map<std::string, int> taken;
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < expanded.size(); ++i) {
    int& n = taken[expanded[i].policy() + "|" + expanded[i].system()];
    if (n < per_stratum) {
      ++n;
      out.push_back(i);
    }
  }
  return out;
}

double energy_saving_pct(const fleet::FleetResult& r) {
  double saved = 0.0;
  double twin = 0.0;
  for (const fleet::NodeResult& n : r.nodes) {
    saved += n.joules_saved;
    twin += n.baseline_energy_j;
  }
  return twin > 0.0 ? 100.0 * saved / twin : 0.0;
}

/// Same manifest at 1 worker and at `jobs` workers: rollups must be equal.
bool jobs_invariant(const FleetShape& shape, std::uint64_t seed, std::size_t jobs) {
  const auto rollup = [&](std::size_t workers) {
    common::set_default_jobs(workers);
    fleet::FleetRunner runner(make_manifest(shape.jobs_check_nodes, seed, shape.budgeted));
    runner.set_engine(fleet::FleetEngine::kBatch);
    return runner.run().to_jsonl();
  };
  const std::string serial = rollup(1);
  const std::string parallel = rollup(jobs);
  return serial == parallel;
}

void add_decomposition_metrics(Sheet& sheet, const Decomposition& d, const SpanLog& spans) {
  const double sim_self_s = spans.self_s("sim.run_all");
  if (d.ticks > 0) {
    sheet.set("sim.tick_ns", 1e9 * sim_self_s / static_cast<double>(d.ticks), "ns",
              Tag::kHost, std::to_string(d.ticks) + " ticks in the decomposition pass");
  }
  if (d.run_s > 0.0) {
    sheet.set("sim.self_share_pct", 100.0 * sim_self_s / d.run_s, "%", Tag::kHost,
              "of the decomposition pass");
  }
  add_sample_metrics(sheet, d.by_policy);
  add_access_metrics(sheet, d.accesses, d.invocations);
}

/// Deterministic outputs of the fleet run: printed on every run, reported
/// as per-layer metrics by the traced run.
void add_outcome_metrics(Sheet& sheet, const fleet::FleetResult& result) {
  double attempts = 0.0;
  double injected = 0.0;
  std::vector<double> control;
  for (const fleet::NodeResult& node : result.nodes) {
    attempts += node.attempts;
    injected += static_cast<double>(node.faults_injected);
    if (node.control_latency_s > 0.0) control.push_back(node.control_latency_s);
  }
  const double nodes = static_cast<double>(result.nodes_total);
  sheet.set("sim.energy_saving_pct", energy_saving_pct(result), "%", Tag::kSim,
            "sum joules_saved / sum twin energy; paper: up to 27 %; model unvalidated");
  sheet.set("sim.slowdown_pct", result.slowdown_p99_pct, "%", Tag::kSim, "fleet rollup p99");
  sheet.set("sim.ticks", static_cast<double>(result.ticks_total), "count", Tag::kExact,
            "whole fleet, run + twin");
  sheet.set("sim.control_invocation_s", percentile(control, 99.0), "sim_s", Tag::kSim,
            "p99 over runtime nodes of the mean simulated invocation time");
  sheet.set("fleet.attempts_per_node", attempts / nodes, "count", Tag::kExact);
  sheet.set("fleet.failed_nodes", static_cast<double>(result.failed_nodes), "count", Tag::kSim,
            "simulated node failures (modelled outcome)");
  sheet.set("fault.injected_per_node", injected / nodes, "count", Tag::kExact);
  if (!result.budget_epochs.empty()) {
    double clipped = 0.0;
    double allocated = 0.0;
    for (const fleet::BudgetEpochRollup& e : result.budget_epochs) {
      clipped += e.clipped_w;
      allocated += e.allocated_w;
    }
    sheet.set("fleet.budget_clipped_pct", 100.0 * clipped / (allocated + clipped), "%",
              Tag::kExact, "clipped W / (allocated + clipped W), all epochs");
  }
}

Report run_fleet(const FleetShape& shape, const Options& opt) {
  Report rep;
  const fleet::FleetManifest manifest = make_manifest(shape.nodes, opt.seed, shape.budgeted);
  const std::vector<fleet::NodeSpec> expanded = manifest.expand();
  const std::vector<std::size_t> sample = stratified(expanded, shape.per_stratum);
  const bool measure = !opt.trace && !opt.digest_only;
  common::ThreadPool pool(opt.jobs);
  std::vector<EngineJob> sample_jobs;
  if (measure) {
    const std::vector<core::PowerCapSchedule> caps = compute_caps(manifest, expanded, nullptr).caps;
    for (const std::size_t i : sample) sample_jobs.push_back(node_input(manifest, expanded, i, caps));
  }

  // Rounds: one timed batch, then (untraced) one sample pass -- the sampled
  // nodes on their own SimEngines, as each would run on a real node -- so
  // the per-sample latencies are sampled across the whole run like the
  // batches. The first round warms caches and lazy set-up and is not timed.
  std::vector<Batch> batches;
  std::vector<double> p50, p99;
  std::size_t samples = 0;
  const std::int64_t start = now_ns();
  const double budget = measure ? opt.seconds : 0.0;
  const std::size_t min_batches = opt.digest_only ? 1 : 3;
  bool stable = true;
  while (batches.size() < min_batches || seconds_between(start, now_ns()) < budget) {
    Batch& b = batches.emplace_back(run_batch(shape, opt.seed, nullptr));
    stable = stable && b.rollup == batches.front().rollup && b.roundtrip_ok;
    if (batches.size() > 1) {  // the first is kept for outputs; the rest only for timings
      b.result = {};
      b.rollup.clear();
    }
    if (measure && batches.size() > 1) {
      const SamplePass pass = sample_pass(sample_jobs, pool, nullptr);
      p50.push_back(family_p50(pass.by_policy));
      p99.push_back(percentile(pass.all_ns, 99.0));
      samples = pass.all_ns.size();
    }
  }
  const fleet::FleetResult& result = batches.front().result;
  rep.digest = Digest().add(batches.front().rollup).hex();
  if (opt.digest_only) return rep;

  std::vector<double> setup, wall, nodes_per_s, ticks_per_s;
  for (const Batch& b : batches) {
    rep.attempted += static_cast<std::uint64_t>(shape.nodes);
    if (&b == &batches.front()) continue;  // warm-up
    setup.push_back(b.setup_s);
    wall.push_back(b.wall_s);
    nodes_per_s.push_back(static_cast<double>(shape.nodes) / b.wall_s);
    ticks_per_s.push_back(static_cast<double>(result.ticks_total) / b.wall_s);
  }
  // Simulated node failures under injected faults are the modelled outcome,
  // not failed benchmark operations; the fault-free fleet must have none.
  rep.gate("rollup identical across batches and manifest round-trip exact", stable);
  rep.gate("every node simulated", result.nodes_total == static_cast<std::size_t>(shape.nodes));
  if (!shape.budgeted) rep.gate("no failed nodes without faults", result.failed_nodes == 0);
  rep.gate("rollup identical at 1 and " + std::to_string(opt.jobs) + " workers (" +
               std::to_string(shape.jobs_check_nodes) + "-node subsample)",
           jobs_invariant(shape, opt.seed, opt.jobs));
  common::set_default_jobs(opt.jobs);

  Sheet& sheet = rep.sheet;
  add_outcome_metrics(sheet, result);
  if (!opt.trace) {
    rep.gate("p99 has >= 10 samples beyond it", samples >= 1000,
             std::to_string(samples) + " samples per pass");
    const std::string n = std::to_string(wall.size()) + " batches of " +
                          std::to_string(shape.nodes) + " nodes";
    const std::string ns = std::to_string(samples) + " samples on " +
                           std::to_string(sample.size()) + " nodes, median of " +
                           std::to_string(p50.size()) + " passes";
    sheet.set("setup_s", median(setup), "s", Tag::kHost, n);
    sheet.set("wall_s", median(wall), "s", Tag::kHost, n);
    sheet.set("work_per_s", median(nodes_per_s), "1/s", Tag::kHost, "nodes (run + twin) per s");
    sheet.set("ticks_per_s", median(ticks_per_s), "1/s", Tag::kHost, n);
    sheet.set("sample_ns_p50", median(p50), "ns", Tag::kHost, ns);
    sheet.set("sample_ns_p99", median(p99), "ns", Tag::kHost, ns);
    return rep;
  }

  // Traced run: one traced batch against the untraced medians above, the
  // budget pre-pass call by call, the decomposition pass, and the telemetry
  // comparison.
  SpanLog spans;
  const Batch traced = run_batch(shape, opt.seed, &spans);
  sheet.set("bench.trace_overhead_pct", 100.0 * (traced.wall_s / median(wall) - 1.0), "%",
            Tag::kHost, "traced batch wall vs untraced median");
  sheet.set("fleet.ctor_s", spans.total_s("fleet.ctor"), "s", Tag::kHost);
  sheet.set("fleet.manifest_parse_mb_per_s",
            1e-6 * static_cast<double>(traced.manifest_bytes) /
                spans.total_s("fleet.manifest_parse"),
            "MB/s", Tag::kHost);
  sheet.set("fleet.run_s", spans.total_s("fleet.run"), "s", Tag::kHost);
  sheet.set("fleet.rollup_mb_per_s",
            1e-6 * static_cast<double>(traced.rollup.size()) / spans.total_s("fleet.rollup"),
            "MB/s", Tag::kHost);

  const CapPass traced_caps = compute_caps(manifest, expanded, &spans);
  sheet.set("wl.program_build_us", 1e-3 * percentile(traced_caps.program_build_ns, 50.0), "us",
            Tag::kHost);
  if (!traced_caps.demand_ns.empty()) {
    sheet.set("fleet.demand_estimate_us_per_node",
              1e-3 * percentile(traced_caps.demand_ns, 50.0), "us", Tag::kHost);
    sheet.set("fleet.allocator_epoch_us", 1e-3 * percentile(traced_caps.allocate_ns, 50.0),
              "us", Tag::kHost, std::to_string(traced_caps.allocate_ns.size()) + " epochs");
  }
  // A wider subsample than the untraced passes, so each policy family has
  // enough samples for its own percentiles.
  const Decomposition d = decompose(manifest, expanded, traced_caps.caps,
                                    stratified(expanded, 4 * shape.per_stratum), pool, spans);
  add_decomposition_metrics(sheet, d, spans);

  // Telemetry cost: alternating pairs of batches without / with the runner's
  // registry and event log attached; median and IQR of the per-pair overhead.
  std::vector<double> overhead;
  const int pairs = std::clamp(static_cast<int>(0.25 * opt.seconds / median(wall)), 3, 6);
  for (int p = 0; p < pairs; ++p) {
    telemetry::MetricsRegistry registry;
    telemetry::EventLog events;
    double off = 0.0;
    double on = 0.0;
    if (p % 2 == 0) off = run_batch(shape, opt.seed, nullptr).wall_s;
    on = run_batch(shape, opt.seed, nullptr, &registry, &events).wall_s;
    if (p % 2 == 1) off = run_batch(shape, opt.seed, nullptr).wall_s;
    overhead.push_back(100.0 * (on / off - 1.0));
  }
  sheet.set("telemetry.fleet_overhead_pct", median(overhead), "%", Tag::kHost,
            std::to_string(pairs) + " alternating pairs");
  sheet.set("telemetry.fleet_overhead_iqr_pct", iqr(overhead), "%", Tag::kHost,
            "IQR of the pairs");
  if (!opt.spans_out.empty()) spans.write(opt.spans_out);
  return rep;
}

}  // namespace

Report run_fleet_sweep(const Options& opt) { return run_fleet(kSweep, opt); }

Sheet trace_fleet_reference(const Options& opt) {
  Options small = opt;
  small.seconds = 0.0;
  small.spans_out.clear();
  return run_fleet(kBudgetReference, small).sheet;
}

}  // namespace perfbench
