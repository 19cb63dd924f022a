// paper_eval: the paper's evaluation protocol through the public magus::exp
// API -- exp::evaluate_app over every Fig. 4 application on Intel+A100,
// Intel+Max1550 and Intel+4A100 (7 jittered repetitions per policy, the
// Fig. 4a/b/c protocol), plus exp::measure_overhead on both Table 2
// systems. It is the workload that exercises the per-node SimEngine, the
// trace recorder and the repetition protocol.

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench.hpp"
#include "magus/common/thread_pool.hpp"
#include "magus/exp/evaluation.hpp"
#include "magus/telemetry/registry.hpp"
#include "magus/wl/catalog.hpp"

namespace perfbench {

namespace {

using namespace magus;

constexpr int kRepetitions = 7;
constexpr double kIdleSeconds = 120.0;  ///< Table 2 idle run length (simulated)
const std::vector<std::string> kOverheadPolicies = {"default", "magus", "ups"};

struct SystemJob {
  sim::SystemSpec system;
  std::vector<std::string> apps;
  int gpu_scale = 1;
};

/// The protocol's inputs: systems, application lists, and each app's
/// nominal program (the catalog build).
struct Protocol {
  std::vector<SystemJob> systems;
  std::vector<sim::SystemSpec> overhead_systems;
  std::size_t programs = 0;
  exp::EvalSpec spec;
  std::uint64_t overhead_seed = 0;
};

Protocol make_protocol(std::uint64_t seed) {
  Protocol p;
  p.systems = {{sim::intel_a100(), wl::apps_for_a100(), 1},
               {sim::intel_max1550(), wl::apps_for_max1550(), 1},
               {sim::intel_4a100(), wl::apps_for_4a100(), 4}};
  for (const SystemJob& job : p.systems) {
    for (const std::string& app : job.apps) {
      wl::PhaseProgram program = wl::make_workload(app);
      if (job.gpu_scale > 1) program = wl::scale_for_gpus(program, job.gpu_scale);
      program.validate();
      ++p.programs;
    }
  }
  p.overhead_systems = {sim::intel_a100(), sim::intel_max1550()};
  p.spec.repeat.repetitions = kRepetitions;
  p.spec.repeat.seed = seed;
  p.overhead_seed = seed + 11;
  return p;
}

struct Outcome {
  std::vector<std::vector<exp::AppEvaluation>> evals;  ///< per system, per app
  std::vector<exp::OverheadResult> overhead;
  std::string text;  ///< the printed numbers, full precision
};

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// One protocol pass. Every (system, application) evaluation and each
/// Table 2 overhead run is an independent task, and the pass is one
/// parallel loop over all of them, so no system waits at a barrier for the
/// slowest application of the one before (nested loops inside a task run on
/// the thread that claimed it). The 4xA100 evaluations, the longest, are
/// claimed first, so the pass does not end waiting on one of them.
Outcome run_protocol(const Protocol& p, SpanLog* spans) {
  struct Task {
    std::size_t system;
    std::size_t app;  ///< kOverheadRun: the Table 2 run of overhead_systems[system]
  };
  constexpr std::size_t kOverheadRun = static_cast<std::size_t>(-1);
  Outcome out;
  out.evals.resize(p.systems.size());
  out.overhead.resize(p.overhead_systems.size());
  std::vector<Task> tasks;
  for (std::size_t s = p.systems.size(); s-- > 0;) {
    out.evals[s].resize(p.systems[s].apps.size());
    for (std::size_t a = 0; a < p.systems[s].apps.size(); ++a) tasks.push_back({s, a});
  }
  for (std::size_t s = 0; s < p.overhead_systems.size(); ++s) tasks.push_back({s, kOverheadRun});
  common::default_pool().parallel_for_each(tasks.size(), [&](std::size_t i) {
    const Task& t = tasks[i];
    if (t.app == kOverheadRun) {
      Scope span(spans, "exp.measure_overhead", t.system);
      out.overhead[t.system] =
          exp::measure_overhead(p.overhead_systems[t.system], kIdleSeconds, p.overhead_seed);
      return;
    }
    const SystemJob& job = p.systems[t.system];
    exp::EvalSpec spec = p.spec;
    spec.gpu_workload_scale = job.gpu_scale;
    Scope span(spans, "exp.evaluate_app", t.app);
    out.evals[t.system][t.app] = exp::evaluate_app(job.system, job.apps[t.app], spec);
  });

  std::ostringstream text;
  for (std::size_t s = 0; s < p.systems.size(); ++s) {
    const SystemJob& job = p.systems[s];
    for (const exp::AppEvaluation& ev : out.evals[s]) {
      const exp::Comparison& m = ev.magus_vs_base;
      const exp::Comparison& u = ev.ups_vs_base;
      text << job.system.name << ' ' << ev.app << ' ' << num(m.perf_loss_pct) << ' '
           << num(m.cpu_power_saving_pct) << ' ' << num(m.energy_saving_pct) << ' '
           << num(u.perf_loss_pct) << ' ' << num(u.cpu_power_saving_pct) << ' '
           << num(u.energy_saving_pct) << ' ' << num(ev.baseline.runtime.value()) << ' '
           << num(ev.baseline.total_energy().value()) << '\n';
    }
  }
  for (const exp::OverheadResult& r : out.overhead) {
    text << r.system << " overhead " << num(r.magus_power_overhead_pct) << ' '
         << num(r.ups_power_overhead_pct) << ' ' << num(r.magus_invocation_s) << ' '
         << num(r.ups_invocation_s) << ' ' << num(r.idle_power_w) << '\n';
  }
  out.text = text.str();
  return out;
}

std::size_t policy_runs(const Protocol& p) {
  std::size_t apps = 0;
  for (const SystemJob& job : p.systems) apps += job.apps.size();
  return apps * 3 * kRepetitions + p.overhead_systems.size() * kOverheadPolicies.size();
}

/// One protocol pass with the engine's telemetry counter attached: the
/// simulation ticks of the repetition runs, plus the Table 2 idle runs
/// re-run with the options measure_overhead uses (it takes no registry).
/// Deterministic; run once, untimed. Its printed numbers must equal the
/// untraced passes' (telemetry never feeds back into the simulation).
struct Counted {
  std::uint64_t ticks = 0;
  std::string text;
};

Counted counted_pass(const Protocol& p) {
  telemetry::MetricsRegistry registry;
  Protocol counted = p;
  counted.spec.options.metrics = &registry;
  Counted out{0, run_protocol(counted, nullptr).text};
  exp::RunOptions idle;
  idle.engine.seed = p.overhead_seed;
  idle.engine.record_traces = false;
  idle.magus.scaling_enabled = false;
  idle.ups.scaling_enabled = false;
  idle.metrics = &registry;
  for (const sim::SystemSpec& system : p.overhead_systems) {
    for (const std::string& policy : kOverheadPolicies) {
      (void)exp::run_policy(system, exp::idle_workload(kIdleSeconds), policy, idle);
    }
  }
  out.ticks = registry.counter("magus_sim_steps_total")->value();
  return out;
}

/// MAGUS and UPS on every Intel+A100 app, each on_sample timed: the
/// runtime cost on this workload's policy mix and, traced, the simulator's
/// self time (engine run minus samples).
SamplePass latency_pass(const Protocol& p, common::ThreadPool& pool, SpanLog* spans) {
  const SystemJob& job = p.systems.front();
  std::vector<EngineJob> jobs;
  for (const std::string& app : job.apps) {
    for (const std::string policy : {"magus", "ups"}) {
      EngineJob& j = jobs.emplace_back(EngineJob{job.system, wl::make_workload(app), {}, policy});
      j.opts.engine.seed = p.spec.repeat.seed + jobs.size();
    }
  }
  return sample_pass(jobs, pool, spans);
}

Report run_paper(const Options& opt, std::size_t min_batches) {
  Report rep;
  const Counted counted = opt.digest_only ? Counted{} : counted_pass(make_protocol(opt.seed));
  const std::uint64_t ticks = counted.ticks;

  // Rounds: one timed protocol pass, then (untraced) one latency pass, so
  // the per-sample latencies are sampled across the whole run.
  const bool measure = !opt.trace && !opt.digest_only;
  common::ThreadPool pool(opt.jobs);
  std::vector<double> setup, wall, p50, p99;
  std::size_t samples = 0;
  std::string first_text;
  std::vector<std::vector<exp::AppEvaluation>> first_evals;
  bool stable = true;
  std::size_t batches = 0;
  const std::int64_t start = now_ns();
  const double budget = measure ? opt.seconds : 0.0;
  if (opt.digest_only) min_batches = 1;
  std::size_t runs = 0;
  while (batches < min_batches || seconds_between(start, now_ns()) < budget) {
    const std::int64_t t0 = now_ns();
    const Protocol p = make_protocol(opt.seed);
    const std::int64_t t1 = now_ns();
    Outcome out = run_protocol(p, nullptr);
    const std::int64_t t2 = now_ns();
    if (batches > 0) {  // the first pass is a warm-up, not timed
      setup.push_back(seconds_between(t0, t1));
      wall.push_back(seconds_between(t1, t2));
    }
    if (batches == 0) {
      first_text = out.text;
      first_evals = std::move(out.evals);
      runs = policy_runs(p);
    }
    stable = stable && out.text == first_text;
    rep.attempted += runs;
    ++batches;
    if (measure && batches > 1) {
      const SamplePass pass = latency_pass(p, pool, nullptr);
      p50.push_back(family_p50(pass.by_policy));
      p99.push_back(percentile(pass.all_ns, 99.0));
      samples = pass.all_ns.size();
    }
  }
  rep.digest = Digest().add(first_text).hex();
  if (opt.digest_only) return rep;
  stable = stable && counted.text == first_text;
  rep.gate("printed numbers identical across batches and with telemetry attached", stable);

  Sheet& sheet = rep.sheet;
  double saving = 0.0;
  double worst_loss = 0.0;
  std::size_t apps = 0;
  for (const auto& system : first_evals) {
    for (const exp::AppEvaluation& ev : system) {
      saving += ev.magus_vs_base.energy_saving_pct;
      worst_loss = std::max(worst_loss, ev.magus_vs_base.perf_loss_pct);
      ++apps;
    }
  }
  sheet.set("sim.energy_saving_pct", saving / static_cast<double>(apps), "%", Tag::kSim,
            "mean MAGUS saving vs default over " + std::to_string(apps) +
                " apps; paper: up to 27 %; model unvalidated");
  sheet.set("sim.slowdown_pct", worst_loss, "%", Tag::kSim, "worst MAGUS perf loss");
  sheet.set("sim.ticks", static_cast<double>(ticks), "count", Tag::kExact, "one protocol pass");
  const Protocol p = make_protocol(opt.seed);
  if (!opt.trace) {
    rep.gate("p99 has >= 10 samples beyond it", samples >= 1000,
             std::to_string(samples) + " samples per pass");
    std::vector<double> runs_per_s, ticks_per_s;
    for (const double w : wall) {
      runs_per_s.push_back(static_cast<double>(runs) / w);
      ticks_per_s.push_back(static_cast<double>(ticks) / w);
    }
    const std::string n = std::to_string(wall.size()) + " protocol passes of " +
                          std::to_string(runs) + " policy runs";
    const std::string ns = std::to_string(samples) + " MAGUS+UPS samples, median of " +
                           std::to_string(p50.size()) + " passes";
    sheet.set("setup_s", median(setup), "s", Tag::kHost, n);
    sheet.set("wall_s", median(wall), "s", Tag::kHost, n);
    sheet.set("work_per_s", median(runs_per_s), "1/s", Tag::kHost, "exp policy runs per s");
    sheet.set("ticks_per_s", median(ticks_per_s), "1/s", Tag::kHost, n);
    sheet.set("sample_ns_p50", median(p50), "ns", Tag::kHost, ns);
    sheet.set("sample_ns_p99", median(p99), "ns", Tag::kHost, ns);
    return rep;
  }

  SpanLog spans;
  const std::int64_t t0 = now_ns();
  (void)run_protocol(p, &spans);
  const double traced_wall = seconds_between(t0, now_ns());
  sheet.set("bench.trace_overhead_pct", 100.0 * (traced_wall / median(wall) - 1.0), "%",
            Tag::kHost, "traced pass wall vs untraced median");
  const std::vector<double> eval_ns = spans.durations_ns("exp.evaluate_app");
  sheet.set("exp.evaluate_app_ms", 1e-6 * percentile(eval_ns, 50.0), "ms", Tag::kHost,
            std::to_string(eval_ns.size()) + " apps");

  // exp::run_policy as evaluate_app calls it (traces recorded), then the
  // trace layer's own cost: samples per run and CSV serialization.
  std::vector<double> run_ns;
  double trace_samples = 0.0;
  double csv_bytes = 0.0;
  double csv_s = 0.0;
  for (const std::string& app : p.systems.front().apps) {
    for (const std::string& policy : kOverheadPolicies) {
      const std::int64_t r0 = now_ns();
      exp::RunOptions opts;
      opts.engine.seed = p.spec.repeat.seed;
      const exp::RunOutput out = exp::run_policy(p.systems.front().system,
                                                 wl::make_workload(app), policy, opts);
      const std::int64_t r1 = now_ns();
      run_ns.push_back(static_cast<double>(r1 - r0));
      spans.add("exp.run_policy", r0, r1, -1, run_ns.size());
      for (const std::string& channel : out.traces.channels()) {
        trace_samples += static_cast<double>(out.traces.series(channel).size());
      }
      std::ostringstream csv;
      const std::int64_t w0 = now_ns();
      out.traces.write_csv(csv);
      const std::int64_t w1 = now_ns();
      spans.add("trace.write_csv", w0, w1, -1, run_ns.size());
      csv_bytes += static_cast<double>(csv.str().size());
      csv_s += seconds_between(w0, w1);
    }
  }
  sheet.set("exp.run_policy_ms", 1e-6 * percentile(run_ns, 50.0), "ms", Tag::kHost,
            std::to_string(run_ns.size()) + " runs");
  sheet.set("trace.samples_per_run", trace_samples / static_cast<double>(run_ns.size()), "count",
            Tag::kExact);
  sheet.set("trace.write_csv_mb_per_s", 1e-6 * csv_bytes / csv_s, "MB/s", Tag::kHost);

  const SamplePass pass = latency_pass(p, pool, &spans);
  const double sim_self_s = spans.self_s("sim.engine_run");
  unsigned long long pass_ticks = 0;
  unsigned long long inv = 0;
  sim::AccessMeter acc;
  std::vector<double> invocation;
  for (const sim::SimResult& r : pass.results) {
    pass_ticks += r.ticks;
    inv += r.invocations;
    acc.msr_reads += r.accesses.msr_reads;
    acc.msr_writes += r.accesses.msr_writes;
    acc.pcm_reads += r.accesses.pcm_reads;
    invocation.push_back(r.avg_invocation_s());
  }
  sheet.set("sim.tick_ns", 1e9 * sim_self_s / static_cast<double>(pass_ticks), "ns", Tag::kHost,
            "SimEngine self time per tick, traces recorded");
  sheet.set("sim.self_share_pct", 100.0 * sim_self_s / pass.run_s, "%", Tag::kHost);
  sheet.set("sim.control_invocation_s", percentile(invocation, 99.0), "sim_s", Tag::kSim,
            "p99 over MAGUS/UPS runs of the mean simulated invocation time");
  add_access_metrics(sheet, acc, inv);
  add_sample_metrics(sheet, pass.by_policy);
  if (!opt.spans_out.empty()) spans.write(opt.spans_out);
  return rep;
}

}  // namespace

Report run_paper_eval(const Options& opt) { return run_paper(opt, 3); }

Sheet trace_paper_reference(const Options& opt) {
  Options small = opt;
  small.spans_out.clear();
  return run_paper(small, 1).sheet;
}

}  // namespace perfbench
