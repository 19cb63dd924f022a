// runtime_loop: the on-node control loop, timed in host wall-clock.
//
// Every runtime family is built through core::PolicyFactory on a
// sim::SimEngine's backends, at 1 and 4 uncore dies per socket, over each
// Table 1 application's jittered phase program. The engine advances the
// node between samples outside the timer; each on_sample call is timed
// alone. Cap-aware families run under an active power cap set below the
// default-policy twin's CPU-side draw, so their cap logic is exercised.

#include <algorithm>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "magus/common/rng.hpp"
#include "magus/common/thread_pool.hpp"
#include "magus/core/mdfs.hpp"
#include "magus/wl/catalog.hpp"
#include "magus/wl/jitter.hpp"

namespace perfbench {

namespace {

using namespace magus;

const std::vector<std::string> kFamilies = {"magus",    "ups",      "duf",
                                            "ecoshift", "deadline", "comppow"};
const std::vector<int> kDies = {1, 4};
constexpr double kCapShare = 0.85;  ///< cap as a share of the twin's CPU-side draw

bool cap_aware(const std::string& family) {
  return family == "ecoshift" || family == "deadline" || family == "comppow";
}

/// One (application, die count) node: its jittered program, engine seed,
/// and the default-policy twin the savings are measured against.
struct Node {
  std::string app;
  int dies = 1;
  sim::SystemSpec system;
  wl::PhaseProgram program;
  std::uint64_t engine_seed = 0;
  sim::SimResult twin;
};

std::vector<Node> make_nodes(const std::vector<std::string>& apps, std::uint64_t seed,
                             std::vector<double>* build_ns, SpanLog* spans) {
  std::vector<Node> nodes;
  std::uint64_t k = 0;
  for (const std::string& app : apps) {
    for (const int dies : kDies) {
      Node n;
      n.app = app;
      n.dies = dies;
      n.system = sim::intel_a100();
      n.system.cpu.dies_per_socket = dies;
      const std::int64_t t0 = now_ns();
      common::Rng rng = common::Rng(seed).fork(k);
      n.program = wl::apply_jitter(wl::make_workload(app), rng);
      const std::int64_t t1 = now_ns();
      if (build_ns) build_ns->push_back(static_cast<double>(t1 - t0));
      if (spans) spans->add("wl.program_build", t0, t1, -1, k);
      n.engine_seed = seed * 1000003ull + k;
      nodes.push_back(std::move(n));
      ++k;
    }
  }
  return nodes;
}

sim::EngineConfig engine_config(const Node& node) {
  sim::EngineConfig cfg;
  cfg.seed = node.engine_seed;
  cfg.record_traces = false;
  return cfg;
}

/// One configured loop: engine + bound policy (set-up), then run.
struct Loop {
  const Node* node = nullptr;
  std::string family;
  std::unique_ptr<sim::SimEngine> engine;
  exp::RunOptions opts;
  SampleLog log;
  std::unique_ptr<TimedPolicy> policy;
  Digest digest;  ///< the decision sequence and the run's result
  sim::SimResult result;
  std::vector<double> traffic_mb;  ///< magus, 1 die: node traffic at each sample
  std::vector<double> sample_t;
};

struct Batch {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double sample_s = 0.0;  ///< summed on_sample host time
  std::vector<double> ns;
  std::map<std::string, SampleLog> by_family;
  std::deque<Loop> loops;  ///< deque: hooks point into each Loop, so none may move
  std::string digest;
  unsigned long long ticks = 0;
};

void run_one(Loop& loop, std::uint64_t id, SpanLog* spans) {
  sim::SimEngine& e = *loop.engine;
  const int domains = e.node().domain_count();
  const bool replay = loop.family == "magus" && loop.node->dies == 1;
  // The decision each sample left behind: every domain's programmed limit
  // (read straight from the model, so no access is metered).
  loop.policy->after_sample([&loop, &e, domains, replay](common::Seconds now) {
    for (int d = 0; d < domains; ++d) loop.digest.add(e.node().uncore(d).policy_limit().value());
    if (replay) {
      loop.sample_t.push_back(now.value());
      loop.traffic_mb.push_back(e.node().total_traffic_mb());
    }
  });
  Scope run(spans, "sim.engine_run", id);
  loop.log.parent = run.index();
  loop.result = e.run(loop.policy->hook());
  loop.policy->after_sample(nullptr);
  const sim::SimResult& r = loop.result;
  loop.digest.add(r.duration_s).add(r.total_energy_j()).add(std::uint64_t{r.ticks});
  loop.digest.add(std::uint64_t{r.invocations}).add(std::uint64_t{r.accesses.msr_reads});
  loop.digest.add(std::uint64_t{r.accesses.msr_writes}).add(std::uint64_t{r.accesses.pcm_reads});
}

/// Set up every loop (timed as set-up), then run them on `pool` -- loops are
/// claimed dynamically, so a batch spreads over every worker it is given.
Batch run_batch(const std::vector<Node>& nodes, common::ThreadPool& pool, SpanLog* spans) {
  Batch b;
  const std::int64_t t0 = now_ns();
  std::uint64_t id = 0;
  for (const Node& node : nodes) {
    for (const std::string& family : kFamilies) {
      Loop& loop = b.loops.emplace_back();
      loop.node = &node;
      loop.family = family;
      loop.engine = std::make_unique<sim::SimEngine>(node.system, node.program,
                                                     engine_config(node));
      if (cap_aware(family)) {
        loop.opts.power_cap.fixed_cap_w = kCapShare * node.twin.avg_cpu_power_w();
      }
      sim::SimEngine& e = *loop.engine;
      const Backends backends{&e.msr(), &e.mem_counter(), &e.energy_counter(),
                              &e.core_counters(), &e.domains()};
      loop.log.spans = spans;
      loop.policy =
          std::make_unique<TimedPolicy>(node.system, backends, family, loop.opts, loop.log, id++);
    }
  }
  const std::int64_t t1 = now_ns();
  pool.parallel_for_each(b.loops.size(), [&](std::size_t i) { run_one(b.loops[i], i, spans); });
  const std::int64_t t2 = now_ns();
  b.setup_s = seconds_between(t0, t1);
  b.wall_s = seconds_between(t1, t2);
  Digest digest;
  for (const Loop& loop : b.loops) {
    digest.add(loop.digest.hex());
    b.ticks += loop.result.ticks;
    std::vector<double>& ns = b.by_family[loop.family].ns;
    ns.insert(ns.end(), loop.log.ns.begin(), loop.log.ns.end());
    b.ns.insert(b.ns.end(), loop.log.ns.begin(), loop.log.ns.end());
  }
  for (const double ns : b.ns) b.sample_s += ns * 1e-9;
  b.digest = digest.hex();
  return b;
}

/// Replay the throughput MAGUS saw (traffic deltas between its samples)
/// through a fresh MdfsController: mean ns per decision, and the share of
/// decisions that changed the target.
void mdfs_replay(const std::deque<Loop>& loops, Sheet& sheet) {
  std::vector<std::pair<double, double>> series;  // (t, MB/s)
  for (const Loop& loop : loops) {
    for (std::size_t i = 1; i < loop.traffic_mb.size(); ++i) {
      const double dt = loop.sample_t[i] - loop.sample_t[i - 1];
      series.emplace_back(loop.sample_t[i], (loop.traffic_mb[i] - loop.traffic_mb[i - 1]) / dt);
    }
  }
  if (series.empty()) return;
  const sim::SystemSpec system = sim::intel_a100();
  std::vector<double> mean_ns;
  std::size_t retargets = 0;
  for (int round = 0; round < 5; ++round) {
    core::MdfsController ctl(core::MagusConfig{}, common::Ghz(system.cpu.uncore_min_ghz),
                             common::Ghz(system.cpu.uncore_max_ghz));
    std::size_t changed = 0;
    const std::int64_t t0 = now_ns();
    for (const auto& [t, mbps] : series) {
      if (ctl.on_throughput(common::Seconds(t), common::Mbps(mbps))) ++changed;
    }
    mean_ns.push_back(static_cast<double>(now_ns() - t0) / static_cast<double>(series.size()));
    retargets = changed;
  }
  sheet.set("core.mdfs_decide_ns", median(mean_ns), "ns", Tag::kHost,
            std::to_string(series.size()) + " replayed samples, median of 5 rounds");
  sheet.set("core.retarget_ratio",
            static_cast<double>(retargets) / static_cast<double>(series.size()), "ratio",
            Tag::kExact);
}

Report run_loop(const std::vector<std::string>& apps, const Options& opt) {
  Report rep;
  // Twins: the default-policy run of every node, once (deterministic).
  std::vector<Node> nodes = make_nodes(apps, opt.seed, nullptr, nullptr);
  for (Node& node : nodes) {
    node.twin = sim::SimEngine(node.system, node.program, engine_config(node)).run();
  }

  common::ThreadPool pool(opt.jobs);
  // The first batch warms caches and lazy set-up and is not timed; it is
  // kept for the gates and the simulated outputs. Later batches keep only
  // their timings, so memory does not grow with the run.
  const std::int64_t start = now_ns();
  const Batch first = run_batch(nodes, pool, nullptr);
  rep.attempted += first.ns.size();
  rep.digest = first.digest;
  const double budget = opt.trace || opt.digest_only ? 0.0 : opt.seconds;
  const std::size_t min_timed = opt.digest_only ? 0 : 2;
  std::vector<double> setup, wall, work, ticks, p50, p99;
  bool stable = true;
  while (wall.size() < min_timed || seconds_between(start, now_ns()) < budget) {
    const Batch b = run_batch(nodes, pool, nullptr);
    stable = stable && b.digest == first.digest;
    rep.attempted += b.ns.size();
    setup.push_back(b.setup_s);
    wall.push_back(b.wall_s);
    work.push_back(static_cast<double>(b.ns.size()) / b.sample_s);
    ticks.push_back(static_cast<double>(b.ticks) / b.wall_s);
    p50.push_back(family_p50(b.by_family));
    p99.push_back(percentile(b.ns, 99.0));
  }
  if (opt.digest_only) return rep;
  rep.gate("decision sequence identical across batches", stable);
  rep.gate("p99 has >= 10 samples beyond it", first.ns.size() >= 1000,
           std::to_string(first.ns.size()) + " samples per batch");

  // Deterministic outputs: printed on every run, per-layer metrics traced.
  double saving = 0.0;
  std::vector<double> slowdown;
  for (const Loop& loop : first.loops) {
    const sim::SimResult& twin = loop.node->twin;
    saving += 100.0 * (1.0 - loop.result.total_energy_j() / twin.total_energy_j());
    slowdown.push_back(100.0 * (loop.result.duration_s / twin.duration_s - 1.0));
  }
  saving /= static_cast<double>(first.loops.size());

  Sheet& sheet = rep.sheet;
  sheet.set("sim.energy_saving_pct", saving, "%", Tag::kSim,
            "mean over loops vs default twin; paper: up to 27 %; model unvalidated");
  sheet.set("sim.slowdown_pct", percentile(slowdown, 99.0), "%", Tag::kSim,
            "p99 over loops vs default twin");
  sheet.set("sim.ticks", static_cast<double>(first.ticks), "count", Tag::kExact);
  std::vector<double> invocation;
  sim::AccessMeter acc;
  unsigned long long inv = 0;
  for (const Loop& loop : first.loops) {
    invocation.push_back(loop.result.avg_invocation_s());
    acc.msr_reads += loop.result.accesses.msr_reads;
    acc.msr_writes += loop.result.accesses.msr_writes;
    acc.pcm_reads += loop.result.accesses.pcm_reads;
    inv += loop.result.invocations;
  }
  sheet.set("sim.control_invocation_s", percentile(invocation, 99.0), "sim_s", Tag::kSim,
            "p99 over loops of the mean simulated invocation time");
  add_access_metrics(sheet, acc, inv);
  if (!opt.trace) {
    const std::string n = std::to_string(wall.size()) + " batches of " +
                          std::to_string(first.loops.size()) + " loops";
    const std::string ns = std::to_string(first.ns.size()) + " samples per batch, median of " +
                           std::to_string(wall.size()) + " batches";
    sheet.set("setup_s", median(setup), "s", Tag::kHost, n);
    sheet.set("wall_s", median(wall), "s", Tag::kHost, n + "; engine ticks included");
    sheet.set("work_per_s", median(work), "1/s", Tag::kHost, "on_sample calls per s of on_sample time");
    sheet.set("ticks_per_s", median(ticks), "1/s", Tag::kHost, n);
    sheet.set("sample_ns_p50", median(p50), "ns", Tag::kHost, ns);
    sheet.set("sample_ns_p99", median(p99), "ns", Tag::kHost, ns);
    return rep;
  }

  SpanLog spans;
  std::vector<double> build_ns;
  make_nodes(apps, opt.seed, &build_ns, &spans);
  const Batch traced = run_batch(nodes, pool, &spans);
  sheet.set("bench.trace_overhead_pct", 100.0 * (traced.wall_s / median(wall) - 1.0), "%",
            Tag::kHost, "traced batch wall vs untraced median");
  sheet.set("wl.program_build_us", 1e-3 * percentile(build_ns, 50.0), "us", Tag::kHost);
  const double sim_self_s = spans.self_s("sim.engine_run");
  sheet.set("sim.tick_ns", 1e9 * sim_self_s / static_cast<double>(traced.ticks), "ns",
            Tag::kHost, "engine self time (on_sample spans excluded) per tick");
  sheet.set("sim.self_share_pct", 100.0 * sim_self_s / spans.total_s("sim.engine_run"), "%",
            Tag::kHost, "of the engine runs");
  add_sample_metrics(sheet, traced.by_family);
  mdfs_replay(traced.loops, sheet);
  if (!opt.spans_out.empty()) spans.write(opt.spans_out);
  return rep;
}

}  // namespace

Report run_runtime_loop(const Options& opt) { return run_loop(wl::apps_for_table1(), opt); }

Sheet trace_runtime_reference(const Options& opt) {
  Options small = opt;
  small.spans_out.clear();
  return run_loop({"unet", "bfs"}, small).sheet;
}

}  // namespace perfbench
