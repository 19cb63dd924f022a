// fleet_throughput: the perf-trajectory benchmark for the fleet layer.
//
// Measures fleet simulation throughput (nodes/sec, simulation ticks/sec) for
// both FleetRunner schedulers (which share one simulator loop) on a
// synthetic fleet, plus the p99 control-loop latency (a node's average
// monitoring invocation, in simulated seconds), the wall-clock overhead of
// attaching fleet telemetry, and the throughput of a power-budgeted fleet
// (the water-filling allocator plus cap-aware policies on the batch path).
// Before timing anything it verifies the oracle contract -- batch and
// per-node rollups byte-identical, with and without fault injection, and
// again with an active fleet power budget -- and exits nonzero on
// divergence, so CI publishing the numbers also guards the semantics.
//
// Output: a human table plus BENCH_fleet.json (schema magus.bench.fleet.v3,
// which names each engine, records the max per-node uncore-domain count, and
// carries a `budgeted` section for the allocator path) in MAGUS_BENCH_OUT
// (default ./bench_out). Node counts scale with MAGUS_BENCH_FLEET_NODES
// (batch fleet; default 10000) and MAGUS_BENCH_FLEET_PERNODE (per-node
// sample; default 256) so CI can trade runtime for resolution without a
// rebuild.

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "magus/common/stats.hpp"
#include "magus/fleet/manifest.hpp"
#include "magus/fleet/runner.hpp"
#include "magus/telemetry/event_log.hpp"
#include "magus/telemetry/registry.hpp"

namespace {

using namespace magus;

int env_nodes(const char* name, int fallback) {
  const char* env = std::getenv(name);
  if (!env) return fallback;
  const int value = std::atoi(env);
  return value > 0 ? value : fallback;
}

struct Timing {
  std::size_t nodes = 0;
  double wall_s = 0.0;
  double nodes_per_sec = 0.0;
  double ticks_per_sec = 0.0;
  double p99_latency_s = 0.0;
  int domains_max = 0;  ///< largest per-node uncore-domain count in the fleet
};

/// The synthetic fleet with every node reshaped to `dies` uncore dies per
/// socket (dies == 1 leaves the manifest untouched).
fleet::FleetManifest synth_fleet_dies(int nodes, std::uint64_t seed, int dies) {
  fleet::FleetManifest manifest = fleet::synth_fleet(nodes, seed);
  if (dies == 1) return manifest;
  fleet::FleetManifest reshaped;
  reshaped.seed(manifest.seed()).shard_size(manifest.shard_size());
  for (fleet::NodeSpec node : manifest.nodes()) {
    reshaped.add_node(std::move(node.dies(dies)));
  }
  return reshaped;
}

/// The synthetic fleet under a global power budget tight enough that the
/// allocator genuinely clips: every node runs a cap-aware comparator policy
/// so the caps feed real control loops, not no-ops.
fleet::FleetManifest synth_budget_fleet(int nodes, std::uint64_t seed) {
  fleet::FleetManifest manifest = fleet::synth_fleet(nodes, seed);
  const std::vector<std::string> cap_aware = {"ecoshift", "deadline", "comppow"};
  int index = 0;
  manifest.mutate_nodes([&cap_aware, &index](fleet::NodeSpec& node) {
    node.policy(cap_aware[static_cast<std::size_t>(index++) % cap_aware.size()]);
  });
  manifest.power_budget_w(220.0 * nodes).budget_epoch_s(1.0);
  return manifest;
}

Timing time_manifest(fleet::FleetManifest manifest, fleet::FleetEngine engine,
                     telemetry::MetricsRegistry* registry, telemetry::EventLog* events) {
  fleet::FleetRunner runner(std::move(manifest));
  runner.set_engine(engine);
  if (registry) runner.attach_telemetry(*registry, events);

  const auto start = std::chrono::steady_clock::now();
  const fleet::FleetResult result = runner.run();
  const std::chrono::duration<double> wall = std::chrono::steady_clock::now() - start;

  Timing t;
  t.nodes = result.nodes_total;
  t.wall_s = wall.count();
  if (t.wall_s > 0.0) {
    t.nodes_per_sec = static_cast<double>(result.nodes_total) / t.wall_s;
    t.ticks_per_sec = static_cast<double>(result.ticks_total) / t.wall_s;
  }
  std::vector<double> latencies;
  latencies.reserve(result.nodes.size());
  for (const fleet::NodeResult& node : result.nodes) {
    // Only runtime policies have a control loop; static/default report 0.
    if (node.control_latency_s > 0.0) latencies.push_back(node.control_latency_s);
    t.domains_max = std::max(t.domains_max, node.domains);
  }
  t.p99_latency_s = common::percentile(latencies, 99.0);
  return t;
}

Timing time_fleet(int nodes, std::uint64_t seed, fleet::FleetEngine engine,
                  telemetry::MetricsRegistry* registry, telemetry::EventLog* events) {
  return time_manifest(fleet::synth_fleet(nodes, seed), engine, registry, events);
}

/// The oracle gate: batch must reproduce per-node rollups byte-for-byte,
/// including the per-domain rollups of a multi-die fleet.
bool rollups_match(int nodes, std::uint64_t seed, double fault_rate, int dies) {
  fleet::FleetManifest manifest = synth_fleet_dies(nodes, seed, dies);
  manifest.fault_rate(fault_rate).fault_seed(seed + 1);

  fleet::FleetRunner per_node(manifest);
  fleet::FleetRunner batch(manifest);
  batch.set_engine(fleet::FleetEngine::kBatch);
  const std::string a = per_node.run().to_jsonl();
  const std::string b = batch.run().to_jsonl();
  if (a == b) return true;
  std::cerr << "FAIL: batch rollup diverges from per-node (nodes=" << nodes
            << " seed=" << seed << " fault_rate=" << fault_rate << " dies=" << dies
            << ")\n";
  return false;
}

/// The budgeted oracle gate: with the water-filling allocator active and
/// every node on a cap-aware policy, batch must still reproduce per-node
/// rollups byte-for-byte (budget epochs, caps, and all).
bool budget_rollups_match(int nodes, std::uint64_t seed, double fault_rate) {
  fleet::FleetManifest manifest = synth_budget_fleet(nodes, seed);
  manifest.fault_rate(fault_rate).fault_seed(seed + 1);

  fleet::FleetRunner per_node(manifest);
  fleet::FleetRunner batch(manifest);
  batch.set_engine(fleet::FleetEngine::kBatch);
  const std::string a = per_node.run().to_jsonl();
  const std::string b = batch.run().to_jsonl();
  if (a == b) return true;
  std::cerr << "FAIL: budgeted batch rollup diverges from per-node (nodes=" << nodes
            << " seed=" << seed << " fault_rate=" << fault_rate << ")\n";
  return false;
}

std::string json_num(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  const int batch_nodes =
      argc > 1 ? std::atoi(argv[1]) : env_nodes("MAGUS_BENCH_FLEET_NODES", 10000);
  const int per_node_nodes =
      std::min(batch_nodes, env_nodes("MAGUS_BENCH_FLEET_PERNODE", 256));
  const std::uint64_t seed = 2025;

  bench::banner("fleet_throughput: batch vs per-node fleet scheduling",
                "perf trajectory (not a paper figure); oracle gate for magus::fleet");

  // 1. Semantics gate. A fast fleet that disagrees with the oracle is a bug,
  //    not a result; refuse to publish numbers for it.
  std::cout << "oracle gate: comparing rollups (fault rates 0 and 0.05, dies 1 and 4)...\n";
  const bool clean_ok = rollups_match(64, seed, 0.0, 1);
  const bool faulty_ok = rollups_match(64, seed, 0.05, 1);
  const bool multi_die_ok = rollups_match(64, seed, 0.0, 4);
  const bool multi_die_faulty_ok = rollups_match(64, seed, 0.05, 4);
  if (!clean_ok || !faulty_ok || !multi_die_ok || !multi_die_faulty_ok) return 1;
  std::cout << "oracle gate: byte-identical\n";

  std::cout << "budget oracle gate: comparing budgeted rollups (fault rates 0 and 0.05)...\n";
  const bool budget_ok = budget_rollups_match(64, seed, 0.0);
  const bool budget_faulty_ok = budget_rollups_match(64, seed, 0.05);
  if (!budget_ok || !budget_faulty_ok) return 1;
  std::cout << "budget oracle gate: byte-identical\n\n";

  // 2. Throughput. The per-node engine runs a subsample (it is the slow
  //    path); the batch engine runs the full fleet.
  std::cout << "timing per-node engine on " << per_node_nodes << " nodes...\n";
  const Timing per_node =
      time_fleet(per_node_nodes, seed, fleet::FleetEngine::kPerNode, nullptr, nullptr);
  std::cout << "timing batch engine on " << batch_nodes << " nodes...\n";
  const Timing batch =
      time_fleet(batch_nodes, seed, fleet::FleetEngine::kBatch, nullptr, nullptr);
  std::cout << "timing budgeted batch engine on " << batch_nodes << " nodes...\n";
  const Timing budgeted = time_manifest(synth_budget_fleet(batch_nodes, seed),
                                        fleet::FleetEngine::kBatch, nullptr, nullptr);

  // 3. Telemetry cost. Progress gauges and per-node events must stay off the
  //    tick path; re-run the batch fleet with telemetry attached.
  telemetry::MetricsRegistry registry;
  telemetry::EventLog events;
  const Timing with_telemetry =
      time_fleet(batch_nodes, seed, fleet::FleetEngine::kBatch, &registry, &events);
  const double telemetry_overhead_pct =
      batch.wall_s > 0.0 ? 100.0 * (with_telemetry.wall_s / batch.wall_s - 1.0) : 0.0;

  const double speedup =
      per_node.nodes_per_sec > 0.0 ? batch.nodes_per_sec / per_node.nodes_per_sec : 0.0;
  const double budget_overhead_pct =
      batch.wall_s > 0.0 ? 100.0 * (budgeted.wall_s / batch.wall_s - 1.0) : 0.0;

  common::TextTable table(
      {"engine", "nodes", "wall (s)", "nodes/s", "ticks/s", "p99 loop lat (s)"});
  table.add_row({"per-node", std::to_string(per_node.nodes),
                 common::TextTable::num(per_node.wall_s),
                 common::TextTable::num(per_node.nodes_per_sec, 1),
                 common::TextTable::num(per_node.ticks_per_sec, 0),
                 common::TextTable::num(per_node.p99_latency_s, 6)});
  table.add_row({"batch", std::to_string(batch.nodes),
                 common::TextTable::num(batch.wall_s),
                 common::TextTable::num(batch.nodes_per_sec, 1),
                 common::TextTable::num(batch.ticks_per_sec, 0),
                 common::TextTable::num(batch.p99_latency_s, 6)});
  table.add_row({"batch+budget", std::to_string(budgeted.nodes),
                 common::TextTable::num(budgeted.wall_s),
                 common::TextTable::num(budgeted.nodes_per_sec, 1),
                 common::TextTable::num(budgeted.ticks_per_sec, 0),
                 common::TextTable::num(budgeted.p99_latency_s, 6)});
  table.print(std::cout);
  std::cout << "\nbatch vs per-node: " << common::TextTable::num(speedup)
            << "x nodes/sec; telemetry overhead "
            << common::TextTable::num(telemetry_overhead_pct)
            << " % of batch wall time; power-budget overhead "
            << common::TextTable::num(budget_overhead_pct) << " %\n";

  const std::string path = bench::out_dir() + "/BENCH_fleet.json";
  std::ofstream os(path);
  os << "{\n"
     << "  \"schema\": \"magus.bench.fleet.v3\",\n"
     << "  \"rollup_match\": true,\n"
     << "  \"budget_rollup_match\": true,\n"
     << "  \"per_node\": {\n"
     << "    \"engine\": \"per-node\",\n"
     << "    \"nodes\": " << per_node.nodes << ",\n"
     << "    \"domains_per_node_max\": " << per_node.domains_max << ",\n"
     << "    \"wall_s\": " << json_num(per_node.wall_s) << ",\n"
     << "    \"nodes_per_sec\": " << json_num(per_node.nodes_per_sec) << ",\n"
     << "    \"ticks_per_sec\": " << json_num(per_node.ticks_per_sec) << ",\n"
     << "    \"p99_control_loop_latency_s\": " << json_num(per_node.p99_latency_s) << "\n"
     << "  },\n"
     << "  \"batch\": {\n"
     << "    \"engine\": \"batch\",\n"
     << "    \"nodes\": " << batch.nodes << ",\n"
     << "    \"domains_per_node_max\": " << batch.domains_max << ",\n"
     << "    \"wall_s\": " << json_num(batch.wall_s) << ",\n"
     << "    \"nodes_per_sec\": " << json_num(batch.nodes_per_sec) << ",\n"
     << "    \"ticks_per_sec\": " << json_num(batch.ticks_per_sec) << ",\n"
     << "    \"p99_control_loop_latency_s\": " << json_num(batch.p99_latency_s) << "\n"
     << "  },\n"
     << "  \"budgeted\": {\n"
     << "    \"engine\": \"batch\",\n"
     << "    \"power_budget_w_per_node\": 220,\n"
     << "    \"budget_epoch_s\": 1,\n"
     << "    \"nodes\": " << budgeted.nodes << ",\n"
     << "    \"domains_per_node_max\": " << budgeted.domains_max << ",\n"
     << "    \"wall_s\": " << json_num(budgeted.wall_s) << ",\n"
     << "    \"nodes_per_sec\": " << json_num(budgeted.nodes_per_sec) << ",\n"
     << "    \"ticks_per_sec\": " << json_num(budgeted.ticks_per_sec) << ",\n"
     << "    \"p99_control_loop_latency_s\": " << json_num(budgeted.p99_latency_s) << "\n"
     << "  },\n"
     << "  \"speedup_nodes_per_sec\": " << json_num(speedup) << ",\n"
     << "  \"budget_overhead_pct\": " << json_num(budget_overhead_pct) << ",\n"
     << "  \"telemetry_overhead_pct\": " << json_num(telemetry_overhead_pct) << "\n"
     << "}\n";
  os.flush();
  if (os.fail()) {
    std::cerr << "FAIL: cannot write " << path << "\n";
    return 1;
  }
  std::cout << "JSON: " << path << "\n";
  return 0;
}
