#include <gtest/gtest.h>

#include <string>

#include "magus/common/error.hpp"
#include "magus/common/thread_pool.hpp"
#include "magus/fleet/runner.hpp"
#include "magus/telemetry/event_log.hpp"
#include "magus/telemetry/registry.hpp"

// The fleet determinism contract: rollups are a pure function of the
// manifest. Job count and shard size only decide which worker simulates
// which node, so the canonical JSONL dump must be bit-identical across both.

namespace mc = magus::common;
namespace mf = magus::fleet;

namespace {

struct JobsGuard {
  explicit JobsGuard(std::size_t jobs) { mc::set_default_jobs(jobs); }
  ~JobsGuard() { mc::set_default_jobs(0); }
};

mf::FleetManifest small_fleet() {
  mf::FleetManifest manifest;
  manifest.seed(11).shard_size(4);
  manifest.add_node(mf::NodeSpec{}.name("train").app("unet").policy("magus").count(6));
  manifest.add_node(mf::NodeSpec{}.name("burst").app("srad").policy("ups").count(4));
  manifest.add_node(mf::NodeSpec{}.name("ref").app("bfs").policy("default").count(2));
  return manifest;
}

}  // namespace

TEST(FleetRunner, ConstructorRejectsInvalidManifest) {
  mf::FleetManifest bad;
  bad.add_node(mf::NodeSpec{}.app("no_such_app"));
  EXPECT_THROW(mf::FleetRunner{bad}, mc::ConfigError);
}

TEST(FleetRunner, BitIdenticalAtOneAndEightJobs) {
  std::string serial, parallel;
  {
    JobsGuard jobs(1);
    serial = mf::FleetRunner(small_fleet()).run().to_jsonl();
  }
  {
    JobsGuard jobs(8);
    parallel = mf::FleetRunner(small_fleet()).run().to_jsonl();
  }
  EXPECT_EQ(serial, parallel);
}

TEST(FleetRunner, ShardSizeNeverChangesResults) {
  JobsGuard jobs(4);
  mf::FleetManifest coarse = small_fleet();
  mf::FleetManifest fine = small_fleet();
  fine.shard_size(1);
  EXPECT_EQ(mf::FleetRunner(coarse).run().to_jsonl(),
            mf::FleetRunner(fine).run().to_jsonl());
}

TEST(FleetRunner, RollupsAreConsistent) {
  JobsGuard jobs(4);
  const mf::FleetResult result = mf::FleetRunner(small_fleet()).run();

  ASSERT_EQ(result.nodes_total, 12u);
  ASSERT_EQ(result.nodes.size(), 12u);
  ASSERT_EQ(result.per_policy.size(), 3u);  // default, magus, ups (sorted)
  EXPECT_EQ(result.per_policy[0].policy, "default");
  EXPECT_EQ(result.per_policy[1].policy, "magus");
  EXPECT_EQ(result.per_policy[2].policy, "ups");
  EXPECT_EQ(result.per_policy[1].nodes, 6u);

  // Fleet total equals the sum over policies, and over nodes.
  double by_policy = 0.0, by_node = 0.0;
  for (const auto& roll : result.per_policy) by_policy += roll.joules_saved_total;
  for (const auto& node : result.nodes) by_node += node.joules_saved;
  EXPECT_DOUBLE_EQ(result.joules_saved_total, by_policy);
  EXPECT_DOUBLE_EQ(result.joules_saved_total, by_node);

  // Default nodes are their own baseline twin: zero savings, zero slowdown.
  for (const auto& node : result.nodes) {
    if (node.policy == "default") {
      EXPECT_DOUBLE_EQ(node.joules_saved, 0.0);
      EXPECT_DOUBLE_EQ(node.slowdown_pct, 0.0);
    }
    EXPECT_TRUE(node.completed) << node.name;
  }

  // Runtimes must actually save energy on this mix.
  EXPECT_GT(result.per_policy[1].joules_saved_total, 0.0);
  // Percentiles are ordered.
  EXPECT_LE(result.slowdown_p50_pct, result.slowdown_p95_pct);
  EXPECT_LE(result.slowdown_p95_pct, result.slowdown_p99_pct);
}

TEST(FleetRunner, NodeIdentityIsIndexNotSchedule) {
  // Reversing template order changes node indices, so results must change:
  // identity comes from the fleet index, not the spec name.
  JobsGuard jobs(1);
  mf::FleetManifest fwd;
  fwd.seed(5);
  fwd.add_node(mf::NodeSpec{}.name("a").app("unet").policy("magus"));
  fwd.add_node(mf::NodeSpec{}.name("b").app("srad").policy("magus"));
  mf::FleetManifest rev;
  rev.seed(5);
  rev.add_node(mf::NodeSpec{}.name("b").app("srad").policy("magus"));
  rev.add_node(mf::NodeSpec{}.name("a").app("unet").policy("magus"));

  const auto f = mf::FleetRunner(fwd).run();
  const auto r = mf::FleetRunner(rev).run();
  ASSERT_EQ(f.nodes.size(), 2u);
  ASSERT_EQ(r.nodes.size(), 2u);
  // Same app at a different index sees different jitter/noise.
  EXPECT_NE(f.nodes[0].runtime_s, r.nodes[1].runtime_s);
}

TEST(FleetRunner, ProgressAndTelemetry) {
  JobsGuard jobs(2);
  magus::telemetry::MetricsRegistry registry;
  magus::telemetry::EventLog events;

  mf::FleetRunner runner(small_fleet());
  EXPECT_EQ(runner.nodes_total(), 12u);
  EXPECT_EQ(runner.nodes_completed(), 0u);
  runner.attach_telemetry(registry, &events);
  const auto result = runner.run();
  EXPECT_EQ(runner.nodes_completed(), 12u);

  const std::string prom = registry.render_prometheus();
  EXPECT_NE(prom.find("magus_fleet_nodes 12"), std::string::npos) << prom;
  EXPECT_NE(prom.find("magus_fleet_nodes_completed_total 12"), std::string::npos);
  EXPECT_NE(prom.find("magus_fleet_joules_saved_total"), std::string::npos);

  // One fleet_node_done event per node plus the final fleet_done.
  EXPECT_EQ(events.size(), 13u);

  // Telemetry never feeds back into the simulation.
  JobsGuard serial(1);
  EXPECT_EQ(mf::FleetRunner(small_fleet()).run().to_jsonl(), result.to_jsonl());
}

TEST(FleetResult, JsonlShape) {
  JobsGuard jobs(2);
  const std::string jsonl = mf::FleetRunner(small_fleet()).run().to_jsonl();
  EXPECT_EQ(jsonl.rfind("{\"t\":0,\"type\":\"fleet_rollup\"", 0), 0u) << jsonl;
  std::size_t lines = 0;
  for (char c : jsonl) lines += c == '\n' ? 1u : 0u;
  // rollup + per-policy + per-domain (2 sockets x 1 die) + one per node
  EXPECT_EQ(lines, 1u + 3u + 2u + 12u);
  EXPECT_NE(jsonl.find("\"type\":\"policy_rollup\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"domain_rollup\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"type\":\"node_result\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"node\":\"train/0\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"domains\":2"), std::string::npos);
  EXPECT_NE(jsonl.find("\"domain_joules_saved\":\""), std::string::npos);
}
