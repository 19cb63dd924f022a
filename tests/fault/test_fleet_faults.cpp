// Fleet-level fault weather: node failure isolation, degraded-node
// accounting, and the determinism contract extended to faulty runs — the
// rollup JSONL stays a pure function of (manifest, fault seed), independent
// of job count and shard size.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "magus/common/thread_pool.hpp"
#include "magus/fleet/manifest.hpp"
#include "magus/fleet/runner.hpp"
#include "magus/telemetry/registry.hpp"

namespace mc = magus::common;
namespace mf = magus::fleet;

namespace {

struct JobsGuard {
  explicit JobsGuard(std::size_t jobs) { mc::set_default_jobs(jobs); }
  ~JobsGuard() { mc::set_default_jobs(0); }
};

mf::FleetManifest faulty_fleet(double rate, std::uint64_t fault_seed) {
  mf::FleetManifest manifest;
  manifest.seed(11).shard_size(4).fault_rate(rate).fault_seed(fault_seed);
  manifest.add_node(mf::NodeSpec{}.name("train").app("unet").policy("magus").count(6));
  manifest.add_node(mf::NodeSpec{}.name("burst").app("srad").policy("ups").count(4));
  manifest.add_node(mf::NodeSpec{}.name("ref").app("bfs").policy("default").count(2));
  return manifest;
}

}  // namespace

TEST(FleetFaults, BitIdenticalAtOneAndEightJobs) {
  std::string serial, parallel;
  {
    JobsGuard jobs(1);
    serial = mf::FleetRunner(faulty_fleet(0.05, 7)).run().to_jsonl();
  }
  {
    JobsGuard jobs(8);
    parallel = mf::FleetRunner(faulty_fleet(0.05, 7)).run().to_jsonl();
  }
  EXPECT_EQ(serial, parallel);
}

TEST(FleetFaults, ShardSizeNeverChangesFaultWeather) {
  JobsGuard jobs(4);
  mf::FleetManifest coarse = faulty_fleet(0.05, 7);
  mf::FleetManifest fine = faulty_fleet(0.05, 7);
  fine.shard_size(1);
  EXPECT_EQ(mf::FleetRunner(coarse).run().to_jsonl(),
            mf::FleetRunner(fine).run().to_jsonl());
}

TEST(FleetFaults, RateZeroMatchesTheFaultFreeFleet) {
  // The zero-rate path constructs no decorators; results must be
  // byte-identical to a manifest that never mentions faults at all.
  JobsGuard jobs(2);
  mf::FleetManifest with_field = faulty_fleet(0.0, 999);
  mf::FleetManifest without;
  without.seed(11).shard_size(4);
  without.add_node(mf::NodeSpec{}.name("train").app("unet").policy("magus").count(6));
  without.add_node(mf::NodeSpec{}.name("burst").app("srad").policy("ups").count(4));
  without.add_node(mf::NodeSpec{}.name("ref").app("bfs").policy("default").count(2));

  const mf::FleetResult a = mf::FleetRunner(with_field).run();
  const mf::FleetResult b = mf::FleetRunner(without).run();
  EXPECT_EQ(a.to_jsonl(), b.to_jsonl());
  EXPECT_EQ(a.degraded_nodes, 0u);
  EXPECT_EQ(a.failed_nodes, 0u);
  for (const auto& node : a.nodes) {
    EXPECT_EQ(node.faults_injected, 0u);
    EXPECT_FALSE(node.degraded);
    EXPECT_FALSE(node.failed);
    EXPECT_TRUE(node.completed);
  }
}

TEST(FleetFaults, FaultSeedChangesWeatherNotStructure) {
  JobsGuard jobs(2);
  const mf::FleetResult a = mf::FleetRunner(faulty_fleet(0.05, 3)).run();
  const mf::FleetResult b = mf::FleetRunner(faulty_fleet(0.05, 5)).run();
  // Same fleet shape either way...
  EXPECT_EQ(a.nodes.size(), b.nodes.size());
  EXPECT_EQ(a.per_policy.size(), b.per_policy.size());
  // ...but a different schedule of injected faults.
  std::uint64_t faults_a = 0, faults_b = 0;
  for (const auto& n : a.nodes) faults_a += n.faults_injected;
  for (const auto& n : b.nodes) faults_b += n.faults_injected;
  EXPECT_GT(faults_a, 0u);
  EXPECT_GT(faults_b, 0u);
  EXPECT_NE(a.to_jsonl(), b.to_jsonl());
}

TEST(FleetFaults, FailuresAreIsolatedPerNode) {
  // A punishing fault rate: baseline twins (ups/duf) hard-fail on MSR
  // DeviceError, so some nodes end failed — but every node still reports,
  // the run completes, and untouched default nodes stay pristine.
  JobsGuard jobs(4);
  const mf::FleetResult result = mf::FleetRunner(faulty_fleet(0.25, 7)).run();

  ASSERT_EQ(result.nodes.size(), 12u);
  std::uint64_t degraded = 0, failed = 0;
  for (const auto& node : result.nodes) {
    if (node.degraded) ++degraded;
    if (node.failed) ++failed;
    if (node.failed) {
      EXPECT_FALSE(node.completed);
      EXPECT_FALSE(node.error.empty());
      EXPECT_EQ(node.attempts, 3);  // exhausted the node's retry budget
      EXPECT_DOUBLE_EQ(node.joules_saved, 0.0);
    } else {
      EXPECT_TRUE(node.completed);
    }
    if (node.policy == "default") {
      // The default policy makes no backend calls; fault weather can't
      // touch it.
      EXPECT_FALSE(node.degraded) << node.name;
      EXPECT_FALSE(node.failed) << node.name;
    }
  }
  EXPECT_EQ(result.degraded_nodes, degraded);
  EXPECT_EQ(result.failed_nodes, failed);
  EXPECT_GT(result.degraded_nodes, 0u);

  // Per-policy counters partition the fleet totals.
  std::uint64_t by_policy_degraded = 0, by_policy_failed = 0;
  for (const auto& roll : result.per_policy) {
    by_policy_degraded += roll.degraded_nodes;
    by_policy_failed += roll.failed_nodes;
  }
  EXPECT_EQ(by_policy_degraded, result.degraded_nodes);
  EXPECT_EQ(by_policy_failed, result.failed_nodes);
}

TEST(FleetFaults, DegradedCountsSurfaceInTelemetryAndJsonl) {
  JobsGuard jobs(2);
  magus::telemetry::MetricsRegistry registry;
  mf::FleetRunner runner(faulty_fleet(0.25, 7));
  runner.attach_telemetry(registry);
  const mf::FleetResult result = runner.run();
  ASSERT_GT(result.degraded_nodes, 0u);

  const std::string prom = registry.render_prometheus();
  EXPECT_NE(prom.find("magus_fleet_degraded_nodes " +
                      std::to_string(result.degraded_nodes)),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("magus_fleet_failed_nodes"), std::string::npos);

  const std::string jsonl = result.to_jsonl();
  EXPECT_NE(jsonl.find("\"degraded_nodes\":"), std::string::npos);
  EXPECT_NE(jsonl.find("\"failed_nodes\":"), std::string::npos);
  EXPECT_NE(jsonl.find("\"faults_injected\":"), std::string::npos);
}

TEST(FleetFaults, ManifestRoundTripPreservesFaultFields) {
  const mf::FleetManifest manifest = faulty_fleet(0.05, 7);
  const mf::FleetManifest back = mf::FleetManifest::from_jsonl(manifest.to_jsonl());
  EXPECT_EQ(back.fault().rate, 0.05);
  EXPECT_EQ(back.fault().seed, 7u);
  // And the reparsed manifest steers the exact same fault weather.
  JobsGuard jobs(2);
  EXPECT_EQ(mf::FleetRunner(manifest).run().to_jsonl(),
            mf::FleetRunner(back).run().to_jsonl());
}
