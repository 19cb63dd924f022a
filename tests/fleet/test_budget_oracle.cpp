// Golden oracle battery for the budgeted fleet path: with a fleet power
// budget active, the rollup must match golden digests (cross-checked against
// an independent node-at-a-time scheduler, as in test_batch_oracle.cpp) for
// every cap-aware policy family, across seeds, die counts, and
// fault weather -- and the budgeted rollup itself must be invariant to job
// count and shard size.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "magus/common/thread_pool.hpp"
#include "magus/fleet/manifest.hpp"
#include "magus/fleet/runner.hpp"
#include "rollup_digest.hpp"

namespace mc = magus::common;
namespace mf = magus::fleet;
namespace mt = magus::test;

namespace {

struct JobsGuard {
  explicit JobsGuard(std::size_t jobs) { mc::set_default_jobs(jobs); }
  ~JobsGuard() { mc::set_default_jobs(0); }
};

/// A small budgeted fleet of one comparator policy: two systems, two apps,
/// a manifest-level node cap on one template, and a global budget tight
/// enough that the allocator genuinely clips (the policies see real caps).
mf::FleetManifest budget_fleet(const std::string& policy, std::uint64_t seed, int dies,
                               double fault_rate) {
  mf::FleetManifest manifest;
  manifest.seed(seed)
      .shard_size(3)
      .fault_rate(fault_rate)
      .fault_seed(seed * 13 + 5)
      .power_budget_w(2'500.0)
      .budget_epoch_s(1.0);
  manifest.add_node(
      mf::NodeSpec{}.name("a").app("unet").policy(policy).dies(dies).count(2));
  manifest.add_node(mf::NodeSpec{}
                        .name("b")
                        .system("intel_max1550")
                        .app("srad")
                        .policy(policy)
                        .dies(dies)
                        .power_cap_w(600.0)
                        .count(2));
  manifest.add_node(mf::NodeSpec{}.name("ref").app("bfs").policy("default"));
  return manifest;
}

std::string run_jsonl(mf::FleetManifest manifest) {
  mf::FleetRunner runner(std::move(manifest));
  return runner.run().to_jsonl();
}

struct GoldenCell {
  const char* policy;
  std::uint64_t seed;
  int dies;
  double fault_rate;
  std::uint64_t digest;
};

// clang-format off
constexpr GoldenCell kGolden[] = {
    {"ecoshift", 5, 1, 0.0, 0x2a10e3d85d43093aull},
    {"ecoshift", 5, 1, 0.05, 0x11359a727e26f583ull},
    {"ecoshift", 5, 2, 0.0, 0x9e6a35c8f38f8b77ull},
    {"ecoshift", 5, 2, 0.05, 0xb459a10913fbab28ull},
    {"ecoshift", 5, 4, 0.0, 0xb217105bcccbfba5ull},
    {"ecoshift", 5, 4, 0.05, 0xe226cc707b70f3bdull},
    {"ecoshift", 17, 1, 0.0, 0x7d2fadd1c5a01171ull},
    {"ecoshift", 17, 1, 0.05, 0xae432da4dedc4969ull},
    {"ecoshift", 17, 2, 0.0, 0x3bdb3c73f0989e78ull},
    {"ecoshift", 17, 2, 0.05, 0xa0f8d77be522753cull},
    {"ecoshift", 17, 4, 0.0, 0x9f91760c8219bc6cull},
    {"ecoshift", 17, 4, 0.05, 0xf7d6b107705a2806ull},
    {"ecoshift", 41, 1, 0.0, 0xcbd8dd4dff4babf2ull},
    {"ecoshift", 41, 1, 0.05, 0x3376f550e0083d96ull},
    {"ecoshift", 41, 2, 0.0, 0x63c57555bddccdf5ull},
    {"ecoshift", 41, 2, 0.05, 0x1705daae69de63c6ull},
    {"ecoshift", 41, 4, 0.0, 0x605d80083421606cull},
    {"ecoshift", 41, 4, 0.05, 0xd13aac1c52b21b77ull},
    {"deadline", 5, 1, 0.0, 0x3c531fbb4720196dull},
    {"deadline", 5, 1, 0.05, 0x4456b8223d1d664bull},
    {"deadline", 5, 2, 0.0, 0x2b6e6ec63c77371eull},
    {"deadline", 5, 2, 0.05, 0xbda06f86d26b71c0ull},
    {"deadline", 5, 4, 0.0, 0xd42da28829a77eb9ull},
    {"deadline", 5, 4, 0.05, 0xe43e078424739dbeull},
    {"deadline", 17, 1, 0.0, 0xf0abd418df3a8811ull},
    {"deadline", 17, 1, 0.05, 0x38c2ea4dcf17a142ull},
    {"deadline", 17, 2, 0.0, 0x697571a0fe16029full},
    {"deadline", 17, 2, 0.05, 0x8aa6b5c85d09a312ull},
    {"deadline", 17, 4, 0.0, 0x2444b5cb9900e6d2ull},
    {"deadline", 17, 4, 0.05, 0x0ea919ae653c4ecbull},
    {"deadline", 41, 1, 0.0, 0x818982d621d284e6ull},
    {"deadline", 41, 1, 0.05, 0xedad554c0271d940ull},
    {"deadline", 41, 2, 0.0, 0xff5466ec28f73a2aull},
    {"deadline", 41, 2, 0.05, 0x9782176eee66d456ull},
    {"deadline", 41, 4, 0.0, 0xccf3cbcbc00b4ad7ull},
    {"deadline", 41, 4, 0.05, 0xd98c02a920aee5fbull},
    {"comppow", 5, 1, 0.0, 0x57fd0856793e7e04ull},
    {"comppow", 5, 1, 0.05, 0xc1b7dc7d943bf55dull},
    {"comppow", 5, 2, 0.0, 0xa3462ce15f30b351ull},
    {"comppow", 5, 2, 0.05, 0x504c9c4cfa79c8c6ull},
    {"comppow", 5, 4, 0.0, 0xc2fefe07a5dfa0a4ull},
    {"comppow", 5, 4, 0.05, 0x4d46561576937d76ull},
    {"comppow", 17, 1, 0.0, 0x8ecf5e7a1755ea9eull},
    {"comppow", 17, 1, 0.05, 0x6c6a95e9cf1b3d06ull},
    {"comppow", 17, 2, 0.0, 0x0f0b84377b47a9c6ull},
    {"comppow", 17, 2, 0.05, 0x388aab1cf16d7755ull},
    {"comppow", 17, 4, 0.0, 0x67000d9da667e205ull},
    {"comppow", 17, 4, 0.05, 0xaf2878f1b3b8d68bull},
    {"comppow", 41, 1, 0.0, 0x65db7d5618574163ull},
    {"comppow", 41, 1, 0.05, 0x22c895ab5f9a215full},
    {"comppow", 41, 2, 0.0, 0x59da7b1f26130d66ull},
    {"comppow", 41, 2, 0.05, 0xcc61b6ea11f4d78aull},
    {"comppow", 41, 4, 0.0, 0x96702d4bbb522991ull},
    {"comppow", 41, 4, 0.05, 0x937c051b31a6de6dull},
};
// clang-format on

}  // namespace

TEST(BudgetOracle, GoldenMatchAcrossPoliciesSeedsDiesAndFaults) {
  JobsGuard jobs(2);
  for (const GoldenCell& cell : kGolden) {
    EXPECT_TRUE(mt::digest_matches(
        run_jsonl(budget_fleet(cell.policy, cell.seed, cell.dies, cell.fault_rate)),
        cell.digest))
        << "policy=" << cell.policy << " seed=" << cell.seed << " dies=" << cell.dies
        << " fault_rate=" << cell.fault_rate;
  }
}

TEST(BudgetOracle, RollupInvariantToJobCountUnderActiveBudget) {
  for (const char* policy : {"ecoshift", "deadline", "comppow"}) {
    std::string serial;
    {
      JobsGuard jobs(1);
      serial = run_jsonl(budget_fleet(policy, 17, 2, 0.05));
    }
    {
      JobsGuard jobs(8);
      EXPECT_EQ(serial, run_jsonl(budget_fleet(policy, 17, 2, 0.05))) << "policy=" << policy;
    }
  }
}

TEST(BudgetOracle, RollupInvariantToShardSizeUnderActiveBudget) {
  JobsGuard jobs(8);
  std::string reference;
  {
    mf::FleetManifest manifest = budget_fleet("ecoshift", 41, 2, 0.05);
    manifest.shard_size(1);
    reference = run_jsonl(std::move(manifest));
  }
  for (int shard : {2, 4, 64}) {
    mf::FleetManifest manifest = budget_fleet("ecoshift", 41, 2, 0.05);
    manifest.shard_size(shard);
    EXPECT_EQ(reference, run_jsonl(std::move(manifest))) << "shard_size=" << shard;
  }
}

TEST(BudgetOracle, BudgetAccountingIsPopulatedAndConservative) {
  JobsGuard jobs(2);
  mf::FleetRunner runner(budget_fleet("comppow", 5, 1, 0.0));
  const mf::FleetResult result = runner.run();
  EXPECT_DOUBLE_EQ(result.power_budget_w, 2'500.0);
  EXPECT_DOUBLE_EQ(result.budget_epoch_s, 1.0);
  ASSERT_FALSE(result.budget_epochs.empty());
  for (const mf::BudgetEpochRollup& epoch : result.budget_epochs) {
    EXPECT_LE(epoch.allocated_w, 2'500.0 + 1e-6);
    EXPECT_GE(epoch.allocated_w, 0.0);
    EXPECT_GE(epoch.clipped_w, 0.0);
  }
  // Every node under the budget reports the cap it ran under; the manifest
  // cap tightens template "b" below the fleet-wide ceiling.
  for (const mf::NodeResult& node : result.nodes) {
    EXPECT_GT(node.power_cap_w, 0.0) << node.name;
    if (node.name.rfind("b/", 0) == 0) {
      EXPECT_LE(node.power_cap_w, 600.0 + 1e-9);
    }
  }
}

TEST(BudgetOracle, CapAwarePoliciesReactToTheBudget) {
  // The budget must actually change behaviour: the same ecoshift fleet
  // uncapped vs tightly budgeted cannot produce identical rollups.
  JobsGuard jobs(2);
  mf::FleetManifest capped = budget_fleet("ecoshift", 5, 1, 0.0);
  mf::FleetManifest uncapped = budget_fleet("ecoshift", 5, 1, 0.0);
  uncapped.power_budget_w(0.0);
  uncapped.mutate_nodes([](mf::NodeSpec& node) { node.power_cap_w(0.0); });
  EXPECT_NE(run_jsonl(std::move(capped)), run_jsonl(std::move(uncapped)));
}
