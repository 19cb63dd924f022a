// The fleet oracle contract: for any manifest -- every policy kind, any
// seed, with or without fault weather, at any job count or shard size -- the
// canonical rollup JSONL is a pure function of the manifest. The golden
// digests were cross-checked against an independent node-at-a-time
// scheduler (both produced these exact bytes), so a mismatch is a behaviour
// change, never a scheduling artefact.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>

#include "magus/common/quantity.hpp"
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

/// One node per policy kind, so every hook shape (runtime, static pin,
/// default self-twin) crosses the fleet scheduler.
mf::FleetManifest policy_matrix_fleet(std::uint64_t seed, double fault_rate) {
  mf::FleetManifest manifest;
  manifest.seed(seed).shard_size(3).fault_rate(fault_rate).fault_seed(seed * 7 + 1);
  manifest.add_node(mf::NodeSpec{}.name("m").app("unet").policy("magus"));
  manifest.add_node(mf::NodeSpec{}.name("u").app("srad").policy("ups"));
  manifest.add_node(mf::NodeSpec{}.name("d").app("bfs").policy("duf"));
  manifest.add_node(
      mf::NodeSpec{}.name("s").app("unet").policy("static").static_uncore(mc::Ghz(1.4)));
  manifest.add_node(mf::NodeSpec{}.name("ref").app("bfs").policy("default"));
  return manifest;
}

std::string run_jsonl(mf::FleetManifest manifest) {
  mf::FleetRunner runner(std::move(manifest));
  return runner.run().to_jsonl();
}

struct GoldenCell {
  std::uint64_t seed;
  double fault_rate;
  std::uint64_t digest;
};

// clang-format off
constexpr GoldenCell kGolden[] = {
    {3, 0.0, 0x81b5f9c41c69fb2dull},
    {3, 0.05, 0x907446af5cb2de12ull},
    {11, 0.0, 0x3e0f2dbd21bb6d67ull},
    {11, 0.05, 0x9331048ab7f882afull},
    {29, 0.0, 0xd970bc3b6c6672f6ull},
    {29, 0.05, 0x956f4807132e26deull},
};
// clang-format on

constexpr std::uint64_t kHeavyFaultGolden = 0xbd772ff701d96eafull;

}  // namespace

TEST(BatchOracle, GoldenMatchAcrossSeedsPoliciesAndFaultRates) {
  JobsGuard jobs(2);
  for (const GoldenCell& cell : kGolden) {
    EXPECT_TRUE(mt::digest_matches(
        run_jsonl(policy_matrix_fleet(cell.seed, cell.fault_rate)), cell.digest))
        << "seed=" << cell.seed << " fault_rate=" << cell.fault_rate;
  }
}

TEST(BatchOracle, BatchBitIdenticalAcrossJobsAndShardSizes) {
  std::string reference;
  {
    JobsGuard jobs(1);
    mf::FleetManifest manifest = policy_matrix_fleet(11, 0.05);
    manifest.shard_size(1);
    reference = run_jsonl(std::move(manifest));
  }
  for (int shard : {2, 5, 64}) {
    JobsGuard jobs(8);
    mf::FleetManifest manifest = policy_matrix_fleet(11, 0.05);
    manifest.shard_size(shard);
    EXPECT_EQ(reference, run_jsonl(std::move(manifest))) << "shard_size=" << shard;
  }
}

TEST(BatchOracle, FailedNodeAccountingMatchesUnderHeavyFaults) {
  // UPS does not ride the degradation ladder: injected MSR -EIOs make it
  // throw, consuming all three attempts. The golden digest pins the
  // failed/degraded flags, attempt counts, and error strings.
  JobsGuard jobs(2);
  mf::FleetManifest manifest;
  manifest.seed(11).shard_size(4).fault_rate(0.35).fault_seed(9);
  manifest.add_node(mf::NodeSpec{}.name("burst").app("srad").policy("ups").count(4));
  manifest.add_node(mf::NodeSpec{}.name("train").app("unet").policy("magus").count(2));

  mf::FleetRunner runner(std::move(manifest));
  const mf::FleetResult result = runner.run();
  EXPECT_TRUE(mt::digest_matches(result.to_jsonl(), kHeavyFaultGolden))
      << "heavy-fault ups/magus fleet (seed=11 fault_rate=0.35 fault_seed=9)";
  // The scenario must actually exercise the retry/failure path.
  EXPECT_GT(result.degraded_nodes + result.failed_nodes, 0u);
}

TEST(BatchOracle, ShardSizeBeyondFleetClampsOnBothEngines) {
  // Regression: --shard-size larger than the fleet used to be accepted
  // as-is; it must clamp to one full-fleet shard with unchanged results.
  JobsGuard jobs(4);
  mf::FleetManifest exact = policy_matrix_fleet(3, 0.0);
  exact.shard_size(5);  // the fleet has exactly 5 nodes
  mf::FleetManifest oversized = policy_matrix_fleet(3, 0.0);
  oversized.shard_size(100000);
  EXPECT_EQ(run_jsonl(std::move(exact)), run_jsonl(std::move(oversized)));
}
