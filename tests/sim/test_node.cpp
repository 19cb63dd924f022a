#include <gtest/gtest.h>

#include "magus/common/error.hpp"
#include "magus/sim/node.hpp"

namespace ms = magus::sim;
namespace mc = magus::common;

namespace {
ms::NodeModel make_node() { return ms::NodeModel(ms::intel_a100(), 42); }

ms::WorkSlice quiet_slice() { return {10'000.0, 0.2, 0.1, 0.5}; }
ms::WorkSlice heavy_slice() { return {150'000.0, 0.9, 0.15, 0.95}; }
}  // namespace

TEST(NodeModel, EnergiesAccumulateMonotonically) {
  auto node = make_node();
  double last_pkg = 0.0;
  for (int i = 0; i < 1000; ++i) {
    node.tick(0.002, quiet_slice(), 0.0);
    EXPECT_GE(node.total_pkg_energy_j(), last_pkg);
    last_pkg = node.total_pkg_energy_j();
  }
  EXPECT_GT(node.total_dram_energy_j(), 0.0);
  EXPECT_GT(node.gpu().energy_j(), 0.0);
}

TEST(NodeModel, TrafficCounterTracksDelivered) {
  auto node = make_node();
  for (int i = 0; i < 500; ++i) node.tick(0.002, quiet_slice(), 0.0);
  // ~1 s at ~10.3 GB/s (incl. background traffic).
  EXPECT_NEAR(node.total_traffic_mb(), 10'300.0, 600.0);
}

TEST(NodeModel, UncoreAtMaxByDefault) {
  auto node = make_node();
  for (int i = 0; i < 500; ++i) node.tick(0.002, heavy_slice(), 0.0);
  // GPU-dominant power stays far from TDP -> stock firmware never throttles.
  EXPECT_DOUBLE_EQ(node.last().uncore_freq_ghz, 2.2);
}

TEST(NodeModel, LowUncoreStretchesHeavyPhases) {
  auto node = make_node();
  for (int s = 0; s < node.socket_count(); ++s) {
    node.uncore(s).set_policy_limit(magus::common::Ghz(0.8));
  }
  for (int i = 0; i < 500; ++i) node.tick(0.002, heavy_slice(), 0.0);
  EXPECT_GT(node.last().stretch, 1.3);
  EXPECT_LT(node.last().progress_rate, 0.8);
  // Quiet phases are unaffected even at min uncore.
  auto node2 = make_node();
  for (int s = 0; s < node2.socket_count(); ++s) {
    node2.uncore(s).set_policy_limit(magus::common::Ghz(0.8));
  }
  for (int i = 0; i < 500; ++i) node2.tick(0.002, quiet_slice(), 0.0);
  EXPECT_DOUBLE_EQ(node2.last().stretch, 1.0);
}

TEST(NodeModel, LowUncoreCutsPackagePower) {
  auto lo = make_node();
  auto hi = make_node();
  for (int s = 0; s < lo.socket_count(); ++s) {
    lo.uncore(s).set_policy_limit(magus::common::Ghz(0.8));
  }
  for (int i = 0; i < 500; ++i) {
    lo.tick(0.002, quiet_slice(), 0.0);
    hi.tick(0.002, quiet_slice(), 0.0);
  }
  // Fig. 2 calibration: tens of watts between the two uncore extremes.
  EXPECT_GT(hi.last().pkg_power_w - lo.last().pkg_power_w, 40.0);
}

TEST(NodeModel, MonitorPowerLandsOnPackage) {
  auto with = make_node();
  auto without = make_node();
  for (int i = 0; i < 100; ++i) {
    with.tick(0.002, quiet_slice(), 10.0);
    without.tick(0.002, quiet_slice(), 0.0);
  }
  EXPECT_NEAR(with.last().pkg_power_w - without.last().pkg_power_w, 10.0, 0.5);
}

TEST(NodeModel, DeterministicForSameSeed) {
  ms::NodeModel a(ms::intel_a100(), 7);
  ms::NodeModel b(ms::intel_a100(), 7);
  for (int i = 0; i < 200; ++i) {
    a.tick(0.002, heavy_slice(), 0.0);
    b.tick(0.002, heavy_slice(), 0.0);
  }
  EXPECT_DOUBLE_EQ(a.total_traffic_mb(), b.total_traffic_mb());
  EXPECT_DOUBLE_EQ(a.total_pkg_energy_j(), b.total_pkg_energy_j());
}

TEST(NodeModel, CapacityIsSumOfSockets) {
  auto node = make_node();
  EXPECT_DOUBLE_EQ(node.capacity_mbps(),
                   node.uncore(0).capacity().value() + node.uncore(1).capacity().value());
}

TEST(NodeModel, PerSocketEnergySymmetricWithoutMonitor) {
  auto node = make_node();
  for (int i = 0; i < 200; ++i) node.tick(0.002, quiet_slice(), 0.0);
  EXPECT_NEAR(node.pkg_energy_j(0), node.pkg_energy_j(1), 1e-9);
}

namespace {
ms::SystemSpec domain_spec(int dies, double skew) {
  ms::SystemSpec spec = ms::intel_a100();
  spec.cpu.dies_per_socket = dies;
  spec.numa_skew = skew;
  return spec;
}
}  // namespace

TEST(NodeModelConstructor, RejectsDiesPerSocketBelowOne) {
  EXPECT_THROW(ms::NodeModel(domain_spec(0, 0.0), 1), mc::ConfigError);
  EXPECT_THROW(ms::NodeModel(domain_spec(-1, 0.0), 1), mc::ConfigError);
}

TEST(NodeModelConstructor, RejectsNumaSkewOutsideUnitInterval) {
  EXPECT_THROW(ms::NodeModel(domain_spec(2, -0.01), 1), mc::ConfigError);
  EXPECT_THROW(ms::NodeModel(domain_spec(2, 1.0), 1), mc::ConfigError);
  EXPECT_NO_THROW(ms::NodeModel(domain_spec(2, 0.0), 1));
  EXPECT_NO_THROW(ms::NodeModel(domain_spec(2, 0.99), 1));
}

TEST(NodeModelConstructor, CapsDomainsAtKMaxDomains) {
  const int sockets = ms::intel_a100().cpu.sockets;
  ASSERT_EQ(ms::kMaxDomains % sockets, 0);
  const int max_dies = ms::kMaxDomains / sockets;
  EXPECT_THROW(ms::NodeModel(domain_spec(max_dies + 1, 0.0), 1), mc::ConfigError);

  // Exactly kMaxDomains domains is accepted and ticks on the per-domain path.
  ms::NodeModel node(domain_spec(max_dies, 0.0), 1);
  EXPECT_EQ(node.domain_count(), ms::kMaxDomains);
  for (int i = 0; i < 10; ++i) node.tick(0.002, heavy_slice(), 0.0);
  EXPECT_GT(node.domain_traffic_mb(ms::kMaxDomains - 1), 0.0);
}
