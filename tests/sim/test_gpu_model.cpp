#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "magus/sim/gpu_model.hpp"
#include "magus/sim/system_preset.hpp"

namespace ms = magus::sim;

TEST(GpuModel, IdlePowerFloor) {
  ms::GpuModel gpu(ms::intel_a100().gpu);
  for (int i = 0; i < 1000; ++i) gpu.tick(0.002, 0.0);
  EXPECT_NEAR(gpu.power_w(), 30.0, 1.0);  // paper: A100-40GB idles ~30 W
}

TEST(GpuModel, FourA100IdleFloorIs200W) {
  ms::GpuModel gpu(ms::intel_4a100().gpu);
  for (int i = 0; i < 1000; ++i) gpu.tick(0.002, 0.0);
  // Paper section 6.1: four A100-80GB boards idle at ~200 W total.
  EXPECT_NEAR(gpu.power_w(), 200.0, 5.0);
}

TEST(GpuModel, ClockBoostsWithLoad) {
  ms::GpuModel gpu(ms::intel_a100().gpu);
  const double f0 = gpu.clock_ghz();
  for (int i = 0; i < 1000; ++i) gpu.tick(0.002, 0.95);
  EXPECT_GT(gpu.clock_ghz(), f0);
  EXPECT_LE(gpu.clock_ghz(), ms::intel_a100().gpu.max_clock_ghz + 1e-9);
}

TEST(GpuModel, PowerBoundedByPeak) {
  ms::GpuModel gpu(ms::intel_a100().gpu);
  for (int i = 0; i < 5000; ++i) gpu.tick(0.002, 1.0);
  EXPECT_LE(gpu.power_w(), ms::intel_a100().gpu.peak_w + 1e-6);
  EXPECT_GT(gpu.power_w(), 0.8 * ms::intel_a100().gpu.peak_w);
}

TEST(GpuModel, EnergyIntegratesPower) {
  ms::GpuModel gpu(ms::intel_a100().gpu);
  for (int i = 0; i < 500; ++i) gpu.tick(0.002, 0.0);
  // ~1 s at ~30 W.
  EXPECT_NEAR(gpu.energy_j(), 30.0, 2.0);
}

TEST(GpuModel, StalledDeviceBurnsLessThanBusy) {
  // A starved host pipeline lowers effective utilisation; board power must
  // follow (this converts perf loss into idle-energy cost in Fig. 4c).
  ms::GpuModel busy(ms::intel_a100().gpu);
  ms::GpuModel stalled(ms::intel_a100().gpu);
  for (int i = 0; i < 2000; ++i) {
    busy.tick(0.002, 0.95);
    stalled.tick(0.002, 0.95 / 1.8);  // stretch factor 1.8
  }
  EXPECT_LT(stalled.power_w(), busy.power_w());
  EXPECT_GT(stalled.power_w(), ms::intel_a100().gpu.idle_w);
}

TEST(GpuModel, BoardPowerIsTotalOverCount) {
  ms::GpuModel gpu(ms::intel_4a100().gpu);
  for (int i = 0; i < 100; ++i) gpu.tick(0.002, 0.5);
  EXPECT_NEAR(gpu.board_power_w() * 4.0, gpu.power_w(), 1e-9);
  EXPECT_EQ(gpu.count(), 4);
}

TEST(GpuModel, UtilClamped) {
  ms::GpuModel gpu(ms::intel_a100().gpu);
  for (int i = 0; i < 100; ++i) gpu.tick(0.002, 7.5);
  EXPECT_LE(gpu.power_w(), ms::intel_a100().gpu.peak_w + 1e-6);
}

TEST(GpuModel, BoostAndAlphaCachesFollowInputChanges) {
  // tick() caches pow(util, 0.7) keyed on the clamped utilisation and the
  // governor smoothing factor keyed on dt. Inputs that change on different
  // cadences (so each cache is hit and missed) must reproduce the uncached
  // formula bit for bit.
  const ms::GpuSpec spec = ms::intel_a100().gpu;
  ms::GpuModel gpu(spec);
  const double dts[] = {0.002, 0.001, 0.0005};
  const double utils[] = {0.0, 0.35, 0.9, 1.2};
  double clock = spec.base_clock_ghz;
  for (int i = 0; i < 60; ++i) {
    const double dt = dts[(i / 3) % 3];
    const double util = utils[(i / 2) % 4];
    gpu.tick(dt, util);
    const double u = std::clamp(util, 0.0, 1.0);
    const double target =
        spec.base_clock_ghz + (spec.max_clock_ghz - spec.base_clock_ghz) * std::pow(u, 0.7);
    clock += (target - clock) * (1.0 - std::exp(-dt / 0.08));
    EXPECT_EQ(gpu.clock_ghz(), clock) << "tick " << i;
    const double frac = clock / spec.max_clock_ghz;
    const double per_board = spec.idle_w + (spec.peak_w - spec.idle_w) * u * frac * frac;
    EXPECT_EQ(gpu.power_w(), per_board * spec.count) << "tick " << i;
  }
}
