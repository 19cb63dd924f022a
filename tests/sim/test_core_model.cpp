#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "magus/sim/core_model.hpp"
#include "magus/sim/system_preset.hpp"

namespace ms = magus::sim;
namespace mc = magus::common;

namespace {
ms::CoreModel make_model() { return ms::CoreModel(ms::intel_a100().cpu); }
}  // namespace

TEST(CoreModel, GovernorRaisesFrequencyUnderLoad) {
  auto m = make_model();
  const double f0 = m.freq_ghz();
  for (int i = 0; i < 500; ++i) m.tick(0.002, 0.9, 1.6);
  EXPECT_GT(m.freq_ghz(), f0);
  EXPECT_LE(m.freq_ghz(), ms::intel_a100().cpu.core_max_ghz);
}

TEST(CoreModel, GovernorDropsWhenIdle) {
  auto m = make_model();
  for (int i = 0; i < 500; ++i) m.tick(0.002, 0.9, 1.6);
  const double busy = m.freq_ghz();
  for (int i = 0; i < 2000; ++i) m.tick(0.002, 0.02, 1.6);
  EXPECT_LT(m.freq_ghz(), busy);
}

TEST(CoreModel, CountersMonotone) {
  auto m = make_model();
  const auto i0 = m.instructions_retired(0);
  const auto c0 = m.cycles_unhalted(0);
  for (int i = 0; i < 100; ++i) m.tick(0.002, 0.5, 1.6);
  EXPECT_GT(m.instructions_retired(0), i0);
  EXPECT_GT(m.cycles_unhalted(0), c0);
}

TEST(CoreModel, IpcVisibleInCounters) {
  // Two models, same utilisation, different effective IPC: the one with
  // stalled memory retires fewer instructions per cycle -- what UPS reads.
  auto fast = make_model();
  auto slow = make_model();
  for (int i = 0; i < 1000; ++i) {
    fast.tick(0.002, 0.5, 1.6);
    slow.tick(0.002, 0.5, 0.8);
  }
  const double ipc_fast = static_cast<double>(fast.instructions_retired(0)) /
                          static_cast<double>(fast.cycles_unhalted(0));
  const double ipc_slow = static_cast<double>(slow.instructions_retired(0)) /
                          static_cast<double>(slow.cycles_unhalted(0));
  EXPECT_GT(ipc_fast, ipc_slow);
  EXPECT_NEAR(ipc_fast, 1.6, 0.1);
  EXPECT_NEAR(ipc_slow, 0.8, 0.1);
}

TEST(CoreModel, CoreIndexValidation) {
  auto m = make_model();
  EXPECT_EQ(m.core_count(), 80);
  EXPECT_THROW((void)m.instructions_retired(80), std::out_of_range);
  EXPECT_THROW((void)m.cycles_unhalted(-1), std::out_of_range);
}

TEST(CoreModel, DisplayFreqStaysInBand) {
  auto m = make_model();
  for (int i = 0; i < 200; ++i) m.tick(0.002, 0.6, 1.6);
  for (int core = 0; core < 4; ++core) {
    for (double t = 0.0; t < 2.0; t += 0.1) {
      const double f = m.display_freq_ghz(core, mc::Seconds(t));
      EXPECT_GE(f, ms::intel_a100().cpu.core_min_ghz);
      EXPECT_LE(f, ms::intel_a100().cpu.core_max_ghz);
    }
  }
}

TEST(CoreModel, DisplayFreqDiffersAcrossCores) {
  // Fig. 1a plots four cores; they must not be identical lines.
  auto m = make_model();
  for (int i = 0; i < 200; ++i) m.tick(0.002, 0.6, 1.6);
  EXPECT_NE(m.display_freq_ghz(0, mc::Seconds(1.0)), m.display_freq_ghz(1, mc::Seconds(1.0)));
}

TEST(CoreModel, PowerScalesWithUtilAndFreq) {
  auto m = make_model();
  const double idle = m.power_w(0.0);
  for (int i = 0; i < 1000; ++i) m.tick(0.002, 1.0, 1.6);
  const double busy = m.power_w(1.0);
  EXPECT_GT(busy, idle);
  EXPECT_NEAR(idle, ms::intel_a100().cpu.core_idle_w, 1.0);
}

TEST(CoreModel, AlphaCacheFollowsDtChanges) {
  // tick() caches the governor smoothing factor keyed on dt. Alternating dt
  // (held for a few ticks, so the cache is hit as well as missed) and
  // utilisation must reproduce the uncached formula bit for bit.
  const ms::CpuSpec spec = ms::intel_a100().cpu;
  auto m = make_model();
  const double dts[] = {0.002, 0.001, 0.0005};
  const double utils[] = {0.0, 0.35, 0.9, 1.2};
  double freq = spec.core_min_ghz;
  for (int i = 0; i < 60; ++i) {
    const double dt = dts[(i / 3) % 3];
    const double util = utils[(i / 2) % 4];
    m.tick(dt, util, 1.6);
    const double u = std::clamp(util, 0.0, 1.0);
    const double target = std::min(
        spec.core_max_ghz, spec.core_min_ghz + (spec.core_max_ghz - spec.core_min_ghz) * u * 1.4);
    freq += (target - freq) * (1.0 - std::exp(-dt / 0.15));
    EXPECT_EQ(m.freq_ghz(), freq) << "tick " << i;
    const double ffrac = freq / spec.core_max_ghz;
    EXPECT_EQ(m.power_w(util), spec.core_idle_w + spec.core_dyn_w * u * ffrac * ffrac)
        << "tick " << i;
  }
}
