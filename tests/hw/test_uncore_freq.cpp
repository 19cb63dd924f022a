// Frequency ladder semantics + the MSR-backed controller (tested against an
// in-memory fake MSR device).

#include <gtest/gtest.h>

#include <map>

#include "magus/common/error.hpp"
#include "magus/hw/uncore_freq.hpp"

namespace mh = magus::hw;

namespace {

class FakeMsr final : public mh::IMsrDevice {
 public:
  explicit FakeMsr(int sockets) : sockets_(sockets) {}

  int socket_count() const override { return sockets_; }

  std::uint64_t read(int socket, std::uint32_t reg) override {
    ++reads;
    return regs_[key(socket, reg)];
  }

  void write(int socket, std::uint32_t reg, std::uint64_t value) override {
    ++writes;
    regs_[key(socket, reg)] = value;
  }

  void preload(int socket, std::uint32_t reg, std::uint64_t value) {
    regs_[key(socket, reg)] = value;
  }

  int reads = 0;
  int writes = 0;

 private:
  static std::uint64_t key(int socket, std::uint32_t reg) {
    return (static_cast<std::uint64_t>(socket) << 32) | reg;
  }
  int sockets_;
  std::map<std::uint64_t, std::uint64_t> regs_;
};

}  // namespace

TEST(UncoreFreqLadder, BoundsAndSteps) {
  const mh::UncoreFreqLadder ladder(0.8, 2.2);  // Ice Lake SP
  EXPECT_DOUBLE_EQ(ladder.min_ghz(), 0.8);
  EXPECT_DOUBLE_EQ(ladder.max_ghz(), 2.2);
  EXPECT_EQ(ladder.steps(), 15u);
}

TEST(UncoreFreqLadder, RejectsInvalidRanges) {
  EXPECT_THROW(mh::UncoreFreqLadder(2.2, 0.8), magus::common::ConfigError);
  EXPECT_THROW(mh::UncoreFreqLadder(0.0, 1.0), magus::common::ConfigError);
}

TEST(UncoreFreqLadder, ClampAndQuantise) {
  const mh::UncoreFreqLadder ladder(0.8, 2.2);
  EXPECT_DOUBLE_EQ(ladder.clamp_ghz(0.1), 0.8);
  EXPECT_DOUBLE_EQ(ladder.clamp_ghz(9.9), 2.2);
  EXPECT_DOUBLE_EQ(ladder.clamp_ghz(1.44), 1.4);
  EXPECT_DOUBLE_EQ(ladder.clamp_ghz(1.46), 1.5);
}

TEST(UncoreFreqLadder, StepsSaturate) {
  const mh::UncoreFreqLadder ladder(0.8, 2.2);
  EXPECT_DOUBLE_EQ(ladder.step_down(0.8), 0.8);
  EXPECT_DOUBLE_EQ(ladder.step_up(2.2), 2.2);
  EXPECT_DOUBLE_EQ(ladder.step_down(1.5), 1.4);
  EXPECT_DOUBLE_EQ(ladder.step_up(1.5), 1.6);
}

// Property: walking down from max hits min in exactly steps()-1 moves.
class LadderWalk : public ::testing::TestWithParam<std::pair<double, double>> {};

TEST_P(LadderWalk, DownReachesMin) {
  const auto [lo, hi] = GetParam();
  const mh::UncoreFreqLadder ladder(lo, hi);
  double f = ladder.max_ghz();
  unsigned moves = 0;
  while (f > ladder.min_ghz() && moves < 1000) {
    f = ladder.step_down(f);
    ++moves;
  }
  EXPECT_EQ(moves, ladder.steps() - 1);
  EXPECT_DOUBLE_EQ(f, ladder.min_ghz());
}

INSTANTIATE_TEST_SUITE_P(Ranges, LadderWalk,
                         ::testing::Values(std::pair{0.8, 2.2}, std::pair{0.8, 2.5},
                                           std::pair{1.0, 1.1}, std::pair{0.5, 3.0}));

TEST(UncoreFreqController, WritesAllSockets) {
  FakeMsr msr(2);
  const mh::UncoreFreqLadder ladder(0.8, 2.2);
  msr.preload(0, mh::msr::kUncoreRatioLimit, 0x0816);
  msr.preload(1, mh::msr::kUncoreRatioLimit, 0x0816);
  mh::UncoreFreqController ctl(msr, ladder);

  ctl.set_max_ghz_all(1.5);
  EXPECT_EQ(msr.writes, 2);
  EXPECT_EQ(ctl.read_limit(0).max_ratio, 15u);
  EXPECT_EQ(ctl.read_limit(1).max_ratio, 15u);
}

TEST(UncoreFreqController, PreservesMinRatioField) {
  FakeMsr msr(1);
  msr.preload(0, mh::msr::kUncoreRatioLimit, 0x0816);  // min 0.8
  const mh::UncoreFreqLadder ladder(0.8, 2.2);
  mh::UncoreFreqController ctl(msr, ladder);
  ctl.set_max_ghz(0, 1.2);
  const auto limit = ctl.read_limit(0);
  EXPECT_EQ(limit.max_ratio, 12u);
  EXPECT_EQ(limit.min_ratio, 8u);  // untouched
}

TEST(UncoreFreqController, ClampsOutOfLadderRequests) {
  FakeMsr msr(1);
  msr.preload(0, mh::msr::kUncoreRatioLimit, 0x0816);
  const mh::UncoreFreqLadder ladder(0.8, 2.2);
  mh::UncoreFreqController ctl(msr, ladder);
  ctl.set_max_ghz(0, 5.0);
  EXPECT_EQ(ctl.read_limit(0).max_ratio, 22u);
  ctl.set_max_ghz(0, 0.1);
  EXPECT_EQ(ctl.read_limit(0).max_ratio, 8u);
}

TEST(UncoreFreqController, SkipsRedundantWrites) {
  FakeMsr msr(1);
  msr.preload(0, mh::msr::kUncoreRatioLimit, 0x0816);
  const mh::UncoreFreqLadder ladder(0.8, 2.2);
  mh::UncoreFreqController ctl(msr, ladder);
  ctl.set_max_ghz(0, 1.5);
  ctl.set_max_ghz(0, 1.5);
  ctl.set_max_ghz(0, 1.5);
  EXPECT_EQ(msr.writes, 1);
  EXPECT_EQ(ctl.write_count(), 1ull);
}
