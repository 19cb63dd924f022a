// MagusRuntime's degradation ladder, driven by hand-rolled faulty backends:
// sample validation (hold-last-good), bounded MSR write retry with
// exponential backoff, and the terminal safe fallback that releases the
// uncore to the firmware default (DESIGN.md §11).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <vector>

#include "magus/common/error.hpp"
#include "magus/core/runtime.hpp"
#include "magus/hw/msr.hpp"

namespace mc = magus::core;
namespace mh = magus::hw;
using magus::common::Seconds;

namespace {

/// Plays back a scripted sequence of readings; entries equal to kThrow make
/// the read throw DeviceError (a vanished /sys counter mid-run).
class ScriptedCounter final : public mh::IMemThroughputCounter {
 public:
  static constexpr double kThrow = -999.0;

  explicit ScriptedCounter(std::vector<double> script) : script_(std::move(script)) {}

  double total_mb() override {
    const double v = next_ < script_.size() ? script_[next_++] : script_.back();
    if (v == kThrow) throw magus::common::DeviceError("scripted counter failure");
    return v;
  }

  [[nodiscard]] std::size_t reads() const noexcept { return next_; }

 private:
  std::vector<double> script_;
  std::size_t next_ = 0;
};

/// In-memory two-socket MSR whose writes fail while `fail_writes` > 0
/// (decremented per attempted write), then succeed and persist; writes to
/// `dead_socket` always fail.
class FlakyMsr final : public mh::IMsrDevice {
 public:
  [[nodiscard]] int socket_count() const override { return 2; }

  std::uint64_t read(int socket, std::uint32_t reg) override {
    return raw_[{socket, reg}];
  }

  void write(int socket, std::uint32_t reg, std::uint64_t value) override {
    ++write_attempts;
    if (socket == dead_socket) throw magus::common::DeviceError("dead MSR socket");
    if (fail_writes > 0) {
      --fail_writes;
      throw magus::common::DeviceError("flaky MSR write");
    }
    raw_[{socket, reg}] = value;
  }

  [[nodiscard]] mh::UncoreRatioLimit limit(int socket) {
    return mh::UncoreRatioLimit::decode(raw_[{socket, mh::msr::kUncoreRatioLimit}]);
  }

  int fail_writes = 0;  ///< attempted writes left to reject
  int dead_socket = -1;  ///< socket whose writes always fail
  int write_attempts = 0;

 private:
  std::map<std::pair<int, std::uint32_t>, std::uint64_t> raw_;
};

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

}  // namespace

TEST(RuntimeResilience, BadSamplesHoldLastGoodAndKeepCadence) {
  // 0 primes; 1000 gives 5000 MB/s; then NaN, negative, and a backwards
  // counter are all rejected; 3000 recovers by averaging across the gap.
  ScriptedCounter counter(
      {0.0, 1'000.0, kNan, -5.0, 500.0, ScriptedCounter::kThrow, 3'000.0});
  FlakyMsr msr;
  mh::UncoreFreqLadder ladder(0.8, 2.2);
  mc::MagusRuntime magus(counter, msr, ladder);

  magus.on_start(Seconds(0.0));
  magus.on_sample(Seconds(0.2));
  EXPECT_DOUBLE_EQ(magus.last_throughput().value(), 5'000.0);

  magus.on_sample(Seconds(0.4));  // NaN
  magus.on_sample(Seconds(0.6));  // negative cumulative value
  magus.on_sample(Seconds(0.8));  // counter moved backwards (500 < 1000)
  magus.on_sample(Seconds(1.0));  // read throws DeviceError
  EXPECT_EQ(magus.bad_samples(), 4u);
  // Held samples replay the last good throughput, never fabricate one.
  EXPECT_DOUBLE_EQ(magus.last_throughput().value(), 5'000.0);
  EXPECT_FALSE(magus.degraded());

  magus.on_sample(Seconds(1.2));  // 3000 MB over the 1.0 s since t=0.2
  EXPECT_DOUBLE_EQ(magus.last_throughput().value(), (3'000.0 - 1'000.0) / 1.0);
  EXPECT_EQ(magus.bad_samples(), 4u);
}

TEST(RuntimeResilience, FailedPrimingReadRecoversOnFirstGoodSample) {
  ScriptedCounter counter({kNan, 100.0, 300.0});
  FlakyMsr msr;
  mh::UncoreFreqLadder ladder(0.8, 2.2);
  mc::MagusRuntime magus(counter, msr, ladder);

  magus.on_start(Seconds(0.0));
  EXPECT_EQ(magus.bad_samples(), 1u);
  magus.on_sample(Seconds(0.2));  // primes with 100, no throughput yet
  EXPECT_DOUBLE_EQ(magus.last_throughput().value(), 0.0);
  magus.on_sample(Seconds(0.4));
  EXPECT_DOUBLE_EQ(magus.last_throughput().value(), (300.0 - 100.0) / 0.2);
}

TEST(RuntimeResilience, TransientWriteFailuresAreRetriedWithBackoff) {
  ScriptedCounter counter({0.0});
  FlakyMsr msr;
  msr.fail_writes = 2;  // first two attempts of the on_start burst fail
  mh::UncoreFreqLadder ladder(0.8, 2.2);
  mc::MagusRuntime magus(counter, msr, ladder);

  std::vector<double> delays;
  magus.set_backoff_sleeper([&](Seconds d) { delays.push_back(d.value()); });
  magus.on_start(Seconds(0.0));

  // Burst recovered within the retry budget: no failure recorded, uncore
  // programmed to the ladder max on both sockets.
  EXPECT_EQ(magus.msr_write_failures(), 0u);
  EXPECT_FALSE(magus.degraded());
  EXPECT_DOUBLE_EQ(msr.limit(0).max_ghz(), 2.2);
  EXPECT_DOUBLE_EQ(msr.limit(1).max_ghz(), 2.2);
  // Exponential backoff: base 0.01 s, doubling per retry.
  ASSERT_EQ(delays.size(), 2u);
  EXPECT_DOUBLE_EQ(delays[0], 0.01);
  EXPECT_DOUBLE_EQ(delays[1], 0.02);
}

TEST(RuntimeResilience, CustomBackoffScheduleIsHonored) {
  ScriptedCounter counter({0.0});
  FlakyMsr msr;
  msr.fail_writes = 1'000'000;  // never recovers
  mh::UncoreFreqLadder ladder(0.8, 2.2);
  mc::MagusConfig cfg;
  cfg.resilience.write_retries = 3;
  cfg.resilience.backoff_base = Seconds(0.5);
  cfg.resilience.backoff_mult = 3.0;
  cfg.resilience.max_consecutive_failures = 2;
  mc::MagusRuntime magus(counter, msr, ladder, cfg);

  std::vector<double> delays;
  magus.set_backoff_sleeper([&](Seconds d) { delays.push_back(d.value()); });
  magus.on_start(Seconds(0.0));

  EXPECT_EQ(magus.msr_write_failures(), 1u);
  ASSERT_EQ(delays.size(), 3u);
  EXPECT_DOUBLE_EQ(delays[0], 0.5);
  EXPECT_DOUBLE_EQ(delays[1], 1.5);
  EXPECT_DOUBLE_EQ(delays[2], 4.5);
}

TEST(RuntimeResilience, ExhaustedBurstsDegradeAndReleaseUncore) {
  ScriptedCounter counter({0.0, 100.0, 200.0, 300.0});
  FlakyMsr msr;
  mh::UncoreFreqLadder ladder(0.8, 2.2);
  mc::MagusConfig cfg;
  cfg.resilience.write_retries = 0;  // one attempt per burst
  cfg.resilience.max_consecutive_failures = 1;
  mc::MagusRuntime magus(counter, msr, ladder, cfg);

  // The single on_start write fails, immediately exhausting the ladder; the
  // device then recovers, so the degradation release write goes through.
  msr.fail_writes = 1;
  magus.on_start(Seconds(0.0));

  EXPECT_TRUE(magus.degraded());
  EXPECT_EQ(magus.msr_write_failures(), 1u);
  // Safe fallback: both sockets released to the ladder max (firmware default).
  EXPECT_DOUBLE_EQ(msr.limit(0).max_ghz(), 2.2);
  EXPECT_DOUBLE_EQ(msr.limit(1).max_ghz(), 2.2);

  // Degraded mode: monitoring continues, writes stop for good.
  const int writes_after_release = msr.write_attempts;
  magus.on_sample(Seconds(0.2));
  magus.on_sample(Seconds(0.4));
  magus.on_sample(Seconds(0.6));
  EXPECT_EQ(msr.write_attempts, writes_after_release);
  EXPECT_GE(counter.reads(), 4u);
  EXPECT_DOUBLE_EQ(magus.last_throughput().value(), (300.0 - 200.0) / 0.2);
}

TEST(RuntimeResilience, DegradationSurvivesFailedReleaseWrites) {
  ScriptedCounter counter({0.0, 100.0});
  FlakyMsr msr;
  msr.fail_writes = 1'000'000;  // device never comes back
  mh::UncoreFreqLadder ladder(0.8, 2.2);
  mc::MagusConfig cfg;
  cfg.resilience.write_retries = 1;
  cfg.resilience.max_consecutive_failures = 2;
  mc::MagusRuntime magus(counter, msr, ladder, cfg);

  magus.on_start(Seconds(0.0));  // burst 1 exhausted
  EXPECT_FALSE(magus.degraded());
  magus.on_start(Seconds(0.1));  // burst 2 exhausted -> degrade
  EXPECT_TRUE(magus.degraded());
  EXPECT_EQ(magus.msr_write_failures(), 2u);

  // The best-effort release also failed; the runtime must stay degraded and
  // quiet rather than retry forever against a dead device.
  const int attempts = msr.write_attempts;
  magus.on_start(Seconds(0.2));
  magus.on_sample(Seconds(0.4));
  EXPECT_EQ(msr.write_attempts, attempts);
  EXPECT_TRUE(magus.degraded());
}

TEST(RuntimeResilience, DegradedReleaseTriesEverySocket) {
  // Socket 0 rejects every write; socket 1 works. The release that follows
  // degradation still reaches socket 1: each socket gets its own attempt.
  ScriptedCounter counter({0.0});
  FlakyMsr msr;
  msr.dead_socket = 0;
  mh::UncoreFreqLadder ladder(0.8, 2.2);
  mc::MagusConfig cfg;
  cfg.resilience.write_retries = 0;
  cfg.resilience.max_consecutive_failures = 1;
  mc::MagusRuntime magus(counter, msr, ladder, cfg);

  magus.on_start(Seconds(0.0));  // the max-limit write fails on socket 0
  EXPECT_TRUE(magus.degraded());
  EXPECT_DOUBLE_EQ(msr.limit(1).max_ghz(), 2.2);
}

TEST(RuntimeResilience, ResilienceConfigValidation) {
  mc::ResilienceConfig res;
  EXPECT_NO_THROW(res.validate());
  res.write_retries = -1;
  EXPECT_THROW(res.validate(), magus::common::ConfigError);
  res = {};
  res.backoff_mult = 0.5;
  EXPECT_THROW(res.validate(), magus::common::ConfigError);
  res = {};
  res.backoff_base = Seconds(-0.1);
  EXPECT_THROW(res.validate(), magus::common::ConfigError);
  res = {};
  res.max_consecutive_failures = 0;
  EXPECT_THROW(res.validate(), magus::common::ConfigError);
}
