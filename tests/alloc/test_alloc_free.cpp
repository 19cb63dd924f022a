// The comparator policies touch no heap per sample: once primed, every
// on_sample of ups, duf, ecoshift, deadline and comppow runs without a
// single allocation, node-wide (1 die) and per domain (4 dies per socket).
// Allocations are counted by replacing the global operator new, which is
// why this file is a test executable of its own.
//
// MAGUS is left out on purpose: MdfsController appends one DecisionRecord
// per sample to its decision log, which is unbounded by design and
// reallocates as it grows, until ROADMAP item 3 bounds it.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <string>

#include "magus/baseline/comppow.hpp"
#include "magus/baseline/deadline.hpp"
#include "magus/baseline/duf.hpp"
#include "magus/baseline/ecoshift.hpp"
#include "magus/baseline/ups.hpp"
#include "magus/core/policy_factory.hpp"
#include "magus/core/power_cap.hpp"
#include "magus/sim/engine.hpp"
#include "magus/sim/system_preset.hpp"
#include "magus/wl/catalog.hpp"

namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

// The replacement pair is malloc/free on both sides; GCC cannot see that
// through inlining and warns at every gtest call site.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace mc = magus::core;
namespace ms = magus::sim;

namespace {

struct Case {
  const char* policy;
  int dies;
};

std::ostream& operator<<(std::ostream& os, const Case& c) {
  return os << c.policy << "/dies" << c.dies;
}

class OnSampleAllocations : public ::testing::TestWithParam<Case> {};

TEST_P(OnSampleAllocations, NoneAfterPriming) {
  const Case c = GetParam();
  ms::SystemSpec system = ms::intel_a100();
  system.cpu.dies_per_socket = c.dies;
  ms::SimEngine engine(system, magus::wl::make_workload("unet"));
  const magus::hw::UncoreFreqLadder ladder(system.cpu.uncore_min_ghz,
                                           system.cpu.uncore_max_ghz);
  // A cap well under the node's draw keeps the cap-aware policies walking.
  mc::PowerCapSchedule cap;
  cap.fixed_cap_w = 150.0;

  mc::PolicyContext ctx;
  ctx.mem_counter = &engine.mem_counter();
  ctx.energy_counter = &engine.energy_counter();
  ctx.core_counters = &engine.core_counters();
  ctx.msr = &engine.msr();
  ctx.ladder = &ladder;
  ctx.power_cap = &cap;
  if (c.dies > 1) ctx.domains = &engine.domains();
  const auto policy = mc::PolicyFactory::instance().make_policy(c.policy, ctx);

  std::uint64_t samples = 0;
  std::uint64_t allocations = 0;
  ms::PolicyHook hook;
  hook.name = policy->name();
  hook.period_s = policy->period_s();
  hook.on_start = [&](magus::common::Seconds now) { policy->on_start(now); };
  hook.on_sample = [&](magus::common::Seconds now) {
    const std::uint64_t before = t_allocations;
    policy->on_sample(now);
    if (++samples > 2) allocations += t_allocations - before;
  };
  engine.run(hook);

  EXPECT_GT(samples, 20u);
  EXPECT_EQ(allocations, 0u) << "over " << samples << " samples";
}

INSTANTIATE_TEST_SUITE_P(
    Comparators, OnSampleAllocations,
    ::testing::Values(Case{"ups", 1}, Case{"ups", 4}, Case{"duf", 1}, Case{"duf", 4},
                      Case{"ecoshift", 1}, Case{"ecoshift", 4}, Case{"deadline", 1},
                      Case{"deadline", 4}, Case{"comppow", 1}, Case{"comppow", 4}),
    [](const ::testing::TestParamInfo<Case>& param) {
      return std::string(param.param.policy) + "_dies" + std::to_string(param.param.dies);
    });

}  // namespace
