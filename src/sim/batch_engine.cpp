#include "magus/sim/batch_engine.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "magus/common/error.hpp"

namespace magus::sim {

void BatchEngine::Lane::fail() {
  error = std::current_exception();
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    message = e.what();
  } catch (...) {
    message = "unknown exception";
  }
}

std::size_t BatchEngine::add_lane(const SystemSpec& system, wl::PhaseProgram program,
                                  const EngineConfig& cfg) {
  if (ran_) throw common::ConfigError("BatchEngine: add_lane after run_all");
  lanes_.emplace_back(system, std::move(program), cfg);
  return lanes_.size() - 1;
}

void BatchEngine::set_hook(std::size_t lane, PolicyHook hook) {
  lanes_[lane].hook = std::move(hook);
}

bool BatchEngine::step_lane(Lane& lane) {
  try {
    if (!lane.engine.advance()) return false;
    lane.result = lane.engine.finish();
    total_ticks_ += lane.result.ticks;
  } catch (...) {
    lane.fail();
  }
  return true;
}

void BatchEngine::run_all() {
  if (ran_) throw common::ConfigError("BatchEngine: run_all called twice");
  ran_ = true;

  for (Lane& lane : lanes_) {
    try {
      lane.engine.start(lane.hook);
    } catch (...) {
      lane.fail();
    }
  }

  // Blocked scheduling: step a cache-sized block of lanes round-robin and
  // drain it before moving to the next, so the block's engines stay
  // resident. Lanes are independent, so neither the grouping nor the
  // compaction order below can affect results.
  constexpr std::size_t kLaneBlock = 32;
  std::vector<Lane*> active;
  active.reserve(kLaneBlock);
  // The whole sweep is a lock-free hot section: step_lane is
  // MAGUS_LOCK_FREE, and this scope is what grants it the hot-path role.
  const common::HotPathSection hot_section;
  for (std::size_t block = 0; block < lanes_.size(); block += kLaneBlock) {
    const std::size_t end = std::min(lanes_.size(), block + kLaneBlock);
    active.clear();
    for (std::size_t i = block; i < end; ++i) {
      if (!lanes_[i].error) active.push_back(&lanes_[i]);
    }
    while (!active.empty()) {
      for (std::size_t k = 0; k < active.size();) {
        if (step_lane(*active[k])) {
          active[k] = active.back();
          active.pop_back();
        } else {
          ++k;
        }
      }
    }
  }
}

}  // namespace magus::sim
