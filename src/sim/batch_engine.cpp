#include "magus/sim/batch_engine.hpp"

#include <utility>

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

void BatchEngine::run_all() {
  if (ran_) throw common::ConfigError("BatchEngine: run_all called twice");
  ran_ = true;
  // Lanes share no state, so running them one after another gives each
  // exactly the result it would get alone.
  for (Lane& lane : lanes_) {
    try {
      lane.result = lane.engine.run(lane.hook);
      total_ticks_ += lane.result.ticks;
    } catch (...) {
      lane.fail();
    }
  }
}

}  // namespace magus::sim
