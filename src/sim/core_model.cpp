#include "magus/sim/core_model.hpp"

#include <stdexcept>

namespace magus::sim {

double CoreModel::display_freq_ghz(int core, common::Seconds now) const noexcept {
  // Per-core spread: each core's governor hunts independently; a small
  // phase-shifted oscillation reproduces the scatter in Fig. 1a.
  const double phase = static_cast<double>(core) * 0.37;
  const double wobble = 0.04 * std::sin(6.2831853 * (now.value() / 1.1 + phase));
  const double f = freq_ghz_ * (1.0 + wobble);
  return std::clamp(f, min_ghz_, max_ghz_);
}

std::uint64_t CoreModel::instructions_retired(int core) const {
  if (core < 0 || core >= core_count()) {
    throw std::out_of_range("CoreModel: core index out of range");
  }
  // Symmetric workload split: all cores show the same cumulative counts,
  // offset per core so values differ (as they would on real silicon).
  return static_cast<std::uint64_t>(instructions_) +
         static_cast<std::uint64_t>(core) * 977u;
}

std::uint64_t CoreModel::cycles_unhalted(int core) const {
  if (core < 0 || core >= core_count()) {
    throw std::out_of_range("CoreModel: core index out of range");
  }
  return static_cast<std::uint64_t>(cycles_) + static_cast<std::uint64_t>(core) * 1009u;
}

}  // namespace magus::sim
