#include "magus/exp/experiment.hpp"

#include "magus/exp/batch.hpp"

namespace magus::exp {

RunOutput run_policy(const sim::SystemSpec& system, const wl::PhaseProgram& workload,
                     const std::string& policy, const RunOptions& opts) {
  BatchRun batch;
  batch.add(system, workload, policy, opts);
  batch.run_all();
  return batch.take(0);
}

wl::PhaseProgram idle_workload(double duration_s) {
  // Background daemons only: negligible DRAM traffic, a whisper of CPU.
  wl::Phase idle{"idle", duration_s, 50.0, 0.0, 0.02, 0.0};
  return wl::PhaseProgram("idle", {idle});
}

}  // namespace magus::exp
