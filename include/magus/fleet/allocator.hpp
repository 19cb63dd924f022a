#pragma once
// Fleet-level power-budget allocation.
//
// The fleet layer's first piece of *coordinated* state: a global Watts
// budget redistributed across nodes once per epoch of simulated time.
// Allocation is water-filling with node floors and ceilings -- floors
// are funded first (scaled proportionally when even they do not fit), then a
// common water level rises toward each node's demand, then leftover headroom
// water-fills toward the ceilings.
//
// Determinism: everything here is computed *before* any node runs, from
// manifest-only inputs (the jittered phase programs and the preset power
// models), in node-index order, by the FleetRunner constructor -- never
// concurrently. Per-node results then depend only on (seed, manifest) as
// before, so rollups stay byte-identical at any --jobs count or shard size.
//
// Invariants (property-tested in tests/fleet/test_allocator_prop.cpp):
//   conservation  sum(alloc) <= budget (exact equality when demand-bound)
//   ceilings      alloc[i] <= ceiling[i] always
//   floors        alloc[i] >= floor[i] whenever budget >= sum(floors)
//   monotonicity  every alloc[i] is non-decreasing in the budget

#include <vector>

#include "magus/sim/system_preset.hpp"
#include "magus/wl/phase.hpp"

namespace magus::fleet {

/// One node's inputs to an epoch's allocation round.
struct NodeDemand {
  double demand_w = 0.0;   ///< estimated average draw this epoch
  double floor_w = 0.0;    ///< idle draw: allocations below this starve the node
  double ceiling_w = 0.0;  ///< peak useful draw: Watts above this are wasted
};

class PowerBudgetAllocator {
 public:
  /// Split `budget_w` across `nodes` (see file header for the algorithm and
  /// its invariants). Returns one allocation per node, in input order.
  [[nodiscard]] static std::vector<double> allocate(const std::vector<NodeDemand>& nodes,
                                                    double budget_w);
};

/// Analytic per-epoch power-demand estimate for one node: walk the (already
/// jittered) phase program and average the preset's power models -- core,
/// uncore at full frequency, DRAM, GPU -- over each `epoch_s` slice of
/// simulated time. Epochs past the program's nominal end pad with the idle
/// floor, so a node stretched beyond its estimate keeps a sane allocation.
/// `epochs` is the fleet-wide epoch count (>= the program's own span).
[[nodiscard]] std::vector<double> estimate_epoch_demand_w(const sim::SystemSpec& system,
                                                          const wl::PhaseProgram& workload,
                                                          double epoch_s,
                                                          std::size_t epochs);

/// Idle draw of a node: every component at its floor. The allocator's
/// floor for the node.
[[nodiscard]] double node_floor_w(const sim::SystemSpec& system);

/// Peak useful draw: every component flat out. The allocator's node
/// ceiling (a manifest power_cap_w tightens it further).
[[nodiscard]] double node_ceiling_w(const sim::SystemSpec& system);

}  // namespace magus::fleet
