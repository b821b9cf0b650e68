//===----------------------------------------------------------------------===//
///
/// \file
/// The planner's cost model: turns profile data (trip counts,
/// invocation counts) and measured runtime overheads (dispatch/park
/// cost, gate/queue cost) into CostQuery inputs, and searches a
/// technique's worker-count axis for the cheapest modeled plan. The
/// per-technique time formulas themselves live with the techniques
/// (ParallelizationTechnique::estimate); the model only owns their
/// shared inputs and the search.
///
//===----------------------------------------------------------------------===//

#ifndef PLANNER_COSTMODEL_H
#define PLANNER_COSTMODEL_H

#include "xforms/ParallelizationTechnique.h"

#include <string>

namespace noelle {
namespace planner {

/// Per-event overheads in interpreter-instruction units — the currency
/// of the figure-5 performance model, whose costs are the defaults;
/// loadMeasuredOverheads replaces them with values derived from a
/// BENCH_runtime.json measurement.
struct CostOverheads {
  double SpawnCostPerTask = perfmodel::SpawnCostPerTask;
  double SyncCost = perfmodel::SyncCostPerOp;
};

/// Derives overheads from a BENCH_runtime.json file written by
/// bench_runtime: converts the measured per-region pool dispatch
/// latency into instruction units via the measured interpreter
/// throughput (instructions = ns * MIPS / 1000), divided across the
/// bench's 4 tasks per region. Returns false (with \p Err) when the
/// file is missing or lacks the required fields; \p O is untouched
/// then. SyncCost has no direct measurement and keeps its prior value.
bool loadMeasuredOverheads(const std::string &Path, CostOverheads &O,
                           std::string &Err);

/// One candidate the search produced: a concrete plan and its modeled
/// cost.
struct PlanChoice {
  LoopPlan Plan;
  TechniqueCost Cost;
};

class CostModel {
public:
  explicit CostModel(CostOverheads Overheads = {})
      : Overheads(Overheads) {}

  const CostOverheads &getOverheads() const { return Overheads; }

  /// Builds the cost inputs for one loop. With a profile, trip count
  /// and invocations come from PRO; without one, the defaults
  /// (TripCount 128, one invocation) stand in. Loops the profile never
  /// saw keep the defaults too — the planner separately skips them.
  CostQuery queryFor(LoopContent &LC, ProfileData *Prof) const;

  /// Searches worker counts 1..MaxWorkers for the cheapest modeled
  /// plan of technique \p T on a loop whose applicable() returned
  /// \p L. Ties resolve to the smallest worker count (the technique
  /// estimates are unimodal in W: parallel time falls until the spawn/
  /// sync knee, then never falls again). Returns false when \p L is
  /// not legal.
  bool choose(const ParallelizationTechnique &T, const Legality &L,
              const CostQuery &Q, unsigned MaxWorkers,
              PlanChoice &Out) const;

private:
  CostOverheads Overheads;
};

} // namespace planner
} // namespace noelle

#endif // PLANNER_COSTMODEL_H
