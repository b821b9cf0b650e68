//===----------------------------------------------------------------------===//
///
/// \file
/// Planner feedback: closes the loop between a plan's modeled speedups
/// and what a real run delivered. DispatchRecords carry the name of the
/// dispatched task function; task functions carry the deterministic ID
/// of the loop they came from (verify::TaskOriginKey); plan entries are
/// keyed by that same ID. Joining the three yields, per plan entry, the
/// measured speedup under the Figure-5 performance model, written back
/// into PlanEntry::MeasuredMilli so a re-serialized plan records both
/// the estimate and the observation.
///
/// Entries whose measurement falls below 0.8x their estimate (the plan
/// promised more than it delivered) are flagged through the telemetry
/// counter planner.feedback.speedup_shortfall, giving the
/// planner suite a machine-checkable regression signal.
///
//===----------------------------------------------------------------------===//

#ifndef PLANNER_FEEDBACK_H
#define PLANNER_FEEDBACK_H

#include "interp/Interpreter.h"
#include "planner/Plan.h"

#include <vector>

namespace noelle {
namespace planner {

/// Outcome of one feedback pass.
struct FeedbackResult {
  /// Plan entries that at least one dispatch record mapped onto.
  unsigned EntriesMeasured = 0;
  /// Measured entries whose speedup fell below 0.8x the estimate.
  unsigned Shortfalls = 0;
};

/// Writes measured speedups from \p Records into \p Plan: per entry,
/// the task work its records moved over their perfmodel::regionTime,
/// MeasuredMilli = Seq * 1000 / Par. \p M is the post-transform module
/// the records were produced by — its task functions resolve record
/// task names to plan-entry origins. Counters
/// planner.feedback.entries_measured / .speedup_shortfall are bumped per
/// affected entry. Records whose task cannot be mapped to an entry are
/// ignored. Returns what was measured and flagged.
FeedbackResult applyMeasuredSpeedups(
    ProgramPlan &Plan, const nir::Module &M,
    const std::vector<nir::DispatchRecord> &Records);

} // namespace planner
} // namespace noelle

#endif // PLANNER_FEEDBACK_H
