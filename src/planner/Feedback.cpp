#include "planner/Feedback.h"

#include "ir/Instructions.h"
#include "ir/Module.h"
#include "telemetry/Telemetry.h"
#include "verify/CheckMetadata.h"

#include <cstdlib>
#include <map>

using namespace noelle;
using namespace noelle::planner;
namespace telemetry = noelle::telemetry;

namespace {

/// Measured/estimated ratio below which an entry is a shortfall.
constexpr double ShortfallRatio = 0.8;

/// Resolves the plan-entry origin (deterministic header-instruction ID)
/// of a dispatched task function. DOALL/HELIX tasks and DSWP stage tasks
/// carry verify::TaskOriginKey directly; a DSWP pipeline trampoline does
/// not (it spans every stage), so fall back to the origin of the stage
/// tasks it calls — they all clone the same loop.
bool originOf(const nir::Function &F, uint64_t &Out) {
  std::string Origin = F.getMetadata(verify::TaskOriginKey);
  if (Origin.empty()) {
    for (const auto &BB : F.getBlocks())
      for (const auto &I : BB->getInstList()) {
        const auto *Call = nir::dyn_cast<nir::CallInst>(I.get());
        if (!Call)
          continue;
        const nir::Function *Callee = Call->getCalledFunction();
        if (!Callee)
          continue;
        Origin = Callee->getMetadata(verify::TaskOriginKey);
        if (!Origin.empty())
          break;
      }
  }
  if (Origin.empty())
    return false;
  char *End = nullptr;
  Out = std::strtoull(Origin.c_str(), &End, 10);
  return End && *End == '\0' && !Origin.empty();
}

} // namespace

FeedbackResult planner::applyMeasuredSpeedups(
    ProgramPlan &Plan, const nir::Module &M,
    const std::vector<nir::DispatchRecord> &Records) {
  // Join records to origins. A loop may dispatch many times (outer
  // invocations), so accumulate sequential and parallel time per origin
  // before forming the ratio — exactly how perfmodel::runTime folds
  // regions.
  struct Acc {
    uint64_t Seq = 0;
    uint64_t Par = 0;
  };
  std::map<uint64_t, Acc> ByOrigin;
  std::map<std::string, const nir::Function *> FnCache;
  for (const nir::DispatchRecord &R : Records) {
    if (R.TaskName.empty())
      continue;
    auto It = FnCache.find(R.TaskName);
    if (It == FnCache.end())
      It = FnCache.emplace(R.TaskName, M.getFunction(R.TaskName)).first;
    const nir::Function *F = It->second;
    if (!F)
      continue;
    uint64_t Origin = 0;
    if (!originOf(*F, Origin))
      continue;
    Acc &A = ByOrigin[Origin];
    A.Seq += R.TotalTaskInstructions;
    A.Par += perfmodel::regionTime(R);
  }

  FeedbackResult Res;
  for (PlanEntry &E : Plan.Entries) {
    auto It = ByOrigin.find(E.HeaderInstID);
    if (It == ByOrigin.end() || It->second.Par == 0)
      continue;
    E.MeasuredMilli = static_cast<int64_t>(
        It->second.Seq * 1000 / It->second.Par);
    if (E.MeasuredMilli == 0)
      E.MeasuredMilli = 1; // measured-but-tiny still round-trips
    ++Res.EntriesMeasured;
    telemetry::count(telemetry::Counter::PlanMeasured);
    if (E.SpeedupMilli > 0 &&
        static_cast<double>(E.MeasuredMilli) <
            ShortfallRatio * static_cast<double>(E.SpeedupMilli)) {
      ++Res.Shortfalls;
      telemetry::count(telemetry::Counter::PlanShortfall);
    }
  }
  return Res;
}
