#include "xforms/ParallelizationTechnique.h"

#include "planner/Planner.h"
#include "xforms/DOALL.h"
#include "xforms/DSWP.h"
#include "xforms/HELIX.h"
#include "xforms/SpecDOALL.h"

#include <algorithm>

using namespace noelle;

uint64_t noelle::perfmodel::regionTime(const nir::DispatchRecord &R) {
  return std::max(R.MaxTaskInstructions + R.MaxTaskSyncOps * SyncCostPerOp,
                  R.TotalSegmentInstructions) +
         R.NumTasks * SpawnCostPerTask;
}

uint64_t
noelle::perfmodel::runTime(uint64_t Retired,
                           const std::vector<nir::DispatchRecord> &Records) {
  uint64_t TaskWork = 0, Regions = 0;
  for (const nir::DispatchRecord &R : Records) {
    TaskWork += R.TotalTaskInstructions;
    Regions += regionTime(R);
  }
  return Retired - TaskWork + Regions;
}

const char *noelle::techniqueName(TechniqueKind K) {
  switch (K) {
  case TechniqueKind::DOALL:
    return "doall";
  case TechniqueKind::HELIX:
    return "helix";
  case TechniqueKind::DSWP:
    return "dswp";
  case TechniqueKind::SpecDOALL:
    return "spec-doall";
  }
  return "doall";
}

bool noelle::techniqueFromName(const std::string &Name, TechniqueKind &K) {
  if (Name == "doall") {
    K = TechniqueKind::DOALL;
    return true;
  }
  if (Name == "helix") {
    K = TechniqueKind::HELIX;
    return true;
  }
  if (Name == "dswp") {
    K = TechniqueKind::DSWP;
    return true;
  }
  if (Name == "spec-doall") {
    K = TechniqueKind::SpecDOALL;
    return true;
  }
  return false;
}

std::vector<Decision> ParallelizationTechnique::run() {
  return planner::Planner::applyEverywhere(*this);
}

std::unique_ptr<ParallelizationTechnique>
noelle::createTechnique(TechniqueKind K, Noelle &N, unsigned NumCores) {
  switch (K) {
  case TechniqueKind::DOALL:
    return std::make_unique<DOALL>(N, DOALLOptions{NumCores});
  case TechniqueKind::HELIX:
    return std::make_unique<HELIX>(
        N, HELIXOptions{.NumCores = NumCores, .MinimumEstimatedSpeedup = 1.05});
  case TechniqueKind::DSWP:
    return std::make_unique<DSWP>(
        N, DSWPOptions{.NumCores = NumCores, .MinimumStageWeight = 30});
  case TechniqueKind::SpecDOALL:
    return std::make_unique<SpecDOALL>(N, DOALLOptions{NumCores});
  }
  return nullptr;
}
