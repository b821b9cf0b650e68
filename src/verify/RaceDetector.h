//===----------------------------------------------------------------------===//
///
/// \file
/// Static race detection over generated task functions: flags W/W and
/// R/W pairs that concurrently running workers may issue against the
/// same shared memory. Pairs ordered by the happens-before engine
/// (queue release/acquire chains, lockstep loop phases, HELIX segment
/// gates) are discharged first; per-worker environment lanes and
/// iteration-partitioned accesses (addresses derived from the task ID)
/// are proven disjoint structurally; everything else falls back to the
/// Andersen points-to analysis. Every discharged pair records which
/// rule proved it.
///
//===----------------------------------------------------------------------===//

#ifndef VERIFY_RACEDETECTOR_H
#define VERIFY_RACEDETECTOR_H

#include "ir/Module.h"
#include "verify/Diagnostic.h"
#include "verify/HappensBefore.h"
#include "verify/TaskModel.h"

#include <cstdint>
#include <map>
#include <string>

namespace noelle {
namespace verify {

/// Per-run counters: how many pairs each discharge rule proved safe, how
/// many fell through to the points-to fallback, and what was reported.
/// Attribution is first-match in rule order, so the counts partition the
/// checked pairs.
struct RaceRuleStats {
  uint64_t PairsChecked = 0;
  /// Pairs no structural or ordering rule discharged — they were decided
  /// by the Andersen alias query (the detector's least precise step).
  uint64_t AndersenFallback = 0;
  uint64_t RacesReported = 0;
  /// Race reports suppressed because the same unordered origin-ID pair
  /// was already reported for the region.
  uint64_t DuplicatesSuppressed = 0;
  /// Discharge-rule name -> pairs it proved safe. Keys are the
  /// hbRuleName() strings plus the structural rules: "read-read",
  /// "task-local", "pdg-independent", "env-disjoint", "iter-partition",
  /// "alias-none".
  std::map<std::string, uint64_t> Discharged;

  void merge(const RaceRuleStats &O) {
    PairsChecked += O.PairsChecked;
    AndersenFallback += O.AndersenFallback;
    RacesReported += O.RacesReported;
    DuplicatesSuppressed += O.DuplicatesSuppressed;
    for (const auto &[K, V] : O.Discharged)
      Discharged[K] += V;
  }
};

/// Scans the parallel regions of \p M (the transformed module) for data
/// races between concurrently executing workers. DOALL/HELIX workers run
/// the same task body against themselves; DSWP stages run concurrently
/// with each other. When \p Deps is provided, access pairs whose origin
/// instructions the pre-transform PDG proved independent are skipped;
/// without it the detector falls back to purely structural + points-to
/// reasoning.
void detectRaces(nir::Module &M,
                 const std::vector<ParallelRegion> &Regions,
                 CheckReport &Rep,
                 const PDGDependenceSummary *Deps = nullptr,
                 const RaceDetectorOptions &Opts = {});

} // namespace verify
} // namespace noelle

#endif // VERIFY_RACEDETECTOR_H
