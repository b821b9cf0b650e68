//===----------------------------------------------------------------------===//
///
/// \file
/// Race-detector precision harness: for every benchmark-suite kernel
/// under each parallelizing transform, runs the happens-before race
/// detector and records how many access pairs it had to hand to the
/// Andersen points-to fallback and which rule discharged each of the
/// rest.
///
/// Two measurement legs per configuration:
///   - grounded: the full noelle-check path (pre-transform PDG summary
///     available), the mode users actually run;
///   - structural: detectRaces without the PDG summary, isolating the
///     ordering rules' own precision — every discharge must come from
///     happens-before or structural reasoning, not prior dependence
///     facts.
///
/// The output is deterministic (tests/golden/bench_races.txt), so the
/// golden file pins the fallback count of every kernel × transform.
/// Exits 1 if any grounded run reports a race.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "noelle/Noelle.h"
#include "planner/Planner.h"
#include "verify/NoelleCheck.h"
#include "verify/RaceDetector.h"
#include "verify/TaskModel.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace noelle;

namespace {

struct LegResult {
  verify::RaceRuleStats Stats;
  unsigned Races = 0;
};

/// Grounded leg: the full checkModule path with the PDG summary.
LegResult runGrounded(nir::Module &M,
                      const verify::PreTransformSnapshot &Snap) {
  LegResult R;
  verify::CheckOptions CO;
  CO.RunVerifier = false;
  CO.RunLegality = false;
  CO.Races.Stats = &R.Stats;
  R.Races = verify::checkModule(M, Snap, CO).count(verify::DiagKind::DataRace);
  return R;
}

/// Structural leg: the detector alone, no PDG summary, so every
/// discharge is the ordering/structural rules' own work.
LegResult runStructural(nir::Module &M) {
  LegResult R;
  verify::RaceDetectorOptions Opts;
  Opts.Stats = &R.Stats;
  verify::CheckReport Discover;
  std::vector<verify::ParallelRegion> Regions =
      verify::discoverRegions(M, Discover);
  verify::CheckReport Rep;
  verify::detectRaces(M, Regions, Rep, nullptr, Opts);
  R.Races = Rep.count(verify::DiagKind::DataRace);
  return R;
}

std::string dischargeList(const verify::RaceRuleStats &S) {
  std::string Out;
  for (const auto &[Rule, N] : S.Discharged)
    Out += (Out.empty() ? "" : " ") + Rule + "=" + std::to_string(N);
  return Out;
}

} // namespace

int main() {
  std::printf("Race detector: Andersen fallbacks and per-rule discharges "
              "of the happens-before engine (grounded = with the "
              "pre-transform PDG, structural = without)\n\n");
  std::vector<int> W = {14, 6, 7, 6, 7, 6, 19};
  benchutil::printRow({"benchmark", "xform", "g-pairs", "g-fall", "s-pairs",
                       "s-fall", "grounded discharges"},
                      W);
  benchutil::printSeparator(W);

  uint64_t GroundedFall = 0, StructFall = 0;
  unsigned GroundedRaces = 0;
  verify::RaceRuleStats GroundedTotal, StructTotal;

  for (const auto &B : bench::getBenchmarkSuite()) {
    for (TechniqueKind K : {TechniqueKind::DOALL, TechniqueKind::HELIX,
                            TechniqueKind::DSWP}) {
      nir::Context Ctx;
      auto M = minic::compileMiniCOrDie(Ctx, B.Source);
      verify::PreTransformSnapshot Snap = verify::captureForCheck(*M);
      Noelle N(*M);
      planner::makeTechnique(K, N, 4)->run();
      LegResult G = runGrounded(*M, Snap);
      LegResult S = runStructural(*M);

      GroundedFall += G.Stats.AndersenFallback;
      StructFall += S.Stats.AndersenFallback;
      GroundedRaces += G.Races;
      GroundedTotal.merge(G.Stats);
      StructTotal.merge(S.Stats);
      benchutil::printRow(
          {B.Name, techniqueName(K), std::to_string(G.Stats.PairsChecked),
           std::to_string(G.Stats.AndersenFallback),
           std::to_string(S.Stats.PairsChecked),
           std::to_string(S.Stats.AndersenFallback), dischargeList(G.Stats)},
          W);
    }
  }

  benchutil::printSeparator(W);
  std::printf("\nAndersen fallback totals: grounded %llu, structural %llu\n",
              static_cast<unsigned long long>(GroundedFall),
              static_cast<unsigned long long>(StructFall));
  std::printf("discharge profile (grounded): %s\n",
              dischargeList(GroundedTotal).c_str());
  std::printf("discharge profile (structural): %s\n",
              dischargeList(StructTotal).c_str());
  std::printf("grounded race reports: %u\n", GroundedRaces);
  return GroundedRaces == 0 ? 0 : 1;
}
