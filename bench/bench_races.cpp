//===----------------------------------------------------------------------===//
///
/// \file
/// Race-detector precision harness: for every benchmark-suite kernel
/// under each parallelizing transform, runs the static race detector
/// twice — once with the flow-sensitive happens-before engine (all
/// discharge rules) and once in legacy mode (the single-rule
/// queue-happens-before detector it replaced) — and records how many
/// access pairs each mode had to hand to the Andersen points-to
/// fallback, which rule discharged each of the rest, and the detector's
/// wall time.
///
/// Two measurement legs per configuration:
///   - grounded: the full noelle-check path (pre-transform PDG summary
///     available), the mode users actually run;
///   - structural: detectRaces without the PDG summary, isolating the
///     ordering rules' own precision — every discharge must come from
///     happens-before or structural reasoning, not prior dependence
///     facts.
///
/// Writes BENCH_races.json. With --smoke, asserts every grounded run is
/// race-clean in both modes, that the engine never sends more pairs to
/// the fallback than legacy on any configuration, and that in total it
/// sends strictly fewer.
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

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

using namespace noelle;

namespace {

struct ModeResult {
  verify::RaceRuleStats Stats;
  unsigned Races = 0;
  double Millis = 0;
};

struct ConfigResult {
  std::string Transform;
  unsigned Parallelized = 0;
  ModeResult GroundedHB, GroundedLegacy;
  ModeResult StructHB, StructLegacy;
};

/// Compile + transform one kernel. The returned module is only valid
/// while the context lives, so both come back together.
struct TransformedModule {
  std::unique_ptr<nir::Context> Ctx;
  std::unique_ptr<nir::Module> M;
  verify::PreTransformSnapshot Snap;
  unsigned Parallelized = 0;
};

TransformedModule transformKernel(const bench::Benchmark &B,
                                  const std::string &Which) {
  TransformedModule T;
  T.Ctx = std::make_unique<nir::Context>();
  T.M = minic::compileMiniCOrDie(*T.Ctx, B.Source);
  T.Snap = verify::captureForCheck(*T.M);
  Noelle N(*T.M);
  TechniqueKind K = TechniqueKind::DOALL;
  techniqueFromName(Which, K);
  for (const auto &D : planner::makeTechnique(K, N, 4)->run())
    T.Parallelized += D.Parallelized;
  return T;
}

/// Grounded leg: the full checkModule path with the PDG summary.
ModeResult runGrounded(TransformedModule &T,
                       verify::RaceDetectorOptions Opts) {
  ModeResult R;
  verify::CheckOptions CO;
  CO.RunVerifier = false;
  CO.RunLegality = false;
  CO.Races = Opts;
  CO.Races.Stats = &R.Stats;
  auto Start = std::chrono::steady_clock::now();
  verify::CheckReport Rep = verify::checkModule(*T.M, T.Snap, CO);
  auto End = std::chrono::steady_clock::now();
  R.Millis =
      std::chrono::duration<double, std::milli>(End - Start).count();
  R.Races = Rep.count(verify::DiagKind::DataRace);
  return R;
}

/// Structural leg: the detector alone, no PDG summary, so every
/// discharge is the ordering/structural rules' own work.
ModeResult runStructural(TransformedModule &T,
                         verify::RaceDetectorOptions Opts) {
  ModeResult R;
  Opts.Stats = &R.Stats;
  verify::CheckReport Discover;
  std::vector<verify::ParallelRegion> Regions =
      verify::discoverRegions(*T.M, Discover);
  auto Start = std::chrono::steady_clock::now();
  verify::CheckReport Rep;
  verify::detectRaces(*T.M, Regions, Rep, nullptr, Opts);
  auto End = std::chrono::steady_clock::now();
  R.Millis =
      std::chrono::duration<double, std::milli>(End - Start).count();
  R.Races = Rep.count(verify::DiagKind::DataRace);
  return R;
}

std::string dischargedJSON(const verify::RaceRuleStats &S) {
  std::string Out = "{";
  bool First = true;
  for (const auto &[Rule, N] : S.Discharged) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\": %llu", First ? "" : ", ",
                  Rule.c_str(), (unsigned long long)N);
    Out += Buf;
    First = false;
  }
  return Out + "}";
}

std::string modeJSON(const ModeResult &R) {
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "{\"pairs\": %llu, \"andersen_fallback\": %llu, "
                "\"races\": %u, \"detector_ms\": %.3f, \"discharged\": ",
                (unsigned long long)R.Stats.PairsChecked,
                (unsigned long long)R.Stats.AndersenFallback, R.Races,
                R.Millis);
  return std::string(Buf) + dischargedJSON(R.Stats) + "}";
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;

  std::printf("Race detector: happens-before engine vs legacy "
              "single-rule detector\n\n");
  std::vector<int> W = {16, 7, 7, 9, 9, 11, 11, 9};
  benchutil::printRow({"benchmark", "xform", "pairs", "hb-fall",
                       "leg-fall", "hb-struct", "leg-struct", "ms"},
                      W);
  benchutil::printSeparator(W);

  uint64_t GroundedHBFall = 0, GroundedLegacyFall = 0;
  uint64_t StructHBFall = 0, StructLegacyFall = 0;
  unsigned GroundedDirty = 0, PairMismatch = 0, PerConfigRegressed = 0;
  verify::RaceRuleStats TotalDischarged;

  std::string JSON = "{\n  \"configurations\": [\n";
  bool FirstRow = true;

  for (const auto &B : bench::getBenchmarkSuite()) {
    for (const char *Which : {"doall", "helix", "dswp"}) {
      ConfigResult C;
      C.Transform = Which;
      {
        TransformedModule T = transformKernel(B, Which);
        C.Parallelized = T.Parallelized;
        C.GroundedHB = runGrounded(T, verify::RaceDetectorOptions{});
        C.GroundedLegacy =
            runGrounded(T, verify::RaceDetectorOptions::legacy());
        C.StructHB = runStructural(T, verify::RaceDetectorOptions{});
        C.StructLegacy =
            runStructural(T, verify::RaceDetectorOptions::legacy());
      }

      GroundedHBFall += C.GroundedHB.Stats.AndersenFallback;
      GroundedLegacyFall += C.GroundedLegacy.Stats.AndersenFallback;
      StructHBFall += C.StructHB.Stats.AndersenFallback;
      StructLegacyFall += C.StructLegacy.Stats.AndersenFallback;
      GroundedDirty += C.GroundedHB.Races + C.GroundedLegacy.Races;
      PairMismatch += C.GroundedHB.Stats.PairsChecked !=
                      C.GroundedLegacy.Stats.PairsChecked;
      PerConfigRegressed += C.GroundedHB.Stats.AndersenFallback >
                                C.GroundedLegacy.Stats.AndersenFallback ||
                            C.StructHB.Stats.AndersenFallback >
                                C.StructLegacy.Stats.AndersenFallback;
      TotalDischarged.merge(C.GroundedHB.Stats);

      char Ms[32];
      std::snprintf(Ms, sizeof(Ms), "%.2f", C.GroundedHB.Millis);
      benchutil::printRow(
          {B.Name, Which,
           std::to_string(C.GroundedHB.Stats.PairsChecked),
           std::to_string(C.GroundedHB.Stats.AndersenFallback),
           std::to_string(C.GroundedLegacy.Stats.AndersenFallback),
           std::to_string(C.StructHB.Stats.AndersenFallback),
           std::to_string(C.StructLegacy.Stats.AndersenFallback), Ms},
          W);

      char Head[256];
      std::snprintf(Head, sizeof(Head),
                    "%s    {\"kernel\": \"%s\", \"transform\": \"%s\", "
                    "\"parallelized\": %u,\n",
                    FirstRow ? "" : ",\n", B.Name.c_str(), Which,
                    C.Parallelized);
      JSON += Head;
      JSON += "     \"grounded_hb\": " + modeJSON(C.GroundedHB) + ",\n";
      JSON +=
          "     \"grounded_legacy\": " + modeJSON(C.GroundedLegacy) +
          ",\n";
      JSON += "     \"structural_hb\": " + modeJSON(C.StructHB) + ",\n";
      JSON += "     \"structural_legacy\": " + modeJSON(C.StructLegacy) +
              "}";
      FirstRow = false;
    }
  }

  benchutil::printSeparator(W);
  std::printf("\nAndersen fallback totals: grounded %llu (hb) vs %llu "
              "(legacy); structural %llu (hb) vs %llu (legacy)\n",
              (unsigned long long)GroundedHBFall,
              (unsigned long long)GroundedLegacyFall,
              (unsigned long long)StructHBFall,
              (unsigned long long)StructLegacyFall);
  std::printf("engine discharge profile (grounded):");
  for (const auto &[Rule, N] : TotalDischarged.Discharged)
    std::printf(" %s=%llu", Rule.c_str(), (unsigned long long)N);
  std::printf("\n");

  char Tail[512];
  std::snprintf(
      Tail, sizeof(Tail),
      "\n  ],\n  \"grounded_fallback_hb\": %llu,\n"
      "  \"grounded_fallback_legacy\": %llu,\n"
      "  \"structural_fallback_hb\": %llu,\n"
      "  \"structural_fallback_legacy\": %llu,\n"
      "  \"grounded_race_reports\": %u\n}\n",
      (unsigned long long)GroundedHBFall,
      (unsigned long long)GroundedLegacyFall,
      (unsigned long long)StructHBFall,
      (unsigned long long)StructLegacyFall, GroundedDirty);
  JSON += Tail;
  const std::string JsonPath = benchutil::outputPath("BENCH_races.json");
  if (FILE *F = std::fopen(JsonPath.c_str(), "w")) {
    std::fputs(JSON.c_str(), F);
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath.c_str());
  }

  if (Smoke) {
    if (GroundedDirty) {
      std::printf("SMOKE FAIL: %u race report(s) on suite kernels\n",
                  GroundedDirty);
      return 1;
    }
    if (PairMismatch) {
      std::printf("SMOKE FAIL: %u configuration(s) checked a different "
                  "pair population per mode\n",
                  PairMismatch);
      return 1;
    }
    if (PerConfigRegressed) {
      std::printf("SMOKE FAIL: %u configuration(s) where the engine "
                  "fell back more often than legacy\n",
                  PerConfigRegressed);
      return 1;
    }
    // The headline criterion: strictly fewer pairs decided by the
    // points-to fallback. The structural leg is where ordering
    // precision must show up (no PDG facts to hide behind); grounded
    // must at least not regress, and counts as strict progress too.
    bool Strict = StructHBFall < StructLegacyFall ||
                  GroundedHBFall < GroundedLegacyFall;
    if (!Strict) {
      std::printf("SMOKE FAIL: engine did not strictly reduce the "
                  "Andersen fallback (grounded %llu vs %llu, structural "
                  "%llu vs %llu)\n",
                  (unsigned long long)GroundedHBFall,
                  (unsigned long long)GroundedLegacyFall,
                  (unsigned long long)StructHBFall,
                  (unsigned long long)StructLegacyFall);
      return 1;
    }
    std::printf("SMOKE PASS\n");
  }
  return 0;
}
