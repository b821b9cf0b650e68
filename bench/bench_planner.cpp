//===----------------------------------------------------------------------===//
///
/// \file
/// Planner quality harness: for every benchmark-suite kernel, compares
/// the planner's one-shot strategy (technique + worker count per loop,
/// chosen from the cost model) against the best hand-picked
/// single-technique sweep (DOALL, HELIX, or DSWP forced everywhere at
/// the default worker count — the figure-5 columns), with and without
/// speculation. The speculative planner profiles memory dependences on
/// the kernel's own input first, as `noelle-parallelize --speculate`
/// does. Times use the instruction-level performance model
/// (BenchUtils.h), the same currency the cost model estimates in;
/// speculative commits and misspeculations come from the telemetry
/// registry.
///
/// The output is deterministic (tests/golden/bench_planner.txt). Exits 1
/// unless every transformed binary computes the sequential result, every
/// plan passes the plan audit (verify::checkPlan), the static plan is
/// within 10% of the best hand pick on all but two kernels, no kernel
/// misspeculates on its profiled input, and at least one speculated
/// kernel reaches within 10% of the best hand pick.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "ir/IDs.h"
#include "noelle/MemDepProfiler.h"
#include "planner/Planner.h"
#include "runtime/ParallelRuntime.h"
#include "telemetry/Telemetry.h"
#include "verify/PlanCheck.h"
#include "xforms/ParallelizationTechnique.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace noelle;

namespace {

constexpr unsigned Cores = 4;

struct RunResult {
  uint64_t Time = 0;
  bool ResultMatches = true;
  bool PlanClean = true;
  size_t SpecEntries = 0;
  uint64_t Commits = 0;
  uint64_t Misspecs = 0;
};

int64_t runBaseline(const bench::Benchmark &B) {
  nir::Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B.Source);
  nir::ExecutionEngine E(*M);
  return E.runMain();
}

/// Runs the transformed \p M, recording the modeled time, whether it
/// computed \p Expected, and the speculation counters of the run.
void runTransformed(nir::Module &M, int64_t Expected, RunResult &Out) {
  telemetry::setMode(telemetry::Mode::Metrics);
  telemetry::resetMetrics();
  nir::ExecutionEngine E(M);
  registerParallelRuntime(E);
  Out.ResultMatches = E.runMain() == Expected;
  Out.Time = benchutil::simulatedTime(E);
  auto Snap = telemetry::snapshotMetrics();
  Out.Commits = Snap.counter(telemetry::Counter::SpecCommits);
  Out.Misspecs = Snap.counter(telemetry::Counter::SpecMisspeculations);
  telemetry::setMode(telemetry::Mode::Off);
}

/// Forced single-technique sweep — one hand-picked column.
RunResult runForced(const bench::Benchmark &B, TechniqueKind K,
                    int64_t Expected) {
  nir::Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B.Source);
  Noelle N(*M);
  createTechnique(K, N, Cores)->run();
  RunResult Out;
  runTransformed(*M, Expected, Out);
  return Out;
}

/// The planner path: plan, audit, apply, run.
RunResult runPlanner(const bench::Benchmark &B, int64_t Expected,
                     bool Speculate) {
  nir::Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B.Source);
  if (Speculate) {
    nir::assignDeterministicIDs(*M);
    profileMemDeps(*M).embed(*M);
  }
  Noelle N(*M);
  planner::PlannerOptions PO;
  PO.MaxWorkers = Cores;
  PO.EnableSpeculation = Speculate;
  planner::Planner P(N, PO);
  planner::ProgramPlan Plan = P.plan();

  RunResult Out;
  for (const auto &En : Plan.Entries)
    Out.SpecEntries += En.Kind == TechniqueKind::SpecDOALL;
  Out.PlanClean = verify::checkPlan(*M, Plan).clean();
  P.apply(Plan);
  runTransformed(*M, Expected, Out);
  return Out;
}

double ratio(uint64_t Num, uint64_t Den) {
  return Den > 0 ? static_cast<double>(Num) / static_cast<double>(Den) : 1.0;
}

} // namespace

int main() {
  std::printf("Planner vs best hand-picked technique, static and "
              "speculative (%u cores, instruction-level model)\n\n",
              Cores);
  std::vector<int> W = {14, 10, 6, 10, 7, 10, 4, 7, 7, 6};
  benchutil::printRow({"benchmark", "best-hand", "tech", "static", "ratio",
                       "spec", "spec", "commits", "misspec", "audits"},
                      W);
  benchutil::printRow({"", "", "", "plan", "", "plan", "ents", "", "", ""},
                      W);
  benchutil::printSeparator(W);

  unsigned Kernels = 0, Within10 = 0, StaticClean = 0, SpecClean = 0;
  unsigned SpeculatedKernels = 0, SpecWithin10 = 0;
  uint64_t TotalMisspecs = 0;
  bool AnyWrong = false;
  double LogSpecOverStatic = 0.0;

  for (const auto &B : bench::getBenchmarkSuite()) {
    int64_t Expected = runBaseline(B);

    RunResult BestHand;
    const char *BestName = "none";
    bool FirstHand = true;
    for (TechniqueKind K : {TechniqueKind::DOALL, TechniqueKind::HELIX,
                            TechniqueKind::DSWP}) {
      RunResult R = runForced(B, K, Expected);
      AnyWrong |= !R.ResultMatches;
      if (FirstHand || R.Time < BestHand.Time) {
        BestHand = R;
        BestName = techniqueName(K);
        FirstHand = false;
      }
    }

    RunResult Static = runPlanner(B, Expected, /*Speculate=*/false);
    RunResult Spec = runPlanner(B, Expected, /*Speculate=*/true);
    AnyWrong |= !Static.ResultMatches || !Spec.ResultMatches;

    double StaticRatio = ratio(Static.Time, BestHand.Time);
    bool Ok = StaticRatio <= 1.10;
    ++Kernels;
    Within10 += Ok;
    StaticClean += Static.PlanClean;
    SpecClean += Spec.PlanClean;
    TotalMisspecs += Spec.Misspecs;
    LogSpecOverStatic += std::log(ratio(Spec.Time, Static.Time));
    if (Spec.SpecEntries > 0) {
      ++SpeculatedKernels;
      SpecWithin10 +=
          ratio(Spec.Time, BestHand.Time) <= 1.10 && Spec.Misspecs == 0;
    }

    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.3f%s", StaticRatio, Ok ? "" : " SLOW");
    std::string Audits = std::string(Static.PlanClean ? "ok" : "BAD") + "/" +
                         (Spec.PlanClean ? "ok" : "BAD");
    benchutil::printRow(
        {B.Name, std::to_string(BestHand.Time), BestName,
         std::to_string(Static.Time), Buf, std::to_string(Spec.Time),
         std::to_string(Spec.SpecEntries), std::to_string(Spec.Commits),
         std::to_string(Spec.Misspecs), Audits},
        W);
  }

  benchutil::printSeparator(W);
  std::printf("\n%u/%u kernels within 10%% of the best hand-picked "
              "technique; %u/%u static and %u/%u speculative plans audit "
              "clean\n",
              Within10, Kernels, StaticClean, Kernels, SpecClean, Kernels);
  std::printf("%u/%u kernels speculated; %u reached within 10%% of the "
              "best hand pick with zero misspeculations; spec/static-planner "
              "time geomean %.4f; %llu total misspeculation(s)\n",
              SpeculatedKernels, Kernels, SpecWithin10,
              std::exp(LogSpecOverStatic / Kernels),
              static_cast<unsigned long long>(TotalMisspecs));

  const bool Pass = !AnyWrong && StaticClean == Kernels &&
                    SpecClean == Kernels && Within10 + 2 >= Kernels &&
                    TotalMisspecs == 0 && SpecWithin10 > 0;
  if (AnyWrong)
    std::fprintf(stderr, "a transformed binary computed a wrong result\n");
  return Pass ? 0 : 1;
}
