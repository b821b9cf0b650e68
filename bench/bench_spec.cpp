//===----------------------------------------------------------------------===//
///
/// \file
/// Speculation payoff harness: for every benchmark-suite kernel,
/// compares the planner with speculation enabled (memory-dependence
/// profile collected and embedded, speculative DOALL in the
/// enumeration) against both the static-only planner and the best
/// hand-picked single-technique sweep. Times use the instruction-level
/// performance model (BenchUtils.h); misspeculation and commit counts
/// come from the telemetry registry, so the harness also certifies that
/// profiled inputs never roll back.
///
/// Writes BENCH_spec.json. With --smoke, asserts every transformed
/// binary still computes the sequential result, every speculative plan
/// passes the plan audit, no kernel misspeculates on its profiled
/// input, and at least one kernel whose hot loop stays sequential under
/// every static technique (x264's motion-estimation shape) reaches
/// within 10% of — or beats — the best static hand pick via
/// speculation.
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
#include <cstring>
#include <string>
#include <vector>

using namespace noelle;

namespace {

constexpr unsigned Cores = 4;

struct RunResult {
  uint64_t Time = 0;
  bool ResultMatches = true;
  unsigned Parallelized = 0;
};

int64_t runBaseline(const bench::Benchmark &B) {
  nir::Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B.Source);
  nir::ExecutionEngine E(*M);
  return E.runMain();
}

/// Forced single-technique sweep — one hand-picked column.
RunResult runForced(const bench::Benchmark &B, TechniqueKind K,
                    int64_t Expected) {
  nir::Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B.Source);
  Noelle N(*M);
  auto T = createTechnique(K, N, Cores);
  RunResult Out;
  for (const auto &D : T->run())
    Out.Parallelized += D.Parallelized;
  nir::ExecutionEngine E(*M);
  registerParallelRuntime(E);
  Out.ResultMatches = E.runMain() == Expected;
  Out.Time = benchutil::simulatedTime(E);
  return Out;
}

struct SpecStats {
  size_t SpecEntries = 0;
  uint64_t Commits = 0;
  uint64_t Misspecs = 0;
  bool PlanClean = true;
};

/// The planner path, with or without speculation. When speculating, the
/// memory-dependence profile is collected on the kernel's own input and
/// embedded first — the same protocol `noelle-parallelize --speculate`
/// follows.
RunResult runPlanner(const bench::Benchmark &B, int64_t Expected,
                     bool Speculate, SpecStats *Stats) {
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
  if (Stats) {
    for (const auto &En : Plan.Entries)
      Stats->SpecEntries += En.Kind == TechniqueKind::SpecDOALL;
    Stats->PlanClean = verify::checkPlan(*M, Plan).clean();
  }
  for (const auto &D : P.apply(Plan))
    Out.Parallelized += D.Parallelized;

  telemetry::setMode(telemetry::Mode::Metrics);
  telemetry::resetMetrics();
  nir::ExecutionEngine E(*M);
  registerParallelRuntime(E);
  Out.ResultMatches = E.runMain() == Expected;
  Out.Time = benchutil::simulatedTime(E);
  if (Stats) {
    auto Snap = telemetry::snapshotMetrics();
    Stats->Commits = Snap.counter(telemetry::Counter::SpecCommits);
    Stats->Misspecs =
        Snap.counter(telemetry::Counter::SpecMisspeculations);
  }
  telemetry::setMode(telemetry::Mode::Off);
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;

  std::printf("Speculative vs static planning "
              "(%u cores, instruction-level model)\n\n",
              Cores);
  std::vector<int> W = {16, 12, 12, 12, 6, 8, 8, 8};
  benchutil::printRow({"benchmark", "spec-plan", "static-plan",
                       "best-hand", "spec", "misspec", "ratio", "audit"},
                      W);
  benchutil::printSeparator(W);

  unsigned Kernels = 0, AuditClean = 0, SpeculatedKernels = 0;
  unsigned SpecWithin10 = 0;
  uint64_t TotalMisspecs = 0;
  bool AnyWrong = false;
  double LogRatioSum = 0.0; // spec-planner vs static-planner geomean
  std::string JSON = "{\n  \"kernels\": [\n";
  bool FirstRow = true;

  for (const auto &B : bench::getBenchmarkSuite()) {
    int64_t Expected = runBaseline(B);

    RunResult BestHand;
    bool FirstHand = true;
    for (TechniqueKind K : {TechniqueKind::DOALL, TechniqueKind::HELIX,
                            TechniqueKind::DSWP}) {
      RunResult R = runForced(B, K, Expected);
      AnyWrong |= !R.ResultMatches;
      if (FirstHand || R.Time < BestHand.Time) {
        BestHand = R;
        FirstHand = false;
      }
    }

    RunResult Static = runPlanner(B, Expected, false, nullptr);
    SpecStats Stats;
    RunResult Spec = runPlanner(B, Expected, true, &Stats);
    AnyWrong |= !Static.ResultMatches || !Spec.ResultMatches;

    double RatioHand =
        BestHand.Time > 0 ? static_cast<double>(Spec.Time) /
                                static_cast<double>(BestHand.Time)
                          : 1.0;
    double RatioStatic =
        Static.Time > 0 ? static_cast<double>(Spec.Time) /
                              static_cast<double>(Static.Time)
                        : 1.0;
    LogRatioSum += std::log(RatioStatic > 0 ? RatioStatic : 1.0);

    ++Kernels;
    AuditClean += Stats.PlanClean;
    TotalMisspecs += Stats.Misspecs;
    if (Stats.SpecEntries > 0) {
      ++SpeculatedKernels;
      SpecWithin10 += RatioHand <= 1.10 && Stats.Misspecs == 0;
    }

    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.3f", RatioHand);
    benchutil::printRow(
        {B.Name, std::to_string(Spec.Time), std::to_string(Static.Time),
         std::to_string(BestHand.Time), std::to_string(Stats.SpecEntries),
         std::to_string(Stats.Misspecs), Buf,
         Stats.PlanClean ? "clean" : "DIRTY"},
        W);

    char Row[512];
    std::snprintf(
        Row, sizeof(Row),
        "%s    {\"kernel\": \"%s\", \"spec_plan_time\": %llu, "
        "\"static_plan_time\": %llu, \"best_hand_time\": %llu, "
        "\"spec_entries\": %zu, \"commits\": %llu, "
        "\"misspeculations\": %llu, \"ratio_vs_best_hand\": %.4f, "
        "\"ratio_vs_static_plan\": %.4f, \"plan_audit_clean\": %s}",
        FirstRow ? "" : ",\n", B.Name.c_str(),
        (unsigned long long)Spec.Time, (unsigned long long)Static.Time,
        (unsigned long long)BestHand.Time, Stats.SpecEntries,
        (unsigned long long)Stats.Commits,
        (unsigned long long)Stats.Misspecs, RatioHand, RatioStatic,
        Stats.PlanClean ? "true" : "false");
    JSON += Row;
    FirstRow = false;
  }

  double Geomean =
      Kernels > 0 ? std::exp(LogRatioSum / static_cast<double>(Kernels))
                  : 1.0;
  benchutil::printSeparator(W);
  std::printf("\n%u/%u kernels speculated; %u reached within 10%% of the "
              "best static hand pick with zero misspeculations; "
              "spec/static-planner time geomean %.4f; "
              "%llu total misspeculation(s); %u/%u plans audit clean\n",
              SpeculatedKernels, Kernels, SpecWithin10, Geomean,
              (unsigned long long)TotalMisspecs, AuditClean, Kernels);

  char Tail[256];
  std::snprintf(Tail, sizeof(Tail),
                "\n  ],\n  \"kernel_count\": %u,\n"
                "  \"speculated_kernels\": %u,\n"
                "  \"spec_within_10pct_of_best_hand\": %u,\n"
                "  \"spec_vs_static_geomean\": %.4f,\n"
                "  \"total_misspeculations\": %llu,\n"
                "  \"plans_audit_clean\": %u\n}\n",
                Kernels, SpeculatedKernels, SpecWithin10, Geomean,
                (unsigned long long)TotalMisspecs, AuditClean);
  JSON += Tail;
  const std::string JsonPath = benchutil::outputPath("BENCH_spec.json");
  if (FILE *F = std::fopen(JsonPath.c_str(), "w")) {
    std::fputs(JSON.c_str(), F);
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath.c_str());
  }

  if (Smoke) {
    if (AnyWrong) {
      std::printf("SMOKE FAIL: a transformed binary computed a wrong "
                  "result\n");
      return 1;
    }
    if (AuditClean != Kernels) {
      std::printf("SMOKE FAIL: %u speculative plan(s) failed the audit\n",
                  Kernels - AuditClean);
      return 1;
    }
    if (TotalMisspecs != 0) {
      std::printf("SMOKE FAIL: %llu misspeculation(s) on profiled "
                  "inputs\n",
                  (unsigned long long)TotalMisspecs);
      return 1;
    }
    if (SpecWithin10 == 0) {
      std::printf("SMOKE FAIL: no speculated kernel reached the best "
                  "static hand pick\n");
      return 1;
    }
    std::printf("SMOKE PASS\n");
  }
  return 0;
}
