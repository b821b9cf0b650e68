//===----------------------------------------------------------------------===//
///
/// \file
/// Planner quality harness: for every benchmark-suite kernel, compares
/// the planner's one-shot strategy (technique + worker count per loop,
/// chosen from the cost model) against the best hand-picked
/// single-technique sweep (DOALL, HELIX, or DSWP forced everywhere at
/// the default worker count — the figure-5 columns). Times use the
/// instruction-level performance model (BenchUtils.h), the same
/// currency the cost model estimates in.
///
/// Writes BENCH_planner.json. With --smoke, asserts the planner's plan
/// is within 10% of the best hand-picked time on at least 18 of the
/// kernels, that every emitted plan passes the plan audit
/// (verify::checkPlan), and that every transformed binary still
/// computes the sequential result.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "planner/Planner.h"
#include "runtime/ParallelRuntime.h"
#include "verify/PlanCheck.h"
#include "xforms/ParallelizationTechnique.h"

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

/// Sequential reference: result + instruction count.
std::pair<int64_t, uint64_t> runBaseline(const bench::Benchmark &B) {
  nir::Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B.Source);
  nir::ExecutionEngine E(*M);
  int64_t R = E.runMain();
  return {R, E.getInstructionsExecuted()};
}

/// Forced single-technique sweep at the default worker count — the
/// hand-picked column.
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

/// The planner path: plan, audit, apply, run.
RunResult runPlanner(const bench::Benchmark &B, int64_t Expected,
                     bool &PlanClean, size_t &PlanEntries) {
  nir::Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B.Source);
  Noelle N(*M);
  planner::PlannerOptions PO;
  PO.MaxWorkers = Cores;
  planner::Planner P(N, PO);
  planner::ProgramPlan Plan = P.plan();
  PlanEntries = Plan.Entries.size();
  PlanClean = verify::checkPlan(*M, Plan).clean();
  RunResult Out;
  for (const auto &D : P.apply(Plan))
    Out.Parallelized += D.Parallelized;
  nir::ExecutionEngine E(*M);
  registerParallelRuntime(E);
  Out.ResultMatches = E.runMain() == Expected;
  Out.Time = benchutil::simulatedTime(E);
  return Out;
}

} // namespace

int main(int Argc, char **Argv) {
  bool Smoke = false;
  for (int I = 1; I < Argc; ++I)
    if (std::strcmp(Argv[I], "--smoke") == 0)
      Smoke = true;

  std::printf("Planner vs best hand-picked technique "
              "(%u cores, instruction-level model)\n\n",
              Cores);
  std::vector<int> W = {16, 12, 12, 10, 10, 8};
  benchutil::printRow({"benchmark", "planner", "best-hand", "hand-tech",
                       "ratio", "audit"},
                      W);
  benchutil::printSeparator(W);

  unsigned Kernels = 0, Within10 = 0, AuditClean = 0;
  bool AnyWrong = false;
  std::string JSON = "{\n  \"kernels\": [\n";
  bool FirstRow = true;

  for (const auto &B : bench::getBenchmarkSuite()) {
    auto [Expected, BaselineInstrs] = runBaseline(B);
    (void)BaselineInstrs;

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

    bool PlanClean = false;
    size_t PlanEntries = 0;
    RunResult Plan = runPlanner(B, Expected, PlanClean, PlanEntries);
    AnyWrong |= !Plan.ResultMatches;

    double Ratio = BestHand.Time > 0
                       ? static_cast<double>(Plan.Time) /
                             static_cast<double>(BestHand.Time)
                       : 1.0;
    bool Ok = Ratio <= 1.10;
    ++Kernels;
    Within10 += Ok;
    AuditClean += PlanClean;

    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.3f%s", Ratio, Ok ? "" : " SLOW");
    benchutil::printRow({B.Name, std::to_string(Plan.Time),
                         std::to_string(BestHand.Time), BestName, Buf,
                         PlanClean ? "clean" : "DIRTY"},
                        W);

    char Row[512];
    std::snprintf(Row, sizeof(Row),
                  "%s    {\"kernel\": \"%s\", \"planner_time\": %llu, "
                  "\"best_hand_time\": %llu, \"best_hand_technique\": "
                  "\"%s\", \"ratio\": %.4f, \"plan_entries\": %zu, "
                  "\"plan_audit_clean\": %s, \"within_10pct\": %s}",
                  FirstRow ? "" : ",\n", B.Name.c_str(),
                  (unsigned long long)Plan.Time,
                  (unsigned long long)BestHand.Time, BestName, Ratio,
                  PlanEntries, PlanClean ? "true" : "false",
                  Ok ? "true" : "false");
    JSON += Row;
    FirstRow = false;
  }

  benchutil::printSeparator(W);
  std::printf("\n%u/%u kernels within 10%% of the best hand-picked "
              "technique; %u/%u plans audit clean\n",
              Within10, Kernels, AuditClean, Kernels);

  char Tail[160];
  std::snprintf(Tail, sizeof(Tail),
                "\n  ],\n  \"within_10pct\": %u,\n  \"kernel_count\": %u,\n"
                "  \"plans_audit_clean\": %u\n}\n",
                Within10, Kernels, AuditClean);
  JSON += Tail;
  const std::string JsonPath = benchutil::outputPath("BENCH_planner.json");
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
      std::printf("SMOKE FAIL: %u plan(s) failed the audit\n",
                  Kernels - AuditClean);
      return 1;
    }
    if (Within10 + 2 < Kernels) {
      std::printf("SMOKE FAIL: planner within 10%% on only %u/%u "
                  "kernels (need all but 2)\n",
                  Within10, Kernels);
      return 1;
    }
    std::printf("SMOKE PASS\n");
  }
  return 0;
}
