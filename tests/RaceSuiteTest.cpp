//===----------------------------------------------------------------------===//
///
/// \file
/// race-suite: the full happens-before race detector over every
/// benchmark kernel under each parallelizing transform, plus the
/// planner-produced plans the noelle-parallelize driver applies. Every
/// configuration must check race-clean; bench_races' golden report pins
/// how many pairs each one leaves to the Andersen fallback. Registered
/// under the ctest label "race-suite".
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "noelle/Noelle.h"
#include "planner/Planner.h"
#include "verify/NoelleCheck.h"

#include <gtest/gtest.h>

using namespace noelle;
using nir::Context;

namespace {

class RaceSuiteTest : public ::testing::TestWithParam<std::string> {};

TEST_P(RaceSuiteTest, KernelIsRaceClean) {
  const bench::Benchmark *B = bench::findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  for (TechniqueKind K : {TechniqueKind::DOALL, TechniqueKind::HELIX,
                          TechniqueKind::DSWP}) {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, B->Source);
    verify::PreTransformSnapshot Snap = verify::captureForCheck(*M);
    Noelle N(*M);
    planner::makeTechnique(K, N, 4)->run();

    // Verifier and legality audits are covered by check-suite.
    verify::CheckOptions CO;
    CO.RunVerifier = false;
    CO.RunLegality = false;
    verify::CheckReport Rep = verify::checkModule(*M, Snap, CO);
    EXPECT_EQ(Rep.count(verify::DiagKind::DataRace), 0u)
        << B->Name << " under " << techniqueName(K) << ":\n"
        << Rep.str();
  }
}

TEST_P(RaceSuiteTest, PlannerPlanIsRaceClean) {
  // The plans the noelle-parallelize driver produces: plan with the
  // strategy planner, apply through the unified transform API, then run
  // the full-HB detector over the result.
  const bench::Benchmark *B = bench::findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);

  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B->Source);
  verify::PreTransformSnapshot Snap = verify::captureForCheck(*M);
  Noelle N(*M);
  planner::Planner P(N);
  planner::ProgramPlan Plan = P.plan();
  for (const auto &D : P.apply(Plan))
    EXPECT_TRUE(D.Parallelized)
        << B->Name << " entry in " << D.FunctionName
        << " failed to apply: " << D.Reason;

  verify::RaceRuleStats S;
  verify::CheckOptions CO;
  CO.RunVerifier = false;
  CO.RunLegality = false;
  CO.Races.Stats = &S;
  verify::CheckReport Rep = verify::checkModule(*M, Snap, CO);
  EXPECT_EQ(Rep.count(verify::DiagKind::DataRace), 0u)
      << B->Name << " (" << Plan.Entries.size() << " planned loops):\n"
      << Rep.str();
}

std::vector<std::string> allKernelNames() {
  std::vector<std::string> Names;
  for (const auto &B : bench::getBenchmarkSuite())
    Names.push_back(B.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, RaceSuiteTest, ::testing::ValuesIn(allKernelNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

} // namespace
