//===----------------------------------------------------------------------===//
///
/// \file
/// planner-suite: the full one-shot pipeline — plan, audit the plan
/// (noelle-check --plan semantics), apply, audit the transformed module,
/// execute — over every benchmark kernel. A clean suite means the
/// planner only ever emits plans the verifier accepts and the applied
/// plans preserve every kernel's sequential result. Registered under the
/// ctest label "planner-suite".
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "interp/Interpreter.h"
#include "tools/Pipeline.h"

#include <gtest/gtest.h>

#include <cstdio>

using namespace noelle;
using nir::Context;
using nir::ExecutionEngine;

namespace {

class PlannerSuiteTest : public ::testing::TestWithParam<std::string> {};

TEST_P(PlannerSuiteTest, PlanApplyCheckExecute) {
  const bench::Benchmark *B = bench::findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);

  int64_t Expected;
  {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, B->Source);
    ExecutionEngine E(*M);
    Expected = E.runMain();
  }

  // The tools' driver: plan, audit the plan before touching the module,
  // apply, audit the transformed module, execute, feed back.
  tools::PipelineConfig C;
  C.Run = true;
  const tools::PipelineResult R = tools::runPipeline(B->Name, C);
  ASSERT_TRUE(R.InputError.empty()) << R.InputError;
  const planner::ProgramPlan &Plan = R.Plan;
  EXPECT_TRUE(R.PlanReport.clean())
      << B->Name << " plan audit:\n" << R.PlanReport.str();

  // Every planned entry must actually apply — the plan is a promise.
  for (const auto &D : R.Decisions)
    EXPECT_TRUE(D.Parallelized)
        << B->Name << " entry in " << D.FunctionName
        << " failed to apply: " << D.Reason;

  // The transformed module must pass the post-transform audit.
  EXPECT_TRUE(R.ModuleReport.clean()) << B->Name << " ("
                                      << Plan.Entries.size()
                                      << " planned loops):\n"
                                      << R.ModuleReport.str();

  // And still compute the sequential result.
  ASSERT_TRUE(R.Ran) << B->Name;
  EXPECT_EQ(R.Main, Expected) << B->Name;

  // Feedback: measured speedups from the run's DispatchRecords flow
  // back into the plan. Every top-level entry that dispatched must be
  // measurable (the record→origin→entry join holds), and a measured
  // plan must still round-trip through the wire format.
  if (!Plan.Entries.empty()) {
    EXPECT_GT(R.Feedback.EntriesMeasured, 0u)
        << B->Name << ": no dispatch record mapped back to a plan entry";
  }
  // Shortfalls (measured < 0.8x of the estimate) are a warning metric,
  // not a failure: the estimate comes from static weights, the
  // measurement from real records, and honest disagreement is exactly
  // what the planner.feedback.speedup_shortfall counter exists to
  // surface.
  for (const auto &En : Plan.Entries)
    if (En.MeasuredMilli != 0 &&
        static_cast<double>(En.MeasuredMilli) <
            0.8 * static_cast<double>(En.SpeedupMilli))
      std::fprintf(stderr,
                   "[planner-feedback] %s %s: measured %lldm < 0.8x "
                   "planned %lldm\n",
                   B->Name.c_str(), En.FunctionName.c_str(),
                   static_cast<long long>(En.MeasuredMilli),
                   static_cast<long long>(En.SpeedupMilli));
  planner::ProgramPlan RT;
  std::string Err;
  ASSERT_TRUE(planner::ProgramPlan::deserialize(Plan.serialize(), RT, Err))
      << Err;
  EXPECT_TRUE(RT == Plan) << B->Name << ": measured plan round-trip";
}

std::vector<std::string> allKernelNames() {
  std::vector<std::string> Names;
  for (const auto &B : bench::getBenchmarkSuite())
    Names.push_back(B.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(
    AllKernels, PlannerSuiteTest, ::testing::ValuesIn(allKernelNames()),
    [](const ::testing::TestParamInfo<std::string> &Info) {
      std::string Name = Info.param;
      for (char &C : Name)
        if (!std::isalnum(static_cast<unsigned char>(C)))
          C = '_';
      return Name;
    });

} // namespace
