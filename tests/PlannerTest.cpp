//===----------------------------------------------------------------------===//
///
/// \file
/// Planner tests: plan determinism, cost-model monotonicity, plan
/// serialization and embedding round trips, plan auditing
/// (verify::checkPlan) of seeded-bad and stale plans, one-shot
/// plan→apply semantic preservation, nested planning, plan-epoch
/// invalidation of the runtime's prepared-task memo, and the numbers
/// of the shared Figure-5 performance model and its feedback pass.
///
//===----------------------------------------------------------------------===//

#include "frontend/MiniC.h"
#include "ir/IDs.h"
#include "planner/Feedback.h"
#include "planner/Planner.h"
#include "verify/CheckMetadata.h"
#include "runtime/ParallelRuntime.h"
#include "verify/NoelleCheck.h"
#include "verify/PlanCheck.h"
#include "xforms/DOALL.h"

#include <gtest/gtest.h>

using namespace noelle;
using nir::Context;
using nir::ExecutionEngine;

namespace {

/// A reduction kernel every technique can parallelize — hot enough
/// (4096 iterations) that the cost model's spawn overhead amortizes.
/// main is idempotent so an engine can run it twice.
const char *ReductionSrc = R"(
  int a[4096];
  int main() {
    for (int i = 0; i < 4096; i = i + 1) a[i] = (i * 7 + 3) % 97;
    int sum = 0;
    for (int i = 0; i < 4096; i = i + 1) sum = sum + a[i] * a[i];
    return sum;
  }
)";

/// A loop-carried recurrence DOALL must reject.
const char *RecurrenceSrc = R"(
  int main() {
    int x = 1;
    for (int i = 0; i < 128; i = i + 1) x = (x * 31 + 7) % 65537;
    return x;
  }
)";

int64_t runSequential(const char *Src) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  ExecutionEngine E(*M);
  return E.runMain();
}

planner::ProgramPlan planFor(nir::Module &M, unsigned Workers = 4) {
  Noelle N(M);
  planner::PlannerOptions PO;
  PO.MaxWorkers = Workers;
  return planner::Planner(N, PO).plan();
}

} // namespace

TEST(PlannerTest, PlanIsDeterministicAcrossRuns) {
  std::string First, Second;
  {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, ReductionSrc);
    First = planFor(*M).serialize();
  }
  {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, ReductionSrc);
    Second = planFor(*M).serialize();
  }
  EXPECT_FALSE(First.empty());
  EXPECT_EQ(First, Second) << "same source must yield a byte-identical plan";
}

TEST(PlannerTest, PlanFindsTheHotLoop) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, ReductionSrc);
  planner::ProgramPlan P = planFor(*M);
  ASSERT_FALSE(P.Entries.empty());
  EXPECT_NE(P.ModuleHash, 0u);
  for (const auto &E : P.Entries) {
    EXPECT_EQ(E.FunctionName, "main");
    EXPECT_GE(E.Workers, 1u);
    EXPECT_GT(E.SpeedupMilli, 1000) << "planned loops must model a speedup";
  }
}

TEST(PlannerTest, CostModelMonotonicPastTheKnee) {
  // Past the worker count the cost model prefers, adding workers must
  // never be estimated cheaper: spawn overhead grows linearly while the
  // divided body shrinks sublinearly, so ParallelTime is non-decreasing
  // after its argmin.
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, ReductionSrc);
  Noelle N(*M);
  DOALL Tool(N);
  LoopContent *Target = nullptr;
  Legality L;
  for (LoopContent *LC : N.getLoopContents()) {
    Legality Cur = Tool.applicable(*LC);
    if (Cur) {
      Target = LC;
      L = Cur;
      break;
    }
  }
  ASSERT_NE(Target, nullptr);

  CostQuery Q;
  Q.TripCount = 256;
  std::vector<double> Times;
  for (unsigned W = 1; W <= 32; ++W) {
    LoopPlan P;
    P.Kind = TechniqueKind::DOALL;
    P.Workers = W;
    Times.push_back(Tool.estimate(L, P, Q).ParallelTime);
  }
  size_t Knee = 0;
  for (size_t I = 1; I < Times.size(); ++I)
    if (Times[I] < Times[Knee])
      Knee = I;
  for (size_t I = Knee + 1; I < Times.size(); ++I)
    EXPECT_GE(Times[I], Times[I - 1])
        << "more workers estimated cheaper past the knee at W="
        << Knee + 1;
}

/// Two regions of one loop (header ID 42, task "main"): a HELIX-like
/// region bounded by its busiest task plus sync ops, and one bounded by
/// its serialized segment work.
std::vector<nir::DispatchRecord> syntheticRecords() {
  nir::DispatchRecord A;
  A.NumTasks = 4;
  A.MaxTaskInstructions = 1000;
  A.TotalTaskInstructions = 3000;
  A.MaxTaskSyncOps = 10;
  A.TotalSegmentInstructions = 500;
  A.TaskName = "main";
  nir::DispatchRecord B;
  B.NumTasks = 2;
  B.MaxTaskInstructions = 100;
  B.TotalTaskInstructions = 200;
  B.TotalSegmentInstructions = 900;
  B.TaskName = "main";
  return {A, B};
}

TEST(PlannerTest, PerfModelPinsSpawnAndSyncCosts) {
  std::vector<nir::DispatchRecord> R = syntheticRecords();
  // max(1000 + 10*20, 500) + 4*500 and max(100 + 0*20, 900) + 2*500.
  EXPECT_EQ(perfmodel::regionTime(R[0]), 3200u);
  EXPECT_EQ(perfmodel::regionTime(R[1]), 1900u);
  // retired - task work + the regions: 10000 - 3200 + 5100.
  EXPECT_EQ(perfmodel::runTime(10000, R), 11900u);
  EXPECT_EQ(perfmodel::runTime(10000, {}), 10000u);
}

TEST(PlannerTest, FeedbackWritesSeqOverPar) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, ReductionSrc);
  M->getFunction("main")->setMetadata(verify::TaskOriginKey, "42");
  planner::ProgramPlan Plan;
  planner::PlanEntry Hit;
  Hit.HeaderInstID = 42;
  Hit.SpeedupMilli = 2000;
  planner::PlanEntry Miss;
  Miss.HeaderInstID = 7;
  Plan.Entries = {Hit, Miss};
  planner::FeedbackResult Res =
      planner::applyMeasuredSpeedups(Plan, *M, syntheticRecords());
  // Seq = 3000 + 200 task instructions, Par = 3200 + 1900 modeled.
  EXPECT_EQ(Plan.Entries[0].MeasuredMilli, 3200 * 1000 / 5100);
  EXPECT_EQ(Plan.Entries[1].MeasuredMilli, 0);
  EXPECT_EQ(Res.EntriesMeasured, 1u);
  EXPECT_EQ(Res.Shortfalls, 1u) << "0.627x measured against 2x modeled";
}

TEST(PlannerTest, SerializeRoundTripIsByteIdentical) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, ReductionSrc);
  planner::ProgramPlan P = planFor(*M);
  std::string Text = P.serialize();

  planner::ProgramPlan Q;
  std::string Err;
  ASSERT_TRUE(planner::ProgramPlan::deserialize(Text, Q, Err)) << Err;
  EXPECT_EQ(P, Q);
  EXPECT_EQ(Text, Q.serialize());
}

TEST(PlannerTest, CheckPlanRejectsDOALLOnLoopCarriedDependence) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, RecurrenceSrc);
  // The planner itself refuses this loop, so seed the bad entry by
  // hand: claim DOALL on the recurrence loop's header.
  nir::assignDeterministicIDs(*M);
  Noelle N(*M);
  planner::ProgramPlan Bad;
  Bad.ModuleHash = M->getContentHash();
  bool Seeded = false;
  for (LoopContent *LC : N.getLoopContents()) {
    const nir::LoopStructure &LS = LC->getLoopStructure();
    const auto &Insts = LS.getHeader()->getInstList();
    ASSERT_FALSE(Insts.empty());
    planner::PlanEntry E;
    E.FunctionName = LS.getFunction()->getName();
    E.HeaderInstID =
        std::stoull(Insts.front()->getMetadata(nir::InstIDKey));
    E.Kind = TechniqueKind::DOALL;
    E.Workers = 4;
    Bad.Entries.push_back(E);
    Seeded = true;
    break;
  }
  ASSERT_TRUE(Seeded);

  verify::CheckReport Rep = verify::checkPlan(*M, Bad);
  EXPECT_FALSE(Rep.clean());
  EXPECT_GE(Rep.count(verify::DiagKind::PlanIllegal), 1u) << Rep.str();
}

TEST(PlannerTest, CheckPlanRejectsStaleHash) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, ReductionSrc);
  planner::ProgramPlan P = planFor(*M);
  ASSERT_FALSE(P.Entries.empty());
  P.ModuleHash ^= 0xdeadbeef; // plan now claims a different module

  verify::CheckReport Rep = verify::checkPlan(*M, P);
  EXPECT_GE(Rep.count(verify::DiagKind::PlanHashMismatch), 1u)
      << Rep.str();

  // apply() must refuse the stale plan rather than transform blindly.
  Noelle N(*M);
  planner::Planner Planner(N);
  for (const auto &D : Planner.apply(P)) {
    EXPECT_FALSE(D.Parallelized);
    EXPECT_FALSE(D.Reason.empty());
  }
}

TEST(PlannerTest, PlanApplyPreservesSemantics) {
  int64_t Expected = runSequential(ReductionSrc);

  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, ReductionSrc);
  verify::PreTransformSnapshot Snap = verify::captureForCheck(*M);
  Noelle N(*M);
  planner::Planner P(N);
  planner::ProgramPlan Plan = P.plan();
  ASSERT_FALSE(Plan.Entries.empty());
  EXPECT_TRUE(verify::checkPlan(*M, Plan).clean());

  unsigned Applied = 0;
  for (const auto &D : P.apply(Plan))
    Applied += D.Parallelized;
  EXPECT_EQ(Applied, Plan.Entries.size());

  verify::CheckReport Rep = verify::checkModule(*M, Snap);
  EXPECT_TRUE(Rep.clean()) << Rep.str();

  ExecutionEngine E(*M);
  registerParallelRuntime(E);
  EXPECT_EQ(E.runMain(), Expected);
}

TEST(PlannerTest, NestedPlanStaysCorrect) {
  // An outer pipeline-shaped loop (two chained recurrences) carrying an
  // inner DOALL-able loop. Whether the cost model picks the nested
  // (DSWP + inner DOALL) shape depends on the measured overheads, but
  // whatever it picks must audit clean and preserve the result.
  const char *Src = R"(
    int a[64];
    int main() {
      for (int i = 0; i < 64; i = i + 1) a[i] = i % 13;
      int x = 1;
      int y = 0;
      for (int i = 0; i < 64; i = i + 1) {
        int s = 0;
        for (int j = 0; j < 64; j = j + 1) s = s + a[j] * (j + i);
        x = (x * 13 + s) % 65537;
        y = (y + x * 3) % 39916801;
      }
      return y;
    }
  )";
  int64_t Expected = runSequential(Src);

  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Noelle N(*M);
  planner::PlannerOptions PO;
  PO.EnableNested = true;
  planner::Planner P(N, PO);
  planner::ProgramPlan Plan = P.plan();
  EXPECT_TRUE(verify::checkPlan(*M, Plan).clean());

  for (const auto &D : P.apply(Plan))
    EXPECT_TRUE(D.Parallelized) << D.Reason;
  for (const auto &E : Plan.Entries) {
    if (E.Parent >= 0) {
      EXPECT_EQ(Plan.Entries[E.Parent].Kind, TechniqueKind::DSWP);
    }
  }

  ExecutionEngine E(*M);
  registerParallelRuntime(E);
  EXPECT_EQ(E.runMain(), Expected);
}

TEST(PlannerTest, EngineRerunsAppliedPlan) {
  // A second runMain on the same engine dispatches the same task
  // functions again; both runs must return the sequential result.
  int64_t Expected = runSequential(ReductionSrc);

  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, ReductionSrc);
  Noelle N(*M);
  planner::Planner P(N);
  unsigned Applied = 0;
  for (const auto &D : P.planAndApply())
    Applied += D.Parallelized;
  ASSERT_GE(Applied, 1u);

  ExecutionEngine E(*M);
  registerParallelRuntime(E);
  EXPECT_EQ(E.runMain(), Expected);
  EXPECT_EQ(E.runMain(), Expected);
}

TEST(PlannerTest, FacadeOwnsAPlanner) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, ReductionSrc);
  Noelle N(*M);
  planner::Planner &P1 = N.getPlanner();
  planner::Planner &P2 = N.getPlanner();
  EXPECT_EQ(&P1, &P2) << "facade must memoize its planner";
  EXPECT_FALSE(P1.plan().Entries.empty());
}
