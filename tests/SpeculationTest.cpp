//===----------------------------------------------------------------------===//
///
/// \file
/// spec-suite: the profile-guided speculative DOALL pipeline end to end.
/// Covers the memory-dependence profiler (manifested-dependence
/// recording, iteration-boundary precision, wire round-trip, content-hash
/// binding), the SpecDOALL transform with the write-log/commit runtime
/// (commit path and seeded-misspeculation rollback), the planner's
/// speculative enumeration over a real suite kernel, and the
/// `noelle-check --speculative` audits — including that each audit
/// catches a deliberately seeded violation. Registered under the ctest
/// label "spec-suite".
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "ir/IDs.h"
#include "ir/IRBuilder.h"
#include "noelle/MemDepProfiler.h"
#include "noelle/Noelle.h"
#include "planner/Planner.h"
#include "runtime/ParallelRuntime.h"
#include "telemetry/Telemetry.h"
#include "verify/CheckMetadata.h"
#include "verify/NoelleCheck.h"
#include "verify/PlanCheck.h"
#include "xforms/SpecDOALL.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

using namespace noelle;
using nir::Context;
using nir::ExecutionEngine;

namespace {

/// Header IDs (first instruction of each loop header) of every natural
/// loop in \p M, sorted ascending — deterministic IDs follow program
/// order, so source order is recoverable from the sort.
std::vector<uint64_t> sortedLoopHeaderIDs(nir::Module &M) {
  std::vector<uint64_t> IDs;
  Noelle N(M);
  for (LoopContent *LC : N.getLoopContents())
    if (auto ID = LC->getLoopStructure().getHeaderID())
      IDs.push_back(*ID);
  std::sort(IDs.begin(), IDs.end());
  return IDs;
}

// ---------------------------------------------------------------------------
// Memory-dependence profiler.
// ---------------------------------------------------------------------------

/// Three loops: a disjoint store map (no carried dependence), a true
/// recurrence (carried RAW through a[]), and an intra-iteration
/// read-modify-write of c[] that also consumes loop 1's output b[].
/// Only the middle loop may appear in the manifested-dependence set:
/// loop 3's load of b[i] hits bytes last written *before* its invocation
/// began, and its c[i] accesses pair up within one iteration — both were
/// phantom "carried" dependences under the old off-by-one iteration
/// window, which this test pins down.
const char *ProfilerSrc = R"(
  int a[64];
  int b[64];
  int c[64];
  int main() {
    for (int i = 0; i < 64; i = i + 1) b[i] = i * 2;
    for (int i = 1; i < 64; i = i + 1) a[i] = a[i-1] + 1;
    for (int i = 0; i < 64; i = i + 1) c[i] = c[i] + b[i];
    return a[63] + c[63];
  }
)";

TEST(MemDepProfilerTest, RecordsOnlyTrueCarriedDependences) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, ProfilerSrc);
  nir::assignDeterministicIDs(*M);

  MemDepProfile P = profileMemDeps(*M);
  std::vector<uint64_t> Headers = sortedLoopHeaderIDs(*M);
  ASSERT_EQ(Headers.size(), 3u);

  for (uint64_t H : Headers) {
    EXPECT_TRUE(P.coversLoop(H)) << "loop " << H << " not observed";
    EXPECT_EQ(P.loopInvocations(H), 1u);
    EXPECT_GT(P.loopIterations(H), 0u);
  }

  // Every manifested dependence belongs to the recurrence loop (source
  // order: the middle header), and all of them are RAW.
  ASSERT_FALSE(P.deps().empty()) << "recurrence loop recorded no deps";
  for (const ManifestedDep &D : P.deps()) {
    EXPECT_EQ(D.HeaderID, Headers[1])
        << "phantom carried dependence on loop " << D.HeaderID;
    EXPECT_EQ(D.K, ManifestedDep::RAW);
  }
  EXPECT_TRUE(P.manifested(Headers[1], P.deps().begin()->SrcID,
                           P.deps().begin()->DstID));
}

TEST(MemDepProfilerTest, SerializationRoundTripsByteIdentically) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, ProfilerSrc);
  nir::assignDeterministicIDs(*M);
  MemDepProfile P = profileMemDeps(*M);

  std::string Text = P.serialize();
  MemDepProfile Q;
  std::string Err;
  ASSERT_TRUE(MemDepProfile::deserialize(Text, Q, Err)) << Err;
  EXPECT_EQ(Q.serialize(), Text);
  EXPECT_EQ(Q.deps().size(), P.deps().size());
}

/// profileMemDeps embeds the block profile of its own run: on every
/// suite kernel it equals a separate Profiler run, and planning after it
/// observes @main no second time.
TEST(MemDepProfilerTest, OneRunEmbedsTheBlockProfile) {
  telemetry::setMode(telemetry::Mode::Metrics);
  auto ObservedRuns = [] {
    return telemetry::snapshotMetrics().counter(
        telemetry::Counter::TierObserved);
  };
  for (const bench::Benchmark &B : bench::getBenchmarkSuite()) {
    SCOPED_TRACE(B.Name);
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, B.Source);
    const uint64_t Before = ObservedRuns();
    profileMemDeps(*M).embed(*M);
    Noelle N(*M);
    planner::PlannerOptions PO;
    PO.EnableSpeculation = true;
    planner::Planner(N, PO).plan();
    EXPECT_EQ(ObservedRuns() - Before, 1u);

    const auto Embedded = ProfileData::loadEmbedded(*M);
    ASSERT_NE(Embedded, nullptr);
    const ProfileData Fresh = Profiler::profileModule(*M);
    EXPECT_EQ(Embedded->getTotalInstructions(),
              Fresh.getTotalInstructions());
    for (const auto &F : M->getFunctions()) {
      EXPECT_EQ(Embedded->getFunctionInvocations(F.get()),
                Fresh.getFunctionInvocations(F.get()))
          << F->getName();
      for (const auto &BB : F->getBlocks()) {
        EXPECT_EQ(Embedded->getBlockCount(BB.get()),
                  Fresh.getBlockCount(BB.get()));
        const auto *Br =
            nir::dyn_cast_or_null<nir::BranchInst>(BB->getTerminator());
        if (!Br || !Br->isConditional())
          continue;
        for (unsigned S = 0; S < 2; ++S) {
          EXPECT_EQ(Embedded->getBranchTakenCount(Br, S),
                    Fresh.getBranchTakenCount(Br, S));
        }
      }
    }
  }
  telemetry::setMode(telemetry::Mode::Off);
}

// ---------------------------------------------------------------------------
// SpecDOALL end to end: commit path and seeded misspeculation.
// ---------------------------------------------------------------------------

/// The seeded kernel. With mode == 0 (the profiled configuration) every
/// inner iteration touches its own data[idx]; the loop-carried PDG edges
/// on data[] never manifest, so the loop speculates. Flipping mode to 1
/// *after* the transform funnels every iteration through data[0] — the
/// profiled-absent dependence manifests, the write-log validation must
/// detect the conflict, and the dispatch must roll back to the
/// sequential clone with a byte-identical result.
const char *SeededSrc = R"(
  int mode;
  int data[2048];
  int main() {
    int total = 0;
    for (int r = 0; r < 8; r = r + 1) {
      for (int i = 0; i < 2048; i = i + 1) {
        int idx = i;
        if (mode > 0) idx = 0;
        data[idx] = data[idx] + i + r;
      }
      total = total + data[r];
    }
    print_i64(total);
    return total % 100007;
  }
)";

/// The seeded kernel over `int data[2048]`, then the same kernel over
/// `char data[2048]`. Iterations distribute cyclically, so in the second
/// neighbouring tasks write different bytes of one 8-byte word: it must
/// commit and roll back exactly like the first, which pins the journal's
/// byte granularity.
std::vector<std::string> seededSources() {
  std::string Bytes = SeededSrc;
  Bytes.replace(Bytes.find("int data["), 3, "char");
  return {SeededSrc, Bytes};
}

struct SeqResult {
  int64_t Ret = 0;
  std::string Out;
};

/// Sequential ground truth for the seeded kernel at a given mode value.
SeqResult runSeededSequential(int64_t Mode, const std::string &Src) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  M->getGlobal("mode")->setInitWords({Mode});
  ExecutionEngine E(*M);
  SeqResult R;
  R.Ret = E.runMain();
  R.Out = E.getOutput();
  return R;
}

struct SpecModule {
  std::unique_ptr<nir::Module> M;
  verify::PreTransformSnapshot Snap;
  unsigned SpecLoops = 0;
};

/// Profile (mode = 0), snapshot, and force-transform the seeded kernel
/// with SpecDOALL. The caller owns mode's initializer from here on.
SpecModule buildSeededSpec(Context &Ctx,
                           const std::string &Src = SeededSrc) {
  SpecModule R;
  R.M = minic::compileMiniCOrDie(Ctx, Src);
  profileMemDeps(*R.M).embed(*R.M);
  R.Snap = verify::captureForCheck(*R.M);
  Noelle N(*R.M);
  SpecDOALL Tool(N);
  for (const auto &D : Tool.run())
    if (D.Parallelized && D.Kind == TechniqueKind::SpecDOALL)
      ++R.SpecLoops;
  return R;
}

struct SpecRun {
  int64_t Ret = 0;
  std::string Out;
  uint64_t Commits = 0;
  uint64_t Misspecs = 0;
};

SpecRun runWithTelemetry(nir::Module &M) {
  telemetry::setMode(telemetry::Mode::Metrics);
  telemetry::resetMetrics();
  ExecutionEngine E(M);
  registerParallelRuntime(E);
  SpecRun R;
  R.Ret = E.runMain();
  R.Out = E.getOutput();
  auto Snap = telemetry::snapshotMetrics();
  R.Commits = Snap.counter(telemetry::Counter::SpecCommits);
  R.Misspecs = Snap.counter(telemetry::Counter::SpecMisspeculations);
  telemetry::setMode(telemetry::Mode::Off);
  return R;
}

TEST(SpeculationTest, CommitsAndMatchesSequentialWhenProfileHolds) {
  for (const std::string &Src : seededSources()) {
    SCOPED_TRACE(Src);
    SeqResult Seq = runSeededSequential(0, Src);

    Context Ctx;
    SpecModule S = buildSeededSpec(Ctx, Src);
    ASSERT_GE(S.SpecLoops, 1u) << "seeded kernel did not speculate";

    // The transformed module passes the full audit, speculation machinery
    // included.
    verify::CheckOptions CO;
    CO.Speculative = true;
    verify::CheckReport Rep = verify::checkModule(*S.M, S.Snap, CO);
    EXPECT_TRUE(Rep.clean()) << Rep.str();

    SpecRun R = runWithTelemetry(*S.M);
    EXPECT_EQ(R.Ret, Seq.Ret);
    EXPECT_EQ(R.Out, Seq.Out);
    EXPECT_GT(R.Commits, 0u);
    EXPECT_EQ(R.Misspecs, 0u)
        << "profiled-clean input must not misspeculate";
  }
}

TEST(SpeculationTest, SeededMisspeculationDetectsAndRollsBack) {
  for (const std::string &Src : seededSources()) {
    SCOPED_TRACE(Src);
    SeqResult Seq = runSeededSequential(1, Src);

    Context Ctx;
    SpecModule S = buildSeededSpec(Ctx, Src);
    ASSERT_GE(S.SpecLoops, 1u);

    // Flip the input *after* the transform: the dependence the profile
    // never saw now manifests on every invocation.
    S.M->getGlobal("mode")->setInitWords({1});

    SpecRun R = runWithTelemetry(*S.M);
    EXPECT_GT(R.Misspecs, 0u)
        << "conflicting writes must fail write-log validation";
    EXPECT_EQ(R.Ret, Seq.Ret)
        << "rollback must reproduce the sequential result";
    EXPECT_EQ(R.Out, Seq.Out)
        << "rollback must reproduce the sequential output byte for byte";
  }
}

/// Regression: a profile collected before a code edit must not drive
/// speculative planning. Profiled with mode == 0, the data[] dependences
/// never manifested; with mode == 1 they manifest on every invocation,
/// so premises admitted from the stale profile misspeculate every time.
/// The planner must ignore the stale profile and plan what a fresh
/// profile supports: nothing.
TEST(SpeculationTest, StaleProfileDrivesNoSpeculation) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, SeededSrc);
  profileMemDeps(*M).embed(*M);
  M->getGlobal("mode")->setInitWords({1});

  Noelle N(*M);
  EXPECT_EQ(N.getMemDepProfile(), nullptr);
  planner::PlannerOptions PO;
  PO.EnableSpeculation = true;
  planner::ProgramPlan Plan = planner::Planner(N, PO).plan();
  EXPECT_TRUE(Plan.Entries.empty()) << Plan.serialize();
  EXPECT_TRUE(verify::checkPlan(*M, Plan).clean());
}

// ---------------------------------------------------------------------------
// Planner integration over a real suite kernel.
// ---------------------------------------------------------------------------

TEST(SpeculationTest, PlannerSpeculatesX264AndPreservesResult) {
  const bench::Benchmark *B = bench::findBenchmark("x264");
  ASSERT_NE(B, nullptr);

  SeqResult Seq;
  {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, B->Source);
    ExecutionEngine E(*M);
    Seq.Ret = E.runMain();
    Seq.Out = E.getOutput();
  }

  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B->Source);
  nir::assignDeterministicIDs(*M);
  profileMemDeps(*M).embed(*M);

  Noelle N(*M);
  planner::PlannerOptions PO;
  PO.MaxWorkers = 4;
  PO.EnableSpeculation = true;
  planner::Planner P(N, PO);
  planner::ProgramPlan Plan = P.plan();

  unsigned Spec = 0;
  for (const auto &En : Plan.Entries)
    if (En.Kind == TechniqueKind::SpecDOALL)
      ++Spec;
  EXPECT_GE(Spec, 1u)
      << "the planner found no speculative candidate on x264:\n"
      << Plan.serialize();

  // Speculative entries (misspec probability, premises) survive the
  // wire format.
  planner::ProgramPlan RT;
  std::string Err;
  ASSERT_TRUE(planner::ProgramPlan::deserialize(Plan.serialize(), RT, Err))
      << Err;
  EXPECT_TRUE(RT == Plan);
  EXPECT_EQ(RT.serialize(), Plan.serialize());

  // The plan audits clean before touching the module.
  verify::CheckReport PlanRep = verify::checkPlan(*M, Plan);
  EXPECT_TRUE(PlanRep.clean()) << PlanRep.str();

  // Every entry applies — speculative ones included.
  for (const auto &D : P.apply(Plan))
    EXPECT_TRUE(D.Parallelized)
        << D.FunctionName << " loop " << D.LoopID << ": " << D.Reason;

  SpecRun R = runWithTelemetry(*M);
  EXPECT_EQ(R.Ret, Seq.Ret);
  EXPECT_EQ(R.Out, Seq.Out);
  EXPECT_GT(R.Commits, 0u) << "no speculative dispatch committed";
  EXPECT_EQ(R.Misspecs, 0u)
      << "x264 on its profiled input must not misspeculate";
}

// ---------------------------------------------------------------------------
// The --speculative audits each catch a seeded violation.
// ---------------------------------------------------------------------------

nir::Function *findSpecTask(nir::Module &M) {
  for (const auto &F : M.getFunctions())
    if (F->getMetadata(verify::TaskKindKey) == "doall-spec")
      return F.get();
  return nullptr;
}

verify::CheckReport speculativeAudit(SpecModule &S) {
  verify::CheckOptions CO;
  CO.RunVerifier = false; // the seeded corruptions target the spec audit
  CO.RunRaces = false;
  CO.Speculative = true;
  return verify::checkModule(*S.M, S.Snap, CO);
}

TEST(SpecCheckTest, CatchesUnjournaledAccess) {
  Context Ctx;
  SpecModule S = buildSeededSpec(Ctx);
  ASSERT_GE(S.SpecLoops, 1u);
  nir::Function *Task = findSpecTask(*S.M);
  ASSERT_NE(Task, nullptr);

  // Seed a raw store into the instrumented task: it bypasses the write
  // log, so commit-time validation can neither see nor undo it.
  nir::BasicBlock *Entry = Task->getBlocks().front().get();
  ASSERT_FALSE(Entry->getInstList().empty());
  nir::IRBuilder B(Ctx, Entry);
  B.setInsertPoint(Entry->getInstList().front().get());
  B.createStore(Ctx.getInt64(7), S.M->getGlobal("data"));

  verify::CheckReport Rep = speculativeAudit(S);
  EXPECT_GE(Rep.count(verify::DiagKind::SpecUnjournaledAccess), 1u)
      << Rep.str();
}

TEST(SpecCheckTest, CatchesBrokenRecoveryPath) {
  Context Ctx;
  SpecModule S = buildSeededSpec(Ctx);
  ASSERT_GE(S.SpecLoops, 1u);
  nir::Function *Task = findSpecTask(*S.M);
  ASSERT_NE(Task, nullptr);

  // Point the rollback link at a function that does not exist.
  Task->setMetadata(verify::TaskSpecSeqKey, "no_such_fallback");

  verify::CheckReport Rep = speculativeAudit(S);
  EXPECT_GE(Rep.count(verify::DiagKind::SpecRecoveryMissing), 1u)
      << Rep.str();
}

TEST(SpecCheckTest, CatchesFabricatedPremise) {
  Context Ctx;
  SpecModule S = buildSeededSpec(Ctx);
  ASSERT_GE(S.SpecLoops, 1u);
  nir::Function *Task = findSpecTask(*S.M);
  ASSERT_NE(Task, nullptr);

  // Replace the recorded premises with a pair that names no loop-carried
  // memory dependence of the snapshot PDG.
  Task->setMetadata(verify::TaskSpecPremisesKey, "1:2");

  verify::CheckReport Rep = speculativeAudit(S);
  EXPECT_GE(Rep.count(verify::DiagKind::SpecPremiseUnsupported), 1u)
      << Rep.str();
}

TEST(SpecCheckTest, CleanSpecModulePassesSpeculativeAudit) {
  Context Ctx;
  SpecModule S = buildSeededSpec(Ctx);
  ASSERT_GE(S.SpecLoops, 1u);
  verify::CheckReport Rep = speculativeAudit(S);
  EXPECT_TRUE(Rep.clean()) << Rep.str();
}

} // namespace
