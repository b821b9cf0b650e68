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
/// catches a deliberately seeded violation — and the journal itself
/// against a byte-at-a-time model. Registered under the ctest label
/// "spec-suite".
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "interp/SpecJournal.h"
#include "ir/IDs.h"
#include "ir/IRBuilder.h"
#include "ir/Instructions.h"
#include "ir/Parser.h"
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
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <tuple>
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

/// Byte-granular cases the profiler's shadow memory must keep: each
/// module has one loop, and the expected manifested set is written out
/// by hand in terms of the loop's memory accesses (A[k] is the k-th
/// load or store of @main, in program order).
struct ByteCase {
  const char *Name;
  const char *IR;
  /// (src access, dst access, kind) of each expected carried dependence.
  std::vector<std::tuple<unsigned, unsigned, ManifestedDep::Kind>> Deps;
};

std::vector<ByteCase> byteCases() {
  using K = ManifestedDep;
  return {
      // A[1] stores a[0] whole and A[2] stores byte 3 of it, so the next
      // iteration's whole load A[0] has two sources, and so has A[1]'s
      // overwrite. Within an iteration A[1] and A[2] follow A[0].
      {"SubWordStoreThenWholeLoad", R"(
global @a : [2 x i64]
func @main() -> i64 {
entry:
  br label loop
loop:
  %i = phi i64 [0, entry], [%i.next, loop]
  %p = gep @a, i64 0, scale 8
  %q = gep @a, i64 3, scale 1
  %v = load i64, %p
  %w = add i64 %v, 1
  store i64 %w, %p
  %b = trunc i64 %i to i8
  store i8 %b, %q
  %i.next = add i64 %i, 1
  %c = cmp slt i64 %i.next, 4
  br %c, label loop, label exit
exit:
  ret i64 0
}
)",
       {{1, 0, K::RAW}, {2, 0, K::RAW}, {1, 1, K::WAW}, {2, 1, K::WAW}}},
      // char data: iteration i reads c[i-1] (A[0]) and writes c[i]
      // (A[1]), eight to a word. Only the byte-to-byte recurrence is
      // carried; a word-granular shadow would add WAW A[1]->A[1].
      {"CharRecurrence", R"(
global @c : [16 x i8]
func @main() -> i64 {
entry:
  br label loop
loop:
  %i = phi i64 [1, entry], [%i.next, loop]
  %im1 = sub i64 %i, 1
  %p = gep @c, i64 %im1, scale 1
  %q = gep @c, i64 %i, scale 1
  %v = load i8, %p
  %w = add i8 %v, 1
  store i8 %w, %q
  %i.next = add i64 %i, 1
  %cond = cmp slt i64 %i.next, 16
  br %cond, label loop, label exit
exit:
  ret i64 0
}
)",
       {{1, 0, K::RAW}}},
      // SLP vectors: A[0] loads v[0..3] and A[1] stores v[2..5] (Scl = 4
      // lanes of 8 bytes), then A[2] stores v[5]. Across the iteration
      // boundary the load reads lanes 2-3 of the previous vector store,
      // and the vector store overwrites itself and, in its last lane,
      // the scalar store.
      {"VectorLanesAcrossIterations", R"(
global @v : [8 x i64]
func @main() -> i64 {
entry:
  br label loop
loop:
  %i = phi i64 [0, entry], [%i.next, loop]
  %p0 = gep @v, i64 0, scale 8
  %p2 = gep @v, i64 2, scale 8
  %p5 = gep @v, i64 5, scale 8
  %x = vload v4i64, %p0
  %one = vpack v4i64 1, 1, 1, 1
  %y = vadd v4i64 %x, %one
  vstore v4i64 %y, %p2
  store i64 %i, %p5
  %i.next = add i64 %i, 1
  %cond = cmp slt i64 %i.next, 4
  br %cond, label loop, label exit
exit:
  ret i64 0
}
)",
       {{1, 0, K::RAW}, {1, 1, K::WAW}, {2, 1, K::WAW}}},
  };
}

std::string depText(const ManifestedDep &D) {
  static const char *Kinds[] = {"raw", "war", "waw"};
  return std::to_string(D.SrcID) + "->" + std::to_string(D.DstID) + " " +
         Kinds[D.K];
}

TEST(MemDepProfilerTest, KeepsByteGranularDependences) {
  for (const ByteCase &C : byteCases()) {
    SCOPED_TRACE(C.Name);
    Context Ctx;
    auto M = nir::parseModuleOrDie(Ctx, C.IR);
    nir::assignDeterministicIDs(*M);
    std::vector<uint64_t> Access;
    for (const auto &BB : M->getFunction("main")->getBlocks())
      for (const auto &I : BB->getInstList())
        if (nir::isa<nir::LoadInst>(I.get()) ||
            nir::isa<nir::StoreInst>(I.get()) ||
            nir::isa<nir::VLoadInst>(I.get()) ||
            nir::isa<nir::VStoreInst>(I.get()))
          Access.push_back(*nir::instIDOf(I.get()));
    const std::vector<uint64_t> Headers = sortedLoopHeaderIDs(*M);
    ASSERT_EQ(Headers.size(), 1u);

    const MemDepProfile P = profileMemDeps(*M);
    EXPECT_EQ(P.loopInvocations(Headers[0]), 1u);
    std::set<std::string> Want, Got;
    for (const auto &[Src, Dst, Kind] : C.Deps) {
      ManifestedDep D;
      D.SrcID = Access.at(Src);
      D.DstID = Access.at(Dst);
      D.K = Kind;
      Want.insert(depText(D));
    }
    for (const ManifestedDep &D : P.deps()) {
      EXPECT_EQ(D.HeaderID, Headers[0]);
      Got.insert(depText(D));
    }
    EXPECT_EQ(Got, Want);
  }
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

// ---------------------------------------------------------------------------
// The speculative journal against a byte-at-a-time model.
// ---------------------------------------------------------------------------

/// Three 4 KiB pages of real memory, page-aligned, so an offset names
/// the 64-byte bitmap word and the page an access lands on.
struct alignas(4096) Arena {
  static constexpr unsigned Size = 3 * 4096;
  uint8_t Bytes[Size];

  explicit Arena(uint8_t Seed) {
    for (unsigned I = 0; I < Size; ++I)
      Bytes[I] = static_cast<uint8_t>(I * 131 + Seed);
  }
  uint64_t at(unsigned Off) const {
    return reinterpret_cast<uint64_t>(Bytes + Off);
  }
  std::vector<uint8_t> copy() const { return {Bytes, Bytes + Size}; }
};

/// The journal's contract one byte at a time: a load takes each byte the
/// task wrote from the log and the rest from memory, and every byte an
/// access touches is marked read or written.
struct ByteJournal {
  std::map<uint64_t, uint8_t> Written;
  std::set<uint64_t> Read;

  void load(uint64_t Addr, unsigned N, uint8_t *Out) {
    for (unsigned I = 0; I < N; ++I) {
      Read.insert(Addr + I);
      auto It = Written.find(Addr + I);
      Out[I] = It != Written.end()
                   ? It->second
                   : *reinterpret_cast<const uint8_t *>(Addr + I);
    }
  }
  void store(uint64_t Addr, unsigned N, const uint8_t *Src) {
    for (unsigned I = 0; I < N; ++I)
      Written[Addr + I] = Src[I];
  }
};

void journalLoad(nir::SpecJournal &J, uint64_t Addr, unsigned N,
                 uint8_t *Out) {
  switch (N) {
  case 1:
    return J.load<1>(Addr, Out);
  case 4:
    return J.load<4>(Addr, Out);
  default:
    return J.load<8>(Addr, Out);
  }
}

void journalStore(nir::SpecJournal &J, uint64_t Addr, unsigned N,
                  const uint8_t *Src) {
  switch (N) {
  case 1:
    return J.store<1>(Addr, Src);
  case 4:
    return J.store<4>(Addr, Src);
  default:
    return J.store<8>(Addr, Src);
  }
}

bool conflicts(std::vector<nir::SpecJournal> &Js) {
  return nir::journalsConflict(Js.data(), Js.size());
}

TEST(SpecJournalTest, AccessesMatchByteAtATimeModel) {
  auto A = std::make_unique<Arena>(7);
  const std::vector<uint8_t> Initial = A->copy();
  std::vector<nir::SpecJournal> Js(2); // [0] under test, [1] a probe

  // Short rounds of 1-, 4- and 8-byte accesses clustered around the
  // start of a bitmap word, the word boundary at 64 and the page
  // boundaries at 4096 and 8192, so accesses overlap each other and
  // cross words and pages, yet leave bytes untouched beside them. Each
  // round is one dispatch: check, commit, recycle.
  const unsigned Spots[] = {0, 52, 4084, 8180};
  const unsigned Window = 24 + 8;
  const unsigned Sizes[] = {1, 4, 8};
  uint64_t Rng = 0x9E3779B97F4A7C15ull;
  auto Next = [&Rng] {
    Rng = Rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<unsigned>(Rng >> 33);
  };
  for (unsigned Round = 0; Round < 100; ++Round) {
    ByteJournal Model;
    for (unsigned Op = 0; Op < 16; ++Op) {
      const unsigned N = Sizes[Next() % 3];
      const uint64_t Addr = A->at(Spots[Next() % 4] + Next() % 24);
      uint8_t Got[8], Want[8];
      if (Next() % 2) {
        for (unsigned I = 0; I < N; ++I)
          Want[I] = static_cast<uint8_t>(Next());
        journalStore(Js[0], Addr, N, Want);
        Model.store(Addr, N, Want);
        continue;
      }
      journalLoad(Js[0], Addr, N, Got);
      Model.load(Addr, N, Want);
      ASSERT_EQ(std::memcmp(Got, Want, N), 0)
          << "load of " << N << " at offset " << Addr - A->at(0)
          << ", round " << Round << ", op " << Op;
    }
    ASSERT_EQ(A->copy(), Initial) << "a journaled store reached memory";

    // The marks, byte by byte: a probe task writing a byte conflicts iff
    // the journal read or wrote it, and reading it iff the journal wrote
    // it.
    for (unsigned Spot : Spots)
      for (unsigned Off = Spot; Off < Spot + Window; ++Off) {
        const uint64_t Addr = A->at(Off);
        const bool W = Model.Written.count(Addr) != 0;
        const bool R = Model.Read.count(Addr) != 0;
        const uint8_t B = 0;
        Js[1].store<1>(Addr, &B);
        ASSERT_EQ(conflicts(Js), W || R)
            << "write probe at offset " << Off << ", round " << Round;
        Js[1].recycle();
        uint8_t Sink;
        Js[1].load<1>(Addr, &Sink);
        ASSERT_EQ(conflicts(Js), W)
            << "read probe at offset " << Off << ", round " << Round;
        Js[1].recycle();
      }

    // The commit writes exactly the journaled bytes.
    std::vector<uint8_t> Want = Initial;
    for (const auto &[Addr, V] : Model.Written)
      Want[Addr - A->at(0)] = V;
    Js[0].commit();
    ASSERT_EQ(A->copy(), Want) << "round " << Round;
    std::memcpy(A->Bytes, Initial.data(), Arena::Size);
    Js[0].recycle();
  }
}

TEST(SpecJournalTest, SubWordStoreThenWholeLoadMergesBytes) {
  auto A = std::make_unique<Arena>(3);
  nir::SpecJournal J;
  const uint8_t B = 0xAB;

  // A 1-byte store into an aligned word, read back by an 8-byte load.
  J.store<1>(A->at(67), &B);
  uint8_t Got[8], Want[8];
  J.load<8>(A->at(64), Got);
  std::memcpy(Want, A->Bytes + 64, 8);
  Want[3] = B;
  EXPECT_EQ(std::memcmp(Got, Want, 8), 0);

  // The last byte of a page, read back by a 4-byte load across the page
  // boundary.
  J.store<1>(A->at(4095), &B);
  J.load<4>(A->at(4094), Got);
  std::memcpy(Want, A->Bytes + 4094, 4);
  Want[1] = B;
  EXPECT_EQ(std::memcmp(Got, Want, 4), 0);
  EXPECT_NE(A->Bytes[67], B);
  EXPECT_NE(A->Bytes[4095], B);
}

TEST(SpecJournalTest, ConflictsAreByteGranular) {
  struct Access {
    unsigned Off, N;
    bool Store;
  };
  struct Case {
    const char *Name;
    Access First, Second;
    bool Conflict;
  };
  const Case Cases[] = {
      {"adjacent bytes written", {64, 1, true}, {65, 1, true}, false},
      {"adjacent words across a bitmap word",
       {56, 8, true},
       {64, 8, true},
       false},
      {"adjacent words across a page", {4092, 4, true}, {4096, 4, true}, false},
      {"read beside a write", {60, 4, false}, {64, 4, true}, false},
      {"same bytes read twice", {0, 8, false}, {0, 8, false}, false},
      {"the last byte of a load written", {8, 8, false}, {15, 1, true}, true},
      {"the last bytes of a store read", {64, 4, true}, {66, 4, false}, true},
      {"one byte written twice", {0, 4, true}, {3, 1, true}, true},
      {"a byte written and read across a bitmap word",
       {60, 8, true},
       {67, 1, false},
       true},
      {"a byte read and written across a page",
       {4094, 4, false},
       {4096, 1, true},
       true},
  };
  for (const Case &C : Cases) {
    // Both task orders: validation must not depend on which task's pages
    // it walks first.
    for (bool Swap : {false, true}) {
      SCOPED_TRACE(std::string(C.Name) + (Swap ? ", swapped" : ""));
      auto A = std::make_unique<Arena>(11);
      std::vector<uint8_t> Want = A->copy();
      std::vector<nir::SpecJournal> Js(2);
      const Access *Acc[2] = {&C.First, &C.Second};
      if (Swap)
        std::swap(Acc[0], Acc[1]);
      for (unsigned T = 0; T < 2; ++T) {
        uint8_t Buf[8];
        if (Acc[T]->Store) {
          std::memset(Buf, 0xC0 + T, sizeof(Buf));
          journalStore(Js[T], A->at(Acc[T]->Off), Acc[T]->N, Buf);
          std::memcpy(&Want[Acc[T]->Off], Buf, Acc[T]->N);
        } else {
          journalLoad(Js[T], A->at(Acc[T]->Off), Acc[T]->N, Buf);
        }
      }
      ASSERT_EQ(conflicts(Js), C.Conflict);
      if (C.Conflict)
        continue;
      for (const nir::SpecJournal &J : Js)
        J.commit();
      EXPECT_EQ(A->copy(), Want);
    }
  }
}

TEST(SpecJournalTest, RecycledJournalCarriesNothingOver) {
  auto A = std::make_unique<Arena>(5);
  std::vector<nir::SpecJournal> Js(2);
  const uint64_t X = 0x1111111111111111ull;
  const uint64_t Y = 0x2222222222222222ull;

  // First dispatch: task 0 writes a word and a word that crosses a
  // bitmap word, and reads a word on the next page; it commits.
  Js[0].store<8>(A->at(0), &X);
  Js[0].store<8>(A->at(60), &Y);
  uint64_t Sink;
  Js[0].load<8>(A->at(4096), &Sink);
  ASSERT_FALSE(conflicts(Js));
  for (nir::SpecJournal &J : Js) {
    J.commit();
    J.recycle();
  }

  // Memory moves on between the dispatches.
  for (unsigned I = 0; I < Arena::Size; ++I)
    A->Bytes[I] = static_cast<uint8_t>(~A->Bytes[I]);
  std::vector<uint8_t> Want = A->copy();

  // Second dispatch: task 0 reads a word it wrote last time and sees
  // memory, not its old log.
  uint64_t Got, Mem;
  Js[0].load<8>(A->at(0), &Got);
  std::memcpy(&Mem, A->Bytes, 8);
  EXPECT_EQ(Got, Mem) << "a recycled page kept a written mark";

  // Task 1 writes the bytes task 0 wrote or read in the first dispatch
  // only: no conflict.
  Js[1].store<8>(A->at(60), &X);
  Js[1].store<8>(A->at(4096), &X);
  std::memcpy(&Want[60], &X, 8);
  std::memcpy(&Want[4096], &X, 8);
  EXPECT_FALSE(conflicts(Js)) << "a recycled page kept a read or written mark";

  // The commit writes this dispatch's bytes and nothing older.
  for (const nir::SpecJournal &J : Js)
    J.commit();
  EXPECT_EQ(A->copy(), Want);
}

} // namespace
