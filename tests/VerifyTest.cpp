//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the noelle-check static verification layer: clean transforms
/// produce clean reports, every hand-seeded violation class is caught with
/// the expected diagnostic kind, the dominance-based SSA verifier rejects
/// use-before-def, and the dataflow lints fire on their target patterns.
///
//===----------------------------------------------------------------------===//

#include "frontend/MiniC.h"
#include "ir/IDs.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "opt/Passes.h"
#include "verify/CheckMetadata.h"
#include "verify/NoelleCheck.h"
#include "xforms/DOALL.h"
#include "xforms/DSWP.h"
#include "xforms/HELIX.h"

#include <gtest/gtest.h>

using namespace noelle;
using nir::BasicBlock;
using nir::CallInst;
using nir::CmpInst;
using nir::ConstantInt;
using nir::Context;
using nir::Function;
using nir::Instruction;
using nir::IRBuilder;
using nir::PhiInst;

namespace {

//===----------------------------------------------------------------------===//
// Harness: compile, snapshot, transform, check.
//===----------------------------------------------------------------------===//

struct Checked {
  std::unique_ptr<nir::Module> M;
  verify::PreTransformSnapshot Snap;
  unsigned Parallelized = 0;
};

Checked transform(Context &Ctx, const char *Src, const std::string &Which,
                  unsigned Cores = 4) {
  Checked C;
  C.M = minic::compileMiniCOrDie(Ctx, Src);
  C.Snap = verify::captureForCheck(*C.M);
  Noelle N(*C.M);
  if (Which == "doall") {
    DOALLOptions O;
    O.NumCores = Cores;
    DOALL Tool(N, O);
    for (const auto &D : Tool.run())
      C.Parallelized += D.Parallelized;
  } else if (Which == "helix") {
    HELIXOptions O;
    O.NumCores = Cores;
    O.MinimumEstimatedSpeedup = 0;
    HELIX Tool(N, O);
    for (const auto &D : Tool.run())
      C.Parallelized += D.Parallelized;
  } else {
    DSWPOptions O;
    O.NumCores = Cores;
    O.MinimumStageWeight = 0;
    DSWP Tool(N, O);
    for (const auto &D : Tool.run())
      C.Parallelized += D.Parallelized;
  }
  return C;
}

/// Task functions of \p M carrying the given transform-kind metadata.
std::vector<Function *> tasksOfKind(nir::Module &M, const std::string &Kind) {
  std::vector<Function *> Out;
  for (const auto &F : M.getFunctions())
    if (!F->isDeclaration() && F->getMetadata(verify::TaskKindKey) == Kind)
      Out.push_back(F.get());
  return Out;
}

/// All calls to \p Callee inside \p F.
std::vector<CallInst *> callsTo(Function &F, const std::string &Callee) {
  std::vector<CallInst *> Out;
  for (const auto &BB : F.getBlocks())
    for (const auto &I : BB->getInstList())
      if (auto *CI = nir::dyn_cast<CallInst>(I.get()))
        if (Function *Target = CI->getCalledFunction())
          if (Target->getName() == Callee)
            Out.push_back(CI);
  return Out;
}

const char *SumReductionSrc = R"(
  int a[256];
  int main() {
    for (int i = 0; i < 256; i = i + 1) a[i] = i % 17;
    int sum = 0;
    for (int i = 0; i < 256; i = i + 1) sum = sum + a[i];
    return sum;
  }
)";

const char *HelixRecurrenceSrc = R"(
  int state[1];
  int out[256];
  int main() {
    state[0] = 7;
    for (int i = 0; i < 256; i = i + 1) {
      int s = state[0];
      state[0] = (s * 1103515245 + 12345) % 2147483647;
      int heavy = 0;
      int base = i * 17;
      heavy = heavy + (base * base) % 1013;
      heavy = heavy + ((base + 3) * (base + 7)) % 2027;
      out[i] = s % 1000 + heavy;
    }
    int total = 0;
    for (int i = 0; i < 256; i = i + 1) total = total + out[i];
    return total % 1000003;
  }
)";

const char *DswpPipelineSrc = R"(
  int src[512];
  int main() {
    for (int i = 0; i < 512; i = i + 1) src[i] = (i * 37 + 11) % 101;
    int x = 1;
    int y = 0;
    for (int i = 0; i < 512; i = i + 1) {
      x = (x * 13 + src[i]) % 65537;
      y = (y + x * 3) % 39916801;
    }
    return y;
  }
)";

//===----------------------------------------------------------------------===//
// Clean transforms produce clean reports (no false positives).
//===----------------------------------------------------------------------===//

TEST(VerifyTest, CleanDOALLReductionReportsNothing) {
  Context Ctx;
  Checked C = transform(Ctx, SumReductionSrc, "doall");
  ASSERT_GE(C.Parallelized, 1u);
  verify::CheckReport Rep = verify::checkModule(*C.M, C.Snap);
  EXPECT_TRUE(Rep.clean()) << Rep.str();
}

TEST(VerifyTest, CleanHELIXRecurrenceReportsNothing) {
  Context Ctx;
  Checked C = transform(Ctx, HelixRecurrenceSrc, "helix");
  ASSERT_GE(C.Parallelized, 1u);
  verify::CheckReport Rep = verify::checkModule(*C.M, C.Snap);
  EXPECT_TRUE(Rep.clean()) << Rep.str();
}

TEST(VerifyTest, CleanDSWPPipelineReportsNothing) {
  Context Ctx;
  Checked C = transform(Ctx, DswpPipelineSrc, "dswp", 2);
  ASSERT_GE(C.Parallelized, 1u);
  verify::CheckReport Rep = verify::checkModule(*C.M, C.Snap);
  EXPECT_TRUE(Rep.clean()) << Rep.str();
}

//===----------------------------------------------------------------------===//
// Seeded violations: each class is caught with the expected kind.
//===----------------------------------------------------------------------===//

TEST(VerifyTest, DroppedSsWaitIsCaught) {
  Context Ctx;
  Checked C = transform(Ctx, HelixRecurrenceSrc, "helix");
  ASSERT_GE(C.Parallelized, 1u);

  // Break one task: remove every sequential-segment entry gate it takes.
  std::vector<Function *> Tasks = tasksOfKind(*C.M, "helix");
  ASSERT_FALSE(Tasks.empty());
  std::vector<CallInst *> Waits = callsTo(*Tasks.front(), "noelle_ss_wait");
  ASSERT_FALSE(Waits.empty());
  for (CallInst *W : Waits)
    W->eraseFromParent();

  verify::CheckReport Rep = verify::checkModule(*C.M, C.Snap);
  EXPECT_GE(Rep.count(verify::DiagKind::UnprotectedDependence), 1u)
      << Rep.str();
}

TEST(VerifyTest, UnpairedQueuePopIsCaught) {
  Context Ctx;
  Checked C = transform(Ctx, DswpPipelineSrc, "dswp", 2);
  ASSERT_GE(C.Parallelized, 1u);

  // Break the pipeline: delete every producer push of stage 0, leaving
  // the consumer's pops with no matching source.
  std::vector<Function *> Stages = tasksOfKind(*C.M, "dswp-stage");
  ASSERT_GE(Stages.size(), 2u);
  bool Erased = false;
  for (Function *Stage : Stages) {
    std::vector<CallInst *> Pushes = callsTo(*Stage, "noelle_queue_push");
    for (CallInst *P : Pushes) {
      P->eraseFromParent();
      Erased = true;
    }
    if (Erased)
      break;
  }
  ASSERT_TRUE(Erased);

  verify::CheckReport Rep = verify::checkModule(*C.M, C.Snap);
  EXPECT_GE(Rep.count(verify::DiagKind::UnmatchedQueuePop), 1u) << Rep.str();
}

TEST(VerifyTest, UnprivatizedAccumulatorIsCaught) {
  Context Ctx;
  Checked C = transform(Ctx, SumReductionSrc, "doall");
  ASSERT_GE(C.Parallelized, 1u);

  // Break a reduction: make the task accumulator start from 1 instead of
  // the operator identity 0 (workers would each add a phantom 1).
  std::vector<Function *> Tasks = tasksOfKind(*C.M, "doall");
  ASSERT_FALSE(Tasks.empty());
  bool Corrupted = false;
  for (Function *T : Tasks) {
    BasicBlock &Entry = T->getEntryBlock();
    for (const auto &BB : T->getBlocks()) {
      for (const auto &I : BB->getInstList()) {
        auto *Phi = nir::dyn_cast<PhiInst>(I.get());
        if (!Phi)
          continue;
        for (unsigned K = 0; K < Phi->getNumIncoming(); ++K) {
          if (Phi->getIncomingBlock(K) != &Entry)
            continue;
          auto *CI = nir::dyn_cast<ConstantInt>(Phi->getIncomingValue(K));
          if (CI && CI->getValue() == 0) {
            Phi->setIncomingValue(K, Ctx.getInt64(1));
            Corrupted = true;
          }
        }
      }
    }
    if (Corrupted)
      break;
  }
  ASSERT_TRUE(Corrupted);

  verify::CheckReport Rep = verify::checkModule(*C.M, C.Snap);
  EXPECT_GE(Rep.count(verify::DiagKind::UnprivatizedAccumulator), 1u)
      << Rep.str();
}

// After opt::runPipeline, GVN folds the `i + 1` of `a[i + 1]` into the
// IV update. Scaling that shared update in place makes every worker read
// a[i + 4]: the checker must name the update and its other user.
TEST(VerifyTest, SharedIVUpdateScaledInPlaceIsCaught) {
  const char *Src = R"(
    int a[48];
    int b[48];
    int main() {
      for (int i = 0; i < 48; i = i + 1) a[i] = (i * i) % 23;
      int n = a[7] + 31;
      for (int i = 0; i < n; i = i + 1) b[i] = a[i + 1] - a[i];
      return b[3] + b[n - 1];
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  opt::runPipeline(*M);
  verify::PreTransformSnapshot Snap = verify::captureForCheck(*M);
  Noelle N(*M);
  unsigned Parallelized = 0;
  for (const auto &D : DOALL(N).run())
    Parallelized += D.Parallelized;
  ASSERT_GE(Parallelized, 1u);
  verify::CheckReport Clean = verify::checkModule(*M, Snap);
  EXPECT_EQ(Clean.count(verify::DiagKind::IVNotRebased), 0u) << Clean.str();

  // Seed the in-place rewrite: the back edge's own `phi + 4` goes away
  // and the shared `phi + 1` is scaled and fed back instead. A back edge
  // that already reads the shared update needs no seeding.
  auto ScaleSharedUpdateInPlace = [&] {
    for (Function *T : tasksOfKind(*M, "doall"))
      for (const auto &BB : T->getBlocks())
        for (const auto &I : BB->getInstList()) {
          auto *Phi = nir::dyn_cast<PhiInst>(I.get());
          if (!Phi)
            continue;
          for (unsigned K = 0; K < Phi->getNumIncoming(); ++K) {
            auto *Next =
                nir::dyn_cast<nir::BinaryInst>(Phi->getIncomingValue(K));
            if (!Next || Next->getLHS() != Phi)
              continue;
            for (nir::User *U : Phi->users()) {
              auto *Shared = nir::dyn_cast<nir::BinaryInst>(U);
              if (!Shared || Shared == Next || Shared->getLHS() != Phi ||
                  Shared->getOp() != Next->getOp())
                continue;
              Shared->setOperand(1, Next->getRHS());
              Next->replaceAllUsesWith(Shared);
              Next->eraseFromParent();
              return;
            }
          }
        }
  };
  ScaleSharedUpdateInPlace();

  verify::CheckReport Rep = verify::checkModule(*M, Snap);
  EXPECT_GE(Rep.count(verify::DiagKind::IVNotRebased), 1u) << Rep.str();
  EXPECT_NE(Rep.str().find("another user"), std::string::npos) << Rep.str();
}

//===----------------------------------------------------------------------===//
// Dominance-based SSA verification (nir::verifyModule extension).
//===----------------------------------------------------------------------===//

TEST(VerifyTest, UseBeforeDefAcrossBlocksIsCaught) {
  // entry --cond--> side | merge; 'side' defines %d; 'merge' uses %d.
  // The definition does not dominate the use.
  Context Ctx;
  nir::Module M(Ctx, "broken");
  Function *F =
      M.createFunction(Ctx.getFunctionTy(Ctx.getInt64Ty(), {}), "f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Side = F->createBlock("side");
  BasicBlock *Merge = F->createBlock("merge");

  IRBuilder B(Ctx, Entry);
  nir::Value *Cond =
      B.createCmp(CmpInst::Pred::EQ, Ctx.getInt64(1), Ctx.getInt64(2), "c");
  B.createCondBr(Cond, Side, Merge);

  B.setInsertPoint(Side);
  nir::Value *D = B.createAdd(Ctx.getInt64(1), Ctx.getInt64(2), "d");
  B.createBr(Merge);

  B.setInsertPoint(Merge);
  nir::Value *U = B.createAdd(D, Ctx.getInt64(1), "u");
  B.createRet(U);

  std::vector<std::string> Errs = nir::verifyModule(M);
  ASSERT_FALSE(Errs.empty());
  bool Found = false;
  for (const std::string &E : Errs)
    Found = Found || E.find("not dominated") != std::string::npos;
  EXPECT_TRUE(Found);
}

TEST(VerifyTest, DiamondWithPhiVerifies) {
  // The same CFG becomes legal when 'merge' receives %d through a phi
  // whose other edge carries a constant.
  Context Ctx;
  nir::Module M(Ctx, "diamond");
  Function *F =
      M.createFunction(Ctx.getFunctionTy(Ctx.getInt64Ty(), {}), "f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Side = F->createBlock("side");
  BasicBlock *Merge = F->createBlock("merge");

  IRBuilder B(Ctx, Entry);
  nir::Value *Cond =
      B.createCmp(CmpInst::Pred::EQ, Ctx.getInt64(1), Ctx.getInt64(2), "c");
  B.createCondBr(Cond, Side, Merge);

  B.setInsertPoint(Side);
  nir::Value *D = B.createAdd(Ctx.getInt64(1), Ctx.getInt64(2), "d");
  B.createBr(Merge);

  B.setInsertPoint(Merge);
  PhiInst *Phi = B.createPhi(Ctx.getInt64Ty(), "m");
  Phi->addIncoming(D, Side);
  Phi->addIncoming(Ctx.getInt64(0), Entry);
  B.createRet(Phi);

  EXPECT_TRUE(nir::moduleVerifies(M)) << nir::verifyModule(M).front();
}

TEST(VerifyTest, PhiUsingValueFromWrongEdgeIsCaught) {
  // The phi routes %d along the entry edge, where it was never computed.
  Context Ctx;
  nir::Module M(Ctx, "wrongedge");
  Function *F =
      M.createFunction(Ctx.getFunctionTy(Ctx.getInt64Ty(), {}), "f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Side = F->createBlock("side");
  BasicBlock *Merge = F->createBlock("merge");

  IRBuilder B(Ctx, Entry);
  nir::Value *Cond =
      B.createCmp(CmpInst::Pred::EQ, Ctx.getInt64(1), Ctx.getInt64(2), "c");
  B.createCondBr(Cond, Side, Merge);

  B.setInsertPoint(Side);
  nir::Value *D = B.createAdd(Ctx.getInt64(1), Ctx.getInt64(2), "d");
  B.createBr(Merge);

  B.setInsertPoint(Merge);
  PhiInst *Phi = B.createPhi(Ctx.getInt64Ty(), "m");
  Phi->addIncoming(Ctx.getInt64(0), Side);
  Phi->addIncoming(D, Entry); // %d does not dominate entry's terminator
  B.createRet(Phi);

  std::vector<std::string> Errs = nir::verifyModule(M);
  ASSERT_FALSE(Errs.empty());
  bool Found = false;
  for (const std::string &E : Errs)
    Found = Found || E.find("incoming edge") != std::string::npos;
  EXPECT_TRUE(Found);
}

TEST(VerifyTest, TransformedModulesStillSatisfyDominance) {
  // The stronger verifier must not reject what the parallelizers emit.
  for (const char *Which : {"doall", "helix", "dswp"}) {
    Context Ctx;
    Checked C = transform(Ctx, DswpPipelineSrc, Which, 2);
    std::vector<std::string> Errs = nir::verifyModule(*C.M);
    EXPECT_TRUE(Errs.empty())
        << Which << ": " << (Errs.empty() ? "" : Errs.front());
  }
}

//===----------------------------------------------------------------------===//
// Dataflow lint pack.
//===----------------------------------------------------------------------===//

TEST(VerifyTest, LintFlagsUninitializedRead) {
  Context Ctx;
  nir::Module M(Ctx, "lint");
  Function *F =
      M.createFunction(Ctx.getFunctionTy(Ctx.getInt64Ty(), {}), "f");
  IRBuilder B(Ctx, F->createBlock("entry"));
  nir::Value *Slot = B.createAlloca(Ctx.getInt64Ty(), "slot");
  nir::Value *V = B.createLoad(Ctx.getInt64Ty(), Slot, "v");
  B.createRet(V);

  verify::CheckReport Rep;
  verify::lintModule(M, Rep);
  EXPECT_GE(Rep.count(verify::DiagKind::UninitializedRead), 1u) << Rep.str();
}

TEST(VerifyTest, LintAcceptsStoreBeforeLoad) {
  Context Ctx;
  nir::Module M(Ctx, "lint");
  Function *F =
      M.createFunction(Ctx.getFunctionTy(Ctx.getInt64Ty(), {}), "f");
  IRBuilder B(Ctx, F->createBlock("entry"));
  nir::Value *Slot = B.createAlloca(Ctx.getInt64Ty(), "slot");
  B.createStore(Ctx.getInt64(42), Slot);
  nir::Value *V = B.createLoad(Ctx.getInt64Ty(), Slot, "v");
  B.createRet(V);

  verify::CheckReport Rep;
  verify::lintModule(M, Rep);
  EXPECT_EQ(Rep.count(verify::DiagKind::UninitializedRead), 0u) << Rep.str();
}

TEST(VerifyTest, LintFlagsStoreOnlyOnOnePath) {
  // entry --cond--> init | use; only the 'init' path stores.
  Context Ctx;
  nir::Module M(Ctx, "lint");
  Function *F =
      M.createFunction(Ctx.getFunctionTy(Ctx.getInt64Ty(), {}), "f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Init = F->createBlock("init");
  BasicBlock *Use = F->createBlock("use");

  IRBuilder B(Ctx, Entry);
  nir::Value *Slot = B.createAlloca(Ctx.getInt64Ty(), "slot");
  nir::Value *Cond =
      B.createCmp(CmpInst::Pred::EQ, Ctx.getInt64(1), Ctx.getInt64(2), "c");
  B.createCondBr(Cond, Init, Use);

  B.setInsertPoint(Init);
  B.createStore(Ctx.getInt64(7), Slot);
  B.createBr(Use);

  B.setInsertPoint(Use);
  nir::Value *V = B.createLoad(Ctx.getInt64Ty(), Slot, "v");
  B.createRet(V);

  verify::CheckReport Rep;
  verify::lintModule(M, Rep);
  EXPECT_GE(Rep.count(verify::DiagKind::UninitializedRead), 1u) << Rep.str();
}

TEST(VerifyTest, LintFlagsDeadStore) {
  Context Ctx;
  nir::Module M(Ctx, "lint");
  Function *F =
      M.createFunction(Ctx.getFunctionTy(Ctx.getInt64Ty(), {}), "f");
  IRBuilder B(Ctx, F->createBlock("entry"));
  nir::Value *Slot = B.createAlloca(Ctx.getInt64Ty(), "slot");
  B.createStore(Ctx.getInt64(42), Slot); // never read
  B.createRet(Ctx.getInt64(0));

  verify::CheckReport Rep;
  verify::lintModule(M, Rep);
  EXPECT_GE(Rep.count(verify::DiagKind::DeadStore), 1u) << Rep.str();
}

TEST(VerifyTest, LintFlagsUncheckedHeapHandle) {
  Context Ctx;
  nir::Module M(Ctx, "lint");
  Function *Malloc = M.createFunction(
      Ctx.getFunctionTy(Ctx.getPtrTy(), {Ctx.getInt64Ty()}), "malloc");
  Function *F =
      M.createFunction(Ctx.getFunctionTy(Ctx.getInt64Ty(), {}), "f");
  IRBuilder B(Ctx, F->createBlock("entry"));
  nir::Value *P = B.createCall(Malloc, {Ctx.getInt64(8)}, "p");
  nir::Value *V = B.createLoad(Ctx.getInt64Ty(), P, "v"); // no null check
  B.createRet(V);

  verify::CheckReport Rep;
  verify::lintModule(M, Rep);
  EXPECT_GE(Rep.count(verify::DiagKind::NullDeref), 1u) << Rep.str();
}

TEST(VerifyTest, LintAcceptsNullCheckedHeapHandle) {
  Context Ctx;
  nir::Module M(Ctx, "lint");
  Function *Malloc = M.createFunction(
      Ctx.getFunctionTy(Ctx.getPtrTy(), {Ctx.getInt64Ty()}), "malloc");
  Function *F =
      M.createFunction(Ctx.getFunctionTy(Ctx.getInt64Ty(), {}), "f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Ok = F->createBlock("ok");
  BasicBlock *Fail = F->createBlock("fail");

  IRBuilder B(Ctx, Entry);
  nir::Value *P = B.createCall(Malloc, {Ctx.getInt64(8)}, "p");
  nir::Value *IsNull =
      B.createCmp(CmpInst::Pred::EQ, P, Ctx.getInt64(0), "isnull");
  B.createCondBr(IsNull, Fail, Ok);

  B.setInsertPoint(Fail);
  B.createRet(Ctx.getInt64(-1));

  B.setInsertPoint(Ok);
  nir::Value *V = B.createLoad(Ctx.getInt64Ty(), P, "v");
  B.createRet(V);

  verify::CheckReport Rep;
  verify::lintModule(M, Rep);
  EXPECT_EQ(Rep.count(verify::DiagKind::NullDeref), 0u) << Rep.str();
}

//===----------------------------------------------------------------------===//
// Race detector: a task writing a fixed shared slot races with itself.
//===----------------------------------------------------------------------===//

TEST(VerifyTest, QueueHappensBeforeDischargesCrossStagePair) {
  // Seed a W/R pair across DSWP stages that only the queue
  // happens-before rule can discharge: the producer writes a fresh
  // global before any of its pushes, the consumer reads it after its
  // first pop. The instructions carry no provenance, so the PDG cannot
  // ground them; points-to says they alias; with the queue-HB rule off
  // the pair must surface as a race, with it on the report stays clean.
  Context Ctx;
  Checked C = transform(Ctx, DswpPipelineSrc, "dswp", 2);
  ASSERT_GE(C.Parallelized, 1u);

  std::vector<Function *> Stages = tasksOfKind(*C.M, "dswp-stage");
  ASSERT_GE(Stages.size(), 2u);
  Function *Producer = nullptr;
  Function *Consumer = nullptr;
  for (Function *S : Stages) {
    bool Pushes = !callsTo(*S, "noelle_queue_push").empty();
    bool Pops = !callsTo(*S, "noelle_queue_pop").empty();
    if (Pushes && !Pops)
      Producer = S;
    if (Pops)
      Consumer = S;
  }
  ASSERT_NE(Producer, nullptr);
  ASSERT_NE(Consumer, nullptr);
  ASSERT_NE(Producer, Consumer);

  nir::GlobalVariable *G =
      C.M->createGlobal(Ctx.getInt64Ty(), "seeded_hb_slot");
  IRBuilder B(Ctx);
  // The store precedes every push: it sits in the producer's entry
  // block, which no push can reach again.
  B.setInsertPoint(Producer->getEntryBlock().getInstList().front().get());
  B.createStore(Ctx.getInt64(1), G);
  // The load is dominated by the consumer's first pop.
  std::vector<CallInst *> Pops = callsTo(*Consumer, "noelle_queue_pop");
  ASSERT_FALSE(Pops.empty());
  CallInst *Pop = Pops.front();
  BasicBlock *PB = Pop->getParent();
  Instruction *After = nullptr;
  for (auto It = PB->getInstList().begin(); It != PB->getInstList().end();
       ++It)
    if (It->get() == Pop) {
      After = std::next(It)->get();
      break;
    }
  ASSERT_NE(After, nullptr);
  B.setInsertPoint(After);
  B.createLoad(Ctx.getInt64Ty(), G, "seeded.hb.read");

  verify::CheckReport On = verify::checkModule(*C.M, C.Snap);
  EXPECT_EQ(On.count(verify::DiagKind::DataRace), 0u) << On.str();

  verify::CheckOptions NoHB;
  NoHB.Races.UseQueueHB = false;
  verify::CheckReport Off = verify::checkModule(*C.M, C.Snap, NoHB);
  EXPECT_GE(Off.count(verify::DiagKind::DataRace), 1u) << Off.str();
}

TEST(VerifyTest, SharedSlotWriteInDoallTaskIsARace) {
  Context Ctx;
  Checked C = transform(Ctx, SumReductionSrc, "doall");
  ASSERT_GE(C.Parallelized, 1u);

  // Seed a conflict: every worker stores its task ID to env slot 0.
  std::vector<Function *> Tasks = tasksOfKind(*C.M, "doall");
  ASSERT_FALSE(Tasks.empty());
  Function *T = Tasks.front();
  BasicBlock &Entry = T->getEntryBlock();
  ASSERT_FALSE(Entry.getInstList().empty());
  IRBuilder B(Ctx);
  B.setInsertPoint(Entry.getInstList().front().get());
  nir::Value *Slot =
      B.createGEP(T->getArg(0), Ctx.getInt64(0), 8, "seeded.slot");
  B.createStore(T->getArg(1), Slot);

  verify::CheckReport Rep = verify::checkModule(*C.M, C.Snap);
  EXPECT_GE(Rep.count(verify::DiagKind::DataRace), 1u) << Rep.str();
}

//===----------------------------------------------------------------------===//
// Happens-before engine: seeded violations per discharge rule, each with
// a legal counterpart that checks clean.
//===----------------------------------------------------------------------===//

/// The producer stage (pushes, never pops) and a consumer stage (pops)
/// of a 2-stage DSWP pipeline.
void findPipelineEnds(nir::Module &M, Function *&Producer,
                      Function *&Consumer) {
  Producer = Consumer = nullptr;
  for (Function *S : tasksOfKind(M, "dswp-stage")) {
    bool Pushes = !callsTo(*S, "noelle_queue_push").empty();
    bool Pops = !callsTo(*S, "noelle_queue_pop").empty();
    if (Pushes && !Pops)
      Producer = S;
    if (Pops && !Pushes)
      Consumer = S;
  }
}

/// The instruction immediately after \p I in its block (null at the end).
Instruction *instAfter(Instruction *I) {
  BasicBlock *BB = I->getParent();
  for (auto It = BB->getInstList().begin(); It != BB->getInstList().end();
       ++It)
    if (It->get() == I) {
      auto Next = std::next(It);
      return Next == BB->getInstList().end() ? nullptr : Next->get();
    }
  return nullptr;
}

/// True if \p P walks through GEPs to the global named \p Name.
bool rootsAtGlobal(const nir::Value *P, const std::string &Name) {
  while (const auto *G = nir::dyn_cast<nir::GEPInst>(P))
    P = G->getBase();
  const auto *GV = nir::dyn_cast<nir::GlobalVariable>(P);
  return GV && GV->getName() == Name;
}

TEST(VerifyTest, SecondProducerOnJoinedQueueIsCaught) {
  // Legal counterpart first: the queue-HB seeding (store before the
  // producer's pushes, load after the consumer's pop) checks clean.
  // Then inject a rogue second push onto the consumer's queue: a pop
  // may now be satisfied by the unattributed producer without ordering
  // against the real one, so the queue's coverage argument collapses
  // and the seeded pair must surface as a race.
  Context Ctx;
  Checked C = transform(Ctx, DswpPipelineSrc, "dswp", 2);
  ASSERT_GE(C.Parallelized, 1u);

  Function *Producer = nullptr, *Consumer = nullptr;
  findPipelineEnds(*C.M, Producer, Consumer);
  ASSERT_NE(Producer, nullptr);
  ASSERT_NE(Consumer, nullptr);

  nir::GlobalVariable *G =
      C.M->createGlobal(Ctx.getInt64Ty(), "seeded_join_slot");
  IRBuilder B(Ctx);
  B.setInsertPoint(Producer->getEntryBlock().getInstList().front().get());
  B.createStore(Ctx.getInt64(1), G);
  std::vector<CallInst *> Pops = callsTo(*Consumer, "noelle_queue_pop");
  ASSERT_FALSE(Pops.empty());
  CallInst *Pop = Pops.front();
  Instruction *After = instAfter(Pop);
  ASSERT_NE(After, nullptr);
  B.setInsertPoint(After);
  B.createLoad(Ctx.getInt64Ty(), G, "seeded.join.read");

  verify::CheckReport On = verify::checkModule(*C.M, C.Snap);
  EXPECT_EQ(On.count(verify::DiagKind::DataRace), 0u) << On.str();

  // Rogue producer: push onto the same queue right before the pop.
  Function *PushFn = C.M->getFunction("noelle_queue_push");
  ASSERT_NE(PushFn, nullptr);
  B.setInsertPoint(Pop);
  B.createCall(PushFn, {Pop->getArg(0), Ctx.getInt64(0)});

  verify::CheckReport Off = verify::checkModule(*C.M, C.Snap);
  EXPECT_GE(Off.count(verify::DiagKind::DataRace), 1u) << Off.str();
}

const char *ThreeStagePipelineSrc = R"(
  int src[512];
  int main() {
    for (int i = 0; i < 512; i = i + 1) src[i] = (i * 37 + 11) % 101;
    int a = 1;
    int b = 0;
    int c = 0;
    for (int i = 0; i < 512; i = i + 1) {
      a = (a * 13 + src[i]) % 65537;
      b = (b + a * 3) % 39916801;
      c = (c + b * 7) % 1000003;
    }
    return c;
  }
)";

TEST(VerifyTest, MultiQueueJoinDischargesChainedStages) {
  // A 3-recurrence chain a -> b -> c splits into three DSWP stages
  // connected by two queues (the IV skeleton is replicated, not
  // queued). A store in the first stage's entry is ordered before a
  // load behind the last stage's pop only transitively: q_a's pop
  // acquires the store, the middle stage's push on q_b carries it on.
  // The one-hop single-producer slice (legacy QueueHB) cannot prove
  // that, so disabling the join rule must surface the pair.
  Context Ctx;
  Checked C = transform(Ctx, ThreeStagePipelineSrc, "dswp", 3);
  ASSERT_GE(C.Parallelized, 1u);
  std::vector<Function *> Stages = tasksOfKind(*C.M, "dswp-stage");
  if (Stages.size() < 3)
    GTEST_SKIP() << "pipeline did not split into 3 stages";

  Function *First = nullptr, *Last = nullptr;
  findPipelineEnds(*C.M, First, Last);
  ASSERT_NE(First, nullptr);
  ASSERT_NE(Last, nullptr);

  nir::GlobalVariable *G =
      C.M->createGlobal(Ctx.getInt64Ty(), "seeded_chain_slot");
  IRBuilder B(Ctx);
  B.setInsertPoint(First->getEntryBlock().getInstList().front().get());
  B.createStore(Ctx.getInt64(1), G);
  std::vector<CallInst *> Pops = callsTo(*Last, "noelle_queue_pop");
  ASSERT_FALSE(Pops.empty());
  Instruction *After = instAfter(Pops.front());
  ASSERT_NE(After, nullptr);
  B.setInsertPoint(After);
  B.createLoad(Ctx.getInt64Ty(), G, "seeded.chain.read");

  verify::RaceRuleStats S;
  verify::CheckOptions On;
  On.Races.Stats = &S;
  verify::CheckReport Rep = verify::checkModule(*C.M, C.Snap, On);
  EXPECT_EQ(Rep.count(verify::DiagKind::DataRace), 0u) << Rep.str();
  EXPECT_GE(S.Discharged["multi-queue-join"], 1u);

  verify::CheckOptions NoJoin;
  NoJoin.Races.UseMultiQueueJoin = false;
  verify::CheckReport Off = verify::checkModule(*C.M, C.Snap, NoJoin);
  EXPECT_GE(Off.count(verify::DiagKind::DataRace), 1u) << Off.str();
}

TEST(VerifyTest, PopHoistedOutOfLoopPhaseIsCaught) {
  // Loop-phase rule: a store right before the k-th push is ordered
  // before the load behind the k-th pop when both queue ops sit in
  // lockstep loop copies. The seeded pair borrows the origin IDs of the
  // snapshot's src-init store and src load — the PDG relates them
  // intra-iteration only (the dependence crosses two loops, so it is
  // not loop-carried) — which is exactly the rule's precondition. The
  // queue rule cannot discharge it (the store does not precede every
  // push execution), pinning the discharge on loop-phase. Hoisting the
  // pop out of its loop breaks the k-th/k-th pairing and must race.
  Context Ctx;
  Checked C = transform(Ctx, DswpPipelineSrc, "dswp", 2);
  ASSERT_GE(C.Parallelized, 1u);

  // Origin IDs from the snapshot: the store into src[] (init loop) and
  // the load of src[] (main loop).
  nir::Context SnapCtx;
  std::string Err;
  auto SnapM = nir::parseModule(SnapCtx, C.Snap.IRText, Err);
  ASSERT_NE(SnapM, nullptr) << Err;
  Function *SnapMain = SnapM->getFunction("main");
  ASSERT_NE(SnapMain, nullptr);
  std::string StoreId, LoadId;
  for (const auto &BB : SnapMain->getBlocks())
    for (const auto &I : BB->getInstList()) {
      if (const auto *St = nir::dyn_cast<nir::StoreInst>(I.get()))
        if (StoreId.empty() && rootsAtGlobal(St->getPointerOperand(), "src"))
          StoreId = St->getMetadata(nir::InstIDKey);
      if (const auto *Ld = nir::dyn_cast<nir::LoadInst>(I.get()))
        if (LoadId.empty() && rootsAtGlobal(Ld->getPointerOperand(), "src"))
          LoadId = Ld->getMetadata(nir::InstIDKey);
    }
  ASSERT_FALSE(StoreId.empty());
  ASSERT_FALSE(LoadId.empty());

  Function *Producer = nullptr, *Consumer = nullptr;
  findPipelineEnds(*C.M, Producer, Consumer);
  ASSERT_NE(Producer, nullptr);
  ASSERT_NE(Consumer, nullptr);
  std::vector<CallInst *> Pushes = callsTo(*Producer, "noelle_queue_push");
  ASSERT_FALSE(Pushes.empty());
  CallInst *Push = Pushes.front();
  CallInst *Pop = nullptr;
  for (CallInst *P : callsTo(*Consumer, "noelle_queue_pop"))
    if (P->getMetadata(verify::CheckQueueKey) ==
        Push->getMetadata(verify::CheckQueueKey))
      Pop = P;
  ASSERT_NE(Pop, nullptr);

  nir::GlobalVariable *G =
      C.M->createGlobal(Ctx.getInt64Ty(), "seeded_phase_slot");
  IRBuilder B(Ctx);
  B.setInsertPoint(Push);
  Instruction *SeedStore = B.createStore(Ctx.getInt64(1), G);
  SeedStore->setMetadata(verify::CheckOrigKey, StoreId);
  Instruction *After = instAfter(Pop);
  ASSERT_NE(After, nullptr);
  B.setInsertPoint(After);
  auto *SeedLoad = nir::cast<Instruction>(
      B.createLoad(Ctx.getInt64Ty(), G, "seeded.phase.read"));
  SeedLoad->setMetadata(verify::CheckOrigKey, LoadId);

  verify::CheckReport On = verify::checkModule(*C.M, C.Snap);
  EXPECT_EQ(On.count(verify::DiagKind::DataRace), 0u) << On.str();

  // Only the loop-phase rule discharges this pair.
  verify::CheckOptions NoPhase;
  NoPhase.Races.UseLoopPhase = false;
  verify::CheckReport Pinned = verify::checkModule(*C.M, C.Snap, NoPhase);
  EXPECT_GE(Pinned.count(verify::DiagKind::DataRace), 1u) << Pinned.str();

  // Violation: hoist the pop out of the consumer loop (to just after
  // its queue-handle def). The k-th store is no longer ordered with
  // anything the consumer does per iteration.
  auto *Handle = nir::dyn_cast<Instruction>(Pop->getArg(0));
  ASSERT_NE(Handle, nullptr);
  Instruction *HandleNext = instAfter(Handle);
  ASSERT_NE(HandleNext, nullptr);
  ASSERT_NE(Pop->getParent(), Handle->getParent())
      << "pop already outside the loop";
  Pop->moveBefore(HandleNext);

  verify::CheckReport Off = verify::checkModule(*C.M, C.Snap);
  EXPECT_GE(Off.count(verify::DiagKind::DataRace), 1u) << Off.str();
}

const char *TwoSegmentHelixSrc = R"(
  int s1[1];
  int s2[1];
  int out[256];
  int main() {
    s1[0] = 7;
    s2[0] = 3;
    for (int i = 0; i < 256; i = i + 1) {
      int a = s1[0];
      s1[0] = (a * 1103515245 + 12345) % 2147483647;
      int b = s2[0];
      s2[0] = (b * 69069 + 1) % 2147483647;
      int heavy = 0;
      int base = i * 17;
      heavy = heavy + (base * base) % 1013;
      heavy = heavy + ((base + 3) * (base + 7)) % 2027;
      out[i] = (a + b) % 1000 + heavy;
    }
    int total = 0;
    for (int i = 0; i < 256; i = i + 1) total = total + out[i];
    return total % 1000003;
  }
)";

TEST(VerifyTest, MissingSsSignalOnCrossSegmentPairIsCaught) {
  // Two independent memory recurrences (s1, s2) become two HELIX
  // sequential segments. Legal module: clean, with cross-segment pairs
  // (an s1 access vs an s2 access — ordered within a worker's
  // iteration, conflict-free across iterations per the PDG) discharged
  // by the cross-segment rule. Deleting segment 0's ss_signal leaks the
  // segment past the gate protocol: the leak check must void segment
  // 0's protection and surface its recurrence as a race.
  Context Ctx;
  Checked C = transform(Ctx, TwoSegmentHelixSrc, "helix");
  ASSERT_GE(C.Parallelized, 1u);
  std::vector<Function *> Tasks = tasksOfKind(*C.M, "helix");
  ASSERT_FALSE(Tasks.empty());
  ASSERT_EQ(Tasks.front()->getMetadata(verify::TaskSegmentsKey), "2");

  verify::RaceRuleStats S;
  verify::CheckOptions On;
  On.Races.Stats = &S;
  verify::CheckReport Rep = verify::checkModule(*C.M, C.Snap, On);
  EXPECT_EQ(Rep.count(verify::DiagKind::DataRace), 0u) << Rep.str();
  EXPECT_GE(S.Discharged["cross-segment"], 1u);

  // Violation: drop every signal that closes segment 0.
  bool Erased = false;
  for (CallInst *Sig : callsTo(*Tasks.front(), "noelle_ss_signal")) {
    auto *Seg = nir::dyn_cast<ConstantInt>(Sig->getArg(1));
    if (Seg && Seg->getValue() == 0) {
      Sig->eraseFromParent();
      Erased = true;
    }
  }
  ASSERT_TRUE(Erased);

  verify::CheckReport Off = verify::checkModule(*C.M, C.Snap);
  EXPECT_GE(Off.count(verify::DiagKind::DataRace), 1u) << Off.str();
}

TEST(VerifyTest, RaceReportsDedupeByOriginPair) {
  // Duplicating a racing clone must not duplicate its diagnostic: both
  // copies carry the same origin ID, so the second report of the same
  // unordered origin pair is suppressed and counted.
  Context Ctx;
  Checked C = transform(Ctx, HelixRecurrenceSrc, "helix");
  ASSERT_GE(C.Parallelized, 1u);
  std::vector<Function *> Tasks = tasksOfKind(*C.M, "helix");
  ASSERT_FALSE(Tasks.empty());
  Function *T = Tasks.front();
  for (CallInst *Sig : callsTo(*T, "noelle_ss_signal"))
    Sig->eraseFromParent();

  verify::RaceRuleStats S1;
  verify::CheckOptions O1;
  O1.Races.Stats = &S1;
  verify::CheckReport Rep1 = verify::checkModule(*C.M, C.Snap, O1);
  uint64_t Races1 = Rep1.count(verify::DiagKind::DataRace);
  ASSERT_GE(Races1, 1u) << Rep1.str();

  // Clone the racing recurrence store (clone() keeps its provenance).
  Instruction *Racing = nullptr;
  for (const auto &BB : T->getBlocks())
    for (const auto &I : BB->getInstList())
      if (auto *St = nir::dyn_cast<nir::StoreInst>(I.get()))
        if (verify::originOf(St) &&
            rootsAtGlobal(St->getPointerOperand(), "state"))
          Racing = St;
  ASSERT_NE(Racing, nullptr);
  Instruction *Dup = Racing->clone();
  Dup->insertBefore(Racing);

  verify::RaceRuleStats S2;
  verify::CheckOptions O2;
  O2.Races.Stats = &S2;
  verify::CheckReport Rep2 = verify::checkModule(*C.M, C.Snap, O2);
  EXPECT_GE(S2.DuplicatesSuppressed, 1u);
  // The duplicate adds at most one new origin pair (its W/W self pair);
  // every pair it repeats is suppressed.
  EXPECT_LE(Rep2.count(verify::DiagKind::DataRace), Races1 + 1) << Rep2.str();
}

} // namespace
