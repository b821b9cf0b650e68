#include "xforms/DOALL.h"

#include "ir/Instructions.h"
#include "ir/Verifier.h"
#include "verify/CheckMetadata.h"

#include <algorithm>
#include <cmath>

using namespace noelle;
using nir::BasicBlock;
using nir::CmpInst;
using nir::Function;
using nir::IRBuilder;
using nir::Instruction;
using nir::PhiInst;

namespace {

/// True if \p S is an induction-variable SCC of \p IVs.
bool isIVSCC(const SCC *S, InductionVariableManager &IVs) {
  for (const auto &IV : IVs.getInductionVariables())
    if (IV->getSCC() == S || S->contains(IV->getPhi()))
      return true;
  return false;
}

} // namespace

Legality DOALL::applicable(LoopContent &LC) {
  Legality L;
  N.noteRequest(Abstraction::PDG);
  N.noteRequest(Abstraction::aSCCDAG);
  N.noteRequest(Abstraction::IV);
  N.noteRequest(Abstraction::INV);
  N.noteRequest(Abstraction::RD);
  nir::LoopStructure &LS = LC.getLoopStructure();

  if (!LS.getPreheader()) {
    L.Reason = "no preheader";
    return L;
  }
  if (LS.getExitBlocks().size() != 1) {
    L.Reason = "multiple exit blocks";
    return L;
  }
  if (LS.getExitingBlocks().size() != 1) {
    L.Reason = "multiple exiting blocks";
    return L;
  }
  // The unique exit block must be reached only from the loop, so it can
  // be retargeted to the dispatch code.
  for (BasicBlock *Pred : LS.getExitBlocks()[0]->predecessors())
    if (!LS.contains(Pred)) {
      L.Reason = "exit block has non-loop predecessors";
      return L;
    }

  auto &IVs = LC.getIVManager();
  InductionVariable *GIV = IVs.getGoverningIV();
  if (!GIV) {
    L.Reason = "no governing induction variable";
    return L;
  }
  if (!GIV->hasConstantStep() || GIV->getConstantStep() == 0) {
    L.Reason = "governing IV step is not a nonzero constant";
    return L;
  }
  // The governing branch must be the loop's only exit.
  if (GIV->getGoverningBranch()->getParent() != LS.getExitingBlocks()[0]) {
    L.Reason = "exit is not controlled by the governing IV";
    return L;
  }
  switch (GIV->getGoverningCmp()->getPred()) {
  case CmpInst::Pred::SLT:
  case CmpInst::Pred::SLE:
  case CmpInst::Pred::SGT:
  case CmpInst::Pred::SGE:
    break;
  case CmpInst::Pred::NE:
    // Counted "while (iv != bound)" form: true must continue the loop.
    if (!LS.contains(GIV->getGoverningBranch()->getSuccessor(0))) {
      L.Reason = "inverted != exit test";
      return L;
    }
    break;
  case CmpInst::Pred::EQ:
    // Counted "if (iv == bound) exit" form: true must leave the loop.
    if (LS.contains(GIV->getGoverningBranch()->getSuccessor(0))) {
      L.Reason = "inverted == exit test";
      return L;
    }
    break;
  default:
    L.Reason = "unsupported governing comparison";
    return L;
  }
  // All secondary IVs must also have constant steps (they get re-based
  // per task).
  for (const auto &IV : IVs.getInductionVariables())
    if (!IV->hasConstantStep()) {
      L.Reason = "secondary IV with non-constant step";
      return L;
    }

  // Every loop-carried dependence must live inside an IV or reduction
  // cycle.
  auto &Dag = LC.getSCCDAG();
  auto &RM = LC.getReductionManager();
  for (auto *E : LC.getLoopDG().getEdges()) {
    if (!E->IsLoopCarried)
      continue;
    auto *From = nir::dyn_cast<Instruction>(E->From);
    auto *To = nir::dyn_cast<Instruction>(E->To);
    if (!From || !To || !LS.contains(From) || !LS.contains(To))
      continue;
    SCC *SF = Dag.sccOf(From);
    SCC *ST = Dag.sccOf(To);
    if (SF != ST) {
      if (mayIgnoreCarriedDep(LC, *E, L))
        continue;
      L.Reason = "loop-carried dependence crosses SCCs";
      return L;
    }
    if (isIVSCC(SF, IVs))
      continue;
    if (RM.getReductionFor(SF))
      continue;
    if (mayIgnoreCarriedDep(LC, *E, L))
      continue;
    L.Reason = "sequential SCC (loop-carried dependence is neither IV nor "
               "reduction)";
    return L;
  }

  // Live-outs must be reduction accumulators (phi or update).
  auto &Env = LC.getEnvironment();
  for (Instruction *Out : Env.getLiveOuts()) {
    bool OK = false;
    for (const auto &R : RM.getReductions())
      if (Out == R.Phi || Out == R.Update)
        OK = true;
    if (!OK) {
      L.Reason = "live-out value is not a reduction accumulator";
      return L;
    }
  }

  for (BasicBlock *BB : LS.getBlocks())
    for (const auto &I : BB->getInstList()) {
      if (!nir::isa<PhiInst>(I.get()) && !I->isTerminator())
        ++L.BodyWeight;
      if (nir::isa<nir::LoadInst>(I.get()) ||
          nir::isa<nir::StoreInst>(I.get()))
        ++L.MemOpWeight;
    }
  L.Ok = true;
  return L;
}

TechniqueCost DOALL::estimate(const Legality &L, const LoopPlan &P,
                              const CostQuery &Q) const {
  // Iterations distribute cyclically: each of the W tasks runs ~Trip/W
  // iterations concurrently, and the dispatch pays one spawn per task.
  double W = std::max(1u, P.Workers);
  double Body =
      static_cast<double>(std::max<uint64_t>(1, L.BodyWeight)) *
      Q.BodyScale;
  TechniqueCost C;
  C.SequentialTime = Q.Invocations * Q.TripCount * Body;
  C.ParallelTime =
      Q.Invocations * (Q.TripCount * Body / W + W * Q.SpawnCostPerTask);
  return C;
}

bool DOALL::apply(LoopContent &LC, const LoopPlan &P, Decision &D) {
  D.Kind = getKind();
  Legality L = applicable(LC);
  if (!L) {
    D.Reason = L.Reason;
    return false;
  }
  D.SpecPremises = L.SpecPremises;
  unsigned Workers = std::max(1u, P.Workers);
  unsigned Chunk = std::max(1u, P.ChunkGrain);

  N.noteRequest(Abstraction::ENV);
  N.noteRequest(Abstraction::T);
  N.noteRequest(Abstraction::LB);
  N.noteRequest(Abstraction::IVS);
  N.noteRequest(Abstraction::LS);
  nir::LoopStructure &LS = LC.getLoopStructure();
  Function *F = LS.getFunction();
  nir::Module &M = *F->getParent();
  nir::Context &Ctx = M.getContext();
  auto &IVs = LC.getIVManager();
  auto &RM = LC.getReductionManager();
  auto &Env = LC.getEnvironment();

  EnvLayout Layout;
  Layout.Env = &Env;
  Layout.Lanes = Workers;

  // --- Task side -------------------------------------------------------
  ClonedLoopTask Task = cloneLoopIntoTask(
      LS, Layout, F->getName() + ".doall" + std::to_string(LS.getID()));
  Task.TaskFn->setMetadata(verify::TaskKindKey, taskKind());
  Task.TaskFn->setMetadata(verify::TaskWorkersKey, std::to_string(Workers));

  rebaseInductionVariables(IVs, Task, Workers);
  auto *TaskEntry = &Task.TaskFn->getEntryBlock();

  // Privatize reductions: identity start, store the partial into this
  // task's live-out lane at exit.
  IRBuilder ExitB(Ctx);
  ExitB.setInsertPoint(Task.ExitBlock->getTerminator());
  for (Instruction *Out : Env.getLiveOuts()) {
    const ReductionVariable *R = nullptr;
    for (const auto &Cand : RM.getReductions())
      if (Out == Cand.Phi || Out == Cand.Update)
        R = &Cand;
    assert(R && "checked in applicable()");

    auto *ClonedPhi = nir::cast<PhiInst>(Task.ValueMap[R->Phi]);
    int Idx = ClonedPhi->getBlockIndex(TaskEntry);
    assert(Idx >= 0);
    ClonedPhi->setIncomingValue(static_cast<unsigned>(Idx),
                                R->getIdentity(Ctx));

    Value *Partial = Task.ValueMap[Out];
    Value *Slot = ExitB.createGEP(
        Task.EnvArg,
        ExitB.createAdd(
            ExitB.getInt64(Layout.liveOutSlot(Out, 0)), Task.TaskIDArg,
            "lane"),
        8, "out.slot");
    ExitB.createStore(Partial, Slot);
  }

  // Speculation (SpecDOALL): instrument the task's memory accesses and
  // build the sequential fallback before the loop body disappears.
  nir::Function *SpecSeqFn = prepareSpeculation(LC, Layout, Task);
  if (SpecSeqFn && !L.SpecPremises.empty()) {
    std::string Premises;
    for (const auto &[A, B] : L.SpecPremises) {
      if (!Premises.empty())
        Premises += ',';
      Premises += std::to_string(A) + ':' + std::to_string(B);
    }
    Task.TaskFn->setMetadata(verify::TaskSpecPremisesKey, Premises);
  }

  // --- Caller side -----------------------------------------------------
  // DOALL tasks never block on each other, so dispatch them through the
  // chunked (dynamically scheduled) runtime entry point.
  BasicBlock *Dispatch = replaceLoopWithDispatch(LS, Layout, Task.TaskFn,
                                                 Workers, Chunk, SpecSeqFn);
  Value *EnvAlloca = Dispatch->front(); // first instruction: the env array
  IRBuilder CB(Ctx);
  CB.setInsertPoint(Dispatch->getTerminator());

  for (Instruction *Out : Env.getLiveOuts()) {
    const ReductionVariable *R = nullptr;
    for (const auto &Cand : RM.getReductions())
      if (Out == Cand.Phi || Out == Cand.Update)
        R = &Cand;
    Value *Acc = nullptr;
    for (unsigned Lane = 0; Lane < Workers; ++Lane) {
      Value *Partial =
          emitEnvLoad(CB, EnvAlloca, Layout.liveOutSlot(Out, Lane),
                      Out->getType(), "partial");
      Acc = Acc ? ReductionManager::emitCombine(CB, R->Op, Acc, Partial)
                : Partial;
    }
    // Fold in the value the accumulator had before the loop.
    Value *Final =
        ReductionManager::emitCombine(CB, R->Op, R->InitialValue, Acc);
    Out->replaceAllUsesWith(Final);
  }

  // finalizeLoopRemoval frees the loop's blocks, and LS reads its header
  // to answer getFunction(): resolve the host function first.
  nir::Function *HostF = LS.getFunction();
  finalizeLoopRemoval(LS, Dispatch);
  // Only the host function changed (the task bodies are new functions
  // with no cached analyses): keep every other function's bundles.
  N.invalidate(*HostF);

  assert(nir::moduleVerifies(M) && "DOALL produced invalid IR");
  D.Parallelized = true;
  D.Workers = Workers;
  return true;
}
