#include "xforms/DOALL.h"

#include "ir/Instructions.h"
#include "ir/Verifier.h"
#include "verify/CheckMetadata.h"

#include <algorithm>

using namespace noelle;
using nir::BasicBlock;
using nir::Function;
using nir::IRBuilder;
using nir::Instruction;

Legality DOALL::applicable(LoopContent &LC) {
  Legality L;
  N.noteRequest(Abstraction::PDG);
  N.noteRequest(Abstraction::aSCCDAG);
  N.noteRequest(Abstraction::IV);
  N.noteRequest(Abstraction::INV);
  N.noteRequest(Abstraction::RD);
  if (!checkLoopShape(LC, /*HeaderExit=*/false, ExitTests::OrderedOrEQ,
                      L.Reason))
    return L;
  nir::LoopStructure &LS = LC.getLoopStructure();

  // Every loop-carried dependence must live inside an IV or reduction
  // cycle.
  auto &Dag = LC.getSCCDAG();
  auto &IVs = LC.getIVManager();
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
    if (IVs.isIVSCC(SF))
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
  for (Instruction *Out : LC.getEnvironment().getLiveOuts())
    if (!RM.getReductionForLiveOut(Out)) {
      L.Reason = "live-out value is not a reduction accumulator";
      return L;
    }

  L.BodyWeight = bodyWeight(LS);
  for (BasicBlock *BB : LS.getBlocks())
    for (const auto &I : BB->getInstList())
      if (nir::isa<nir::LoadInst>(I.get()) ||
          nir::isa<nir::StoreInst>(I.get()))
        ++L.MemOpWeight;
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
  // Privatize reductions: identity start, store the partial into this
  // task's live-out lane at exit.
  for (Instruction *Out : Env.getLiveOuts())
    privatizeReduction(*RM.getReductionForLiveOut(Out), Out, Layout, Task);

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
  DispatchSite Site = replaceLoopWithDispatch(LS, Layout, Task.TaskFn,
                                              Workers, Chunk, SpecSeqFn);
  IRBuilder CB(Ctx);
  CB.setInsertPoint(Site.Block->getTerminator());
  for (Instruction *Out : Env.getLiveOuts())
    combineReductionLanes(CB, Site.Env, *RM.getReductionForLiveOut(Out), Out,
                          Layout);

  // Only the host function changed (the task bodies are new functions
  // with no cached analyses): keep every other function's bundles.
  N.invalidate(*finalizeLoopRemoval(LS, Site.Block));

  assert(nir::moduleVerifies(M) && "DOALL produced invalid IR");
  D.Parallelized = true;
  D.Workers = Workers;
  return true;
}
