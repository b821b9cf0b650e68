#include "xforms/HELIX.h"

#include "analysis/Dominators.h"
#include "ir/IDs.h"
#include "ir/Instructions.h"
#include "ir/Verifier.h"
#include "runtime/ParallelRuntime.h"
#include "verify/CheckMetadata.h"

#include <algorithm>
#include <cmath>

using namespace noelle;
using nir::BasicBlock;
using nir::CmpInst;
using nir::DominatorTree;
using nir::Function;
using nir::IRBuilder;
using nir::Instruction;
using nir::PhiInst;

namespace {

bool isIVSCC(const SCC *S, InductionVariableManager &IVs) {
  for (const auto &IV : IVs.getInductionVariables())
    if (IV->getSCC() == S || S->contains(IV->getPhi()))
      return true;
  return false;
}

/// Program-order position of an instruction inside its function
/// (block-major). Used to order segment members.
uint64_t positionOf(const Instruction *I) {
  uint64_t Pos = 0;
  const Function *F = I->getFunction();
  for (const auto &BB : F->getBlocks())
    for (const auto &Inst : BB->getInstList()) {
      if (Inst.get() == I)
        return Pos;
      ++Pos;
    }
  assert(false && "instruction not found");
  return Pos;
}

} // namespace

bool HELIX::computeSegments(
    LoopContent &LC, std::vector<std::vector<Instruction *>> &SegmentsOut,
    std::string &Reason) {
  N.noteRequest(Abstraction::PDG);
  N.noteRequest(Abstraction::aSCCDAG);
  N.noteRequest(Abstraction::IV);
  N.noteRequest(Abstraction::INV);
  N.noteRequest(Abstraction::RD);
  N.noteRequest(Abstraction::DFE);
  N.noteRequest(Abstraction::SCD);
  nir::LoopStructure &LS = LC.getLoopStructure();

  if (!LS.getPreheader()) {
    Reason = "no preheader";
    return false;
  }
  if (LS.getExitBlocks().size() != 1 || LS.getExitingBlocks().size() != 1) {
    Reason = "multiple exits";
    return false;
  }
  for (BasicBlock *Pred : LS.getExitBlocks()[0]->predecessors())
    if (!LS.contains(Pred)) {
      Reason = "exit block has non-loop predecessors";
      return false;
    }
  // Sequential segments must run after the iteration is known to
  // execute, so the exit test has to be in the header (while form).
  if (LS.getExitingBlocks()[0] != LS.getHeader()) {
    Reason = "loop is not in while form (header must be the exit)";
    return false;
  }

  auto &IVs = LC.getIVManager();
  InductionVariable *GIV = IVs.getGoverningIV();
  if (!GIV || !GIV->hasConstantStep() || GIV->getConstantStep() == 0) {
    Reason = "no governing IV with constant step";
    return false;
  }
  if (GIV->getGoverningBranch()->getParent() != LS.getHeader()) {
    Reason = "exit not governed from the header";
    return false;
  }
  switch (GIV->getGoverningCmp()->getPred()) {
  case CmpInst::Pred::SLT:
  case CmpInst::Pred::SLE:
  case CmpInst::Pred::SGT:
  case CmpInst::Pred::SGE:
    break;
  case CmpInst::Pred::NE:
    if (!LS.contains(GIV->getGoverningBranch()->getSuccessor(0))) {
      Reason = "inverted != exit test";
      return false;
    }
    break;
  default:
    Reason = "unsupported governing comparison";
    return false;
  }
  for (const auto &IV : IVs.getInductionVariables())
    if (!IV->hasConstantStep()) {
      Reason = "secondary IV with non-constant step";
      return false;
    }

  // Group the SCCs that carry cross-iteration dependences (outside IV
  // and reduction cycles) into sequential segments.
  auto &Dag = LC.getSCCDAG();
  auto &RM = LC.getReductionManager();
  std::map<SCC *, unsigned> GroupOf;
  std::vector<std::set<SCC *>> Groups;
  auto GroupFor = [&](SCC *S) -> unsigned {
    auto It = GroupOf.find(S);
    if (It != GroupOf.end())
      return It->second;
    Groups.push_back({S});
    GroupOf[S] = static_cast<unsigned>(Groups.size() - 1);
    return GroupOf[S];
  };
  auto Merge = [&](SCC *A, SCC *B) {
    unsigned GA = GroupFor(A), GB = GroupFor(B);
    if (GA == GB)
      return;
    for (SCC *S : Groups[GB]) {
      Groups[GA].insert(S);
      GroupOf[S] = GA;
    }
    Groups[GB].clear();
  };

  for (auto *E : LC.getLoopDG().getEdges()) {
    if (!E->IsLoopCarried)
      continue;
    auto *From = nir::dyn_cast<Instruction>(E->From);
    auto *To = nir::dyn_cast<Instruction>(E->To);
    if (!From || !To || !LS.contains(From) || !LS.contains(To))
      continue;
    SCC *SF = Dag.sccOf(From);
    SCC *ST = Dag.sccOf(To);
    if (SF == ST && (isIVSCC(SF, IVs) || RM.getReductionFor(SF)))
      continue;
    GroupFor(SF);
    if (ST != SF)
      Merge(SF, ST);
  }

  // Materialize segments and check their shape.
  DominatorTree &DT = N.getDominators(*LS.getFunction());
  SegmentsOut.clear();
  for (const auto &G : Groups) {
    if (G.empty())
      continue;
    std::vector<Instruction *> Members;
    for (SCC *S : G)
      for (auto *V : S->getNodes())
        Members.push_back(nir::cast<Instruction>(V));
    std::sort(Members.begin(), Members.end(),
              [](Instruction *A, Instruction *B) {
                return positionOf(A) < positionOf(B);
              });

    for (Instruction *I : Members) {
      if (auto *Phi = nir::dyn_cast<PhiInst>(I)) {
        if (Phi->getParent() != LS.getHeader()) {
          Reason = "sequential segment carries a non-header phi";
          return false;
        }
        continue;
      }
      if (I->getParent() == LS.getHeader()) {
        Reason = "sequential work in the header (would wait before the "
                 "exit test)";
        return false;
      }
      // Members must execute exactly once per iteration.
      bool DominatesLatches = true;
      for (BasicBlock *Latch : LS.getLatches())
        if (!DT.dominates(I->getParent(), Latch))
          DominatesLatches = false;
      if (!DominatesLatches) {
        Reason = "sequential segment under loop-variant control flow";
        return false;
      }
    }

    // Spilled recurrence phis: every use must sit inside the segment or
    // after its first non-phi member (the load lands right there).
    uint64_t FirstNonPhiPos = UINT64_MAX;
    for (Instruction *I : Members)
      if (!nir::isa<PhiInst>(I))
        FirstNonPhiPos = std::min(FirstNonPhiPos, positionOf(I));
    std::set<Instruction *> MemberSet(Members.begin(), Members.end());
    for (Instruction *I : Members) {
      auto *Phi = nir::dyn_cast<PhiInst>(I);
      if (!Phi)
        continue;
      for (const auto &U : Phi->uses()) {
        auto *UserInst =
            nir::dyn_cast<Instruction>(static_cast<Value *>(U.TheUser));
        if (!UserInst || !LS.contains(UserInst))
          continue; // Outside uses read the shared slot after dispatch.
        if (MemberSet.count(UserInst))
          continue;
        if (positionOf(UserInst) < FirstNonPhiPos) {
          Reason = "recurrence value used before the segment starts";
          return false;
        }
      }
    }

    SegmentsOut.push_back(std::move(Members));
  }

  // Live-outs: reductions (combined across lanes) or segment members
  // (final value read from the shared spill slot).
  auto &Env = LC.getEnvironment();
  for (Instruction *Out : Env.getLiveOuts()) {
    bool IsReduction = false;
    for (const auto &R : RM.getReductions())
      if (Out == R.Phi || Out == R.Update)
        IsReduction = true;
    bool InSegment = false;
    for (const auto &Seg : SegmentsOut)
      for (Instruction *I : Seg)
        if (I == Out)
          InSegment = true;
    if (!IsReduction && !InSegment) {
      Reason = "live-out is neither a reduction nor sequential state";
      return false;
    }
  }

  return true;
}

Legality HELIX::applicable(LoopContent &LC) {
  Legality L;
  std::vector<std::vector<Instruction *>> Segments;
  if (!computeSegments(LC, Segments, L.Reason))
    return L;
  nir::LoopStructure &LS = LC.getLoopStructure();
  for (BasicBlock *BB : LS.getBlocks())
    for (const auto &I : BB->getInstList())
      if (!nir::isa<PhiInst>(I.get()) && !I->isTerminator())
        ++L.BodyWeight;
  L.NumSegments = static_cast<unsigned>(Segments.size());
  for (const auto &S : Segments)
    L.SegmentWeight += S.size();
  L.Ok = true;
  return L;
}

TechniqueCost HELIX::estimate(const Legality &L, const LoopPlan &P,
                              const CostQuery &Q) const {
  // Iterations distribute cyclically; each task runs ~Trip/W of them,
  // paying two gate operations per segment per iteration on its own
  // path, but the sequential segments' dynamic instances execute in
  // iteration order across cores, so the total segment work floors the
  // region time (the figure-5 model's HELIX bound).
  double W = std::max(1u, P.Workers);
  double Body =
      static_cast<double>(std::max<uint64_t>(1, L.BodyWeight)) *
      Q.BodyScale;
  double PerIterSync =
      2.0 * Q.SyncCost * static_cast<double>(L.NumSegments);
  double MaxTask = Q.TripCount * (Body + PerIterSync) / W;
  double SegmentFloor =
      Q.TripCount * static_cast<double>(L.SegmentWeight) * Q.BodyScale;
  TechniqueCost C;
  C.SequentialTime = Q.Invocations * Q.TripCount * Body;
  C.ParallelTime = Q.Invocations * (std::max(MaxTask, SegmentFloor) +
                                    W * Q.SpawnCostPerTask);
  return C;
}

bool HELIX::profitable(LoopContent &LC, const Legality &L,
                       std::string &Reason) {
  (void)LC;
  // Profitability: per iteration, the serialized portion costs the
  // segment work plus two gate operations per segment; the parallel
  // portion divides across cores. Decline when the estimate is below
  // the threshold (the paper's HELIX prunes via PRO + AR).
  if (Opts.MinimumEstimatedSpeedup <= 0 || L.NumSegments == 0)
    return true;
  double Serialized = static_cast<double>(
      L.SegmentWeight +
      2 * perfmodel::SyncCostPerOp * static_cast<uint64_t>(L.NumSegments));
  double Parallel =
      static_cast<double>(L.BodyWeight) / static_cast<double>(Opts.NumCores);
  double Estimate =
      static_cast<double>(L.BodyWeight) / std::max(Serialized, Parallel);
  if (Estimate < Opts.MinimumEstimatedSpeedup) {
    Reason = "not profitable (sequential segments dominate)";
    return false;
  }
  return true;
}

bool HELIX::apply(LoopContent &LC, const LoopPlan &P, Decision &D) {
  D.Kind = TechniqueKind::HELIX;
  std::vector<std::vector<Instruction *>> Segments;
  if (!computeSegments(LC, Segments, D.Reason))
    return false;
  D.NumSequentialSegments = static_cast<unsigned>(Segments.size());
  unsigned Workers = std::max(1u, P.Workers);

  N.noteRequest(Abstraction::ENV);
  N.noteRequest(Abstraction::T);
  N.noteRequest(Abstraction::LB);
  N.noteRequest(Abstraction::IVS);
  N.noteRequest(Abstraction::LS);
  N.noteRequest(Abstraction::FR);
  N.noteRequest(Abstraction::PRO);
  N.noteRequest(Abstraction::AR);
  nir::LoopStructure &LS = LC.getLoopStructure();
  Function *F = LS.getFunction();
  nir::Module &M = *F->getParent();
  nir::Context &Ctx = M.getContext();
  declareParallelRuntime(M);
  auto &IVs = LC.getIVManager();
  auto &RM = LC.getReductionManager();
  auto &Env = LC.getEnvironment();

  EnvLayout Layout;
  Layout.Env = &Env;
  Layout.Lanes = Workers;

  // Environment extras: one shared spill slot per recurrence phi, plus
  // the gates pointer.
  std::vector<PhiInst *> SpilledPhis;
  std::map<const PhiInst *, unsigned> SpillSlot;
  for (const auto &Seg : Segments)
    for (Instruction *I : Seg)
      if (auto *Phi = nir::dyn_cast<PhiInst>(I)) {
        SpillSlot[Phi] = Layout.totalSlots() +
                         static_cast<unsigned>(SpilledPhis.size());
        SpilledPhis.push_back(Phi);
      }
  unsigned GatesSlot =
      Layout.totalSlots() + static_cast<unsigned>(SpilledPhis.size());
  unsigned TotalSlots = GatesSlot + 1;

  // --- Task side -------------------------------------------------------
  ClonedLoopTask Task = cloneLoopIntoTask(
      LS, Layout, F->getName() + ".helix" + std::to_string(LS.getID()));
  Task.TaskFn->setMetadata(verify::TaskKindKey, "helix");
  Task.TaskFn->setMetadata(verify::TaskWorkersKey, std::to_string(Workers));
  Task.TaskFn->setMetadata(verify::TaskSegmentsKey,
                           std::to_string(Segments.size()));
  auto *TaskEntry = &Task.TaskFn->getEntryBlock();
  IRBuilder TB(Ctx);
  TB.setInsertPoint(TaskEntry->getTerminator());

  // Load the gates pointer.
  Value *Gates =
      emitEnvLoad(TB, Task.EnvArg, GatesSlot, Ctx.getPtrTy(), "gates");

  rebaseInductionVariables(IVs, Task, Workers);

  // Global iteration counter: g = phi [taskID, entry], [g + N, latch].
  auto *ClonedHeader = nir::cast<BasicBlock>(Task.ValueMap[LS.getHeader()]);
  auto *GPhi = new PhiInst(Ctx.getInt64Ty());
  GPhi->setName("helix.iter");
  ClonedHeader->insert(ClonedHeader->front(),
                       std::unique_ptr<Instruction>(GPhi));
  Instruction *GNext;
  {
    IRBuilder HB(Ctx);
    HB.setInsertPoint(ClonedHeader->getFirstNonPhi());
    GNext = HB.createAdd(GPhi, HB.getInt64(Workers), "helix.iter.next");
  }
  GPhi->addIncoming(Task.TaskIDArg, TaskEntry);
  for (BasicBlock *Latch : LS.getLatches())
    GPhi->addIncoming(GNext, nir::cast<BasicBlock>(Task.ValueMap[Latch]));

  // Instrument each sequential segment with wait/signal gates, spilling
  // recurrence phis through shared environment slots.
  nir::Function *WaitFn = M.getFunction("noelle_ss_wait");
  nir::Function *SignalFn = M.getFunction("noelle_ss_signal");
  for (unsigned SegIdx = 0; SegIdx < Segments.size(); ++SegIdx) {
    auto &Seg = Segments[SegIdx];
    Instruction *FirstNonPhi = nullptr, *LastNonPhi = nullptr;
    for (Instruction *I : Seg) {
      if (nir::isa<PhiInst>(I))
        continue;
      if (!FirstNonPhi)
        FirstNonPhi = I;
      LastNonPhi = I;
    }
    assert(FirstNonPhi && "segment without executable members");
    auto *ClonedFirst = nir::cast<Instruction>(Task.ValueMap[FirstNonPhi]);
    auto *ClonedLast = nir::cast<Instruction>(Task.ValueMap[LastNonPhi]);

    IRBuilder SB(Ctx);
    SB.setInsertPoint(ClonedFirst);
    SB.createCall(WaitFn, {Gates, Ctx.getInt64(SegIdx), GPhi});
    // Spill loads right after the wait.
    for (Instruction *I : Seg) {
      auto *Phi = nir::dyn_cast<PhiInst>(I);
      if (!Phi)
        continue;
      auto *ClonedPhi = nir::cast<PhiInst>(Task.ValueMap[Phi]);
      Value *Slot = SB.createGEP(Task.EnvArg,
                                 SB.getInt64(SpillSlot[Phi]), 8, "spill");
      nir::LoadInst *Loaded = SB.createLoad(Phi->getType(), Slot, "recur");
      std::string PhiId = Phi->getMetadata(nir::InstIDKey);
      if (!PhiId.empty())
        Loaded->setMetadata(verify::CheckSpillKey, PhiId);
      ClonedPhi->replaceAllUsesWith(Loaded);
      // The cloned phi is dead now; drop it.
      ClonedPhi->eraseFromParent();
      Task.ValueMap[Phi] = Loaded;
    }
    // Spill stores + signal after the last member.
    Instruction *SignalPos = ClonedLast->getNextInst();
    assert(SignalPos && "segment member cannot be a terminator");
    SB.setInsertPoint(SignalPos);
    for (Instruction *I : Seg) {
      auto *Phi = nir::dyn_cast<PhiInst>(I);
      if (!Phi)
        continue;
      // The value crossing to the next iteration: the phi's in-loop
      // incoming (mapped).
      Value *NextVal = nullptr;
      for (unsigned K = 0; K < Phi->getNumIncoming(); ++K)
        if (LS.contains(Phi->getIncomingBlock(K)))
          NextVal = Phi->getIncomingValue(K);
      assert(NextVal);
      auto MappedIt = Task.ValueMap.find(NextVal);
      Value *MappedNext =
          MappedIt != Task.ValueMap.end() ? MappedIt->second : NextVal;
      Value *Slot = SB.createGEP(Task.EnvArg,
                                 SB.getInt64(SpillSlot[Phi]), 8, "spill");
      nir::StoreInst *SpillStore = SB.createStore(MappedNext, Slot);
      std::string PhiId = Phi->getMetadata(nir::InstIDKey);
      if (!PhiId.empty())
        SpillStore->setMetadata(verify::CheckSpillKey, PhiId);
    }
    SB.createCall(SignalFn, {Gates, Ctx.getInt64(SegIdx), GPhi});
  }

  // Privatize reductions (identity + lane store), as in DOALL.
  IRBuilder ExitB(Ctx);
  ExitB.setInsertPoint(Task.ExitBlock->getTerminator());
  for (Instruction *Out : Env.getLiveOuts()) {
    const ReductionVariable *R = nullptr;
    for (const auto &Cand : RM.getReductions())
      if (Out == Cand.Phi || Out == Cand.Update)
        R = &Cand;
    if (!R)
      continue; // Segment live-outs are read from the spill slot.
    auto *ClonedPhi = nir::cast<PhiInst>(Task.ValueMap[R->Phi]);
    int Idx = ClonedPhi->getBlockIndex(TaskEntry);
    ClonedPhi->setIncomingValue(static_cast<unsigned>(Idx),
                                R->getIdentity(Ctx));
    Value *Partial = Task.ValueMap[Out];
    Value *Slot = ExitB.createGEP(
        Task.EnvArg,
        ExitB.createAdd(ExitB.getInt64(Layout.liveOutSlot(Out, 0)),
                        Task.TaskIDArg, "lane"),
        8, "out.slot");
    ExitB.createStore(Partial, Slot);
  }

  // --- Caller side -----------------------------------------------------
  // replaceLoopWithDispatch allocates only Layout.totalSlots(); HELIX
  // needs the extra spill/gates slots, so emit the env alloca and
  // initialization manually by widening the layout trick: temporarily
  // borrow the helper then patch the alloca size.
  BasicBlock *Dispatch =
      replaceLoopWithDispatch(LS, Layout, Task.TaskFn, Workers);
  auto *EnvAlloca = nir::cast<nir::AllocaInst>(Dispatch->front());
  // Widen the environment array to include spill + gates slots.
  auto *Widened = new nir::AllocaInst(
      Ctx.getPtrTy(), Ctx.getArrayTy(Ctx.getInt64Ty(), TotalSlots));
  Widened->setName("env");
  Widened->insertBefore(EnvAlloca);
  EnvAlloca->replaceAllUsesWith(Widened);
  EnvAlloca->eraseFromParent();
  Value *EnvV = Widened;

  // Initialize spill slots and gates before the dispatch call.
  nir::Instruction *DispatchCall = nullptr;
  for (auto &I : Dispatch->getInstList())
    if (auto *C = nir::dyn_cast<nir::CallInst>(I.get()))
      if (C->getCalledFunction() &&
          C->getCalledFunction()->getName() == "noelle_dispatch")
        DispatchCall = C;
  assert(DispatchCall);
  IRBuilder CB(Ctx);
  CB.setInsertPoint(DispatchCall);
  for (PhiInst *Phi : SpilledPhis) {
    Value *Init = nullptr;
    for (unsigned K = 0; K < Phi->getNumIncoming(); ++K)
      if (!LS.contains(Phi->getIncomingBlock(K)))
        Init = Phi->getIncomingValue(K);
    assert(Init && "recurrence phi lacks an entry value");
    emitEnvStore(CB, EnvV, SpillSlot[Phi], Init);
  }
  nir::Function *SSCreate = M.getFunction("noelle_ss_create");
  Value *GatesV = CB.createCall(
      SSCreate, {Ctx.getInt64(static_cast<int64_t>(Segments.size()))},
      "gates");
  emitEnvStore(CB, EnvV, GatesSlot, GatesV);

  // Live-outs after the dispatch.
  CB.setInsertPoint(Dispatch->getTerminator());
  for (Instruction *Out : Env.getLiveOuts()) {
    const ReductionVariable *R = nullptr;
    for (const auto &Cand : RM.getReductions())
      if (Out == Cand.Phi || Out == Cand.Update)
        R = &Cand;
    if (R) {
      Value *Acc = nullptr;
      for (unsigned Lane = 0; Lane < Workers; ++Lane) {
        Value *Partial = emitEnvLoad(CB, EnvV, Layout.liveOutSlot(Out, Lane),
                                     Out->getType(), "partial");
        Acc = Acc ? ReductionManager::emitCombine(CB, R->Op, Acc, Partial)
                  : Partial;
      }
      Value *Final =
          ReductionManager::emitCombine(CB, R->Op, R->InitialValue, Acc);
      Out->replaceAllUsesWith(Final);
      continue;
    }
    // Segment state: its final value lives in the spill slot.
    const PhiInst *StatePhi = nullptr;
    for (PhiInst *Phi : SpilledPhis) {
      if (Out == Phi) {
        StatePhi = Phi;
        break;
      }
      for (unsigned K = 0; K < Phi->getNumIncoming(); ++K)
        if (LS.contains(Phi->getIncomingBlock(K)) &&
            Phi->getIncomingValue(K) == Out)
          StatePhi = Phi;
    }
    assert(StatePhi && "live-out admitted by computeSegments but untracked");
    Value *Final = emitEnvLoad(CB, EnvV, SpillSlot.at(StatePhi),
                               Out->getType(), "state.final");
    Out->replaceAllUsesWith(Final);
  }

  // finalizeLoopRemoval frees the loop's blocks, and LS reads its header
  // to answer getFunction(): resolve the host function first.
  nir::Function *HostF = LS.getFunction();
  finalizeLoopRemoval(LS, Dispatch);
  // Only the host function changed (the task bodies are new functions
  // with no cached analyses): keep every other function's bundles.
  N.invalidate(*HostF);
  assert(nir::moduleVerifies(M) && "HELIX produced invalid IR");
  D.Parallelized = true;
  D.Workers = Workers;
  return true;
}
