#include "xforms/DSWP.h"

#include "analysis/Dominators.h"
#include "ir/IDs.h"
#include "ir/Instructions.h"
#include "ir/Verifier.h"
#include "runtime/ParallelRuntime.h"
#include "verify/CheckMetadata.h"

#include <algorithm>

using namespace noelle;
using nir::BasicBlock;
using nir::BinaryInst;
using nir::CastInst;
using nir::CmpInst;
using nir::DominatorTree;
using nir::Function;
using nir::IRBuilder;
using nir::Instruction;
using nir::PhiInst;

namespace {

/// Capacity of every inter-stage queue, in values.
constexpr int64_t QueueCapacity = 128;

/// Bitcasts \p V to i64 for queue transport (doubles/pointers included).
Value *toQueueWord(IRBuilder &B, Value *V) {
  nir::Type *Ty = V->getType();
  nir::Context &Ctx = B.getContext();
  if (Ty == Ctx.getInt64Ty())
    return V;
  if (Ty->isDouble())
    return B.createCast(CastInst::Op::Bitcast, V, Ctx.getInt64Ty());
  if (Ty->isPointer() || Ty->isFunction())
    return B.createCast(CastInst::Op::PtrToInt, V, Ctx.getInt64Ty());
  return B.createCast(CastInst::Op::ZExt, V, Ctx.getInt64Ty());
}

/// Converts a popped i64 back to \p Ty.
Value *fromQueueWord(IRBuilder &B, Value *Word, nir::Type *Ty) {
  nir::Context &Ctx = B.getContext();
  if (Ty == Ctx.getInt64Ty())
    return Word;
  if (Ty->isDouble())
    return B.createCast(CastInst::Op::Bitcast, Word, Ty);
  if (Ty->isPointer() || Ty->isFunction())
    return B.createCast(CastInst::Op::IntToPtr, Word, Ctx.getPtrTy());
  return B.createCast(CastInst::Op::Trunc, Word, Ty);
}

} // namespace

bool DSWP::analyze(LoopContent &LC, unsigned Workers, PipelineAnalysis &A,
                   std::string &Reason) {
  N.noteRequest(Abstraction::PDG);
  N.noteRequest(Abstraction::aSCCDAG);
  N.noteRequest(Abstraction::IV);
  N.noteRequest(Abstraction::INV);
  N.noteRequest(Abstraction::RD);
  N.noteRequest(Abstraction::PRO);
  N.noteRequest(Abstraction::SCD);
  N.noteRequest(Abstraction::FR);
  N.noteRequest(Abstraction::AR);
  nir::LoopStructure &LS = LC.getLoopStructure();
  auto Fail = [&](const std::string &R) {
    Reason = R;
    return false;
  };

  if (!checkLoopShape(LC, /*HeaderExit=*/true, ExitTests::Any, Reason))
    return false;

  // Straight-line body: every block must execute exactly once per
  // iteration (control-equivalent to the latch).
  DominatorTree &DT = N.getDominators(*LS.getFunction());
  for (BasicBlock *BB : LS.getBlocks())
    for (BasicBlock *Latch : LS.getLatches())
      if (BB != LS.getHeader() && !DT.dominates(BB, Latch))
        return Fail("loop body has internal control flow");

  // Partition plan: replicated skeleton = IV SCCs + exit machinery +
  // terminators; the rest are pipeline candidates. SCCs connected by
  // memory dependences or loop-carried edges must share a stage.
  auto &Dag = LC.getSCCDAG();
  auto &IVs = LC.getIVManager();
  auto &RM = LC.getReductionManager();
  std::vector<SCC *> Topo = Dag.getTopologicalOrder();

  std::set<SCC *> Replicated;
  for (const auto &S : Dag.getSCCs()) {
    if (IVs.isIVSCC(S.get())) {
      Replicated.insert(S.get());
      continue;
    }
    bool OnlyControlMachinery = true;
    for (auto *V : S->getNodes()) {
      auto *I = nir::cast<Instruction>(V);
      if (!I->isTerminator() && !nir::isa<CmpInst>(I))
        OnlyControlMachinery = false;
    }
    if (OnlyControlMachinery)
      Replicated.insert(S.get());
  }

  // Union-find over pipeline candidates.
  std::map<SCC *, SCC *> Parent;
  std::function<SCC *(SCC *)> Find = [&](SCC *S) -> SCC * {
    auto It = Parent.find(S);
    if (It == Parent.end() || It->second == S)
      return S;
    SCC *Root = Find(It->second);
    Parent[S] = Root;
    return Root;
  };
  auto Union = [&](SCC *A, SCC *B) { Parent[Find(A)] = Find(B); };

  for (auto *E : LC.getLoopDG().getEdges()) {
    auto *From = nir::dyn_cast<Instruction>(E->From);
    auto *To = nir::dyn_cast<Instruction>(E->To);
    if (!From || !To || !LS.contains(From) || !LS.contains(To))
      continue;
    SCC *SF = Dag.sccOf(From);
    SCC *ST = Dag.sccOf(To);
    if (SF == ST)
      continue;
    if (Replicated.count(SF) || Replicated.count(ST)) {
      // Loop-carried edges into/out of the replicated skeleton are fine
      // (the skeleton is recomputed everywhere); others note below.
      continue;
    }
    if (E->IsMemory || E->IsLoopCarried)
      Union(SF, ST);
  }
  // A loop-carried register edge between pipeline candidates merged them
  // above; cycles between merged groups cannot exist because Tarjan
  // already grouped all mutual dependences.

  // Build ordered groups (by first SCC appearance in topological order).
  std::vector<SCC *> GroupOrder;
  std::map<SCC *, std::vector<SCC *>> GroupMembers;
  for (SCC *S : Topo) {
    if (Replicated.count(S))
      continue;
    SCC *Root = Find(S);
    if (!GroupMembers.count(Root))
      GroupOrder.push_back(Root);
    GroupMembers[Root].push_back(S);
  }

  // Check the group graph is acyclic under the topological group order
  // (an edge from a later group to an earlier one would need a backward
  // queue; reject those loops).
  std::map<SCC *, unsigned> GroupIdx;
  for (unsigned I = 0; I < GroupOrder.size(); ++I)
    for (SCC *S : GroupMembers[GroupOrder[I]])
      GroupIdx[S] = I;
  for (auto *E : LC.getLoopDG().getEdges()) {
    auto *From = nir::dyn_cast<Instruction>(E->From);
    auto *To = nir::dyn_cast<Instruction>(E->To);
    if (!From || !To || !LS.contains(From) || !LS.contains(To))
      continue;
    SCC *SF = Dag.sccOf(From);
    SCC *ST = Dag.sccOf(To);
    if (!GroupIdx.count(SF) || !GroupIdx.count(ST))
      continue;
    if (GroupIdx[SF] > GroupIdx[ST])
      return Fail("pipeline would need a backward queue");
  }

  if (GroupOrder.size() < 2)
    return Fail("fewer than two pipeline stages");

  // Balance contiguous groups into stages by instruction weight (greedy
  // chunking against the ideal share). Cap the stage count so each
  // stage keeps enough per-iteration work to amortize its queues.
  std::vector<uint64_t> GroupWeight(GroupOrder.size(), 0);
  uint64_t TotalWeight = 0;
  for (unsigned I = 0; I < GroupOrder.size(); ++I) {
    for (SCC *S : GroupMembers[GroupOrder[I]])
      GroupWeight[I] += S->size();
    TotalWeight += GroupWeight[I];
  }
  A.NumGroups = static_cast<unsigned>(GroupOrder.size());
  A.TotalWeight = TotalWeight;
  A.MaxGroupWeight = *std::max_element(GroupWeight.begin(), GroupWeight.end());
  unsigned NumStages =
      std::min<unsigned>(Workers, static_cast<unsigned>(GroupOrder.size()));
  if (Opts.MinimumStageWeight)
    NumStages = std::min<unsigned>(
        NumStages,
        static_cast<unsigned>(TotalWeight / Opts.MinimumStageWeight));
  if (NumStages < 2)
    return Fail("not profitable (stages too small to amortize queues)");
  // Greedy chunking can fail to place a single boundary at a high stage
  // target when the weight is concentrated in the last groups (the
  // "leave one group per remaining stage" guard vetoes every split), so
  // retry with progressively fewer stages: a 2-stage split exists
  // whenever there are two groups at all.
  std::vector<unsigned> StageOfGroup(GroupOrder.size(), 0);
  for (unsigned Target = NumStages; Target >= 2; --Target) {
    double Ideal = static_cast<double>(TotalWeight) / Target;
    unsigned Stage = 0;
    double Acc = 0;
    for (unsigned I = 0; I < GroupOrder.size(); ++I) {
      StageOfGroup[I] = Stage;
      Acc += static_cast<double>(GroupWeight[I]);
      unsigned Remaining = static_cast<unsigned>(GroupOrder.size()) - I - 1;
      if (Acc >= Ideal && Stage + 1 < Target &&
          Remaining >= (Target - Stage - 1)) {
        ++Stage;
        Acc = 0;
      }
    }
    NumStages = Stage + 1;
    if (NumStages >= 2)
      break;
  }
  if (NumStages < 2)
    return Fail("stage balancing collapsed to one stage");
  if (Opts.MinimumStageWeight &&
      TotalWeight / NumStages < Opts.MinimumStageWeight)
    return Fail("not profitable (stages too small to amortize queues)");

  // Ownership map: instruction -> stage.
  A.StageOf.clear();
  for (unsigned I = 0; I < GroupOrder.size(); ++I)
    for (SCC *S : GroupMembers[GroupOrder[I]])
      for (auto *V : S->getNodes())
        A.StageOf[nir::cast<Instruction>(V)] = StageOfGroup[I];

  // Live-outs: reduction accumulators, or header phis owned by a single
  // stage (their clone dominates the task exit, so the final value can
  // be stored there — e.g. the last value of a pipelined recurrence).
  auto &Env = LC.getEnvironment();
  for (Instruction *Out : Env.getLiveOuts()) {
    bool IsOwnedHeaderPhi = nir::isa<PhiInst>(Out) &&
                            Out->getParent() == LS.getHeader() &&
                            A.StageOf.count(Out);
    if (!RM.getReductionForLiveOut(Out) && !IsOwnedHeaderPhi)
      return Fail("live-out value is not a reduction accumulator or "
                  "stage-owned recurrence");
  }

  // Cross-stage register edges -> queues. Collect (def, consumerStage).
  A.Queues.clear();
  std::map<std::pair<const Instruction *, unsigned>, unsigned> QueueIdx;
  for (BasicBlock *BB : LS.getBlocks())
    for (const auto &IPtr : BB->getInstList()) {
      Instruction *I = IPtr.get();
      auto DefIt = A.StageOf.find(I);
      for (Value *Op : I->operands()) {
        auto *Def = nir::dyn_cast<Instruction>(Op);
        if (!Def || !LS.contains(Def))
          continue;
        auto OpIt = A.StageOf.find(Def);
        if (OpIt == A.StageOf.end())
          continue; // Replicated producer: recomputed locally.
        unsigned ConsumerStage;
        if (DefIt != A.StageOf.end())
          ConsumerStage = DefIt->second;
        else
          // Consumer is replicated (e.g. feeds the skeleton): it exists
          // in every stage; that would need a broadcast queue.
          return Fail("pipeline value consumed by the replicated skeleton");
        if (OpIt->second == ConsumerStage)
          continue;
        auto Key = std::make_pair(static_cast<const Instruction *>(Def),
                                  ConsumerStage);
        if (!QueueIdx.count(Key)) {
          QueueIdx[Key] = static_cast<unsigned>(A.Queues.size());
          A.Queues.push_back({Def, OpIt->second, ConsumerStage});
        }
      }
    }

  A.NumStages = NumStages;
  return true;
}

Legality DSWP::applicable(LoopContent &LC) {
  Legality L;
  PipelineAnalysis A;
  if (!analyze(LC, Opts.NumCores, A, L.Reason))
    return L;
  L.BodyWeight = bodyWeight(LC.getLoopStructure());
  L.NumStages = A.NumStages;
  L.NumQueues = static_cast<unsigned>(A.Queues.size());
  L.NumGroups = A.NumGroups;
  L.TotalPipelineWeight = A.TotalWeight;
  L.MaxGroupWeight = A.MaxGroupWeight;
  if (A.NumStages > 0) {
    std::vector<unsigned> OpsPerStage(A.NumStages, 0);
    for (const auto &Q : A.Queues) {
      if (Q.FromStage < A.NumStages)
        ++OpsPerStage[Q.FromStage]; // push
      if (Q.ToStage < A.NumStages)
        ++OpsPerStage[Q.ToStage]; // pop
    }
    L.MaxStageQueueOps =
        *std::max_element(OpsPerStage.begin(), OpsPerStage.end());
  }
  L.Ok = true;
  return L;
}

TechniqueCost DSWP::estimate(const Legality &L, const LoopPlan &P,
                             const CostQuery &Q) const {
  // The pipeline's throughput is set by its bottleneck stage: at best
  // the work splits evenly, but an unsplittable SCC group floors the
  // bottleneck. Every stage also replicates the control skeleton and
  // pays two queue operations per crossing value per iteration.
  double Body =
      static_cast<double>(std::max<uint64_t>(1, L.BodyWeight)) *
      Q.BodyScale;
  unsigned Stages = std::min(std::max(1u, P.Workers),
                             std::max(1u, L.NumGroups));
  double S = Stages;
  double PipeWork =
      static_cast<double>(L.TotalPipelineWeight) * Q.BodyScale;
  double Bottleneck =
      std::max(PipeWork / S,
               static_cast<double>(L.MaxGroupWeight) * Q.BodyScale);
  double Skeleton = Body > PipeWork ? Body - PipeWork : 0.0;
  // Queue traffic is charged at the bottleneck stage: its own pushes
  // and pops serialize with its compute, while other stages' queue ops
  // overlap. This is at least the old average charge
  // (2*SyncCost*NumQueues/S), and strictly more when the queue layout
  // is skewed toward one stage.
  double QueueOps =
      Q.SyncCost * static_cast<double>(L.MaxStageQueueOps);
  TechniqueCost C;
  C.SequentialTime = Q.Invocations * Q.TripCount * Body;
  C.ParallelTime =
      Q.Invocations * (Q.TripCount * (Bottleneck + Skeleton + QueueOps) +
                       S * Q.SpawnCostPerTask);
  return C;
}

bool DSWP::apply(LoopContent &LC, const LoopPlan &P, Decision &D) {
  D.Kind = TechniqueKind::DSWP;
  unsigned Workers = std::max(1u, P.Workers);
  PipelineAnalysis A;
  if (!analyze(LC, Workers, A, D.Reason))
    return false;
  unsigned NumStages = A.NumStages;
  auto &Queues = A.Queues;
  auto &StageOf = A.StageOf;
  D.NumStages = NumStages;
  D.NumQueues = static_cast<unsigned>(Queues.size());

  N.noteRequest(Abstraction::ENV);
  N.noteRequest(Abstraction::T);
  N.noteRequest(Abstraction::LB);
  N.noteRequest(Abstraction::IVS);
  N.noteRequest(Abstraction::LS);

  //===--------------------------------------------------------------------===//
  // Code generation.
  //===--------------------------------------------------------------------===//

  nir::LoopStructure &LS = LC.getLoopStructure();
  auto &RM = LC.getReductionManager();
  auto &Env = LC.getEnvironment();
  Function *F = LS.getFunction();
  nir::Module &M = *F->getParent();
  nir::Context &Ctx = M.getContext();
  declareParallelRuntime(M);
  Function *PushFn = M.getFunction("noelle_queue_push");
  Function *PopFn = M.getFunction("noelle_queue_pop");
  Function *QCreateFn = M.getFunction("noelle_queue_create");

  EnvLayout Layout;
  Layout.Env = &Env;
  Layout.Lanes = 1; // each live-out owned by exactly one stage
  Layout.ExtraSlots = static_cast<unsigned>(Queues.size());
  unsigned QueueSlotBase = Layout.extraSlot(0);

  // Build one task per stage.
  std::vector<ClonedLoopTask> Stages;
  for (unsigned Stage = 0; Stage < NumStages; ++Stage) {
    ClonedLoopTask Task = cloneLoopIntoTask(
        LS, Layout,
        F->getName() + ".dswp" + std::to_string(LS.getID()) + ".stage" +
            std::to_string(Stage));
    Task.TaskFn->setMetadata(verify::TaskKindKey, "dswp-stage");
    Task.TaskFn->setMetadata(verify::TaskStageKey, std::to_string(Stage));
    Task.TaskFn->setMetadata(verify::TaskStagesKey,
                             std::to_string(NumStages));
    IRBuilder TB(Ctx);

    // Load queue handles in the entry block.
    std::map<unsigned, Value *> QueueHandles;
    TB.setInsertPoint(Task.TaskFn->getEntryBlock().getTerminator());
    for (unsigned Q = 0; Q < Queues.size(); ++Q)
      if (Queues[Q].FromStage == Stage || Queues[Q].ToStage == Stage)
        QueueHandles[Q] = emitEnvLoad(TB, Task.EnvArg, QueueSlotBase + Q,
                                      Ctx.getPtrTy(), "q");

    // Snapshot the clones of foreign instructions *before* consumer
    // pops overwrite the value map (the sweep below must delete the
    // original clones, never the pops that replace them).
    std::vector<Instruction *> Doomed;
    for (BasicBlock *BB : LS.getBlocks())
      for (const auto &IPtr : BB->getInstList()) {
        Instruction *I = IPtr.get();
        auto It = StageOf.find(I);
        if (It == StageOf.end() || It->second == Stage)
          continue;
        auto MapIt = Task.ValueMap.find(I);
        if (MapIt == Task.ValueMap.end())
          continue;
        auto *Cloned = nir::dyn_cast<Instruction>(MapIt->second);
        if (Cloned && Cloned->getParent())
          Doomed.push_back(Cloned);
      }

    // Producer side: push owned values that cross stages, right after
    // their definition.
    for (unsigned Q = 0; Q < Queues.size(); ++Q) {
      if (Queues[Q].FromStage != Stage)
        continue;
      auto *ClonedDef = nir::cast<Instruction>(Task.ValueMap[Queues[Q].Def]);
      Instruction *After = ClonedDef->getNextInst();
      assert(After && "definition cannot be a terminator");
      TB.setInsertPoint(After);
      Value *Word = toQueueWord(TB, ClonedDef);
      nir::CallInst *Push = TB.createCall(PushFn, {QueueHandles[Q], Word});
      std::string DefId = Queues[Q].Def->getMetadata(nir::InstIDKey);
      if (!DefId.empty()) {
        Push->setMetadata(verify::CheckQueueKey, std::to_string(Q));
        Push->setMetadata(verify::CheckQueueOrigKey, DefId);
      }
    }

    // Consumer side: replace the clone of a foreign def with a pop at
    // its original position.
    for (unsigned Q = 0; Q < Queues.size(); ++Q) {
      if (Queues[Q].ToStage != Stage)
        continue;
      auto *ClonedDef = nir::cast<Instruction>(Task.ValueMap[Queues[Q].Def]);
      TB.setInsertPoint(ClonedDef);
      nir::CallInst *Word = TB.createCall(PopFn, {QueueHandles[Q]}, "pop");
      std::string DefId = Queues[Q].Def->getMetadata(nir::InstIDKey);
      if (!DefId.empty()) {
        Word->setMetadata(verify::CheckQueueKey, std::to_string(Q));
        Word->setMetadata(verify::CheckQueueOrigKey, DefId);
      }
      Value *Typed = fromQueueWord(TB, Word, ClonedDef->getType());
      ClonedDef->replaceAllUsesWith(Typed);
      Task.ValueMap[Queues[Q].Def] = Typed;
      // The dead clone is removed by the sweep below.
    }

    // Delete every instruction not owned by this stage and not part of
    // the replicated skeleton, bottom-up.
    auto Pos = numberInstructions(*Task.TaskFn);
    std::sort(Doomed.begin(), Doomed.end(),
              [&](Instruction *A, Instruction *B) {
                return Pos.at(A) > Pos.at(B);
              });
    for (Instruction *I : Doomed) {
      if (I->hasUses())
        I->replaceAllUsesWith(Ctx.getUndef(I->getType()));
      I->eraseFromParent();
    }

    // Reduction live-outs owned by this stage: store the final value at
    // task exit (initial value kept, so no cross-lane combine needed).
    IRBuilder ExitB(Ctx);
    ExitB.setInsertPoint(Task.ExitBlock->getTerminator());
    for (Instruction *Out : Env.getLiveOuts()) {
      auto It = StageOf.find(Out);
      if (It == StageOf.end() || It->second != Stage)
        continue;
      const ReductionVariable *R = RM.getReductionForLiveOut(Out);
      // Reductions store their accumulator phi; stage-owned recurrences
      // store their own (header-phi) clone.
      Value *Final = Task.ValueMap[R ? static_cast<Instruction *>(R->Phi)
                                     : Out];
      Value *Slot = ExitB.createGEP(
          Task.EnvArg, ExitB.getInt64(Layout.liveOutSlot(Out, 0)), 8,
          "out.slot");
      ExitB.createStore(Final, Slot);
    }

    Stages.push_back(std::move(Task));
  }

  // Trampoline task: selects the stage body by task id.
  Function *Trampoline =
      createTaskFunction(M, F->getName() + ".dswp" +
                                std::to_string(LS.getID()) + ".pipeline");
  Trampoline->setMetadata(verify::TaskKindKey, "dswp-pipeline");
  Trampoline->setMetadata(verify::TaskSrcFnKey, F->getName());
  {
    IRBuilder TB(Ctx);
    BasicBlock *Entry = Trampoline->createBlock("entry");
    BasicBlock *Done = Trampoline->createBlock("done");
    BasicBlock *Prev = Entry;
    for (unsigned Stage = 0; Stage < NumStages; ++Stage) {
      BasicBlock *CallBB = Trampoline->createBlock(
          "stage" + std::to_string(Stage));
      TB.setInsertPoint(CallBB);
      TB.createCall(Stages[Stage].TaskFn,
                    {Trampoline->getArg(0), Trampoline->getArg(1),
                     Trampoline->getArg(2)});
      TB.createBr(Done);
      TB.setInsertPoint(Prev);
      if (Stage + 1 < NumStages) {
        BasicBlock *Next =
            Trampoline->createBlock("sel" + std::to_string(Stage + 1));
        Value *IsThis = TB.createCmp(CmpInst::Pred::EQ,
                                     Trampoline->getArg(1),
                                     TB.getInt64(Stage));
        TB.createCondBr(IsThis, CallBB, Next);
        Prev = Next;
      } else {
        TB.createBr(CallBB);
      }
    }
    TB.setInsertPoint(Done);
    TB.createRetVoid();
  }

  // Caller side: create the queues before the dispatch call.
  DispatchSite Site =
      replaceLoopWithDispatch(LS, Layout, Trampoline, NumStages);
  IRBuilder CB(Ctx);
  CB.setInsertPoint(Site.Call);
  for (unsigned Q = 0; Q < Queues.size(); ++Q) {
    Value *Handle =
        CB.createCall(QCreateFn, {Ctx.getInt64(QueueCapacity)}, "queue");
    emitEnvStore(CB, Site.Env, QueueSlotBase + Q, Handle);
  }

  CB.setInsertPoint(Site.Block->getTerminator());
  for (Instruction *Out : Env.getLiveOuts()) {
    Value *Final = emitEnvLoad(CB, Site.Env, Layout.liveOutSlot(Out, 0),
                               Out->getType(), "final");
    Out->replaceAllUsesWith(Final);
  }

  // Only the host function changed (the task bodies are new functions
  // with no cached analyses): keep every other function's bundles.
  N.invalidate(*finalizeLoopRemoval(LS, Site.Block));
  assert(nir::moduleVerifies(M) && "DSWP produced invalid IR");
  D.Parallelized = true;
  D.Workers = Workers;
  return true;
}
