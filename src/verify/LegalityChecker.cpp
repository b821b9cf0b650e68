#include "verify/LegalityChecker.h"

#include "ir/IDs.h"

#include <optional>

using namespace noelle;
using namespace noelle::verify;
using nir::BinaryInst;
using nir::ConstantFP;
using nir::ConstantInt;
using nir::Instruction;
using nir::PhiInst;
using nir::StoreInst;
using nir::Value;

namespace {

bool isIVSCC(const SCC *S, InductionVariableManager &IVs) {
  for (const auto &IV : IVs.getInductionVariables())
    if (IV->getSCC() == S || S->contains(IV->getPhi()))
      return true;
  return false;
}

/// Numeric equality of two constants across IR contexts (the snapshot
/// and the transformed module never share Constant pointers).
bool sameConstant(const Value *A, const Value *B) {
  if (const auto *AI = nir::dyn_cast<ConstantInt>(A)) {
    const auto *BI = nir::dyn_cast<ConstantInt>(B);
    return BI && AI->getValue() == BI->getValue();
  }
  if (const auto *AF = nir::dyn_cast<ConstantFP>(A)) {
    const auto *BF = nir::dyn_cast<ConstantFP>(B);
    return BF && AF->getValue() == BF->getValue();
  }
  return false;
}

/// The constant amount operand of a normalized IV update
/// add/sub(phi, amount), or nullopt.
std::optional<int64_t> updateAmount(const BinaryInst *Upd) {
  for (const Value *Op : Upd->operands())
    if (const auto *C = nir::dyn_cast<ConstantInt>(Op))
      return C->getValue();
  return std::nullopt;
}

class RegionAuditor {
public:
  RegionAuditor(const ParallelRegion &R, LoopContent &LC, CheckReport &Rep)
      : R(R), LC(LC), Rep(Rep), LS(LC.getLoopStructure()),
        Dag(LC.getSCCDAG()), RM(LC.getReductionManager()),
        IVs(LC.getIVManager()), Env(LC.getEnvironment()) {}

  void run() {
    if (R.Kind == "doall" || R.Kind == "helix" || R.Kind == "doall-spec") {
      for (const TaskInfo &T : R.Tasks) {
        checkIVRebase(T);
        checkReductions(T);
      }
    }
    checkLoopCarriedEdges();
    if (R.Kind == "dswp") {
      checkQueuePairing();
      checkStageRegisterDeps();
    }
  }

private:
  void report(DiagKind K, std::string Msg, const Instruction *First,
              const Instruction *Second, const std::string &InFn) {
    Diagnostic D;
    D.Kind = K;
    D.Message = std::move(Msg);
    if (First)
      D.First = describe(First);
    if (Second)
      D.Second = describe(Second);
    D.InFunction = InFn;
    Rep.add(std::move(D));
  }

  /// DOALL/HELIX: every IV's clone must start at start + f(taskID) and
  /// step by the original amount scaled by the worker count; otherwise
  /// workers execute overlapping iterations. The stride is read from
  /// what the back edge feeds the cloned phi, and that value may feed
  /// only the phi and the exit compare: any other user would see the
  /// scaled stride where the source computes `i + step`.
  void checkIVRebase(const TaskInfo &T) {
    const Instruction *ExitCmp = nullptr;
    if (const InductionVariable *GIV = IVs.getGoverningIV())
      if (auto CmpId = nir::instIDOf(GIV->getGoverningCmp()))
        if (auto It = T.Clones.find(*CmpId); It != T.Clones.end())
          ExitCmp = It->second.front();
    for (const auto &IV : IVs.getInductionVariables()) {
      auto PhiId = nir::instIDOf(IV->getPhi());
      if (!PhiId)
        continue; // Snapshot lacks IDs; reported as MissingMetadata.

      auto PhiIt = T.Clones.find(*PhiId);
      if (PhiIt == T.Clones.end()) {
        report(DiagKind::IVNotRebased,
               "induction variable has no clone in the task",
               IV->getPhi(), nullptr, T.Fn->getName());
        continue;
      }
      const auto *ClonedPhi = nir::dyn_cast<PhiInst>(PhiIt->second.front());
      const nir::BasicBlock *Entry = &T.Fn->getEntryBlock();
      const BinaryInst *Next = nullptr;
      if (ClonedPhi)
        for (unsigned K = 0; K < ClonedPhi->getNumIncoming(); ++K)
          if (ClonedPhi->getIncomingBlock(K) != Entry)
            Next = nir::dyn_cast<BinaryInst>(ClonedPhi->getIncomingValue(K));
      if (!Next) {
        report(DiagKind::IVNotRebased,
               "induction variable clone lost its phi/update shape",
               IV->getPhi(), nullptr, T.Fn->getName());
        continue;
      }

      Value *EntryIn = ClonedPhi->getIncomingValueForBlock(Entry);
      if (!EntryIn || !sliceContains(EntryIn, T.TaskIDArg)) {
        report(DiagKind::IVNotRebased,
               "induction variable start is not offset by the task ID",
               IV->getPhi(), IV->getStepInstruction(), T.Fn->getName());
        continue;
      }
      auto OrigAmt = updateAmount(IV->getStepInstruction());
      auto NewAmt = updateAmount(Next);
      if (OrigAmt && NewAmt &&
          *NewAmt != *OrigAmt * static_cast<int64_t>(T.Workers)) {
        report(DiagKind::IVNotRebased,
               "induction variable stride is not scaled by the worker "
               "count (expected " +
                   std::to_string(*OrigAmt * (int64_t)T.Workers) + ", got " +
                   std::to_string(*NewAmt) + ")",
               IV->getPhi(), IV->getStepInstruction(), T.Fn->getName());
        continue;
      }
      for (const nir::User *U : Next->users())
        if (U != ClonedPhi && U != ExitCmp) {
          report(DiagKind::IVNotRebased,
                 "re-based induction variable update has another user, "
                 "which reads the worker-scaled stride",
                 Next, nir::dyn_cast<Instruction>(U), T.Fn->getName());
          break;
        }
    }
  }

  /// DOALL/HELIX: live-out reduction accumulators must be privatized —
  /// the cloned accumulator starts from the operator identity, and the
  /// partial result is stored into a per-worker environment lane.
  void checkReductions(const TaskInfo &T) {
    for (Instruction *Out : Env.getLiveOuts()) {
      const ReductionVariable *RV = nullptr;
      for (const auto &Cand : RM.getReductions())
        if (Out == Cand.Phi || Out == Cand.Update)
          RV = &Cand;
      if (!RV)
        continue; // HELIX segment state lives in spill slots instead.

      auto PhiId = nir::instIDOf(RV->Phi);
      if (!PhiId)
        continue;
      auto PhiIt = T.Clones.find(*PhiId);
      const PhiInst *ClonedPhi =
          PhiIt == T.Clones.end()
              ? nullptr
              : nir::dyn_cast<PhiInst>(PhiIt->second.front());
      if (!ClonedPhi) {
        report(DiagKind::UnprivatizedAccumulator,
               "reduction accumulator has no phi clone in the task",
               RV->Phi, nullptr, T.Fn->getName());
        continue;
      }

      Value *Identity =
          RV->getIdentity(LS.getFunction()->getParent()->getContext());
      Value *EntryIn =
          ClonedPhi->getIncomingValueForBlock(&T.Fn->getEntryBlock());
      if (!EntryIn || !sameConstant(Identity, EntryIn)) {
        report(DiagKind::UnprivatizedAccumulator,
               "reduction accumulator does not start from the operator "
               "identity in the task (workers would double-count the "
               "initial value or share state)",
               RV->Phi, RV->Update, T.Fn->getName());
        continue;
      }

      // The partial result must land in a per-worker lane.
      auto OutId = nir::instIDOf(Out);
      bool LaneStore = false;
      for (const auto &BB : T.Fn->getBlocks())
        for (const auto &IPtr : BB->getInstList()) {
          const auto *St = nir::dyn_cast<StoreInst>(IPtr.get());
          if (!St)
            continue;
          const Value *Stored = St->getValueOperand();
          bool IsPartial = false;
          if (OutId)
            for (const Instruction *Clone : T.realizationsOf(*OutId))
              if (Stored == Clone || sliceContains(Stored, Clone))
                IsPartial = true;
          if (!IsPartial)
            continue;
          PtrClass PC = classifyPointer(St->getPointerOperand(), T);
          if (PC.S == PtrClass::EnvLane ||
              (PC.S == PtrClass::EnvConst && !R.selfConcurrent()))
            LaneStore = true;
        }
      if (!LaneStore) {
        report(DiagKind::UnprivatizedAccumulator,
               "reduction partial result is not stored into a per-worker "
               "environment lane",
               RV->Phi, Out, T.Fn->getName());
      }
    }
  }

  /// Audits every loop-carried dependence of the pre-transform PDG.
  void checkLoopCarriedEdges() {
    for (auto *E : LC.getLoopDG().getEdges()) {
      if (!E->IsLoopCarried)
        continue;
      auto *From = nir::dyn_cast<Instruction>(E->From);
      auto *To = nir::dyn_cast<Instruction>(E->To);
      if (!From || !To || !LS.contains(From) || !LS.contains(To))
        continue;
      SCC *SF = Dag.sccOf(From);
      SCC *ST = Dag.sccOf(To);
      // IV and reduction cycles are audited structurally above; DSWP
      // instead relies on stage co-location for every cycle (IV SCCs are
      // replicated into each stage), so it audits them uniformly here.
      if (R.Kind != "dswp" && SF && SF == ST &&
          (isIVSCC(SF, IVs) || RM.getReductionFor(SF)))
        continue;

      auto FromId = nir::instIDOf(From);
      auto ToId = nir::instIDOf(To);
      if (!FromId || !ToId)
        continue;

      if (R.Kind == "doall")
        auditDoallEdge(*E, From, To, *FromId, *ToId);
      else if (R.Kind == "doall-spec")
        auditSpecEdge(*E, From, To, *FromId, *ToId);
      else if (R.Kind == "helix")
        auditHelixEdge(*E, From, To, *FromId, *ToId);
      else
        auditDswpEdge(*E, From, To, *FromId, *ToId);
    }
  }

  template <typename EdgeT>
  std::string edgeNoun(const EdgeT &E) const {
    std::string S = E.IsMemory ? "loop-carried memory dependence"
                               : "loop-carried register dependence";
    if (E.IsControl)
      S = "loop-carried control dependence";
    return S;
  }

  template <typename EdgeT>
  void auditDoallEdge(const EdgeT &E, Instruction *From, Instruction *To,
                      uint64_t FromId, uint64_t ToId) {
    // DOALL has no synchronization: any surviving loop-carried
    // dependence outside IV/reduction cycles is a violation if both
    // endpoints execute in the task.
    for (const TaskInfo &T : R.Tasks) {
      if (!T.realizes(FromId) || !T.realizes(ToId))
        continue;
      report(DiagKind::UnprotectedDependence,
             edgeNoun(E) + " survives in a DOALL task with no discharging "
                           "mechanism (not an IV or reduction cycle)",
             From, To, T.Fn->getName());
    }
  }

  template <typename EdgeT>
  void auditSpecEdge(const EdgeT &E, Instruction *From, Instruction *To,
                     uint64_t FromId, uint64_t ToId) {
    // Speculative DOALL discharges a surviving loop-carried memory
    // dependence by premise: the task records the speculated-away pair
    // and the runtime validates it at commit. Anything not recorded as a
    // premise is exactly as unprotected as in plain DOALL — control and
    // register carried dependences can never be premises.
    for (const TaskInfo &T : R.Tasks) {
      if (!T.realizes(FromId) || !T.realizes(ToId))
        continue;
      if (E.IsMemory && !E.IsControl) {
        bool Covered = false;
        for (const auto &[A, B] : specPremises(T))
          if ((A == FromId && B == ToId) || (A == ToId && B == FromId))
            Covered = true;
        if (Covered)
          continue;
      }
      report(DiagKind::UnprotectedDependence,
             edgeNoun(E) + " survives in a speculative DOALL task without "
                           "a recorded premise (the runtime would never "
                           "validate it)",
             From, To, T.Fn->getName());
    }
  }

  template <typename EdgeT>
  void auditHelixEdge(const EdgeT &E, Instruction *From, Instruction *To,
                      uint64_t FromId, uint64_t ToId) {
    for (const TaskInfo &T : R.Tasks) {
      auto RealF = T.realizationsOf(FromId);
      auto RealT = T.realizationsOf(ToId);
      if (RealF.empty() || RealT.empty())
        continue; // The dependence cannot manifest in this task.
      const auto &Held = heldSegments(T);
      nir::BitVector Common(std::max(1u, T.NumSegments),
                            T.NumSegments != 0);
      for (const Instruction *I : RealF)
        Common.intersectWith(Held.at(I));
      for (const Instruction *I : RealT)
        Common.intersectWith(Held.at(I));
      if (Common.none()) {
        report(DiagKind::UnprotectedDependence,
               edgeNoun(E) + " is not covered by a sequential segment: no "
                             "noelle_ss_wait gate is guaranteed to be held "
                             "at both endpoints on every path",
               From, To, T.Fn->getName());
      }
    }
  }

  template <typename EdgeT>
  void auditDswpEdge(const EdgeT &E, Instruction *From, Instruction *To,
                     uint64_t FromId, uint64_t ToId) {
    // Queues transport same-iteration values, so a loop-carried
    // dependence is only safe when some single stage owns clones of both
    // endpoints (the stage replays the cycle sequentially).
    for (const TaskInfo &T : R.Tasks)
      if (T.Clones.count(FromId) && T.Clones.count(ToId))
        return;
    bool Manifests = false;
    for (const TaskInfo &T : R.Tasks)
      if (T.realizes(FromId) || T.realizes(ToId))
        Manifests = true;
    if (!Manifests)
      return;
    report(DiagKind::UnprotectedDependence,
           edgeNoun(E) + " crosses DSWP stages: no single stage owns both "
                         "endpoints, and queues only carry same-iteration "
                         "values",
           From, To, R.Tasks.empty() ? R.SrcFn : R.Tasks[0].Fn->getName());
  }

  /// Every DSWP queue index must have at least one push and one pop, in
  /// different stages.
  void checkQueuePairing() {
    std::map<unsigned, std::vector<const TaskInfo::QueueOp *>> Pushes, Pops;
    std::map<unsigned, const TaskInfo *> PushTask, PopTask;
    for (const TaskInfo &T : R.Tasks)
      for (const auto &Op : T.QueueOps) {
        (Op.IsPush ? Pushes : Pops)[Op.Queue].push_back(&Op);
        (Op.IsPush ? PushTask : PopTask)[Op.Queue] = &T;
      }
    for (const auto &[Q, Ops] : Pops)
      if (!Pushes.count(Q))
        report(DiagKind::UnmatchedQueuePop,
               "queue " + std::to_string(Q) +
                   " is popped but never pushed: the consumer stage would "
                   "block forever (or read stale data)",
               Ops.front()->Call, nullptr,
               PopTask.at(Q)->Fn->getName());
    for (const auto &[Q, Ops] : Pushes)
      if (!Pops.count(Q))
        report(DiagKind::UnmatchedQueuePush,
               "queue " + std::to_string(Q) +
                   " is pushed but never popped: the value never reaches "
                   "its consumer and the queue fills up",
               Ops.front()->Call, nullptr,
               PushTask.at(Q)->Fn->getName());
  }

  /// Intra-iteration register dependences must reach the consuming stage
  /// either by local cloning (replicated producer) or through a queue pop
  /// of the producer's value.
  void checkStageRegisterDeps() {
    for (auto *E : LC.getLoopDG().getEdges()) {
      if (E->IsLoopCarried || E->IsControl || E->IsMemory)
        continue;
      auto *From = nir::dyn_cast<Instruction>(E->From);
      auto *To = nir::dyn_cast<Instruction>(E->To);
      if (!From || !To || !LS.contains(From) || !LS.contains(To))
        continue;
      auto FromId = nir::instIDOf(From);
      auto ToId = nir::instIDOf(To);
      if (!FromId || !ToId)
        continue;
      for (const TaskInfo &T : R.Tasks) {
        if (!T.Clones.count(*ToId))
          continue;
        if (T.realizes(*FromId) || T.popsValue(*FromId))
          continue;
        report(DiagKind::UnprotectedDependence,
               "register dependence is severed across DSWP stages: the "
               "consuming stage neither clones the producer nor pops its "
               "value from a queue",
               From, To, T.Fn->getName());
      }
    }
  }

  const std::vector<std::pair<uint64_t, uint64_t>> &
  specPremises(const TaskInfo &T) {
    auto It = PremiseCache.find(&T);
    if (It == PremiseCache.end())
      It = PremiseCache.emplace(&T, parseSpecPremises(T.Fn)).first;
    return It->second;
  }

  const std::map<const Instruction *, nir::BitVector> &
  heldSegments(const TaskInfo &T) {
    auto It = HeldCache.find(&T);
    if (It == HeldCache.end())
      It = HeldCache.emplace(&T, computeGuaranteedSegments(T)).first;
    return It->second;
  }

  const ParallelRegion &R;
  LoopContent &LC;
  CheckReport &Rep;
  nir::LoopStructure &LS;
  SCCDAG &Dag;
  ReductionManager &RM;
  InductionVariableManager &IVs;
  Environment &Env;
  std::map<const TaskInfo *,
           std::map<const Instruction *, nir::BitVector>>
      HeldCache;
  std::map<const TaskInfo *, std::vector<std::pair<uint64_t, uint64_t>>>
      PremiseCache;
};

} // namespace

void noelle::verify::checkLegality(Noelle &Snapshot,
                                   const std::vector<ParallelRegion> &Regions,
                                   CheckReport &Rep) {
  std::map<uint64_t, LoopContent *> ByOrigin;
  for (LoopContent *LCPtr : Snapshot.getLoopContents())
    if (auto Id = LCPtr->getLoopStructure().getHeaderID())
      ByOrigin[*Id] = LCPtr;

  for (const ParallelRegion &R : Regions) {
    auto It = ByOrigin.find(R.Origin);
    if (It == ByOrigin.end()) {
      Diagnostic D;
      D.Kind = DiagKind::MissingMetadata;
      D.Message = "no pre-transform loop with origin ID " +
                  std::to_string(R.Origin) +
                  " exists in the snapshot; the region cannot be audited";
      D.InFunction = R.SrcFn;
      Rep.add(std::move(D));
      continue;
    }
    RegionAuditor(R, *It->second, Rep).run();
  }
}
