#include "verify/HappensBefore.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "ir/Function.h"
#include "noelle/DataFlow.h"
#include "verify/CheckMetadata.h"

#include <algorithm>
#include <cassert>

using namespace noelle;
using namespace noelle::verify;
using nir::BasicBlock;
using nir::BitVector;
using nir::CallInst;
using nir::Function;
using nir::Instruction;

namespace {

std::string calleeName(const Instruction *I) {
  const auto *Call = nir::dyn_cast<CallInst>(I);
  if (!Call || !Call->getCalledFunction())
    return "";
  return Call->getCalledFunction()->getName();
}

bool isQueueCall(const Instruction *I) {
  std::string N = calleeName(I);
  return N == "noelle_queue_push" || N == "noelle_queue_pop";
}

bool isSyncCall(const Instruction *I) {
  std::string N = calleeName(I);
  return N == "noelle_queue_push" || N == "noelle_queue_pop" ||
         N == "noelle_ss_wait" || N == "noelle_ss_signal";
}

} // namespace

const char *noelle::verify::hbRuleName(HBRule R) {
  switch (R) {
  case HBRule::None:
    return "none";
  case HBRule::QueueHB:
    return "queue-hb";
  case HBRule::MultiQueueJoin:
    return "multi-queue-join";
  case HBRule::LoopPhase:
    return "loop-phase";
  case HBRule::SegmentOrder:
    return "segment-order";
  case HBRule::CrossSegment:
    return "cross-segment";
  }
  return "none";
}

/// Lazily built per-task analysis state. Everything keys off the task
/// function, which is unique per TaskInfo.
struct HappensBeforeEngine::TaskState {
  const TaskInfo *T = nullptr;

  std::unique_ptr<nir::DominatorTree> DT;
  std::unique_ptr<nir::LoopInfo> LI;
  std::map<const BasicBlock *, uint64_t> PhaseKeys;
  bool LoopsBuilt = false;

  /// Forward all-paths "completed sync events" dataflow: IN(I) holds the
  /// bit of every queue/gate call guaranteed executed on each path from
  /// entry to I.
  std::unique_ptr<DataFlowResult> Completed;
  std::map<const Instruction *, unsigned> EventIdx;
  bool CompletedBuilt = false;

  std::map<const Instruction *, BitVector> Held;
  BitVector Leaked;
  bool HeldBuilt = false;

  std::map<const BasicBlock *, std::set<const BasicBlock *>> ReachCache;

  nir::DominatorTree &domTree() {
    if (!DT)
      DT = std::make_unique<nir::DominatorTree>(*T->Fn);
    return *DT;
  }

  void buildLoops() {
    if (LoopsBuilt)
      return;
    LoopsBuilt = true;
    LI = std::make_unique<nir::LoopInfo>(*T->Fn, domTree());
    PhaseKeys = computeLoopPhaseKeys(*T->Fn);
  }

  void buildCompleted() {
    if (CompletedBuilt)
      return;
    CompletedBuilt = true;
    DataFlowProblem P;
    P.Forward = true;
    P.MeetIsUnion = false;
    P.BoundaryAllOnes = false;
    for (const auto &BB : T->Fn->getBlocks())
      for (const auto &IPtr : BB->getInstList())
        if (isSyncCall(IPtr.get())) {
          EventIdx[IPtr.get()] = static_cast<unsigned>(P.Universe.size());
          P.Universe.push_back(IPtr.get());
        }
    if (P.Universe.empty())
      return;
    P.Transfer = [this](const Instruction *I, const DataFlowResult &R,
                        BitVector &Gen, BitVector &Kill) {
      (void)Kill;
      if (EventIdx.count(I))
        Gen.set(R.indexOf(I));
    };
    Completed = DataFlowEngine().solve(*T->Fn, P);
  }

  void buildHeld() {
    if (HeldBuilt)
      return;
    HeldBuilt = true;
    Held = computeGuaranteedSegments(*T);
    unsigned NumSegs = std::max(1u, T->NumSegments);
    Leaked = BitVector(NumSegs);
    buildLoops();
    // Segment-protocol leak check: a segment still held at a loop latch
    // or a return means some path re-enters the wait (or leaves the
    // task) without the matching signal — the gate protocol is broken
    // and that segment orders nothing.
    auto NoteLeaks = [&](const Instruction *At) {
      auto It = Held.find(At);
      if (It == Held.end())
        return;
      for (unsigned S = 0; S < It->second.size() && S < NumSegs; ++S)
        if (It->second.test(S))
          Leaked.set(S);
    };
    for (nir::LoopStructure *L : LI->getLoopsInPreorder())
      for (BasicBlock *Latch : L->getLatches())
        if (Instruction *Term = Latch->getTerminator())
          NoteLeaks(Term);
    for (const auto &BB : T->Fn->getBlocks())
      if (Instruction *Term = BB->getTerminator())
        if (nir::dyn_cast<nir::RetInst>(Term))
          NoteLeaks(Term);
  }
};

/// Region-wide push/pop site lists for one queue.
struct HappensBeforeEngine::QueueSites {
  std::vector<std::pair<const TaskInfo *, const TaskInfo::QueueOp *>> Pushes;
  std::vector<std::pair<const TaskInfo *, const TaskInfo::QueueOp *>> Pops;
  /// Number of distinct tasks pushing this queue.
  unsigned producerTasks() const {
    std::set<const TaskInfo *> S;
    for (const auto &P : Pushes)
      S.insert(P.first);
    return static_cast<unsigned>(S.size());
  }
};

HappensBeforeEngine::HappensBeforeEngine(const ParallelRegion &R,
                                         const PDGDependenceSummary *Deps,
                                         const RaceDetectorOptions &Opts)
    : R(R), Deps(Deps), Opts(Opts) {}

HappensBeforeEngine::~HappensBeforeEngine() = default;

HappensBeforeEngine::TaskState &
HappensBeforeEngine::stateFor(const TaskInfo &T) {
  auto It = States.find(&T);
  if (It == States.end()) {
    auto TS = std::make_unique<TaskState>();
    TS->T = &T;
    It = States.emplace(&T, std::move(TS)).first;
  }
  return *It->second;
}

const std::map<unsigned, HappensBeforeEngine::QueueSites> &
HappensBeforeEngine::queueSites() {
  if (Queues)
    return *Queues;
  Queues = std::make_unique<std::map<unsigned, QueueSites>>();
  std::set<const Instruction *> Attributed;
  for (const TaskInfo &T : R.Tasks)
    for (const TaskInfo::QueueOp &Op : T.QueueOps) {
      Attributed.insert(Op.Call);
      auto &QS = (*Queues)[Op.Queue];
      if (Op.IsPush)
        QS.Pushes.push_back({&T, &Op});
      else
        QS.Pops.push_back({&T, &Op});
    }
  // A queue call the model cannot attribute to a queue (no provenance
  // metadata) could push or pop anything; queue-based ordering would be
  // unsound, so its presence disables the rules for the whole region.
  for (const TaskInfo &T : R.Tasks)
    for (const auto &BB : T.Fn->getBlocks())
      for (const auto &IPtr : BB->getInstList())
        if (isQueueCall(IPtr.get()) && !Attributed.count(IPtr.get()))
          UnknownQueueOps = true;
  return *Queues;
}

bool HappensBeforeEngine::mayFollow(const Instruction *Earlier,
                                    const Instruction *Later, TaskState &TS) {
  const BasicBlock *EB = Earlier->getParent();
  const BasicBlock *LB = Later->getParent();
  auto ReachIt = TS.ReachCache.find(EB);
  if (ReachIt == TS.ReachCache.end()) {
    std::set<const BasicBlock *> Seen;
    std::vector<const BasicBlock *> Work;
    for (BasicBlock *S : EB->successors())
      if (Seen.insert(S).second)
        Work.push_back(S);
    while (!Work.empty()) {
      const BasicBlock *Cur = Work.back();
      Work.pop_back();
      for (BasicBlock *S : Cur->successors())
        if (Seen.insert(S).second)
          Work.push_back(S);
    }
    ReachIt = TS.ReachCache.emplace(EB, std::move(Seen)).first;
  }
  const auto &Reach = ReachIt->second;
  if (EB != LB)
    return Reach.count(LB) != 0;
  if (Reach.count(EB))
    return true; // block inside a cycle: any relative order recurs
  for (const auto &IPtr : EB->getInstList()) {
    if (IPtr.get() == Earlier)
      return true;
    if (IPtr.get() == Later)
      return false;
  }
  return true; // unreachable: neither found
}

bool HappensBeforeEngine::completedBefore(const Instruction *Ev,
                                          const Instruction *At,
                                          TaskState &TS) {
  TS.buildCompleted();
  auto It = TS.EventIdx.find(Ev);
  if (!TS.Completed || It == TS.EventIdx.end())
    return false;
  return TS.Completed->in(At).test(It->second);
}

HBRule HappensBeforeEngine::orderedCrossTask(const Instruction *A,
                                             const TaskInfo &TA,
                                             const Instruction *B,
                                             const TaskInfo &TB) {
  if (R.selfConcurrent() || &TA == &TB)
    return HBRule::None;
  if (HBRule Rl = queueOrdered(A, TA, B, TB); Rl != HBRule::None)
    return Rl;
  if (HBRule Rl = queueOrdered(B, TB, A, TA); Rl != HBRule::None)
    return Rl;
  if (loopPhaseOrdered(A, TA, B, TB) || loopPhaseOrdered(B, TB, A, TA))
    return HBRule::LoopPhase;
  return HBRule::None;
}

/// One direction of the queue rule: find a pop in Post's task that is
/// guaranteed complete before Post and transitively ordered after every
/// execution of Pre. The fact base starts from push sites in Pre's task
/// that can never follow Pre, covers a queue once every one of its push
/// sites region-wide is in the base (so any pop return implies all
/// producers passed Pre), and — with joins enabled — extends the base
/// through pops of covered queues into downstream producers.
HBRule HappensBeforeEngine::queueOrdered(const Instruction *Pre,
                                         const TaskInfo &PreT,
                                         const Instruction *Post,
                                         const TaskInfo &PostT) {
  if (!Opts.UseQueueHB)
    return HBRule::None;
  const auto &QS = queueSites();
  if (UnknownQueueOps || QS.empty())
    return HBRule::None;

  TaskState &PreTS = stateFor(PreT);
  std::set<const TaskInfo::QueueOp *> Seed;
  for (const auto &Entry : QS)
    for (const auto &P : Entry.second.Pushes)
      if (P.first == &PreT && !mayFollow(P.second->Call, Pre, PreTS))
        Seed.insert(P.second);

  auto Discharges = [&](bool Join) -> bool {
    std::set<const TaskInfo::QueueOp *> Before = Seed;
    std::set<unsigned> Covered;
    std::vector<std::pair<const TaskInfo *, const CallInst *>> Acquired;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (const auto &Entry : QS) {
        if (Covered.count(Entry.first) || Entry.second.Pushes.empty())
          continue;
        if (!Join && Entry.second.producerTasks() > 1)
          continue; // one-hop slice: single-producer queues only
        bool All = true;
        for (const auto &P : Entry.second.Pushes)
          if (!Before.count(P.second)) {
            All = false;
            break;
          }
        if (!All)
          continue;
        Covered.insert(Entry.first);
        for (const auto &O : Entry.second.Pops)
          Acquired.push_back({O.first, O.second->Call});
        Changed = true;
      }
      if (!Join)
        break; // no transitive extension without joins
      for (const auto &Entry : QS)
        for (const auto &P : Entry.second.Pushes) {
          if (Before.count(P.second))
            continue;
          for (const auto &Acq : Acquired)
            if (Acq.first == P.first &&
                completedBefore(Acq.second, P.second->Call,
                                stateFor(*P.first))) {
              Before.insert(P.second);
              Changed = true;
              break;
            }
        }
    }
    TaskState &PostTS = stateFor(PostT);
    for (const auto &Acq : Acquired)
      if (Acq.first == &PostT && completedBefore(Acq.second, Post, PostTS))
        return true;
    return false;
  };

  // Attribute precisely: a pair the one-hop single-producer slice
  // already proves is QueueHB; anything needing joins, chains, or a
  // multi-producer cover is MultiQueueJoin.
  if (Discharges(/*Join=*/false))
    return HBRule::QueueHB;
  if (Opts.UseMultiQueueJoin && Discharges(/*Join=*/true))
    return HBRule::MultiQueueJoin;
  return HBRule::None;
}

/// Phase ordering through a one-push/one-pop queue whose ops sit in
/// lockstep loops: the k-th pop returns only after the k-th push, so an
/// access dominating the push is ordered before the k-th consumer
/// iteration's accesses. Requires the pair's conflicts to be
/// intra-iteration only (no loop-carried memory dependence between the
/// origins) and both queue ops to run on every iteration of their loop
/// (they dominate the latches), so push/pop counts track the shared
/// original iteration space — the loops are matched by the re-based IV
/// phis' origin IDs (the TaskModel phase key).
bool HappensBeforeEngine::loopPhaseOrdered(const Instruction *Pre,
                                           const TaskInfo &PreT,
                                           const Instruction *Post,
                                           const TaskInfo &PostT) {
  if (!Opts.UseLoopPhase || !Deps)
    return false;
  const auto &QS = queueSites();
  if (UnknownQueueOps)
    return false;
  auto OA = originOf(Pre);
  auto OB = originOf(Post);
  if (!OA || !OB)
    return false;
  if (Deps->LoopCarriedMemDeps.count({*OA, *OB}))
    return false;

  TaskState &PreTS = stateFor(PreT);
  TaskState &PostTS = stateFor(PostT);
  PreTS.buildLoops();
  PostTS.buildLoops();

  auto PhaseKeyOf = [](TaskState &TS, const Instruction *I) -> uint64_t {
    auto It = TS.PhaseKeys.find(I->getParent());
    return It == TS.PhaseKeys.end() ? 0 : It->second;
  };
  auto EveryIteration = [](TaskState &TS, const Instruction *I) {
    nir::LoopStructure *L = TS.LI->getLoopFor(I->getParent());
    if (!L)
      return false;
    for (BasicBlock *Latch : L->getLatches())
      if (!TS.DT->dominates(I, Latch->getTerminator()))
        return false;
    return true;
  };

  for (const auto &Entry : QS) {
    if (Entry.second.Pushes.size() != 1 || Entry.second.Pops.size() != 1)
      continue;
    const auto &P = Entry.second.Pushes.front();
    const auto &O = Entry.second.Pops.front();
    if (P.first != &PreT || O.first != &PostT)
      continue;
    uint64_t PK = P.second->PhaseKey;
    if (PK == 0 || PK != O.second->PhaseKey)
      continue; // not in lockstep loops
    // Anchors inside the same loop iteration as their queue op.
    if (PhaseKeyOf(PreTS, Pre) != PK ||
        PreTS.LI->getLoopFor(Pre->getParent()) !=
            PreTS.LI->getLoopFor(P.second->Call->getParent()))
      continue;
    if (PhaseKeyOf(PostTS, Post) != PK ||
        PostTS.LI->getLoopFor(Post->getParent()) !=
            PostTS.LI->getLoopFor(O.second->Call->getParent()))
      continue;
    if (!PreTS.domTree().dominates(Pre, P.second->Call) ||
        !PostTS.domTree().dominates(O.second->Call, Post))
      continue;
    if (!EveryIteration(PreTS, P.second->Call) ||
        !EveryIteration(PostTS, O.second->Call))
      continue;
    return true;
  }
  return false;
}

HBRule HappensBeforeEngine::segmentOrdered(const Instruction *A,
                                           const Instruction *B,
                                           const TaskInfo &T) {
  if (R.Kind != "helix")
    return HBRule::None;
  TaskState &TS = stateFor(T);
  TS.buildHeld();
  auto ItA = TS.Held.find(A);
  auto ItB = TS.Held.find(B);
  if (ItA == TS.Held.end() || ItB == TS.Held.end())
    return HBRule::None;
  BitVector HA = ItA->second;
  BitVector HB = ItB->second;
  for (unsigned S = 0; S < TS.Leaked.size(); ++S)
    if (TS.Leaked.test(S) && S < HA.size()) {
      HA.reset(S);
      HB.reset(S);
    }
  if (Opts.UseSegmentOrder) {
    BitVector Common = HA;
    Common.intersectWith(HB);
    if (Common.any())
      return HBRule::SegmentOrder;
  }
  // Distinct segments: gate sequencing orders segment entries within an
  // iteration, and a worker's own iteration is program-ordered, so a
  // pair whose conflicts the snapshot PDG limits to one iteration can
  // never overlap.
  if (Opts.UseCrossSegment && Deps && HA.any() && HB.any()) {
    auto OA = originOf(A);
    auto OB = originOf(B);
    if (OA && OB && !Deps->LoopCarriedMemDeps.count({*OA, *OB}))
      return HBRule::CrossSegment;
  }
  return HBRule::None;
}
