#include "verify/RaceDetector.h"

#include "analysis/AliasAnalysis.h"
#include "ir/Function.h"
#include "verify/CheckMetadata.h"
#include "verify/HappensBefore.h"

#include <algorithm>
#include <optional>
#include <set>

using namespace noelle;
using namespace noelle::verify;
using nir::AliasAnalysis;
using nir::AliasResult;
using nir::AndersenAliasAnalysis;
using nir::BasicBlock;
using nir::CallInst;
using nir::Function;
using nir::Instruction;
using nir::LoadInst;
using nir::StoreInst;
using nir::Value;

namespace {

/// One memory access issued (directly or through a defined callee) by a
/// task. \p Anchor is always an instruction of the task function, so
/// ordering and HELIX segment facts can be evaluated there; \p Ptr may
/// live in a callee body. A null \p Ptr is a wildcard (indirect call
/// with unknown effects).
struct Access {
  const Instruction *Anchor = nullptr;
  const Value *Ptr = nullptr;
  bool IsWrite = false;
  const TaskInfo *Task = nullptr;
  uint64_t Size = 8; // byte extent; superword accesses exceed one granule
};

bool isRuntimeCall(const Function *F) {
  return F && F->getName().rfind("noelle_", 0) == 0;
}

/// Collects the loads/stores a defined function performs, transitively,
/// attributed to \p Anchor. Indirect or external non-runtime calls
/// degrade to a wildcard write.
void summarizeCallee(Function *Callee, const Instruction *Anchor,
                     const TaskInfo &T, std::set<const Function *> &Visited,
                     std::vector<Access> &Out) {
  if (!Visited.insert(Callee).second)
    return;
  for (const auto &BB : Callee->getBlocks())
    for (const auto &IPtr : BB->getInstList()) {
      const Instruction *I = IPtr.get();
      nir::MemAccess Acc;
      if (nir::memoryAccessOf(I, Acc)) {
        Out.push_back({Anchor, Acc.Ptr, Acc.IsWrite, &T,
                       nir::accessGranule(Acc.Size)});
      } else if (const auto *C = nir::dyn_cast<CallInst>(I)) {
        Function *F = C->getCalledFunction();
        if (isRuntimeCall(F))
          continue;
        if (F && !F->isDeclaration())
          summarizeCallee(F, Anchor, T, Visited, Out);
        else if (!F)
          Out.push_back({Anchor, nullptr, true, &T});
        // External declarations (the interpreter's externals: printf,
        // malloc, ...) touch no user-visible shared state.
      }
    }
}

std::vector<Access> collectAccesses(const TaskInfo &T) {
  std::vector<Access> Out;
  for (const auto &BB : T.Fn->getBlocks())
    for (const auto &IPtr : BB->getInstList()) {
      const Instruction *I = IPtr.get();
      nir::MemAccess Acc;
      if (nir::memoryAccessOf(I, Acc)) {
        Out.push_back(
            {I, Acc.Ptr, Acc.IsWrite, &T, nir::accessGranule(Acc.Size)});
      } else if (const auto *C = nir::dyn_cast<CallInst>(I)) {
        Function *F = C->getCalledFunction();
        if (isRuntimeCall(F))
          continue; // Queues/gates/dispatch synchronize, they don't race.
        if (F && !F->isDeclaration()) {
          std::set<const Function *> Visited;
          summarizeCallee(F, I, T, Visited, Out);
        } else if (!F) {
          Out.push_back({I, nullptr, true, &T});
        }
      }
    }
  return Out;
}

class RegionRaceScan {
public:
  RegionRaceScan(const ParallelRegion &R, AliasAnalysis &AA,
                 const PDGDependenceSummary *Deps,
                 const RaceDetectorOptions &Opts, CheckReport &Rep,
                 RaceRuleStats &S)
      : R(R), AA(AA), Deps(Deps), Opts(Opts), Rep(Rep), S(S),
        HB(R, Deps, Opts) {}

  void run() {
    std::vector<std::vector<Access>> PerTask;
    for (const TaskInfo &T : R.Tasks)
      PerTask.push_back(collectAccesses(T));

    if (R.selfConcurrent()) {
      // Every worker runs the same body: any two accesses of the single
      // task — including an access against itself — may overlap in time.
      for (const auto &Accs : PerTask)
        for (size_t A = 0; A < Accs.size(); ++A)
          for (size_t B = A; B < Accs.size(); ++B)
            checkPair(Accs[A], Accs[B]);
    } else {
      // DSWP: one worker per stage; races need two distinct stages.
      for (size_t TA = 0; TA < PerTask.size(); ++TA)
        for (size_t TB = TA + 1; TB < PerTask.size(); ++TB)
          for (const Access &A : PerTask[TA])
            for (const Access &B : PerTask[TB])
              checkPair(A, B);
    }
  }

private:
  void discharge(const char *Rule) { ++S.Discharged[Rule]; }

  void checkPair(const Access &A, const Access &B) {
    ++S.PairsChecked;
    if (!A.IsWrite && !B.IsWrite) {
      discharge("read-read");
      return;
    }

    // Ordering rules run before pointer reasoning: they order the
    // accesses in time, so even a wildcard (unknown side effects) pair
    // is discharged. Cross-task queue/phase rules apply to DSWP stages;
    // segment rules to a HELIX task against its concurrent copies.
    if (!R.selfConcurrent() && A.Task != B.Task) {
      HBRule Rl = HB.orderedCrossTask(A.Anchor, *A.Task, B.Anchor, *B.Task);
      if (Rl != HBRule::None) {
        discharge(hbRuleName(Rl));
        return;
      }
    }
    if (R.selfConcurrent() && A.Task == B.Task) {
      HBRule Rl = HB.segmentOrdered(A.Anchor, B.Anchor, *A.Task);
      if (Rl != HBRule::None) {
        discharge(hbRuleName(Rl));
        return;
      }
    }

    if (!A.Ptr || !B.Ptr) {
      reportRace(A, B, "call with unknown side effects overlaps another "
                       "access");
      return;
    }

    PtrClass CA = classifyPointer(A.Ptr, *A.Task);
    PtrClass CB = classifyPointer(B.Ptr, *B.Task);

    // Task-private allocas cannot be shared across workers.
    if (isTaskLocal(CA, *A.Task) || isTaskLocal(CB, *B.Task)) {
      discharge("task-local");
      return;
    }

    // PDG grounding: when both accesses are clones of snapshot
    // instructions, the pre-transform PDG already decided whether they
    // can touch the same memory. For DOALL/HELIX, distinct workers run
    // distinct iterations, so only a loop-carried dependence relates
    // them; within one worker, program order covers intra-iteration
    // dependences. For DSWP stages, any memory dependence matters.
    if (Deps) {
      auto OA = originOf(A.Anchor);
      auto OB = originOf(B.Anchor);
      if (OA && OB) {
        const auto &Relevant =
            R.selfConcurrent() ? Deps->LoopCarriedMemDeps : Deps->MemDeps;
        if (!Relevant.count({*OA, *OB})) {
          discharge("pdg-independent");
          return;
        }
      }
    }

    bool EnvA = CA.S == PtrClass::EnvConst || CA.S == PtrClass::EnvLane ||
                CA.S == PtrClass::EnvDyn;
    bool EnvB = CB.S == PtrClass::EnvConst || CB.S == PtrClass::EnvLane ||
                CB.S == PtrClass::EnvDyn;
    if (EnvA && EnvB) {
      if (!envMayOverlap(CA, CB, *A.Task)) {
        discharge("env-disjoint");
        return;
      }
      reportRace(A, B, "both workers touch the same environment slot");
      return;
    }
    if (EnvA != EnvB) {
      // The env alloca is disjoint from every named object.
      discharge("env-disjoint");
      return;
    }

    // Iteration partitioning: a DOALL/HELIX access whose address is
    // derived from the task ID (through the re-based IV) hits a
    // different element in every worker — each worker's chunk of the
    // re-based iteration space is exclusive, with chunk handoff fenced
    // by the dispatch counter.
    if (iterPartitioned(A, B)) {
      discharge("iter-partition");
      return;
    }

    ++S.AndersenFallback;
    if (AA.alias(A.Ptr, A.Size, B.Ptr, B.Size) == AliasResult::NoAlias) {
      discharge("alias-none");
      return;
    }
    reportRace(A, B, "accesses may alias and nothing orders them");
  }

  bool iterPartitioned(const Access &A, const Access &B) {
    return R.selfConcurrent() && sliceContains(A.Ptr, A.Task->TaskIDArg) &&
           sliceContains(B.Ptr, B.Task->TaskIDArg);
  }

  bool isTaskLocal(const PtrClass &C, const TaskInfo &T) const {
    if (C.S != PtrClass::Object || !C.Base)
      return false;
    const auto *AI = nir::dyn_cast<nir::AllocaInst>(C.Base);
    return AI && AI->getFunction() == T.Fn;
  }

  /// Structural disjointness of environment accesses. Lane accesses span
  /// [Slot, Slot + Workers); constant slots are points; dynamic indexes
  /// overlap everything.
  bool envMayOverlap(const PtrClass &A, const PtrClass &B,
                     const TaskInfo &T) const {
    if (A.S == PtrClass::EnvDyn || B.S == PtrClass::EnvDyn)
      return true;
    int64_t W = static_cast<int64_t>(T.Workers);
    if (A.S == PtrClass::EnvConst && B.S == PtrClass::EnvConst)
      return A.Slot == B.Slot;
    if (A.S == PtrClass::EnvLane && B.S == PtrClass::EnvLane) {
      if (A.Slot == B.Slot)
        return false; // Same lane family: distinct workers, distinct lanes.
      int64_t D = A.Slot > B.Slot ? A.Slot - B.Slot : B.Slot - A.Slot;
      return D < W; // Distinct families racing only if ranges overlap.
    }
    const PtrClass &Lane = A.S == PtrClass::EnvLane ? A : B;
    const PtrClass &Const = A.S == PtrClass::EnvLane ? B : A;
    return Const.Slot >= Lane.Slot && Const.Slot < Lane.Slot + W;
  }

  void reportRace(const Access &A, const Access &B,
                  const std::string &Why) {
    // One source-level race per region: clone pairs realizing the same
    // unordered origin pair collapse into the first report.
    auto OA = originOf(A.Anchor);
    auto OB = originOf(B.Anchor);
    if (OA && OB) {
      auto [Lo, Hi] = std::minmax(*OA, *OB);
      if (!ReportedOrigins.insert({Lo, Hi}).second) {
        ++S.DuplicatesSuppressed;
        return;
      }
    }
    ++S.RacesReported;
    Diagnostic D;
    D.Kind = DiagKind::DataRace;
    const char *Shape = A.IsWrite && B.IsWrite ? "write/write" : "read/write";
    D.Message = std::string(Shape) + " race between concurrent workers: " +
                Why;
    D.First = describe(A.Anchor);
    D.Second = describe(B.Anchor);
    D.InFunction = A.Task->Fn->getName();
    Rep.add(std::move(D));
  }

  const ParallelRegion &R;
  AliasAnalysis &AA;
  const PDGDependenceSummary *Deps;
  const RaceDetectorOptions &Opts;
  CheckReport &Rep;
  RaceRuleStats &S;
  HappensBeforeEngine HB;
  std::set<std::pair<uint64_t, uint64_t>> ReportedOrigins;
};

} // namespace

void noelle::verify::detectRaces(nir::Module &M,
                                 const std::vector<ParallelRegion> &Regions,
                                 CheckReport &Rep,
                                 const PDGDependenceSummary *Deps,
                                 const RaceDetectorOptions &Opts) {
  if (Regions.empty())
    return;
  RaceRuleStats Local;
  RaceRuleStats &S = Opts.Stats ? *Opts.Stats : Local;
  AndersenAliasAnalysis AA(M);
  for (const ParallelRegion &R : Regions) {
    // Speculative regions have no raw shared accesses to race on: every
    // load/store was rewritten into a journal call, commits are
    // serialized by the dispatcher, and cross-worker conflicts are the
    // runtime validator's job (audited by verify/SpecCheck.h instead).
    if (R.Kind == "doall-spec")
      continue;
    RegionRaceScan(R, AA, Deps, Opts, Rep, S).run();
  }
}
