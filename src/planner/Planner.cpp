#include "planner/Planner.h"

#include "ir/IDs.h"
#include "noelle/MemDepProfiler.h"
#include "verify/CheckMetadata.h"
#include "xforms/DOALL.h"
#include "xforms/DSWP.h"
#include "xforms/HELIX.h"
#include "xforms/SpecDOALL.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

using namespace noelle;
using namespace noelle::planner;

namespace {

/// Loops whose best modeled speedup falls below this stay sequential.
constexpr double MinimumSpeedup = 1.02;

bool isTaskFunction(const nir::Function &F) {
  return F.getMetadata("noelle.task") == "true";
}

} // namespace

std::unique_ptr<ParallelizationTechnique>
planner::makeTechnique(TechniqueKind K, Noelle &N, unsigned Workers) {
  switch (K) {
  case TechniqueKind::DOALL:
    return std::make_unique<DOALL>(N, DOALLOptions{Workers});
  case TechniqueKind::HELIX:
    return std::make_unique<HELIX>(N, HELIXOptions{Workers});
  case TechniqueKind::DSWP:
    return std::make_unique<DSWP>(N, DSWPOptions{Workers});
  case TechniqueKind::SpecDOALL:
    return std::make_unique<SpecDOALL>(N, DOALLOptions{Workers});
  }
  return nullptr;
}

ProfileData *Planner::getProfiles() {
  if (!Opts.UseProfiles)
    return nullptr;
  // Collecting a profile runs @main; modules without one (library
  // fragments, single-kernel test modules) plan from static defaults.
  nir::Function *Main = N.getModule().getFunction("main");
  return N.getProfiles(Main && !Main->isDeclaration());
}

ProgramPlan Planner::plan() {
  nir::Module &M = N.getModule();
  // Loop identities need deterministic IDs; respect existing ones (a
  // verify snapshot may already reference them).
  if (!nir::hasDeterministicIDs(M))
    nir::assignDeterministicIDs(M);

  ProfileData *Prof = getProfiles();

  std::vector<std::unique_ptr<ParallelizationTechnique>> Techniques;
  for (TechniqueKind K : {TechniqueKind::DOALL, TechniqueKind::HELIX,
                          TechniqueKind::DSWP})
    Techniques.push_back(makeTechnique(K, N, Opts.MaxWorkers));
  if (Opts.EnableSpeculation)
    Techniques.push_back(
        makeTechnique(TechniqueKind::SpecDOALL, N, Opts.MaxWorkers));

  // The memory-dependence profile backs the misspeculation-probability
  // term of speculative candidates: a loop observed across many
  // invocations without the dependence manifesting earns a lower
  // modeled rollback charge (rule of succession, 1/(n+2)).
  const MemDepProfile *MemDep =
      Opts.EnableSpeculation ? N.getMemDepProfile() : nullptr;

  ProgramPlan P;
  P.ModuleHash = M.getContentHash();

  // Loops already claimed by an entry; descendants of a claimed loop
  // are skipped, except the direct DOALL-inside-DSWP nested case.
  std::map<const nir::LoopStructure *, size_t> Chosen;

  for (LoopContent *LC : N.getLoopContents()) {
    nir::LoopStructure &LS = LC->getLoopStructure();
    if (isTaskFunction(*LS.getFunction()))
      continue;

    const nir::LoopStructure *ClaimedAncestor = nullptr;
    for (nir::LoopStructure *A = LS.getParentLoop(); A;
         A = A->getParentLoop())
      if (Chosen.count(A)) {
        ClaimedAncestor = A;
        break;
      }

    if (ClaimedAncestor) {
      // Nested parallelism: a DOALL loop immediately inside a planned
      // DSWP loop executes within one pipeline stage's task, where its
      // iterations can still fan out over the remaining cores.
      if (!Opts.EnableNested || ClaimedAncestor != LS.getParentLoop())
        continue;
      size_t ParentIdx = Chosen.at(ClaimedAncestor);
      if (P.Entries[ParentIdx].Kind != TechniqueKind::DSWP)
        continue;
      if (Prof && Prof->getLoopInvocations(LS) == 0)
        continue;
      Legality L = Techniques[0]->applicable(*LC);
      CostQuery Q = Model.queryFor(*LC, Prof);
      PlanChoice C;
      if (!Model.choose(*Techniques[0], L, Q, Opts.MaxWorkers, C))
        continue;
      if (C.Cost.speedup() < MinimumSpeedup)
        continue;
      std::optional<uint64_t> HID = LS.getHeaderID();
      if (!HID)
        continue;
      PlanEntry E;
      E.FunctionName = LS.getFunction()->getName();
      E.HeaderInstID = *HID;
      E.LoopID = LS.getID();
      E.Kind = TechniqueKind::DOALL;
      E.Workers = C.Plan.Workers;
      E.ChunkGrain = C.Plan.ChunkGrain;
      E.Parent = static_cast<int>(ParentIdx);
      E.SpeedupMilli = std::llround(C.Cost.speedup() * 1000.0);
      Chosen[&LS] = P.Entries.size();
      P.Entries.push_back(std::move(E));
      continue;
    }

    // Evidence gate: never-executed loops have no profile-backed trip
    // count.
    if (Prof && Prof->getLoopInvocations(LS) == 0)
      continue;

    std::optional<uint64_t> HID = LS.getHeaderID();
    if (!HID)
      continue;

    CostQuery Q = Model.queryFor(*LC, Prof);
    double SpecProb = 0.0;
    if (MemDep && MemDep->coversLoop(*HID))
      SpecProb =
          1.0 / static_cast<double>(MemDep->loopInvocations(*HID) + 2);

    bool Any = false;
    PlanChoice Best;
    TechniqueKind BestKind = TechniqueKind::DOALL;
    Legality BestL;
    for (auto &T : Techniques) {
      Legality L = T->applicable(*LC);
      CostQuery TQ = Q;
      if (T->getKind() == TechniqueKind::SpecDOALL)
        TQ.MisspecProbability = SpecProb;
      PlanChoice C;
      if (!Model.choose(*T, L, TQ, Opts.MaxWorkers, C))
        continue;
      // Strict comparison: ties resolve to the earlier technique
      // (DOALL before HELIX before DSWP before SpecDOALL — cheaper
      // machinery first, speculation last).
      if (!Any || C.Cost.ParallelTime < Best.Cost.ParallelTime) {
        Best = C;
        BestKind = T->getKind();
        BestL = std::move(L);
        Any = true;
      }
    }
    if (!Any || Best.Cost.speedup() < MinimumSpeedup)
      continue;
    PlanEntry E;
    E.FunctionName = LS.getFunction()->getName();
    E.HeaderInstID = *HID;
    E.LoopID = LS.getID();
    E.Kind = BestKind;
    E.Workers = Best.Plan.Workers;
    E.ChunkGrain = BestKind == TechniqueKind::DOALL ||
                           BestKind == TechniqueKind::SpecDOALL
                       ? Best.Plan.ChunkGrain
                       : 1;
    E.Parent = -1;
    E.SpeedupMilli = std::llround(Best.Cost.speedup() * 1000.0);
    if (BestKind == TechniqueKind::SpecDOALL) {
      E.MisspecMilli = std::llround(SpecProb * 1000.0);
      E.Premises = BestL.SpecPremises;
      std::sort(E.Premises.begin(), E.Premises.end());
    }
    Chosen[&LS] = P.Entries.size();
    P.Entries.push_back(std::move(E));
  }
  return P;
}

namespace {

/// Finds the (non-task) loop a top-level plan entry names. Fresh
/// enumeration per call: applying earlier entries invalidates bundles.
LoopContent *findPlannedLoop(Noelle &N, const PlanEntry &E) {
  for (LoopContent *LC : N.getLoopContents()) {
    nir::LoopStructure &LS = LC->getLoopStructure();
    if (isTaskFunction(*LS.getFunction()))
      continue;
    if (LS.getFunction()->getName() != E.FunctionName)
      continue;
    if (LS.getHeaderID() == E.HeaderInstID)
      return LC;
  }
  return nullptr;
}

/// Finds the clone of a nested entry's loop inside its parent
/// pipeline's stage tasks: cloned instructions carry CheckOrigKey with
/// the original's deterministic ID. Requires the loop to survive in
/// exactly one stage — replicated or dismembered inner loops are not
/// safely parallelizable post hoc.
LoopContent *findNestedLoop(Noelle &N, const PlanEntry &E) {
  std::string Want = std::to_string(E.HeaderInstID);
  LoopContent *Found = nullptr;
  unsigned Matches = 0;
  for (LoopContent *LC : N.getLoopContents()) {
    nir::LoopStructure &LS = LC->getLoopStructure();
    nir::Function *F = LS.getFunction();
    if (F->getMetadata(verify::TaskKindKey) != "dswp-stage")
      continue;
    bool Hit = false;
    for (const auto &I : LS.getHeader()->getInstList())
      if (I->getMetadata(verify::CheckOrigKey) == Want) {
        Hit = true;
        break;
      }
    if (Hit) {
      ++Matches;
      Found = LC;
    }
  }
  return Matches == 1 ? Found : nullptr;
}

/// Stage-fn clones carry CheckOrigKey instead of deterministic IDs, so
/// a task generated from one gets no TaskOriginKey from
/// cloneLoopIntoTask; patch it from the plan entry, which knows the
/// original loop's identity.
void patchNestedTaskOrigin(nir::Module &M, const std::string &StageFn,
                           const PlanEntry &E) {
  for (const auto &F : M.getFunctions()) {
    if (F->getMetadata(verify::TaskKindKey) != "doall")
      continue;
    if (F->getMetadata(verify::TaskSrcFnKey) != StageFn)
      continue;
    if (!F->getMetadata(verify::TaskOriginKey).empty())
      continue;
    F->setMetadata(verify::TaskOriginKey,
                   std::to_string(E.HeaderInstID));
  }
}

} // namespace

std::vector<Decision> Planner::apply(const ProgramPlan &P) {
  nir::Module &M = N.getModule();
  std::vector<Decision> Decisions;

  if (P.ModuleHash != 0 && P.ModuleHash != M.getContentHash()) {
    for (const PlanEntry &E : P.Entries) {
      Decision D;
      D.FunctionName = E.FunctionName;
      D.LoopID = E.LoopID;
      D.Kind = E.Kind;
      D.Reason = "plan hash does not match module";
      Decisions.push_back(std::move(D));
    }
    return Decisions;
  }

  // The memory-dependence profile is bound to the module as planned;
  // read it before the first entry changes the code.
  for (const PlanEntry &E : P.Entries)
    if (E.Kind == TechniqueKind::SpecDOALL) {
      N.getMemDepProfile();
      break;
    }

  std::vector<bool> Applied(P.Entries.size(), false);
  for (size_t I = 0; I < P.Entries.size(); ++I) {
    const PlanEntry &E = P.Entries[I];
    Decision D;
    D.FunctionName = E.FunctionName;
    D.LoopID = E.LoopID;
    D.Kind = E.Kind;

    LoopContent *LC = nullptr;
    std::string StageFnName;
    if (E.Parent < 0) {
      LC = findPlannedLoop(N, E);
      if (!LC)
        D.Reason = "loop named by plan not found";
    } else if (static_cast<size_t>(E.Parent) >= I ||
               !Applied[static_cast<size_t>(E.Parent)]) {
      D.Reason = "parent pipeline entry did not apply";
    } else {
      LC = findNestedLoop(N, E);
      if (LC)
        StageFnName = LC->getLoopStructure().getFunction()->getName();
      else
        D.Reason = "nested loop not found in exactly one pipeline stage";
    }
    if (!LC) {
      Decisions.push_back(std::move(D));
      continue;
    }

    std::unique_ptr<ParallelizationTechnique> T =
        makeTechnique(E.Kind, N, Opts.MaxWorkers);
    LoopPlan LP;
    LP.Kind = E.Kind;
    LP.Workers = std::max(1u, E.Workers);
    LP.ChunkGrain = std::max(1u, E.ChunkGrain);
    bool OK = T->apply(*LC, LP, D);
    if (OK && E.Parent >= 0)
      patchNestedTaskOrigin(M, StageFnName, E);
    Applied[I] = OK;
    Decisions.push_back(std::move(D));
  }
  return Decisions;
}

std::vector<Decision>
Planner::applyEverywhere(ParallelizationTechnique &T) {
  Noelle &N = T.getNoelle();
  std::vector<Decision> Decisions;
  // Keyed by (function, header position) rather than loop ID: IDs are
  // preorder indices that shift as transforms erase sibling loops.
  std::set<std::pair<std::string, unsigned>> Attempted;
  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (LoopContent *LC : N.getLoopContents()) {
      nir::LoopStructure &LS = LC->getLoopStructure();
      if (isTaskFunction(*LS.getFunction()))
        continue;
      unsigned HeaderPos = 0, Pos = 0;
      for (auto &BB : LS.getFunction()->getBlocks()) {
        if (BB.get() == LS.getHeader())
          HeaderPos = Pos;
        ++Pos;
      }
      auto Key = std::make_pair(LS.getFunction()->getName(), HeaderPos);
      if (!Attempted.insert(Key).second)
        continue;

      Decision D;
      D.FunctionName = Key.first;
      D.LoopID = LS.getID();
      D.Kind = T.getKind();
      Legality L = T.applicable(*LC);
      if (!L) {
        D.Reason = L.Reason;
        Decisions.push_back(std::move(D));
        continue;
      }
      D.NumSequentialSegments = L.NumSegments;
      if (!T.profitable(*LC, L, D.Reason)) {
        Decisions.push_back(std::move(D));
        continue;
      }
      bool OK = T.apply(*LC, T.defaultPlan(), D);
      Decisions.push_back(std::move(D));
      if (OK) {
        // The transform invalidated analyses; restart enumeration.
        Progress = true;
        break;
      }
    }
  }
  return Decisions;
}
