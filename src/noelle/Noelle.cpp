#include "noelle/Noelle.h"

#include "noelle/MemDepProfiler.h"
#include "planner/Planner.h"

using namespace noelle;
using nir::Function;

//===----------------------------------------------------------------------===//
// LoopContent
//===----------------------------------------------------------------------===//

LoopContent::LoopContent(nir::LoopStructure &LS, PDGBuilder &Builder)
    : LS(LS) {
  LoopDG = Builder.getLoopDG(LS);
  Dag = std::make_unique<SCCDAG>(*LoopDG, LS);
  Inv = std::make_unique<InvariantManager>(LS, *LoopDG);
  IVs = std::make_unique<InductionVariableManager>(LS, *Dag, *Inv);
  Reds = std::make_unique<ReductionManager>(*Dag);
  Env = std::make_unique<Environment>(LS);
}

//===----------------------------------------------------------------------===//
// Noelle manager
//===----------------------------------------------------------------------===//

Noelle::Noelle(nir::Module &M, NoelleOptions Opts) : M(M), Opts(Opts) {
  Builder = std::make_unique<PDGBuilder>(M, Opts.PDGOptions);
}

Noelle::~Noelle() = default;

PDG &Noelle::getPDG() {
  Requested.insert(Abstraction::PDG);
  return Builder->getPDG();
}

void Noelle::refinePDGLoopCarried() { Builder->refineAllLoopCarried(); }

CallGraph &Noelle::getCallGraph() {
  Requested.insert(Abstraction::CG);
  if (!CG) {
    CGPointsTo = std::make_unique<nir::AndersenAliasAnalysis>(M);
    CG = std::make_unique<CallGraph>(M, *CGPointsTo);
  }
  return *CG;
}

nir::DominatorTree &Noelle::getDominators(Function &F) {
  auto It = DTs.find(&F);
  if (It == DTs.end())
    It = DTs.emplace(&F, std::make_unique<nir::DominatorTree>(F)).first;
  return *It->second;
}

nir::LoopInfo &Noelle::getLoopInfo(Function &F) {
  Requested.insert(Abstraction::LS);
  auto It = LIs.find(&F);
  if (It == LIs.end())
    It = LIs
             .emplace(&F, std::make_unique<nir::LoopInfo>(
                              F, getDominators(F)))
             .first;
  return *It->second;
}

std::span<LoopContent *const> Noelle::getLoopContents() {
  Requested.insert(Abstraction::L);
  Requested.insert(Abstraction::PDG);
  Requested.insert(Abstraction::aSCCDAG);
  Requested.insert(Abstraction::INV);
  Requested.insert(Abstraction::IV);
  Requested.insert(Abstraction::RD);
  Requested.insert(Abstraction::ENV);

  // Discover loops of any function not yet covered (all of them on the
  // first call; only the invalidated ones after a transform).
  for (const auto &F : M.getFunctions()) {
    if (F->isDeclaration())
      continue;
    if (LoopsByFn.count(F.get()))
      continue;
    auto &Bundles = LoopsByFn[F.get()];
    nir::LoopInfo &LI = getLoopInfo(*F);
    for (nir::LoopStructure *LS : LI.getLoopsInPreorder())
      Bundles.push_back(std::make_unique<LoopContent>(*LS, *Builder));
    LoopOrderValid = false;
  }

  if (!LoopOrderValid) {
    LoopOrderValid = true;
    LoopOrder.clear();
    ProfileData *Prof =
        Opts.MinimumLoopHotness > 0 ? getProfiles(false) : nullptr;
    for (const auto &F : M.getFunctions()) {
      auto It = LoopsByFn.find(F.get());
      if (It == LoopsByFn.end())
        continue;
      for (const auto &LC : It->second) {
        if (Prof && Prof->getLoopHotness(LC->getLoopStructure()) <
                        Opts.MinimumLoopHotness)
          continue;
        LoopOrder.push_back(LC.get());
      }
    }
  }
  return LoopOrder;
}

Forest<LoopContent> &Noelle::getLoopForest() {
  Requested.insert(Abstraction::FR);
  if (!LoopForest) {
    LoopForest = std::make_unique<Forest<LoopContent>>();
    auto Contents = getLoopContents();
    // Parents appear before children in preorder; map LS -> node.
    std::map<const nir::LoopStructure *, Forest<LoopContent>::Node *> NodeOf;
    for (LoopContent *LC : Contents) {
      nir::LoopStructure *Parent = LC->getLoopStructure().getParentLoop();
      Forest<LoopContent>::Node *ParentNode =
          Parent && NodeOf.count(Parent) ? NodeOf[Parent] : nullptr;
      NodeOf[&LC->getLoopStructure()] =
          LoopForest->addNode(LC, ParentNode);
    }
  }
  return *LoopForest;
}

DataFlowEngine &Noelle::getDataFlowEngine() {
  Requested.insert(Abstraction::DFE);
  return DFE;
}

ProfileData *Noelle::getProfiles(bool CollectIfMissing) {
  Requested.insert(Abstraction::PRO);
  if (!ProfilesLoaded) {
    ProfilesLoaded = true;
    Profiles = ProfileData::loadEmbedded(M);
  }
  if (!Profiles && CollectIfMissing)
    Profiles = std::make_unique<ProfileData>(Profiler::profileModule(M));
  return Profiles.get();
}

const MemDepProfile *Noelle::getMemDepProfile() {
  if (!MemDepLoaded) {
    MemDepLoaded = true;
    auto P = std::make_unique<MemDepProfile>();
    std::string Err;
    if (MemDepProfile::fromModule(M, *P, Err))
      MemDep = std::move(P);
  }
  return MemDep.get();
}

Architecture &Noelle::getArchitecture() {
  Requested.insert(Abstraction::AR);
  if (!Arch)
    Arch = std::make_unique<Architecture>();
  return *Arch;
}

LoopBuilder &Noelle::getLoopBuilder() {
  Requested.insert(Abstraction::LB);
  if (!LB)
    LB = std::make_unique<LoopBuilder>(M.getContext());
  return *LB;
}

Scheduler Noelle::getScheduler(Function &F) {
  Requested.insert(Abstraction::SCD);
  return Scheduler(getFunctionDG(F), getDominators(F));
}

planner::Planner &Noelle::getPlanner() {
  if (!ThePlanner)
    ThePlanner = std::make_unique<planner::Planner>(*this);
  return *ThePlanner;
}

PDG &Noelle::getFunctionDG(Function &F) {
  auto It = FnDGs.find(&F);
  if (It == FnDGs.end())
    It = FnDGs.emplace(&F, Builder->getFunctionDG(F)).first;
  return *It->second;
}

void Noelle::invalidate(Function &F) {
  // The forest references bundles about to die; drop it before them.
  LoopForest.reset();
  LoopOrder.clear();
  LoopOrderValid = false;
  LoopsByFn.erase(&F);
  FnDGs.erase(&F);
  LIs.erase(&F);
  DTs.erase(&F);
  // Whole-program structures see the mutation regardless of which
  // function hosts it: the PDG spans every function, and the alias
  // analyses and mod/ref summaries are interprocedural.
  Builder->invalidate();
}

void Noelle::invalidateAll() {
  LoopForest.reset();
  LoopOrder.clear();
  LoopOrderValid = false;
  LoopsByFn.clear();
  FnDGs.clear();
  LIs.clear();
  DTs.clear();
  CG.reset();
  CGPointsTo.reset();
  Builder->invalidate();
}
