//===----------------------------------------------------------------------===//
///
/// \file
/// The Noelle manager: the demand-driven entry point custom tools use
/// (what noelle-load puts in memory). Abstractions are computed only when
/// requested and memoized; every request is recorded, which regenerates
/// the paper's Table 4 (abstractions used per custom tool). It also owns
/// the lifetimes of per-function analyses, fixing the LLVM function-pass
/// cache-invalidation hazard described in Section 2.2.
///
//===----------------------------------------------------------------------===//

#ifndef NOELLE_NOELLE_H
#define NOELLE_NOELLE_H

#include "noelle/Abstraction.h"
#include "noelle/Architecture.h"
#include "noelle/CallGraph.h"
#include "noelle/DataFlow.h"
#include "noelle/Environment.h"
#include "noelle/Forest.h"
#include "noelle/InductionVariables.h"
#include "noelle/Invariants.h"
#include "noelle/LoopBuilder.h"
#include "noelle/PDG.h"
#include "noelle/Profiler.h"
#include "noelle/Reduction.h"
#include "noelle/SCCDAG.h"
#include "noelle/Scheduler.h"

#include <memory>
#include <span>
#include <unordered_map>

namespace noelle {

class MemDepProfile;

namespace planner {
class Planner;
}

/// The "L" abstraction: one loop bundled with its dependence graph,
/// aSCCDAG, invariants, induction variables, reductions, and environment
/// — everything Table 1 lists for "Loop (L)".
class LoopContent {
public:
  LoopContent(nir::LoopStructure &LS, PDGBuilder &Builder);

  nir::LoopStructure &getLoopStructure() const { return LS; }
  PDG &getLoopDG() const { return *LoopDG; }
  SCCDAG &getSCCDAG() const { return *Dag; }
  InvariantManager &getInvariantManager() const { return *Inv; }
  InductionVariableManager &getIVManager() const { return *IVs; }
  ReductionManager &getReductionManager() const { return *Reds; }
  Environment &getEnvironment() const { return *Env; }

private:
  nir::LoopStructure &LS;
  std::unique_ptr<PDG> LoopDG;
  std::unique_ptr<SCCDAG> Dag;
  std::unique_ptr<InvariantManager> Inv;
  std::unique_ptr<InductionVariableManager> IVs;
  std::unique_ptr<ReductionManager> Reds;
  std::unique_ptr<Environment> Env;
};

struct NoelleOptions {
  PDGBuildOptions PDGOptions;
  double MinimumLoopHotness = 0.0; ///< filter for getLoopContents
};

/// Demand-driven facade over all abstractions for one module.
class Noelle {
public:
  explicit Noelle(nir::Module &M, NoelleOptions Opts = {});
  ~Noelle();

  nir::Module &getModule() const { return M; }

  /// Whole-program PDG (Table 1: PDG).
  PDG &getPDG();

  /// Refines the whole-program PDG's loop-carried flags against every
  /// natural loop (innermost enclosing loop wins). See
  /// PDGBuilder::refineAllLoopCarried.
  void refinePDGLoopCarried();

  /// Complete call graph (Table 1: CG).
  CallGraph &getCallGraph();

  /// All loops of the program as L bundles, outermost first, filtered by
  /// hotness when a profile is available and MinimumLoopHotness is set.
  /// The view stays valid until the next invalidation; it is a window
  /// into Noelle-owned storage, not a copy.
  std::span<LoopContent *const> getLoopContents();

  /// The loop-nesting forest over the module's loops (Table 1: FR).
  Forest<LoopContent> &getLoopForest();

  /// The data-flow engine (Table 1: DFE).
  DataFlowEngine &getDataFlowEngine();

  /// Embedded or freshly collected profiles (Table 1: PRO). An embedded
  /// profile loads only while it is bound to the module's current content
  /// hash; a stale one is ignored. Returns null if there is no current
  /// embedded profile and \p CollectIfMissing is false.
  ProfileData *getProfiles(bool CollectIfMissing = false);

  /// The module's memory-dependence profile (MemDepProfile::fromModule),
  /// or null when it carries no current one. Read on the first call and
  /// kept across invalidate(): the profile is keyed by instruction IDs,
  /// which transforms preserve, so ask before the first transform
  /// changes the module's content hash.
  const MemDepProfile *getMemDepProfile();

  /// Architecture description (Table 1: AR).
  Architecture &getArchitecture();

  /// Loop builder (Table 1: LB) and schedulers (SCD).
  LoopBuilder &getLoopBuilder();
  Scheduler getScheduler(nir::Function &F);

  /// The strategy planner (src/planner) bound to this module, with
  /// default options. Build a planner::Planner directly for custom
  /// options; this accessor exists so one-shot drivers need only the
  /// facade.
  planner::Planner &getPlanner();

  /// Per-function analyses with NOELLE-owned lifetime.
  nir::DominatorTree &getDominators(nir::Function &F);
  nir::LoopInfo &getLoopInfo(nir::Function &F);

  /// Which abstractions have been requested so far (Table 4's columns).
  const AbstractionSet &getRequestedAbstractions() const {
    return Requested;
  }
  void resetRequestTracking() { Requested.clear(); }

  /// Records a request explicitly (used by abstractions reached without
  /// a getter, e.g. ENV/T inside parallelizer codegen).
  void noteRequest(Abstraction A) { Requested.insert(A); }

  /// Drops the cached analyses of one mutated function — its dominator
  /// tree, loop info, function DG, and loop bundles — plus every
  /// whole-program structure (every function's dependence list and the
  /// PDG assembled from them, the alias analyses, the loop forest). Bundles of untouched functions survive; transforms call
  /// this for each function they changed. Note the surviving loop DGs
  /// keep dependences computed with pre-mutation interprocedural
  /// aliasing — sound for the IR they describe since memory dependence
  /// edges only ever get disproved, never created, by other functions'
  /// local changes.
  void invalidate(nir::Function &F);

  /// Drops every cached analysis (use after module-shape changes such as
  /// function insertion or deletion).
  void invalidateAll();

private:
  nir::Module &M;
  NoelleOptions Opts;

  std::unique_ptr<PDGBuilder> Builder;
  std::unique_ptr<CallGraph> CG;
  std::unique_ptr<nir::AndersenAliasAnalysis> CGPointsTo;
  /// L bundles per function; presence of a (possibly empty) entry means
  /// the function's loops were discovered.
  std::unordered_map<nir::Function *,
                     std::vector<std::unique_ptr<LoopContent>>>
      LoopsByFn;
  /// Hotness-filtered bundles in module order (the getLoopContents view).
  std::vector<LoopContent *> LoopOrder;
  bool LoopOrderValid = false;
  std::unique_ptr<Forest<LoopContent>> LoopForest;
  DataFlowEngine DFE;
  std::unique_ptr<ProfileData> Profiles;
  bool ProfilesLoaded = false;
  std::unique_ptr<MemDepProfile> MemDep;
  bool MemDepLoaded = false;
  std::unique_ptr<Architecture> Arch;
  std::unique_ptr<LoopBuilder> LB;
  std::unique_ptr<planner::Planner> ThePlanner;
  std::unordered_map<nir::Function *, std::unique_ptr<nir::DominatorTree>>
      DTs;
  std::unordered_map<nir::Function *, std::unique_ptr<nir::LoopInfo>> LIs;
  std::unordered_map<nir::Function *, std::unique_ptr<PDG>> FnDGs;

  AbstractionSet Requested;

public:
  /// Function-level dependence graph, memoized (used by schedulers).
  PDG &getFunctionDG(nir::Function &F);
};

} // namespace noelle

#endif // NOELLE_NOELLE_H
