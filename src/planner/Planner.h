//===----------------------------------------------------------------------===//
///
/// \file
/// The planner: automatic parallelization-strategy orchestration. For
/// every hot loop of the program it enumerates the techniques that are
/// legally applicable through the unified ParallelizationTechnique
/// interface, costs each candidate worker count from profiler data and
/// measured runtime overheads, and emits a whole-program ProgramPlan —
/// including nested parallelism (a DOALL loop inside a DSWP stage) and
/// per-loop worker-count / chunk-grain selection. Plans serialize,
/// embed as module metadata next to the PDG cache, audit under
/// `noelle-check --plan`, and apply one-shot via apply() (what
/// `noelle-parallelize` drives).
///
/// The planner also implements the technique-forced whole-module sweep
/// (applyEverywhere) that ParallelizationTechnique::run() delegates to
/// — the legacy per-tool behavior figure 5's DOALL/HELIX/DSWP columns
/// are built on.
///
//===----------------------------------------------------------------------===//

#ifndef PLANNER_PLANNER_H
#define PLANNER_PLANNER_H

#include "planner/CostModel.h"
#include "planner/Plan.h"
#include "xforms/ParallelizationTechnique.h"

namespace noelle {
namespace planner {

/// Technique instances under planner conventions: per-tool gates off
/// (the planner gates on modeled speedup, not per-tool heuristics) so an
/// emitted plan entry always re-applies, at \p Workers workers. The
/// gated counterpart is createTechnique.
std::unique_ptr<ParallelizationTechnique>
makeTechnique(TechniqueKind K, Noelle &N, unsigned Workers);

struct PlannerOptions {
  /// Worker-count search ceiling (and NumCores handed to techniques).
  unsigned MaxWorkers = 4;
  /// Use the embedded profile bound to the module's current content
  /// hash — collecting one by running @main when the module has one and
  /// carries none. When false, the cost model falls back to its static
  /// defaults for every loop.
  bool UseProfiles = true;
  /// Consider DOALL on loops nested inside a planned DSWP stage.
  bool EnableNested = true;
  /// Enumerate speculative DOALL on loops the embedded memory-
  /// dependence profile (noelle.memdep.v1) covers. Off by default:
  /// speculation changes the failure model (misspeculation triggers a
  /// sequential re-execution), so drivers opt in explicitly
  /// (`noelle-parallelize --speculate`). Without an embedded profile
  /// the candidate set is empty regardless.
  bool EnableSpeculation = false;
  CostOverheads Overheads;
};

/// Per-module strategy orchestrator. Obtained from the facade via
/// Noelle::getPlanner(); standalone construction is fine too.
class Planner {
public:
  explicit Planner(Noelle &N, PlannerOptions Opts = {})
      : N(N), Opts(Opts), Model(Opts.Overheads) {}

  Noelle &getNoelle() const { return N; }
  const PlannerOptions &getOptions() const { return Opts; }
  const CostModel &getCostModel() const { return Model; }

  /// Computes a whole-program plan for the facade's module without
  /// mutating its code. Ensures deterministic instruction IDs exist
  /// (assigning them is the only metadata side effect; the content
  /// hash ignores metadata). Deterministic: same module + same profile
  /// => byte-identical serialized plan.
  ProgramPlan plan();

  /// Applies \p P to the module, one decision per plan entry. Entries
  /// whose loops cannot be found or transformed fail individually
  /// (Decision::Reason) without aborting the rest. Nested entries are
  /// applied after their parent pipeline, by locating the cloned loop
  /// inside the parent's stage task.
  std::vector<Decision> apply(const ProgramPlan &P);

  /// plan() then apply() — the one-shot driver path.
  std::vector<Decision> planAndApply() { return apply(plan()); }

  /// The technique-forced sweep behind ParallelizationTechnique::run():
  /// applies \p T to every eligible loop of its module (outermost
  /// first, skipping generated task functions and anything inside an
  /// already-parallelized loop), restarting enumeration after each
  /// successful transform. Honors the technique's profitability gate.
  static std::vector<Decision> applyEverywhere(ParallelizationTechnique &T);

private:
  /// Profile lookup per the options (collect-if-missing only when the
  /// module has a @main to run).
  ProfileData *getProfiles();

  Noelle &N;
  PlannerOptions Opts;
  CostModel Model;
};

} // namespace planner
} // namespace noelle

#endif // PLANNER_PLANNER_H
