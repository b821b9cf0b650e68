//===----------------------------------------------------------------------===//
///
/// \file
/// Profile-guided speculative DOALL. Parallelizes loops whose blocking
/// loop-carried memory dependences were *never observed to manifest* in
/// the module's memory-dependence profile (Noelle::getMemDepProfile):
/// the static discharge is replaced by a runtime write-log/commit
/// protocol. The task clone's loads and stores are routed through the
/// noelle_spec_* journal accessors, an uninstrumented sequential clone
/// is kept as the recovery path, and the region dispatches through
/// noelle_dispatch_spec, which checks each task's written bytes against
/// every other task's read and written bytes at the join and rolls back
/// to the sequential clone on conflict.
///
/// Restrictions of the v1 protocol (all checked in applicable()):
///  - the profile must have observed the loop (no evidence, no
///    speculation);
///  - no live-out values (the journaled tasks publish results only
///    through memory);
///  - no allocas, vector memory ops, or calls other than pure math
///    externals in the loop body (the journal covers exactly the
///    scalar accesses the transform can see and rewrite).
///
//===----------------------------------------------------------------------===//

#ifndef XFORMS_SPECDOALL_H
#define XFORMS_SPECDOALL_H

#include "xforms/DOALL.h"

namespace noelle {

class SpecDOALL : public DOALL {
public:
  SpecDOALL(Noelle &N, DOALLOptions Opts = {}) : DOALL(N, Opts) {}

  TechniqueKind getKind() const override {
    return TechniqueKind::SpecDOALL;
  }

  Legality applicable(LoopContent &LC) override;

  TechniqueCost estimate(const Legality &L, const LoopPlan &P,
                         const CostQuery &Q) const override;

  LoopPlan defaultPlan() const override {
    return {TechniqueKind::SpecDOALL, Opts.NumCores, 1};
  }

protected:
  const char *taskKind() const override { return "doall-spec"; }

  bool mayIgnoreCarriedDep(LoopContent &LC, const PDG::EdgeT &E,
                           Legality &L) override;

  nir::Function *prepareSpeculation(LoopContent &LC,
                                    const EnvLayout &Layout,
                                    ClonedLoopTask &Task) override;

};

/// Rewrites every load/store in \p TaskFn into the matching
/// noelle_spec_load_* / noelle_spec_store_* call (declared via
/// declareParallelRuntime), preserving the original width and extension
/// semantics with explicit casts and carrying the replaced access's
/// provenance (noelle.check.orig) onto the call. Exposed for tests.
void instrumentSpeculativeTask(nir::Function &TaskFn);

} // namespace noelle

#endif // XFORMS_SPECDOALL_H
