//===----------------------------------------------------------------------===//
///
/// \file
/// The DOALL custom tool: parallelizes loops with no loop-carried data
/// dependences (outside IV and reduction cycles) by distributing
/// iterations cyclically across cores (Section 3). Built from NOELLE's
/// PDG, aSCCDAG, IV, IVS, RD, INV, ENV, T, LB, PRO, and AR abstractions.
/// Implements the unified ParallelizationTechnique interface.
///
//===----------------------------------------------------------------------===//

#ifndef XFORMS_DOALL_H
#define XFORMS_DOALL_H

#include "xforms/ParallelizationTechnique.h"
#include "xforms/ParallelizationUtils.h"

namespace noelle {

struct DOALLOptions {
  unsigned NumCores = 4;
};

class DOALL : public ParallelizationTechnique {
public:
  DOALL(Noelle &N, DOALLOptions Opts = {})
      : ParallelizationTechnique(N), Opts(Opts) {}

  TechniqueKind getKind() const override { return TechniqueKind::DOALL; }

  Legality applicable(LoopContent &LC) override;

  TechniqueCost estimate(const Legality &L, const LoopPlan &P,
                         const CostQuery &Q) const override;

  bool apply(LoopContent &LC, const LoopPlan &P, Decision &D) override;

  LoopPlan defaultPlan() const override {
    return {TechniqueKind::DOALL, Opts.NumCores, 1};
  }

protected:
  /// Task-kind metadata stamped on generated task functions; the
  /// speculative subclass overrides it with "doall-spec".
  virtual const char *taskKind() const { return "doall"; }

  /// Speculation hook consulted for every loop-carried dependence the
  /// static discharge cannot clear: may \p E be admitted unprotected?
  /// The default (plain DOALL) never speculates; SpecDOALL answers from
  /// the memory-dependence profile and records the premise in
  /// \p L.SpecPremises.
  virtual bool mayIgnoreCarriedDep(LoopContent &LC, const PDG::EdgeT &E,
                                   Legality &L) {
    (void)LC;
    (void)E;
    (void)L;
    return false;
  }

  /// Called after the task clone is fully specialized (IVs re-based,
  /// reductions privatized) and before the loop is replaced with the
  /// dispatch. A speculative subclass instruments \p Task's memory
  /// accesses and returns the sequential fallback function, routing the
  /// dispatch through noelle_dispatch_spec; returning null keeps the
  /// plain chunked dispatch.
  virtual nir::Function *prepareSpeculation(LoopContent &LC,
                                            const EnvLayout &Layout,
                                            ClonedLoopTask &Task) {
    (void)LC;
    (void)Layout;
    (void)Task;
    return nullptr;
  }

  DOALLOptions Opts;
};

} // namespace noelle

#endif // XFORMS_DOALL_H
