//===----------------------------------------------------------------------===//
///
/// \file
/// The HELIX custom tool: parallelizes a loop by distributing iterations
/// across cores even when sequential SCCs exist — each sequential SCC
/// becomes a "sequential segment" whose dynamic instances execute in
/// iteration order across cores, synchronized through gates (Section 3;
/// HELIX CGO'12). Uses PDG, aSCCDAG, ENV, T, DFE, PRO, SCD, L, LB, IV,
/// IVS, INV, FR, RD, AR, and LS per the paper's Table 4.
/// Implements the unified ParallelizationTechnique interface.
///
//===----------------------------------------------------------------------===//

#ifndef XFORMS_HELIX_H
#define XFORMS_HELIX_H

#include "xforms/ParallelizationTechnique.h"
#include "xforms/ParallelizationUtils.h"

namespace noelle {

struct HELIXOptions {
  unsigned NumCores = 4;
  /// Decline loops whose statically estimated speedup falls below this
  /// (sequential segments + gate synchronization can make fine-grained
  /// loops slower; the real tool prunes them with PRO + AR data). 0, the
  /// default, forces parallelization; createTechnique sets the paper's
  /// gate. Honored by the forced sweep (run()); the planner gates on
  /// estimate() instead.
  double MinimumEstimatedSpeedup{};
};

class HELIX : public ParallelizationTechnique {
public:
  HELIX(Noelle &N, HELIXOptions Opts = {})
      : ParallelizationTechnique(N), Opts(Opts) {}

  TechniqueKind getKind() const override { return TechniqueKind::HELIX; }

  Legality applicable(LoopContent &LC) override;

  TechniqueCost estimate(const Legality &L, const LoopPlan &P,
                         const CostQuery &Q) const override;

  bool apply(LoopContent &LC, const LoopPlan &P, Decision &D) override;

  /// The legacy static profitability gate: per iteration, the serialized
  /// portion costs the segment work plus two gate operations per
  /// segment at perfmodel's sync cost; decline when
  /// Body / max(Serialized, Body/Cores) falls below
  /// MinimumEstimatedSpeedup.
  bool profitable(LoopContent &LC, const Legality &L,
                  std::string &Reason) override;

  LoopPlan defaultPlan() const override {
    return {TechniqueKind::HELIX, Opts.NumCores, 1};
  }

private:
  /// Computes the sequential segments of \p LC: groups of instructions
  /// whose cross-iteration order must be preserved. Returns false (with
  /// \p Reason) when HELIX cannot parallelize the loop.
  bool computeSegments(LoopContent &LC,
                       std::vector<std::vector<Instruction *>> &SegmentsOut,
                       std::string &Reason);

  HELIXOptions Opts;
};

} // namespace noelle

#endif // XFORMS_HELIX_H
