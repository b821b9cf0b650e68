//===----------------------------------------------------------------------===//
///
/// \file
/// The DSWP custom tool: decoupled software pipelining. SCCs of the loop
/// dependence graph are partitioned into pipeline stages; every stage
/// replicates the loop's control skeleton (IV + exit test) and values
/// crossing stages flow through unidirectional blocking queues, keeping
/// all instances of an SCC on one core (Section 3; MICRO'05).
/// Implements the unified ParallelizationTechnique interface.
///
//===----------------------------------------------------------------------===//

#ifndef XFORMS_DSWP_H
#define XFORMS_DSWP_H

#include "xforms/ParallelizationTechnique.h"
#include "xforms/ParallelizationUtils.h"

namespace noelle {

struct DSWPOptions {
  unsigned NumCores = 4; ///< maximum number of pipeline stages
  /// Decline pipelines whose average per-iteration stage weight (in
  /// instructions) is below this: fine-grained stages cannot amortize
  /// queue operations. 0, the default, forces pipelining;
  /// createTechnique sets the paper's gate.
  uint64_t MinimumStageWeight{};
};

class DSWP : public ParallelizationTechnique {
public:
  DSWP(Noelle &N, DSWPOptions Opts = {})
      : ParallelizationTechnique(N), Opts(Opts) {}

  TechniqueKind getKind() const override { return TechniqueKind::DSWP; }

  Legality applicable(LoopContent &LC) override;

  TechniqueCost estimate(const Legality &L, const LoopPlan &P,
                         const CostQuery &Q) const override;

  bool apply(LoopContent &LC, const LoopPlan &P, Decision &D) override;

  LoopPlan defaultPlan() const override {
    return {TechniqueKind::DSWP, Opts.NumCores, 1};
  }

private:
  /// A cross-stage register dependence carried by one queue.
  struct QueueSpec {
    Instruction *Def;
    unsigned FromStage;
    unsigned ToStage;
  };

  /// The pipeline plan analysis computes and codegen consumes.
  struct PipelineAnalysis {
    unsigned NumStages = 0;
    std::vector<QueueSpec> Queues;
    /// instruction -> owning stage (replicated skeleton members absent).
    std::map<const Instruction *, unsigned> StageOf;
    // Shape facts for the cost model.
    unsigned NumGroups = 0;       ///< mergeable SCC groups (stage ceiling)
    uint64_t TotalWeight = 0;     ///< per-iteration pipeline work
    uint64_t MaxGroupWeight = 0;  ///< heaviest unsplittable group
  };

  /// Partitions \p LC into a pipeline of at most \p Workers stages.
  /// Pure analysis — never mutates IR. Returns false (with \p Reason)
  /// when the loop cannot (or should not, per MinimumStageWeight) be
  /// pipelined.
  bool analyze(LoopContent &LC, unsigned Workers, PipelineAnalysis &A,
               std::string &Reason);

  DSWPOptions Opts;
};

} // namespace noelle

#endif // XFORMS_DSWP_H
