//===----------------------------------------------------------------------===//
///
/// \file
/// The unified transform API shared by every parallelizing custom tool.
/// DOALL, HELIX, and DSWP implement one interface —
///
///   applicable(LoopContent&)           -> Legality
///   estimate(Legality, LoopPlan, Cost) -> TechniqueCost
///   apply(LoopContent&, LoopPlan&)     -> Decision
///
/// — with typed per-technique option structs (DOALLOptions, HELIXOptions,
/// DSWPOptions) carrying their worker count and profitability gate. The
/// planner (src/planner) enumerates techniques through this interface,
/// costs candidates from profiler data, and picks per-loop strategies;
/// `run()` is the technique-forced whole-module sweep (what figure 5's
/// per-tool columns drive), implemented once on the base class via the
/// planner.
///
/// Techniques are built through one of two factories: createTechnique
/// below (the paper's per-tool gates) or planner::makeTechnique (gates
/// off).
///
//===----------------------------------------------------------------------===//

#ifndef XFORMS_PARALLELIZATIONTECHNIQUE_H
#define XFORMS_PARALLELIZATIONTECHNIQUE_H

#include "noelle/Noelle.h"

#include <memory>

namespace noelle {

enum class TechniqueKind : uint8_t { DOALL, HELIX, DSWP, SpecDOALL };

/// The Figure-5 performance model, in retired interpreter instructions.
/// A parallel region costs its critical path — the busiest task plus its
/// synchronization ops, but never less than the serialized segment work
/// (HELIX's bound) — plus a dispatch charge per task; the rest of a run
/// costs what it retired. It lives here, below every layer that prices
/// with it: the planner's default overheads, CostQuery, HELIX's
/// profitability gate, measured-speedup feedback and the Figure-5
/// benches.
namespace perfmodel {

/// Pool dispatch + park, per task.
inline constexpr uint64_t SpawnCostPerTask = 500;
/// One ss-wait/ss-signal or queue op on the critical path (core-to-core
/// latency at ~10 interpreted instructions per 100ns).
inline constexpr uint64_t SyncCostPerOp = 20;

/// Modeled time of one dispatched region.
uint64_t regionTime(const nir::DispatchRecord &R);

/// Modeled time of a run that retired \p Retired instructions in total
/// and dispatched \p Records: the work outside tasks as retired, each
/// region at regionTime.
uint64_t runTime(uint64_t Retired,
                 const std::vector<nir::DispatchRecord> &Records);

} // namespace perfmodel

/// The lowercase names used in task metadata, plan serialization, and
/// CLI flags ("doall" / "helix" / "dswp" / "spec-doall").
const char *techniqueName(TechniqueKind K);
bool techniqueFromName(const std::string &Name, TechniqueKind &K);

/// The result of an applicability query: whether the technique can
/// legally transform the loop, why not otherwise, and the shape facts
/// the cost model consumes (all per loop iteration or per invocation).
struct Legality {
  bool Ok = false;
  std::string Reason; ///< set when !Ok

  /// Executable work per iteration: non-phi, non-terminator instruction
  /// count over the loop body (every technique fills this).
  uint64_t BodyWeight = 0;

  /// Loads + stores per iteration (DOALL fills this alongside
  /// BodyWeight); speculative DOALL charges its journal instrumentation
  /// per memory access.
  uint64_t MemOpWeight = 0;

  /// Speculative DOALL: the loop-carried memory dependences admitted on
  /// the profile's never-manifested evidence, as (srcID, dstID)
  /// deterministic-instruction-ID pairs. Empty for static techniques.
  std::vector<std::pair<uint64_t, uint64_t>> SpecPremises;

  // HELIX: sequential segments.
  unsigned NumSegments = 0;
  /// Total segment member count (phis included — what the legacy
  /// profitability estimate charged).
  uint64_t SegmentWeight = 0;

  // DSWP: pipeline shape at the technique's default worker count.
  unsigned NumStages = 0;
  unsigned NumQueues = 0;
  /// Mergeable SCC groups — the ceiling on pipeline stages.
  unsigned NumGroups = 0;
  uint64_t TotalPipelineWeight = 0;
  uint64_t MaxGroupWeight = 0;
  /// Queue operations (pushes + pops) of the busiest stage, per
  /// iteration. The pipeline's throughput charge: queue traffic on
  /// non-bottleneck stages overlaps with the bottleneck's compute.
  unsigned MaxStageQueueOps = 0;

  explicit operator bool() const { return Ok; }
};

/// What the planner decided for one loop: which technique, how many
/// workers, and (DOALL) the dynamic-dispatch chunk grain.
struct LoopPlan {
  TechniqueKind Kind = TechniqueKind::DOALL;
  unsigned Workers = 4;
  unsigned ChunkGrain = 1;
};

/// Profile-derived inputs to a cost estimate, in interpreter-instruction
/// units (the figure-5 performance model's currency). Overheads default
/// to perfmodel's so modeled and measured time agree.
struct CostQuery {
  double TripCount = 128.0; ///< average iterations per invocation
  double Invocations = 1.0; ///< loop invocations over the whole run
  double SpawnCostPerTask = perfmodel::SpawnCostPerTask;
  double SyncCost = perfmodel::SyncCostPerOp;
  /// Dynamic-to-static work ratio for one iteration. Legality weights
  /// count each instruction of the loop body once, but a body that
  /// contains a nested loop executes those instructions per inner trip;
  /// profile block counts recover the true per-iteration work as
  /// BodyScale × static weight. 1.0 = trust the static count.
  double BodyScale = 1.0;
  /// Retired-instruction scale: dynamic instructions the interpreter
  /// retires per iteration (phis and terminators included) over the
  /// static BodyWeight. SpawnCostPerTask/SyncCost are measured in
  /// retired units, so estimates competing in the marginal zone where
  /// spawn cost rivals body work (speculative DOALL's territory) use
  /// this scale to price the body in the same currency. The static
  /// techniques keep the BodyWeight convention — their decisions never
  /// hinge on the unit mismatch, and their plans must stay
  /// byte-identical.
  double RetiredScale = 1.0;
  /// Speculative DOALL: modeled probability that one dispatch of the
  /// loop misspeculates and re-executes sequentially. The planner
  /// derives it from the profile's evidence (rule of succession over
  /// observed invocations); 0 disables the rollback charge.
  double MisspecProbability = 0.0;
  /// Extra interpreter work per instrumented memory access (the spec
  /// accessor call, its cast, and the journal bookkeeping it models).
  double SpecAccessCost = 2.0;
};

/// Modeled per-invocation execution time under a plan.
struct TechniqueCost {
  double SequentialTime = 0;
  double ParallelTime = 0;
  double speedup() const {
    return ParallelTime > 0 ? SequentialTime / ParallelTime : 0;
  }
};

/// Why a loop was accepted or rejected, unified across techniques.
/// Loops are identified by name because parallelization invalidates
/// LoopStructure objects.
struct Decision {
  std::string FunctionName;
  unsigned LoopID = 0;
  TechniqueKind Kind = TechniqueKind::DOALL;
  bool Parallelized = false;
  std::string Reason;
  unsigned Workers = 0;
  unsigned NumSequentialSegments = 0; ///< HELIX
  unsigned NumStages = 0;             ///< DSWP
  unsigned NumQueues = 0;             ///< DSWP
  /// Speculative DOALL: the premises the transform committed to (copied
  /// from Legality.SpecPremises so plans can record them).
  std::vector<std::pair<uint64_t, uint64_t>> SpecPremises;
};

/// Base class of the parallelizing custom tools.
class ParallelizationTechnique {
public:
  explicit ParallelizationTechnique(Noelle &N) : N(N) {}
  virtual ~ParallelizationTechnique() = default;

  virtual TechniqueKind getKind() const = 0;

  /// Pure legality + shape query; never mutates IR.
  virtual Legality applicable(LoopContent &LC) = 0;

  /// Models the loop's execution time under \p P from profile inputs
  /// \p Q and the shape facts of \p L (which must come from a
  /// successful applicable() on the same loop).
  virtual TechniqueCost estimate(const Legality &L, const LoopPlan &P,
                                 const CostQuery &Q) const = 0;

  /// Transforms one loop under \p P, filling \p D. Returns false
  /// (leaving the IR untouched) when the loop cannot be parallelized.
  virtual bool apply(LoopContent &LC, const LoopPlan &P, Decision &D) = 0;

  /// The technique's legacy profitability gate, honored by the forced
  /// sweep (run()) but not by the free planner, which gates on
  /// estimate() instead. Default: always profitable.
  virtual bool profitable(LoopContent &LC, const Legality &L,
                          std::string &Reason) {
    (void)LC;
    (void)L;
    (void)Reason;
    return true;
  }

  /// The plan this technique's options imply (worker count, chunk).
  virtual LoopPlan defaultPlan() const = 0;

  /// Applies this technique to every eligible loop (outermost first;
  /// loops nested in an already parallelized loop are skipped) — the
  /// technique-forced planner sweep. Returns decisions.
  std::vector<Decision> run();

  Noelle &getNoelle() const { return N; }

protected:
  Noelle &N;
};

/// Factory over the techniques at \p NumCores workers with the paper's
/// per-tool profitability gates, which the forced sweep (run()) honors:
/// HELIX declines loops modeled below 1.05x, DSWP pipelines whose stages
/// average under 30 instructions. planner::makeTechnique builds the same
/// techniques with the gates off.
std::unique_ptr<ParallelizationTechnique>
createTechnique(TechniqueKind K, Noelle &N, unsigned NumCores = 4);

} // namespace noelle

#endif // XFORMS_PARALLELIZATIONTECHNIQUE_H
