//===----------------------------------------------------------------------===//
///
/// \file
/// The metadata contract between the parallelizing transforms and the
/// static verification layer (noelle-check). Transforms annotate the
/// task functions they generate with enough provenance for the checker
/// to map every task instruction back to the pre-transform loop and
/// audit it against the embedded PDG:
///
///   on the task function (function-level metadata):
///     noelle.task          "true"            (pre-existing task marker)
///     noelle.task.kind     doall | helix | dswp-stage | dswp-pipeline
///     noelle.task.origin   instruction ID of the source loop header's
///                          first instruction (identifies the loop in
///                          the pre-transform snapshot)
///     noelle.task.srcfn    name of the function the loop came from
///     noelle.task.workers  worker count (doall/helix)
///     noelle.task.stage    this stage's index        (dswp-stage)
///     noelle.task.stages   total number of stages    (dswp)
///     noelle.task.segments number of sequential segments (helix)
///
///   on task instructions (instruction-level metadata):
///     noelle.check.orig    ID of the original instruction this one is
///                          a clone of (replaces the clone's inherited
///                          noelle.inst.id, which would otherwise
///                          duplicate the original's)
///     noelle.check.spill   ID of the recurrence phi whose value this
///                          HELIX spill load/store transports
///     noelle.check.queue   DSWP queue index of this push/pop call
///     noelle.check.queue.orig  ID of the value the queue transports
///
/// IDs are only emitted when the pre-transform IR carried deterministic
/// IDs (ir/IDs.h) — i.e. when the pipeline ran verify::captureForCheck
/// (or noelle-meta-pdg-embed) before transforming. Without IDs the transforms
/// still tag kinds and counts, and the checker reports the tasks as
/// unauditable instead of guessing.
///
//===----------------------------------------------------------------------===//

#ifndef VERIFY_CHECKMETADATA_H
#define VERIFY_CHECKMETADATA_H

#include <string>

namespace noelle {
namespace verify {

inline constexpr const char *TaskKindKey = "noelle.task.kind";
inline constexpr const char *TaskOriginKey = "noelle.task.origin";
inline constexpr const char *TaskSrcFnKey = "noelle.task.srcfn";
inline constexpr const char *TaskWorkersKey = "noelle.task.workers";
inline constexpr const char *TaskStageKey = "noelle.task.stage";
inline constexpr const char *TaskStagesKey = "noelle.task.stages";
inline constexpr const char *TaskSegmentsKey = "noelle.task.segments";
/// Speculative DOALL ("doall-spec" tasks): the name of the
/// uninstrumented sequential fallback clone the runtime re-executes on
/// misspeculation, and the speculated-away loop-carried memory edges as
/// "srcID:dstID" pairs joined with ','.
inline constexpr const char *TaskSpecSeqKey = "noelle.task.spec.seq";
inline constexpr const char *TaskSpecPremisesKey =
    "noelle.task.spec.premises";

/// Externals a speculative ("doall-spec") task may call: pure math with
/// no memory effects and no observable output. Everything else (print_*,
/// malloc/free, clock_ns, defined functions, the runtime itself) either
/// touches memory outside the write log or commits an effect the
/// rollback cannot undo. Shared by the SpecDOALL transform (which
/// refuses loops calling anything else) and the --speculative audit
/// (which re-checks the shipped task bodies).
inline bool isSpecPureExternal(const std::string &Name) {
  return Name == "sqrt" || Name == "fabs" || Name == "exp" ||
         Name == "log" || Name == "sin" || Name == "cos" ||
         Name == "pow" || Name == "floor";
}

inline constexpr const char *CheckOrigKey = "noelle.check.orig";
inline constexpr const char *CheckSpillKey = "noelle.check.spill";
inline constexpr const char *CheckQueueKey = "noelle.check.queue";
inline constexpr const char *CheckQueueOrigKey = "noelle.check.queue.orig";

} // namespace verify
} // namespace noelle

#endif // VERIFY_CHECKMETADATA_H
