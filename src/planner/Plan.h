//===----------------------------------------------------------------------===//
///
/// \file
/// Serializable whole-program parallelization plans. A ProgramPlan names,
/// per hot loop, the technique the planner picked, its worker count and
/// chunk grain, and the modeled speedup that justified the choice. Plans
/// are keyed by the module's structural content hash and identified per
/// loop by the deterministic instruction ID of the loop header's first
/// instruction (ir/IDs.h) — both survive printing, parsing, and
/// annotation, so a plan can be embedded as the module's plan artifact
/// (ir/Artifact.h) next to the PDG, audited by `noelle-check --plan`,
/// and applied one-shot by `noelle-parallelize`.
///
/// Wire format (the artifact record, one entry per line, deterministic,
/// so a serialize→deserialize→serialize round trip is byte-identical):
///
///   plan v1
///   hash <16 hex digits>
///   loop fn=<name> header=<id> loop=<id>
///        kind=<doall|helix|dswp|spec-doall>
///        workers=<n> chunk=<n> parent=<entry index|-1> speedup=<milli>
///        [misspec=<milli>] [premises=<src>:<dst>,...]
///
/// `parent` links a nested entry (DOALL inside a DSWP stage) to the
/// index of its enclosing DSWP entry; top-level entries carry -1.
/// `misspec` and `premises` appear only on speculative entries (and
/// only when nonzero/nonempty), so plans written before speculation
/// existed round-trip byte-identically.
///
//===----------------------------------------------------------------------===//

#ifndef PLANNER_PLAN_H
#define PLANNER_PLAN_H

#include "ir/Artifact.h"
#include "xforms/ParallelizationTechnique.h"

#include <string>
#include <vector>

namespace noelle {
namespace planner {

/// One loop's slice of the program plan.
struct PlanEntry {
  std::string FunctionName;  ///< pre-transform host function
  uint64_t HeaderInstID = 0; ///< deterministic ID of the header's first
                             ///< instruction (stable loop identity)
  unsigned LoopID = 0;       ///< preorder loop ID (diagnostic only)
  TechniqueKind Kind = TechniqueKind::DOALL;
  unsigned Workers = 1;
  unsigned ChunkGrain = 1;
  /// Index of the enclosing DSWP entry for a nested DOALL, else -1.
  int Parent = -1;
  /// Modeled speedup in milli-units (2310 = 2.31x) — integral so the
  /// wire format round-trips byte-identically.
  int64_t SpeedupMilli = 0;
  /// Measured speedup in milli-units, written back by the planner
  /// feedback pass (planner/Feedback.h) from DispatchRecords of an
  /// actual run. 0 = never measured; the wire format omits the field
  /// then, so unmeasured plans round-trip byte-identically with plans
  /// written before this field existed.
  int64_t MeasuredMilli = 0;
  /// Speculative DOALL: modeled misspeculation probability in
  /// milli-units (rule of succession over the memory-dependence
  /// profile's observed invocations). 0 on static entries; the wire
  /// format omits the field then.
  int64_t MisspecMilli = 0;
  /// Speculative DOALL: the loop-carried memory dependences the plan
  /// admits on never-manifested profile evidence, as (srcID, dstID)
  /// deterministic-instruction-ID pairs in sorted order. noelle-check
  /// --speculative re-derives these from the module and its embedded
  /// profile and rejects any drift. Empty on static entries.
  std::vector<std::pair<uint64_t, uint64_t>> Premises;

  bool operator==(const PlanEntry &O) const {
    return FunctionName == O.FunctionName &&
           HeaderInstID == O.HeaderInstID && LoopID == O.LoopID &&
           Kind == O.Kind && Workers == O.Workers &&
           ChunkGrain == O.ChunkGrain && Parent == O.Parent &&
           SpeedupMilli == O.SpeedupMilli &&
           MeasuredMilli == O.MeasuredMilli &&
           MisspecMilli == O.MisspecMilli && Premises == O.Premises;
  }
};

/// A whole-program parallelization plan.
struct ProgramPlan {
  /// Content hash of the module the plan was computed for (0 = unbound).
  uint64_t ModuleHash = 0;
  std::vector<PlanEntry> Entries;

  bool operator==(const ProgramPlan &O) const {
    return ModuleHash == O.ModuleHash && Entries == O.Entries;
  }

  /// The artifact record text, bound to ModuleHash.
  std::string serialize() const;
  static bool deserialize(const std::string &Text, ProgramPlan &Out,
                          std::string &Err);

  /// Stores the plan as \p M's plan artifact, bound to ModuleHash (the
  /// module it was computed for), not to \p M's current hash.
  void embed(nir::Module &M) const;

  /// Loads \p M's plan artifact whatever hash it carries: checkPlan and
  /// Planner::apply reject a plan computed for other code. Returns false
  /// when absent or unreadable.
  static bool fromModule(const nir::Module &M, ProgramPlan &Out,
                         std::string &Err);

private:
  std::string payload() const;
  static bool decode(const nir::Artifact &A, ProgramPlan &Out,
                     std::string &Err);
};

} // namespace planner
} // namespace noelle

#endif // PLANNER_PLAN_H
