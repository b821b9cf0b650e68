//===----------------------------------------------------------------------===//
///
/// \file
/// The --speculative audit (noelle-check --speculative): verifies the
/// validation/recovery machinery of speculative DOALL regions, on top of
/// the ordinary legality audit. For every "doall-spec" task it checks
/// that
///   - every memory effect is journaled: no raw load/store survives in
///     the task body, and every call is a noelle_spec_* accessor or a
///     pure math external (anything else escapes the write log, so the
///     commit-time validation could neither see it nor roll it back);
///   - the recovery path exists: the noelle.task.spec.seq metadata names
///     a sequential fallback clone that is present, tagged
///     "doall-spec-seq", and itself uninstrumented;
///   - the recorded premises are supported by the evidence: the task
///     records at least one premise, the pre-transform snapshot carries
///     a current memory-dependence profile that observed the loop, no
///     premise pair ever manifested in that profile, and every premise
///     matches a loop-carried memory dependence of the pre-transform PDG.
///
//===----------------------------------------------------------------------===//

#ifndef VERIFY_SPECCHECK_H
#define VERIFY_SPECCHECK_H

#include "ir/Module.h"
#include "verify/Diagnostic.h"
#include "verify/TaskModel.h"

namespace noelle {

class Noelle;

namespace verify {

/// Audits the speculative regions of \p M (the transformed module)
/// against \p Snapshot (the Noelle abstractions over the pre-transform
/// snapshot, for the PDG and the memory-dependence profile). Regions of
/// other kinds are ignored.
void checkSpeculation(nir::Module &M, Noelle &Snapshot,
                      const std::vector<ParallelRegion> &Regions,
                      CheckReport &Rep);

} // namespace verify
} // namespace noelle

#endif // VERIFY_SPECCHECK_H
