//===----------------------------------------------------------------------===//
///
/// \file
/// noelle-check: the PDG-grounded parallelization-legality verifier.
///
/// Usage pattern (also what the noelle-check CLI and the check-suite
/// tests drive):
///
///   PreTransformSnapshot Snap = captureForCheck(M);  // before transforms
///   createTechnique(K, N)->run();                    // any transforms
///   CheckReport Rep = checkModule(M, Snap);          // audit the result
///
/// captureForCheck assigns deterministic instruction IDs, embeds the
/// PDG into the module (noelle-meta-pdg-embed), and snapshots the IR text.
/// The transforms propagate the IDs into their task functions as
/// provenance metadata (CheckMetadata.h); checkModule re-parses the
/// snapshot in a fresh context, rebuilds the Noelle abstractions over it
/// (loading the embedded PDG via its content hash), recovers the
/// parallel regions of the transformed module, and audits every
/// pre-transform loop-carried dependence against the generated code.
///
//===----------------------------------------------------------------------===//

#ifndef VERIFY_NOELLECHECK_H
#define VERIFY_NOELLECHECK_H

#include "ir/Module.h"
#include "verify/DataFlowLint.h"
#include "verify/Diagnostic.h"
#include "verify/RaceDetector.h"

namespace noelle {
namespace verify {

/// The pre-transform state checkModule audits against.
struct PreTransformSnapshot {
  std::string IRText;    ///< printed module, IDs assigned, PDG embedded
  uint64_t PDGEdges = 0; ///< edges embedded by noelle-meta-pdg-embed
};

/// Prepares \p M for later checking: assigns deterministic IDs, embeds
/// the PDG (noelle-meta-pdg-embed), and captures the IR text. Must run before
/// the parallelizing transforms.
PreTransformSnapshot captureForCheck(nir::Module &M);

struct CheckOptions {
  bool RunVerifier = true; ///< nir::verifyModule incl. SSA dominance
  bool RunLegality = true; ///< dependence-discharge audit
  bool RunRaces = true;    ///< static race detection
  /// Audit the speculation machinery of "doall-spec" regions (journal
  /// coverage, recovery path, premise evidence — verify/SpecCheck.h).
  /// Off by default: modules without speculative tasks have nothing to
  /// audit, and the pass needs the embedded memory-dependence profile.
  bool Speculative = false;
  RaceDetectorOptions Races; ///< rule toggles for the race detector
};

/// Audits the transformed module \p M against \p Snap. Returns every
/// violation found; a clean report means every pre-transform loop-carried
/// dependence is provably discharged and no racing access pair was found.
CheckReport checkModule(nir::Module &M, const PreTransformSnapshot &Snap,
                        const CheckOptions &Opts = {});

} // namespace verify
} // namespace noelle

#endif // VERIFY_NOELLECHECK_H
