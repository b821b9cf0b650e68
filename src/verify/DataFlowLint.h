//===----------------------------------------------------------------------===//
///
/// \file
/// Data-flow lint pack built on noelle::DataFlowEngine: three whole-
/// function checks phrased as bitvector problems.
///
///  - uninitialized-read: a load from a stack slot that is not
///    definitely-stored on every path from entry (forward, meet =
///    intersection).
///  - dead-store: a store to a non-escaping stack slot with no
///    subsequent read on any path (backward, meet = union — slot
///    liveness).
///  - null-deref: a dereference of an allocator-returned handle on a
///    path where it was never compared against null (forward, meet =
///    intersection).
///
/// These are lints, not proofs: the analyses are path-insensitive at
/// branch granularity, so correlated conditions can produce warnings on
/// code that never misbehaves. They are therefore reported separately
/// from the legality/race verdicts (opt-in via noelle-check --lint).
///
//===----------------------------------------------------------------------===//

#ifndef VERIFY_DATAFLOWLINT_H
#define VERIFY_DATAFLOWLINT_H

#include "ir/Module.h"
#include "verify/Diagnostic.h"

namespace noelle {
namespace verify {

/// Runs the three lints over every defined function of \p M.
void lintModule(nir::Module &M, CheckReport &Rep);

} // namespace verify
} // namespace noelle

#endif // VERIFY_DATAFLOWLINT_H
