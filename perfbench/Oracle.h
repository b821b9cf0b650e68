//===----------------------------------------------------------------------===//
///
/// \file
/// The correctness oracle: what a kernel's run must produce, recorded
/// once from the unoptimized sequential run of the untransformed module
/// (never from the pipeline under test) and committed as expected.txt.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include "Kernels.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nir {
class ExecutionEngine;
class Module;
} // namespace nir

namespace perfbench {

/// What one run of a kernel produced. The return value alone is a weak
/// check (stringsearch returns 0; basicmath returns a NaN cast to int),
/// so every global's final bytes are digested too.
struct Outcome {
  int64_t Main = 0;
  uint64_t GlobalsDigest = 0; ///< FNV-1a over (name, bytes) per global
  std::string Output;         ///< captured print_* output

  bool operator==(const Outcome &O) const = default;
};

using ExpectedResults = std::map<std::string, Outcome>;

/// The source-level globals of \p M, in declaration order: the set an
/// outcome digests, looked up by name in whatever module later runs.
std::vector<std::string> globalNames(const nir::Module &M);

/// Reads back the outcome of a finished run of \p E. A global missing
/// from the running module poisons the digest.
Outcome observe(const nir::ExecutionEngine &E, int64_t Main,
                const std::vector<std::string> &Globals);

/// Empty when equal, otherwise which part differs.
std::string describeMismatch(const Outcome &Want, const Outcome &Got);

/// Compiles \p K without the optimizer and runs it sequentially on a
/// fresh engine: the reference the expected results are recorded from.
bool referenceOutcome(const Kernel &K, Outcome &Out, std::string &Err);

bool loadExpected(const std::string &Path, ExpectedResults &Out,
                  std::string &Err);
bool saveExpected(const std::string &Path, const ExpectedResults &R);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
