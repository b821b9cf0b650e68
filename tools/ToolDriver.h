//===----------------------------------------------------------------------===//
///
/// \file
/// Shared command-line plumbing for the noelle-* tools: kernel listing,
/// input resolution (benchmark kernel by name, MiniC source file, or
/// parsed .nir text), option-parsing helpers, and plan lookup (an
/// explicit plan file, or the plan embedded in the module's metadata
/// next to the PDG cache). Header-only so each tool stays a single
/// translation unit.
///
//===----------------------------------------------------------------------===//

#ifndef TOOLS_TOOLDRIVER_H
#define TOOLS_TOOLDRIVER_H

#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "ir/Parser.h"
#include "planner/Plan.h"
#include "telemetry/Telemetry.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>

namespace noelle {
namespace tooldriver {

/// Prints the benchmark-suite kernels (--list).
inline void listKernels() {
  for (const auto &B : bench::getBenchmarkSuite())
    std::printf("%-24s %s\n", B.Name.c_str(), B.Suite.c_str());
}

/// Materializes \p Input as a module: a benchmark kernel or MiniC file
/// compiles; a file ending in .nir parses as IR text.
inline std::unique_ptr<nir::Module>
loadInputModule(const char *Tool, nir::Context &Ctx,
                const std::string &Input) {
  if (const bench::Benchmark *B = bench::findBenchmark(Input)) {
    std::string Error;
    auto M = minic::compileMiniC(Ctx, B->Source, Error);
    if (!M)
      std::fprintf(stderr, "%s: %s: %s\n", Tool, Input.c_str(),
                   Error.c_str());
    return M;
  }
  std::ifstream In(Input);
  if (!In) {
    std::fprintf(stderr, "%s: cannot open '%s'\n", Tool, Input.c_str());
    return nullptr;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  std::string Error;
  auto M = Input.size() > 4 && Input.rfind(".nir") == Input.size() - 4
               ? nir::parseModule(Ctx, SS.str(), Error)
               : minic::compileMiniC(Ctx, SS.str(), Error);
  if (!M)
    std::fprintf(stderr, "%s: %s: %s\n", Tool, Input.c_str(),
                 Error.c_str());
  return M;
}

/// Matches "--key=" options carrying an unsigned value; returns false
/// when \p Arg does not start with \p Prefix.
inline bool parseUnsignedOpt(const std::string &Arg, const char *Prefix,
                             unsigned &Out) {
  size_t L = std::strlen(Prefix);
  if (Arg.rfind(Prefix, 0) != 0)
    return false;
  Out = static_cast<unsigned>(std::atoi(Arg.c_str() + L));
  return true;
}

/// Matches "--key=" options carrying a string value.
inline bool parseStringOpt(const std::string &Arg, const char *Prefix,
                           std::string &Out) {
  size_t L = std::strlen(Prefix);
  if (Arg.rfind(Prefix, 0) != 0)
    return false;
  Out = Arg.substr(L);
  return true;
}

/// Matches the shared "--metrics=<path>" flag. On match, switches the
/// telemetry layer to (at least) metrics mode so the counters the run
/// touches are live; the snapshot is written by writeMetricsIfRequested
/// at tool exit.
inline bool parseMetricsOpt(const std::string &Arg, std::string &Path) {
  if (!parseStringOpt(Arg, "--metrics=", Path))
    return false;
  if (telemetry::mode() == telemetry::Mode::Off)
    telemetry::setMode(telemetry::Mode::Metrics);
  return true;
}

/// Writes the canonical metrics snapshot (telemetry::metricsJson) to
/// \p Path when nonempty. Returns false (after printing) on I/O errors.
inline bool writeMetricsIfRequested(const char *Tool,
                                    const std::string &Path) {
  if (Path.empty())
    return true;
  if (!telemetry::writeFile(Path, telemetry::metricsJson() + "\n")) {
    std::fprintf(stderr, "%s: cannot write metrics to '%s'\n", Tool,
                 Path.c_str());
    return false;
  }
  return true;
}

/// Loads the plan to operate on: an explicit plan file when given,
/// otherwise the plan embedded in \p M's metadata. Hash binding is not
/// checked here — that is checkPlan's first audit.
inline bool loadPlan(const std::string &PlanFile, const nir::Module &M,
                     planner::ProgramPlan &Out, std::string &Err) {
  if (!PlanFile.empty()) {
    std::ifstream In(PlanFile);
    if (!In) {
      Err = "cannot open '" + PlanFile + "'";
      return false;
    }
    std::stringstream SS;
    SS << In.rdbuf();
    return planner::ProgramPlan::deserialize(SS.str(), Out, Err);
  }
  return planner::ProgramPlan::fromModule(M, Out, Err);
}

} // namespace tooldriver
} // namespace noelle

#endif // TOOLS_TOOLDRIVER_H
