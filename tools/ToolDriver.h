//===----------------------------------------------------------------------===//
///
/// \file
/// Shared command-line plumbing for the noelle-* tools: kernel listing
/// and option parsing, including the telemetry flags (--metrics=,
/// --trace=). Loading inputs and plans is tools::runPipeline's job
/// (src/tools/Pipeline.h). Header-only so each tool stays a single
/// translation unit.
///
//===----------------------------------------------------------------------===//

#ifndef TOOLS_TOOLDRIVER_H
#define TOOLS_TOOLDRIVER_H

#include "benchmarks/Suite.h"
#include "runtime/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <string>

namespace noelle {
namespace tooldriver {

/// Prints the benchmark-suite kernels (--list).
inline void listKernels() {
  for (const auto &B : bench::getBenchmarkSuite())
    std::printf("%-24s %s\n", B.Name.c_str(), B.Suite.c_str());
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

/// A flag without a value: \p Name sets \p *Field to \p Value.
struct Switch {
  const char *Name;
  bool *Field;
  bool Value;
};

/// Applies the switch \p Arg names; false when none does.
inline bool parseSwitch(const std::string &Arg,
                        std::initializer_list<Switch> Switches) {
  for (const Switch &S : Switches)
    if (Arg == S.Name) {
      *S.Field = S.Value;
      return true;
    }
  return false;
}

/// Matches "--cores=N". N is a worker count: digits only, from 1 to
/// ThreadPool::MaxWorkers. Any other value exits 2 with a diagnostic.
inline bool parseCoresOpt(const char *Tool, const std::string &Arg,
                          unsigned &Out) {
  std::string V;
  if (!parseStringOpt(Arg, "--cores=", V))
    return false;
  const bool Digits = !V.empty() && V.size() <= 9 &&
                      V.find_first_not_of("0123456789") == std::string::npos;
  const unsigned long N = Digits ? std::stoul(V) : 0;
  if (N < 1 || N > nir::ThreadPool::MaxWorkers) {
    std::fprintf(stderr,
                 "%s: --cores must be an integer from 1 to %u, got '%s'\n",
                 Tool, nir::ThreadPool::MaxWorkers, V.c_str());
    std::exit(2);
  }
  Out = static_cast<unsigned>(N);
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

/// Matches "--trace=<path>". On match, switches the telemetry layer to
/// trace mode before anything runs; exits 2 when telemetry is compiled
/// out, since there would be nothing to record.
inline bool parseTraceOpt(const char *Tool, const std::string &Arg,
                          std::string &Path) {
  if (!parseStringOpt(Arg, "--trace=", Path))
    return false;
  telemetry::setMode(telemetry::Mode::Trace);
  if (!telemetry::traceEnabled()) {
    std::fprintf(stderr,
                 "%s: telemetry is compiled out "
                 "(NOELLE_TELEMETRY_DISABLED); nothing to record\n",
                 Tool);
    std::exit(2);
  }
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

} // namespace tooldriver
} // namespace noelle

#endif // TOOLS_TOOLDRIVER_H
