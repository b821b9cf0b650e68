//===----------------------------------------------------------------------===//
///
/// \file
/// ThreadSanitizer cross-validation of the static race detector: for a
/// subset of suite kernels under each parallelizing transform, first
/// require the happens-before detector to certify the module race-clean,
/// then actually execute the parallel tasks on worker threads under
/// -fsanitize=thread and compare against the sequential result. A TSan
/// report (or a wrong result) on a statically-clean module would mean
/// the detector discharged a pair it should not have.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "interp/Interpreter.h"
#include "runtime/ParallelRuntime.h"
#include "verify/NoelleCheck.h"
#include "xforms/DOALL.h"
#include "xforms/DSWP.h"
#include "xforms/HELIX.h"

#include <cstdio>
#include <cstring>
#include <string>

using namespace noelle;
using nir::Context;
using nir::ExecutionEngine;

namespace {

/// Small, structurally diverse kernels: an array map (DOALL shape), a
/// recurrence (HELIX segments), and a pipeline (DSWP queues). Kept
/// small so three transforms x N kernels stay fast under TSan.
const char *Kernels[] = {"crc", "sha", "adpcm", "fft"};

int runOne(const bench::Benchmark &B, const std::string &Which) {
  int64_t Expected;
  {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, B.Source);
    ExecutionEngine E(*M);
    Expected = E.runMain();
  }

  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B.Source);
  verify::PreTransformSnapshot Snap = verify::captureForCheck(*M);
  Noelle N(*M);
  unsigned Parallelized = 0;
  if (Which == "doall") {
    DOALL Tool(N);
    for (const auto &D : Tool.run())
      Parallelized += D.Parallelized;
  } else if (Which == "helix") {
    HELIXOptions O;
    O.MinimumEstimatedSpeedup = 0;
    HELIX Tool(N, O);
    for (const auto &D : Tool.run())
      Parallelized += D.Parallelized;
  } else {
    DSWPOptions O;
    O.MinimumStageWeight = 0;
    DSWP Tool(N, O);
    for (const auto &D : Tool.run())
      Parallelized += D.Parallelized;
  }
  if (Parallelized == 0) {
    std::printf("race-tsan: %s/%s: nothing parallelized, skipping\n",
                B.Name.c_str(), Which.c_str());
    return 0;
  }

  // Static certificate first: only execute modules the detector calls
  // race-free, so any TSan report indicts the detector.
  verify::CheckOptions CO;
  CO.RunVerifier = false;
  CO.RunLegality = false;
  verify::CheckReport Rep = verify::checkModule(*M, Snap, CO);
  if (Rep.count(verify::DiagKind::DataRace) != 0) {
    std::fprintf(stderr, "race-tsan: %s/%s: statically racy:\n%s",
                 B.Name.c_str(), Which.c_str(), Rep.str().c_str());
    return 1;
  }

  ExecutionEngine E(*M);
  registerParallelRuntime(E);
  int64_t Got = E.runMain();
  if (Got != Expected) {
    std::fprintf(stderr,
                 "race-tsan: %s/%s: parallel result %lld != sequential "
                 "%lld\n",
                 B.Name.c_str(), Which.c_str(), (long long)Got,
                 (long long)Expected);
    return 1;
  }
  std::printf("race-tsan: %s/%s: ok (%u loops)\n", B.Name.c_str(),
              Which.c_str(), Parallelized);
  return 0;
}

} // namespace

int main() {
  int Failures = 0;
  for (const char *Name : Kernels) {
    const bench::Benchmark *B = bench::findBenchmark(Name);
    if (!B) {
      std::fprintf(stderr, "race-tsan: unknown kernel %s\n", Name);
      return 1;
    }
    for (const char *Which : {"doall", "helix", "dswp"})
      Failures += runOne(*B, Which);
  }
  if (Failures) {
    std::fprintf(stderr, "race-tsan: %d configuration(s) failed\n",
                 Failures);
    return 1;
  }
  std::printf("race-tsan: all configurations clean\n");
  return 0;
}
