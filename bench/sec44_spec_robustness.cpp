//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates §4.4's SPEC observation: on the loop-carried-heavy
/// SPEC-like kernels, only NOELLE-based tools obtain (small, 1-5%)
/// speedups while gcc/icc get none — and nothing breaks, demonstrating
/// the abstractions' robustness. Speculation (outside NOELLE) would be
/// needed for more.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "baselines/ConservativeParallelizer.h"
#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "runtime/ParallelRuntime.h"
#include "xforms/ParallelizationTechnique.h"

#include <cstdio>

using namespace noelle;

int main() {
  constexpr unsigned Cores = 4;
  std::printf("Section 4.4: SPEC-like robustness (expect small NOELLE "
              "gains, none for gcc/icc, no breakage)\n\n");
  std::vector<int> W = {12, 10, 10, 10, 12};
  benchutil::printRow({"benchmark", "gcc", "DOALL", "HELIX", "correct?"}, W);
  benchutil::printSeparator(W);

  bool AnyWrong = false;
  for (const auto *B : bench::getSuite("SPEC")) {
    int64_t Expected;
    uint64_t BaselineInstrs;
    {
      nir::Context Ctx;
      auto M = minic::compileMiniCOrDie(Ctx, B->Source);
      nir::ExecutionEngine E(*M);
      Expected = E.runMain();
      BaselineInstrs = E.getInstructionsExecuted();
    }

    auto Measure = [&](auto Transform) {
      nir::Context Ctx;
      auto M = minic::compileMiniCOrDie(Ctx, B->Source);
      Transform(*M);
      nir::ExecutionEngine E(*M);
      registerParallelRuntime(E);
      int64_t R = E.runMain();
      double S = static_cast<double>(BaselineInstrs) /
                 static_cast<double>(benchutil::simulatedTime(E));
      return std::make_pair(S, R == Expected);
    };

    auto [GccS, GccOK] = Measure([&](nir::Module &M) {
      baselines::ConservativeOptions O;
      O.NumCores = Cores;
      baselines::ConservativeParallelizer T(M, O);
      T.run();
    });
    auto Sweep = [&](TechniqueKind K) {
      return Measure([&](nir::Module &M) {
        Noelle N(M);
        createTechnique(K, N, Cores)->run();
      });
    };
    auto [DoallS, DoallOK] = Sweep(TechniqueKind::DOALL);
    auto [HelixS, HelixOK] = Sweep(TechniqueKind::HELIX);

    bool OK = GccOK && DoallOK && HelixOK;
    AnyWrong |= !OK;
    char B1[16], B2[16], B3[16];
    std::snprintf(B1, sizeof(B1), "%.3fx", GccS);
    std::snprintf(B2, sizeof(B2), "%.3fx", DoallS);
    std::snprintf(B3, sizeof(B3), "%.3fx", HelixS);
    benchutil::printRow({B->Name, B1, B2, B3, OK ? "yes" : "NO"}, W);
  }
  benchutil::printSeparator(W);
  std::printf("\nshape check: every SPEC-like kernel still computes the "
              "right result: %s\n",
              AnyWrong ? "NO" : "yes");
  return AnyWrong ? 1 : 0;
}
