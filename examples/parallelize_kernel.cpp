//===----------------------------------------------------------------------===//
///
/// \file
/// Parallelization walkthrough: take a numeric kernel, let the three
/// NOELLE-based parallelizers (DOALL, HELIX, DSWP) decide what they can
/// do with each loop, execute the transformed program on the parallel
/// runtime, and report modeled speedups — the Figure-5 flow on one
/// program.
///
/// Build & run:  ./build/examples/example_parallelize_kernel
///
//===----------------------------------------------------------------------===//

#include "frontend/MiniC.h"
#include "runtime/ParallelRuntime.h"
#include "xforms/ParallelizationTechnique.h"

#include <cstdio>

using namespace noelle;

namespace {

const char *Kernel = R"(
  double in[1024];
  double out[1024];
  int main() {
    for (int i = 0; i < 1024; i = i + 1)
      in[i] = (double)((i * 13) % 97) * 0.125;
    // The hot loop: independent per-element work plus a sum reduction.
    double checksum = 0.0;
    for (int i = 0; i < 1024; i = i + 1) {
      double x = in[i];
      double y = x * x - 2.0 * x + sqrt(x + 1.0);
      out[i] = y;
      checksum = checksum + y;
    }
    return (int)checksum;
  }
)";

} // namespace

int main() {
  // Sequential reference.
  int64_t Expected;
  uint64_t BaselineInstrs;
  {
    nir::Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, Kernel);
    nir::ExecutionEngine E(*M);
    Expected = E.runMain();
    BaselineInstrs = E.getInstructionsExecuted();
  }
  std::printf("sequential: result=%lld, %llu instructions\n",
              static_cast<long long>(Expected),
              static_cast<unsigned long long>(BaselineInstrs));

  auto Report = [&](const char *Name, nir::Module &M,
                    unsigned Parallelized) {
    nir::ExecutionEngine E(M);
    registerParallelRuntime(E);
    int64_t R = E.runMain();
    uint64_t Sim =
        perfmodel::runTime(E.getInstructionsExecuted(), E.getDispatchRecords());
    std::printf("%-6s: %u loop(s) parallelized, result=%lld (%s), modeled "
                "speedup %.2fx\n",
                Name, Parallelized, static_cast<long long>(R),
                R == Expected ? "correct" : "WRONG",
                static_cast<double>(BaselineInstrs) /
                    static_cast<double>(Sim));
  };

  {
    nir::Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, Kernel);
    Noelle N(*M);
    unsigned K = 0;
    for (const auto &D : createTechnique(TechniqueKind::DOALL, N, 4)->run()) {
      if (D.Parallelized)
        ++K;
      else
        std::printf("DOALL skipped %s loop %u: %s\n",
                    D.FunctionName.c_str(), D.LoopID, D.Reason.c_str());
    }
    Report("DOALL", *M, K);
  }
  {
    nir::Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, Kernel);
    Noelle N(*M);
    unsigned K = 0;
    for (const auto &D : createTechnique(TechniqueKind::HELIX, N, 4)->run())
      K += D.Parallelized;
    Report("HELIX", *M, K);
  }
  {
    nir::Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, Kernel);
    Noelle N(*M);
    unsigned K = 0;
    for (const auto &D : createTechnique(TechniqueKind::DSWP, N, 2)->run())
      K += D.Parallelized;
    Report("DSWP", *M, K);
  }
  return 0;
}
