//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's Figure 5: speedups of the NOELLE-based
/// parallelizers (DOALL, HELIX, DSWP) against the gcc/icc
/// auto-parallelization baselines on the PARSEC- and MiBench-like
/// benchmarks, relative to the sequential ("clang -O3") build.
///
/// Speedups use the instruction-level performance model (perfmodel,
/// DESIGN.md §6b): "time" is serial retired instructions plus each
/// parallel region's critical path (max per-task work, bounded below by
/// serialized segment work, plus spawn and sync costs). Every
/// transformed binary is also checked for result equivalence against
/// the sequential run.
///
/// Shape to reproduce: gcc/icc flat at ~1.0x, NOELLE tools above 1x on
/// the parallel-friendly kernels, and nobody wins on crc.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "baselines/ConservativeParallelizer.h"
#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "planner/Planner.h"
#include "runtime/ParallelRuntime.h"

#include <cstdio>
#include <functional>

using namespace noelle;

namespace {

constexpr unsigned Cores = 4;

struct Measurement {
  double Speedup = 1.0;
  bool ResultMatches = true;
  unsigned LoopsTransformed = 0;
};

/// Sequential reference: result + instruction count.
std::pair<int64_t, uint64_t> runBaseline(const bench::Benchmark &B) {
  nir::Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B.Source);
  nir::ExecutionEngine E(*M);
  int64_t R = E.runMain();
  return {R, E.getInstructionsExecuted()};
}

Measurement
measure(const bench::Benchmark &B, int64_t ExpectedResult,
        uint64_t BaselineInstrs,
        const std::function<unsigned(nir::Module &)> &Transform) {
  nir::Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B.Source);
  Measurement Out;
  Out.LoopsTransformed = Transform(*M);
  nir::ExecutionEngine E(*M);
  registerParallelRuntime(E);
  int64_t R = E.runMain();
  Out.ResultMatches = R == ExpectedResult;
  uint64_t Sim = benchutil::simulatedTime(E);
  Out.Speedup =
      static_cast<double>(BaselineInstrs) / static_cast<double>(Sim);
  return Out;
}

/// The technique-forced sweep of \p K under the paper's per-tool gates.
std::function<unsigned(nir::Module &)> sweep(TechniqueKind K) {
  return [K](nir::Module &M) {
    Noelle N(M);
    unsigned Count = 0;
    for (const auto &D : createTechnique(K, N, Cores)->run())
      Count += D.Parallelized;
    return Count;
  };
}

std::string fmt(const Measurement &M) {
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.2fx%s", M.Speedup,
                M.ResultMatches ? "" : " WRONG");
  return Buf;
}

} // namespace

int main() {
  std::printf("Figure 5: program speedups vs sequential baseline "
              "(%u cores, instruction-level model)\n\n",
              Cores);
  std::vector<int> W = {16, 8, 8, 8, 8, 8, 8, 9};
  benchutil::printRow({"benchmark", "suite", "gcc", "icc", "DOALL", "HELIX",
                       "DSWP", "Planner"},
                      W);
  benchutil::printSeparator(W);

  bool AnyWrong = false;
  double BestNoelle = 0, BestBaselineMax = 0;
  for (const auto &B : bench::getBenchmarkSuite()) {
    if (B.Suite == "SPEC")
      continue; // Figure 5 covers PARSEC + MiBench; §4.4 covers SPEC.
    auto [Expected, BaselineInstrs] = runBaseline(B);

    Measurement Gcc = measure(B, Expected, BaselineInstrs, [](nir::Module &M) {
      baselines::ConservativeOptions O;
      O.NumCores = Cores;
      O.Name = "gcc";
      baselines::ConservativeParallelizer T(M, O);
      unsigned N = 0;
      for (const auto &D : T.run())
        N += D.Parallelized;
      return N;
    });
    Measurement Icc = measure(B, Expected, BaselineInstrs, [](nir::Module &M) {
      baselines::ConservativeOptions O;
      O.NumCores = Cores;
      O.AllowReductions = true;
      O.Name = "icc";
      baselines::ConservativeParallelizer T(M, O);
      unsigned N = 0;
      for (const auto &D : T.run())
        N += D.Parallelized;
      return N;
    });
    Measurement Doall =
        measure(B, Expected, BaselineInstrs, sweep(TechniqueKind::DOALL));
    Measurement Helix =
        measure(B, Expected, BaselineInstrs, sweep(TechniqueKind::HELIX));
    Measurement Dswp =
        measure(B, Expected, BaselineInstrs, sweep(TechniqueKind::DSWP));

    // The free planner: picks technique + worker count per loop from
    // the same cost model the figure's columns are measured by.
    Measurement Plan =
        measure(B, Expected, BaselineInstrs, [](nir::Module &M) {
          Noelle N(M);
          planner::PlannerOptions PO;
          PO.MaxWorkers = Cores;
          planner::Planner P(N, PO);
          unsigned K = 0;
          for (const auto &D : P.planAndApply())
            K += D.Parallelized;
          return K;
        });

    benchutil::printRow({B.Name, B.Suite, fmt(Gcc), fmt(Icc), fmt(Doall),
                         fmt(Helix), fmt(Dswp), fmt(Plan)},
                        W);
    AnyWrong |= !Gcc.ResultMatches || !Icc.ResultMatches ||
                !Doall.ResultMatches || !Helix.ResultMatches ||
                !Dswp.ResultMatches || !Plan.ResultMatches;
    BestNoelle = std::max(
        {BestNoelle, Doall.Speedup, Helix.Speedup, Dswp.Speedup});
    BestBaselineMax = std::max({BestBaselineMax, Gcc.Speedup, Icc.Speedup});
  }

  benchutil::printSeparator(W);
  std::printf("\nshape checks:\n");
  std::printf("  all transformed binaries compute the sequential result: "
              "%s\n",
              AnyWrong ? "NO" : "yes");
  std::printf("  best NOELLE-based speedup: %.2fx (paper: >1x on most "
              "PARSEC/MiBench)\n",
              BestNoelle);
  std::printf("  best gcc/icc-model speedup: %.2fx (paper: ~1.0x "
              "everywhere)\n",
              BestBaselineMax);
  return AnyWrong ? 1 : 0;
}
