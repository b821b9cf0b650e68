//===----------------------------------------------------------------------===//
///
/// \file
/// Optimizer-pipeline ablation over the 20-kernel suite: each kernel is
/// compiled and executed under the full pipeline, under the pipeline
/// with one pass knocked out (no-inline, no-gvn, no-licm, no-unroll,
/// no-slp), and with the pipeline off entirely. Retired-instruction
/// counts are the primary metric — deterministic, so a pass's
/// contribution is exactly the retired-count delta its removal causes —
/// with warm wall-clock recorded alongside. Every configuration must
/// produce the same return value and byte-identical output as the
/// unoptimized run; any divergence is a hard failure.
///
/// Emits BENCH_opt.json (benchutil::outputPath) with per-kernel per-config
/// retired counts and the geomean retired-count reduction of the full
/// pipeline (plus each ablation) over the unoptimized baseline.
///
/// `--smoke` runs the same sweep with no warm repeats, for the
/// bench-smoke ctest label; it still writes BENCH_opt.json.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "interp/Interpreter.h"
#include "opt/Passes.h"

#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace noelle;
using nir::Context;
using nir::ExecutionEngine;

namespace {

double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct AblationConfig {
  const char *Name; ///< JSON key
  bool Pipeline;    ///< run the pipeline at all
  bool Inline = true, GVN = true, LICM = true, Unroll = true, SLP = true;
};

constexpr AblationConfig Configs[] = {
    {"none", false},
    {"full", true},
    {"no_inline", true, false, true, true, true, true},
    {"no_gvn", true, true, false, true, true, true},
    {"no_licm", true, true, true, false, true, true},
    {"no_unroll", true, true, true, true, false, true},
    {"no_slp", true, true, true, true, true, false},
};
constexpr int NumConfigs = sizeof(Configs) / sizeof(Configs[0]);

struct ConfigResult {
  int64_t Ret = 0;
  std::string Output;
  uint64_t Instructions = 0;
  double WarmUs = 0;
  uint64_t VectorInsts = 0;
};

ConfigResult runConfig(const bench::Benchmark &B, const AblationConfig &C,
                       unsigned Repeats) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B.Source);
  ConfigResult R;
  if (C.Pipeline) {
    opt::PipelineOptions O;
    O.EnableInline = C.Inline;
    O.EnableGVN = C.GVN;
    O.EnableLICM = C.LICM;
    O.EnableUnroll = C.Unroll;
    O.EnableSLP = C.SLP;
    R.VectorInsts = opt::runPipeline(*M, O).VectorInstsEmitted;
  }
  for (unsigned I = 0; I <= Repeats; ++I) {
    ExecutionEngine E(*M);
    for (const auto &F : M->getFunctions())
      if (!F->isDeclaration())
        E.prepare(F.get());
    double T0 = nowUs();
    R.Ret = E.runMain();
    double Dt = nowUs() - T0;
    R.WarmUs = I == 0 ? Dt : std::min(R.WarmUs, Dt);
    R.Output = E.getOutput();
    R.Instructions = E.getInstructionsExecuted();
  }
  return R;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const unsigned Repeats = Smoke ? 0 : 2;

  std::printf("Optimizer ablation: retired instructions per configuration "
              "(ratio = unoptimized / config, higher is better)\n\n");
  std::printf("%-14s", "kernel");
  for (const auto &C : Configs)
    std::printf(" %10s", C.Name);
  std::printf("\n");

  const auto &Suite = bench::getBenchmarkSuite();
  std::vector<std::array<ConfigResult, NumConfigs>> Results;
  std::vector<std::string> Names;

  for (const auto &B : Suite) {
    std::array<ConfigResult, NumConfigs> KR;
    for (int C = 0; C < NumConfigs; ++C)
      KR[C] = runConfig(B, Configs[C], Repeats);

    // Behavior must be invariant across every configuration.
    for (int C = 1; C < NumConfigs; ++C)
      if (KR[C].Ret != KR[0].Ret || KR[C].Output != KR[0].Output) {
        std::fprintf(stderr, "%s: config '%s' changed program behavior\n",
                     B.Name.c_str(), Configs[C].Name);
        return 1;
      }

    std::printf("%-14s", B.Name.c_str());
    for (int C = 0; C < NumConfigs; ++C)
      std::printf(" %10llu",
                  static_cast<unsigned long long>(KR[C].Instructions));
    std::printf("\n");
    Results.push_back(std::move(KR));
    Names.push_back(B.Name);
  }

  // Geomean retired-count ratio (baseline / config) per configuration.
  double Geo[NumConfigs] = {};
  for (int C = 0; C < NumConfigs; ++C) {
    double LogSum = 0;
    for (const auto &KR : Results)
      LogSum += std::log(static_cast<double>(KR[0].Instructions) /
                         static_cast<double>(KR[C].Instructions));
    Geo[C] = std::exp(LogSum / Results.size());
  }

  std::printf("\n%-14s", "geomean ratio");
  for (int C = 0; C < NumConfigs; ++C)
    std::printf(" %9.3fx", Geo[C]);
  std::printf("\n");
  for (int C = 2; C < NumConfigs; ++C)
    std::printf("%s costs %.1f%% retired-count reduction\n", Configs[C].Name,
                (Geo[1] / Geo[C] - 1.0) * 100.0);

  const bool Pass = Geo[1] > 1.0; // the full pipeline must actually help
  const std::string JsonPath = benchutil::outputPath("BENCH_opt.json");
  if (FILE *F = std::fopen(JsonPath.c_str(), "w")) {
    std::fprintf(F, "{\n  \"smoke\": %s,\n  \"kernels\": [\n",
                 Smoke ? "true" : "false");
    for (size_t K = 0; K < Results.size(); ++K) {
      std::fprintf(F, "    {\"name\": \"%s\"", Names[K].c_str());
      for (int C = 0; C < NumConfigs; ++C)
        std::fprintf(
            F, ", \"%s\": {\"instructions\": %llu, \"warm_us\": %.1f}",
            Configs[C].Name,
            static_cast<unsigned long long>(Results[K][C].Instructions),
            Results[K][C].WarmUs);
      std::fprintf(F, ", \"vector_insts\": %llu}%s\n",
                   static_cast<unsigned long long>(Results[K][1].VectorInsts),
                   K + 1 == Results.size() ? "" : ",");
    }
    std::fprintf(F, "  ],\n  \"geomean_retired_ratio\": {");
    for (int C = 0; C < NumConfigs; ++C)
      std::fprintf(F, "%s\"%s\": %.3f", C ? ", " : "", Configs[C].Name,
                   Geo[C]);
    std::fprintf(F, "},\n  \"pass\": %s\n}\n", Pass ? "true" : "false");
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath.c_str());
  }
  return Pass ? 0 : 1;
}
