//===----------------------------------------------------------------------===//
///
/// \file
/// Optimizer-pipeline ablation over the benchmark suite: each kernel is
/// compiled and executed under the full pipeline, under the pipeline
/// with one pass knocked out (no-inline, no-gvn, no-licm, no-unroll,
/// no-slp), and with the pipeline off entirely. Retired-instruction
/// counts are the metric — deterministic, so a pass's contribution is
/// exactly the retired-count delta its removal causes. Every
/// configuration must produce the same return value and byte-identical
/// output as the unoptimized run.
///
/// The unoptimized and fully optimized modules also run under every
/// execution-engine configuration — {threaded, switch} dispatch ×
/// decode-time optimization on/off, plus the observed tier — which must
/// agree on result, output and retired count: dispatch tier and decode
/// are observationally invisible, the invariance that pins Figure-5
/// DispatchRecords.
///
/// The output is deterministic (tests/golden/bench_opt.txt). Exits 1 if
/// any configuration diverges or the full pipeline does not reduce the
/// retired-count geomean.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "interp/Interpreter.h"
#include "opt/Passes.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

using namespace noelle;
using nir::ExecutionEngine;

namespace {

struct AblationConfig {
  const char *Name;
  bool Pipeline; ///< run the pipeline at all
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

struct EngineConfig {
  const char *Name;
  ExecutionEngine::DispatchMode Dispatch;
  bool DecodeOpt;
  bool Observed; ///< install an observer, forcing the observed tier
};

constexpr EngineConfig Engines[] = {
    {"threaded", ExecutionEngine::DispatchMode::Threaded, true, false},
    {"threaded+noopt", ExecutionEngine::DispatchMode::Threaded, false, false},
    {"switch", ExecutionEngine::DispatchMode::Switch, true, false},
    {"switch+noopt", ExecutionEngine::DispatchMode::Switch, false, false},
    {"observed", ExecutionEngine::DispatchMode::Auto, true, true},
};

struct BlockCounter : nir::ExecutionObserver {
  uint64_t Blocks = 0;
  void onBlockExecuted(const nir::BasicBlock *) override { ++Blocks; }
};

struct Outcome {
  int64_t Ret = 0;
  std::string Output;
  uint64_t Retired = 0;
  bool operator==(const Outcome &) const = default;
};

Outcome run(nir::Module &M, const ExecutionEngine::Options &O = {},
            nir::ExecutionObserver *Obs = nullptr) {
  ExecutionEngine E(M, O);
  if (Obs)
    E.setObserver(Obs);
  Outcome R;
  R.Ret = E.runMain();
  R.Output = E.getOutput();
  R.Retired = E.getInstructionsExecuted();
  return R;
}

/// Runs \p M under every engine configuration; false (with a message on
/// stderr) if any disagrees with \p Want.
bool enginesAgree(nir::Module &M, const Outcome &Want, const char *Kernel,
                  const char *Pipeline) {
  bool Ok = true;
  for (const EngineConfig &C : Engines) {
    ExecutionEngine::Options O;
    O.Dispatch = C.Dispatch;
    O.DecodeOpt = C.DecodeOpt;
    BlockCounter Obs;
    Outcome Got = run(M, O, C.Observed ? &Obs : nullptr);
    if (Got == Want && (!C.Observed || Obs.Blocks > 0))
      continue;
    std::fprintf(stderr,
                 "%s [%s]: engine '%s' diverged (ret %lld vs %lld, retired "
                 "%llu vs %llu, observed blocks %llu)\n",
                 Kernel, Pipeline, C.Name, static_cast<long long>(Got.Ret),
                 static_cast<long long>(Want.Ret),
                 static_cast<unsigned long long>(Got.Retired),
                 static_cast<unsigned long long>(Want.Retired),
                 static_cast<unsigned long long>(Obs.Blocks));
    Ok = false;
  }
  return Ok;
}

} // namespace

int main() {
  std::printf("Optimizer ablation: retired instructions per configuration "
              "(ratio = unoptimized / config, higher is better)\n\n");
  std::printf("%-14s", "kernel");
  for (const auto &C : Configs)
    std::printf(" %10s", C.Name);
  std::printf("\n");

  bool Pass = true;
  std::vector<std::array<uint64_t, NumConfigs>> Retired;
  for (const auto &B : bench::getBenchmarkSuite()) {
    std::array<uint64_t, NumConfigs> Row;
    Outcome Base;
    for (int C = 0; C < NumConfigs; ++C) {
      nir::Context Ctx;
      auto M = minic::compileMiniCOrDie(Ctx, B.Source);
      if (Configs[C].Pipeline) {
        opt::PipelineOptions O;
        O.EnableInline = Configs[C].Inline;
        O.EnableGVN = Configs[C].GVN;
        O.EnableLICM = Configs[C].LICM;
        O.EnableUnroll = Configs[C].Unroll;
        O.EnableSLP = Configs[C].SLP;
        opt::runPipeline(*M, O);
      }
      Outcome Got = run(*M);
      Row[C] = Got.Retired;
      if (C == 0)
        Base = Got;
      if (Got.Ret != Base.Ret || Got.Output != Base.Output) {
        std::fprintf(stderr, "%s: config '%s' changed program behavior\n",
                     B.Name.c_str(), Configs[C].Name);
        Pass = false;
      }
      if (C < 2)
        Pass &= enginesAgree(*M, Got, B.Name.c_str(), Configs[C].Name);
    }

    std::printf("%-14s", B.Name.c_str());
    for (uint64_t N : Row)
      std::printf(" %10llu", static_cast<unsigned long long>(N));
    std::printf("\n");
    Retired.push_back(Row);
  }

  // Geomean retired-count ratio (baseline / config) per configuration.
  double Geo[NumConfigs] = {};
  for (int C = 0; C < NumConfigs; ++C) {
    double LogSum = 0;
    for (const auto &Row : Retired)
      LogSum +=
          std::log(static_cast<double>(Row[0]) / static_cast<double>(Row[C]));
    Geo[C] = std::exp(LogSum / Retired.size());
  }

  std::printf("\n%-14s", "geomean ratio");
  for (int C = 0; C < NumConfigs; ++C)
    std::printf(" %9.3fx", Geo[C]);
  std::printf("\n");
  for (int C = 2; C < NumConfigs; ++C)
    std::printf("%s costs %.1f%% retired-count reduction\n", Configs[C].Name,
                (Geo[1] / Geo[C] - 1.0) * 100.0);
  std::printf("\nengine configurations checked on the none and full "
              "modules:");
  for (const EngineConfig &C : Engines)
    std::printf(" %s", C.Name);
  std::printf("\n");

  return Pass && Geo[1] > 1.0 ? 0 : 1;
}
