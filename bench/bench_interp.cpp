//===----------------------------------------------------------------------===//
///
/// \file
/// Interpreter throughput benchmark over the 20-kernel suite: retired
/// instructions per second for each execution-engine configuration —
/// threaded dispatch + decode-time optimization (the shipping default),
/// the portable switch loop with the same decode, the unoptimized
/// one-opcode-per-instruction decode (the pre-overhaul reference shape),
/// the observed tier with a profiling observer installed, and the
/// NIR optimizer pipeline (inline/GVN/DCE/LICM/unroll/SLP) feeding both
/// dispatch tiers. Emits BENCH_interp.json (benchutil::outputPath) with
/// per-kernel cold and warm numbers plus two geomeans: the dispatch
/// improvement of the default configuration over the reference, and the
/// end-to-end improvement of pipeline+threaded over the reference.
///
/// Every kernel run doubles as a correctness check: @main's return
/// value and the captured print output must be identical across all
/// configurations, and the retired-instruction count must be identical
/// across dispatch tiers executing the same module (decode-time
/// optimization and dispatch tier are required to be observationally
/// invisible — the same invariance that pins Figure-5 DispatchRecords).
/// The pipeline legitimately changes retired counts (that is the point),
/// so its two tiers are checked against each other, not the scalar runs.
///
/// `--smoke` runs every kernel with one warm repeat — fast enough for
/// the bench-smoke ctest label, and still writes BENCH_interp.json.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "interp/Interpreter.h"
#include "opt/Passes.h"
#include "telemetry/Telemetry.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using nir::Context;
using nir::ExecutionEngine;

namespace {

double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// A cheap profiling observer: forces the observed tier and touches its
/// data the way the real Profiler does (per-callback accumulation). The
/// block/decode totals the bench used to tally here now come from the
/// telemetry registry (interp.* counters), so the observer keeps only
/// the accumulation cost, not a duplicate set of counts.
struct CountingObserver : nir::ExecutionObserver {
  uint64_t Callbacks = 0;
  void onBlockExecuted(const nir::BasicBlock *) override { ++Callbacks; }
  void onBranchExecuted(const nir::BranchInst *, unsigned) override {
    ++Callbacks;
  }
};

struct RunResult {
  int64_t Ret = 0;
  std::string Output;
  uint64_t Instructions = 0;
  double ColdUs = 0; ///< first run on a fresh engine (includes decode)
  double WarmUs = 0; ///< best repeat after warm-up
  double warmMips() const {
    return WarmUs > 0 ? static_cast<double>(Instructions) / WarmUs : 0;
  }
};

struct Config {
  const char *Name;
  ExecutionEngine::Options Opts;
  bool WithObserver = false;
  bool Pipeline = false; ///< run the NIR optimizer pipeline first
};

/// Runs one kernel under one configuration: a cold run on a fresh
/// engine (timing includes decode), then \p Repeats warm runs, each on
/// a fresh engine with every function pre-decoded via prepare() so the
/// timed region measures pure execution. A fresh engine per repeat (not
/// re-running @main on one engine) keeps kernels that mutate globals
/// reproducible: each run starts from the module's initial memory image.
RunResult runConfig(const bench::Benchmark &B, const Config &C,
                    unsigned Repeats) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B.Source);
  if (C.Pipeline)
    noelle::opt::runPipeline(*M);

  RunResult R;
  {
    ExecutionEngine E(*M, C.Opts);
    CountingObserver Obs;
    if (C.WithObserver)
      E.setObserver(&Obs);
    double T0 = nowUs();
    R.Ret = E.runMain();
    R.ColdUs = nowUs() - T0;
    R.Output = E.getOutput();
    R.Instructions = E.getInstructionsExecuted();
  }

  R.WarmUs = R.ColdUs;
  for (unsigned I = 0; I < Repeats; ++I) {
    ExecutionEngine E(*M, C.Opts);
    CountingObserver Obs;
    if (C.WithObserver)
      E.setObserver(&Obs);
    for (const auto &F : M->getFunctions())
      if (!F->isDeclaration())
        E.prepare(F.get());
    double T0 = nowUs();
    int64_t Ret = E.runMain();
    double Dt = nowUs() - T0;
    R.WarmUs = std::min(R.WarmUs, Dt);
    if (Ret != R.Ret || E.getOutput() != R.Output ||
        E.getInstructionsExecuted() != R.Instructions) {
      std::fprintf(stderr, "%s [%s]: warm run diverged from cold run\n",
                   B.Name.c_str(), C.Name);
      std::exit(1);
    }
  }
  return R;
}

constexpr int NumConfigs = 6;

struct KernelResult {
  std::string Name;
  uint64_t Instructions = 0;
  RunResult Configs[NumConfigs];
  double speedup() const {
    // Default (threaded+opt) vs the pre-overhaul reference shape
    // (switch dispatch, one opcode per NIR instruction). Same module,
    // so the Mips ratio equals the wall-clock ratio.
    double Ref = Configs[2].warmMips();
    return Ref > 0 ? Configs[0].warmMips() / Ref : 0;
  }
  double pipelineSpeedup() const {
    // Pipeline+threaded vs the reference shape. The optimizer changes
    // the retired count, so this is a wall-clock ratio, not Mips.
    double Pipe = Configs[4].WarmUs;
    return Pipe > 0 ? Configs[2].WarmUs / Pipe : 0;
  }
};

} // namespace

int main(int argc, char **argv) {
  bool Smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const unsigned Repeats = Smoke ? 1 : 3;

  // Decode and dispatch-tier accounting is sourced from the telemetry
  // registry — the counters the interpreter maintains anyway — instead
  // of bench-local tallies that could drift from what the engine does.
  namespace telemetry = noelle::telemetry;
  telemetry::setMode(telemetry::Mode::Metrics);

  ExecutionEngine::Options Default; // threaded (when built) + decode opt
  ExecutionEngine::Options SwitchOpt;
  SwitchOpt.Dispatch = ExecutionEngine::DispatchMode::Switch;
  ExecutionEngine::Options Reference;
  Reference.Dispatch = ExecutionEngine::DispatchMode::Switch;
  Reference.DecodeOpt = false;

  const Config Configs[NumConfigs] = {
      {"threaded+opt", Default, false, false},
      {"switch+opt", SwitchOpt, false, false},
      {"switch+noopt", Reference, false, false},
      {"observed", Default, true, false},
      {"threaded+opt+pipe", Default, false, true},
      {"switch+opt+pipe", SwitchOpt, false, true},
  };

  std::printf("Interpreter throughput (warm Mips, best of %u; cold = first "
              "run incl. decode). Threaded dispatch compiled in: %s\n\n",
              Repeats, ExecutionEngine::hasThreadedDispatch() ? "yes" : "no");
  std::printf("%-14s %10s %10s %9s %9s %9s %8s %8s\n", "kernel", "insts",
              "insts-pipe", "thr+opt", "sw+noopt", "pipe(us)", "dispatch",
              "total");

  const auto &Suite = bench::getBenchmarkSuite();
  std::vector<KernelResult> Results;

  for (const auto &B : Suite) {
    KernelResult KR;
    KR.Name = B.Name;
    for (int C = 0; C < NumConfigs; ++C)
      KR.Configs[C] = runConfig(B, Configs[C], Repeats);
    KR.Instructions = KR.Configs[0].Instructions;

    // Invariance: every configuration must produce the same result and
    // output. Retired counts must match across dispatch tiers running
    // the same module — configs 0..3 execute the scalar module, 4..5 the
    // pipeline-optimized one.
    for (int C = 1; C < NumConfigs; ++C) {
      const auto &A = KR.Configs[0], &X = KR.Configs[C];
      const uint64_t WantInsts =
          C < 4 ? A.Instructions : KR.Configs[4].Instructions;
      if (X.Ret != A.Ret || X.Output != A.Output ||
          X.Instructions != WantInsts) {
        std::fprintf(stderr,
                     "%s: config '%s' diverged from '%s' "
                     "(ret %lld vs %lld, insts %llu vs %llu)\n",
                     B.Name.c_str(), Configs[C].Name, Configs[0].Name,
                     static_cast<long long>(X.Ret),
                     static_cast<long long>(A.Ret),
                     static_cast<unsigned long long>(X.Instructions),
                     static_cast<unsigned long long>(WantInsts));
        return 1;
      }
    }

    std::printf("%-14s %10llu %10llu %9.1f %9.1f %9.0f %7.2fx %7.2fx\n",
                KR.Name.c_str(),
                static_cast<unsigned long long>(KR.Instructions),
                static_cast<unsigned long long>(KR.Configs[4].Instructions),
                KR.Configs[0].warmMips(), KR.Configs[2].warmMips(),
                KR.Configs[4].WarmUs, KR.speedup(), KR.pipelineSpeedup());
    Results.push_back(std::move(KR));
  }

  auto Geomean = [&](double (KernelResult::*F)() const) {
    double LogSum = 0;
    for (const auto &R : Results)
      LogSum += std::log((R.*F)());
    return std::exp(LogSum / Results.size());
  };
  const double DispatchGeo = Geomean(&KernelResult::speedup);
  const double TotalGeo = Geomean(&KernelResult::pipelineSpeedup);
  bool Pass = DispatchGeo >= 1.5 && TotalGeo >= DispatchGeo;

  // Suite-wide decode and dispatch-tier totals, straight from the
  // registry. The tier counters double as a config cross-check: the
  // observed config must actually have entered the observed tier.
  const telemetry::MetricsSnapshot Snap = telemetry::snapshotMetrics();
  const uint64_t DecodeHits = Snap.counter(telemetry::Counter::DecodeHit);
  const uint64_t DecodeMisses = Snap.counter(telemetry::Counter::DecodeMiss);
  const uint64_t TierObserved = Snap.counter(telemetry::Counter::TierObserved);
  const telemetry::HistSnapshot *DecodeNs =
      Snap.histogram(telemetry::Hist::DecodeNs);
  if (TierObserved == 0 || DecodeMisses == 0) {
    std::fprintf(stderr,
                 "telemetry cross-check failed: observed-tier entries %llu, "
                 "decode misses %llu (both must be nonzero)\n",
                 static_cast<unsigned long long>(TierObserved),
                 static_cast<unsigned long long>(DecodeMisses));
    Pass = false;
  }
  std::printf("decode (registry): %llu misses, %llu cache hits, p50 %.0f ns; "
              "tier entries threaded/switch/observed: %llu/%llu/%llu\n",
              static_cast<unsigned long long>(DecodeMisses),
              static_cast<unsigned long long>(DecodeHits),
              DecodeNs ? DecodeNs->P50 : 0.0,
              static_cast<unsigned long long>(
                  Snap.counter(telemetry::Counter::TierThreaded)),
              static_cast<unsigned long long>(
                  Snap.counter(telemetry::Counter::TierSwitch)),
              static_cast<unsigned long long>(TierObserved));
  std::printf("\ngeomean speedup vs switch+noopt (the pre-overhaul shape): "
              "dispatch alone %.2fx, dispatch+pipeline %.2fx -- %s\n",
              DispatchGeo, TotalGeo,
              Pass ? "pass" : "FAIL (want dispatch >= 1.5x and pipeline to "
                              "add on top)");

  const std::string JsonPath = benchutil::outputPath("BENCH_interp.json");
  if (FILE *F = std::fopen(JsonPath.c_str(), "w")) {
    std::fprintf(F,
                 "{\n  \"threaded_dispatch\": %s,\n  \"smoke\": %s,\n"
                 "  \"kernels\": [\n",
                 ExecutionEngine::hasThreadedDispatch() ? "true" : "false",
                 Smoke ? "true" : "false");
    for (size_t I = 0; I < Results.size(); ++I) {
      const auto &R = Results[I];
      std::fprintf(
          F,
          "    {\"name\": \"%s\", \"instructions\": %llu, "
          "\"instructions_pipelined\": %llu, \"cold_us\": %.1f, "
          "\"threaded_opt_mips\": %.1f, \"switch_opt_mips\": %.1f, "
          "\"switch_noopt_mips\": %.1f, \"observed_mips\": %.1f, "
          "\"pipelined_warm_us\": %.1f, "
          "\"speedup_vs_reference\": %.2f, "
          "\"pipeline_speedup_vs_reference\": %.2f}%s\n",
          R.Name.c_str(), static_cast<unsigned long long>(R.Instructions),
          static_cast<unsigned long long>(R.Configs[4].Instructions),
          R.Configs[0].ColdUs, R.Configs[0].warmMips(),
          R.Configs[1].warmMips(), R.Configs[2].warmMips(),
          R.Configs[3].warmMips(), R.Configs[4].WarmUs, R.speedup(),
          R.pipelineSpeedup(), I + 1 == Results.size() ? "" : ",");
    }
    std::fprintf(F,
                 "  ],\n"
                 "  \"geomean_speedup\": %.2f,\n"
                 "  \"geomean_pipeline_speedup\": %.2f,\n"
                 "  \"decode\": {\"misses\": %llu, \"hits\": %llu, "
                 "\"p50_ns\": %.0f, \"p95_ns\": %.0f},\n"
                 "  \"tier_entries\": {\"threaded\": %llu, \"switch\": %llu, "
                 "\"observed\": %llu},\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 DispatchGeo, TotalGeo,
                 static_cast<unsigned long long>(DecodeMisses),
                 static_cast<unsigned long long>(DecodeHits),
                 DecodeNs ? DecodeNs->P50 : 0.0, DecodeNs ? DecodeNs->P95 : 0.0,
                 static_cast<unsigned long long>(
                     Snap.counter(telemetry::Counter::TierThreaded)),
                 static_cast<unsigned long long>(
                     Snap.counter(telemetry::Counter::TierSwitch)),
                 static_cast<unsigned long long>(TierObserved),
                 Pass ? "true" : "false");
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath.c_str());
  }
  return Pass ? 0 : 1;
}
