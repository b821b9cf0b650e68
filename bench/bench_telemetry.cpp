//===----------------------------------------------------------------------===//
///
/// \file
/// Telemetry overhead benchmark: wall-clock cost of the metrics registry
/// and the trace recorder on the Figure-5 kernel set (PARSEC + MiBench
/// shapes), parallelized by the planner so the instrumented dispatch,
/// pool, and pipeline-queue paths are actually on the measured path.
///
/// Per kernel, four legs run interleaved (one leg after another inside
/// each repetition, so machine drift hits all legs equally), each on a
/// fresh pre-decoded engine:
///
///   off-a, off-b   telemetry disabled (Mode::Off) — two independent
///                  legs; their ratio is the disabled-mode overhead
///                  measurement (the guard branches are on both sides,
///                  so anything above the noise floor would show up)
///   metrics        Mode::Metrics — counters, gauges, histograms live
///   trace          Mode::Trace — metrics plus span recording
///
/// Reported per kernel and as geomeans: off-b/off-a (disabled),
/// metrics/off, trace/off, where "off" is min(off-a, off-b) so the
/// enabled ratios are measured against the best disabled floor. A
/// microbenchmark of the disabled fast path (ns per count() call with
/// Mode::Off) backs the kernel-level numbers. Gates: disabled geomean
/// within 1%, metrics geomean within 10% (the paper-facing "≤1%
/// disabled / ≤10% enabled" claim); `--smoke` widens both for noisy CI
/// hosts and drops to two repetitions. Writes BENCH_telemetry.json
/// (benchutil::outputPath).
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "interp/Interpreter.h"
#include "noelle/Noelle.h"
#include "planner/Planner.h"
#include "runtime/ParallelRuntime.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace noelle;
namespace telemetry = noelle::telemetry;

namespace {

constexpr unsigned Cores = 4;

double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum Leg { OffA = 0, OffB, Metrics, Trace, NumLegs };
const char *LegNames[NumLegs] = {"off-a", "off-b", "metrics", "trace"};
const telemetry::Mode LegModes[NumLegs] = {
    telemetry::Mode::Off, telemetry::Mode::Off, telemetry::Mode::Metrics,
    telemetry::Mode::Trace};

struct KernelResult {
  std::string Name;
  double LegUs[NumLegs] = {0, 0, 0, 0};
  double offUs() const { return std::min(LegUs[OffA], LegUs[OffB]); }
  double disabledRatio() const { return LegUs[OffB] / LegUs[OffA]; }
  double metricsRatio() const { return LegUs[Metrics] / offUs(); }
  double traceRatio() const { return LegUs[Trace] / offUs(); }
};

/// One timed execution on a fresh, fully pre-decoded engine. The mode
/// switch, the engine build, and the trace/metrics cleanup all happen
/// outside the timed region.
double timedRun(nir::Module &M, telemetry::Mode Mode, int64_t &Ret) {
  telemetry::setMode(Mode);
  nir::ExecutionEngine E(M);
  registerParallelRuntime(E);
  for (const auto &F : M.getFunctions())
    if (!F->isDeclaration())
      E.prepare(F.get());
  double T0 = nowUs();
  Ret = E.runMain();
  double Dt = nowUs() - T0;
  telemetry::setMode(telemetry::Mode::Off);
  telemetry::clearTrace();
  telemetry::resetMetrics();
  return Dt;
}

/// ns per telemetry::count() call with the registry disabled: the cost
/// of one guard branch (an atomic relaxed load) — the only thing the
/// instrumentation adds to a build that never enables telemetry.
double disabledGuardNs() {
  telemetry::setMode(telemetry::Mode::Off);
  constexpr uint64_t Calls = 10 * 1000 * 1000;
  double T0 = nowUs();
  for (uint64_t I = 0; I < Calls; ++I)
    telemetry::count(telemetry::Counter::PoolTasksRun);
  return (nowUs() - T0) * 1000.0 / Calls;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;
  const unsigned Reps = Smoke ? 2 : 9;
  // Smoke runs gate loosely: one warm repetition per leg on a shared CI
  // box measures noise as much as overhead. The committed numbers come
  // from a full run.
  const double DisabledGate = Smoke ? 1.05 : 1.01;
  const double MetricsGate = Smoke ? 1.25 : 1.10;

  const double GuardNs = disabledGuardNs();

  std::printf("Telemetry overhead on Figure-5 kernels (planner-parallelized, "
              "%u cores, best of %u interleaved reps)\n",
              Cores, Reps);
  std::printf("disabled count() guard: %.2f ns/call\n\n", GuardNs);
  std::printf("%-14s %10s %10s %10s %9s %9s %9s\n", "kernel", "off(us)",
              "metr(us)", "trace(us)", "off b/a", "metr/off", "trace/off");

  std::vector<KernelResult> Results;
  for (const auto &B : bench::getBenchmarkSuite()) {
    if (B.Suite == "SPEC")
      continue; // same kernel set as Figure 5

    // Parallelize once; every leg runs the identical transformed module.
    nir::Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, B.Source);
    {
      Noelle N(*M);
      planner::PlannerOptions PO;
      PO.MaxWorkers = Cores;
      planner::Planner P(N, PO);
      P.planAndApply();
    }

    KernelResult KR;
    KR.Name = B.Name;
    int64_t WantRet = 0;
    bool HaveWant = false;
    for (int L = 0; L < NumLegs; ++L)
      KR.LegUs[L] = 0;
    for (unsigned R = 0; R < Reps; ++R) {
      for (int LI = 0; LI < NumLegs; ++LI) {
        // Rotate the leg order every repetition so no leg always runs
        // first (or last) and inherits a systematic cache/frequency
        // advantage; with best-of-Reps per leg the rotation leaves each
        // leg sampled equally in every position.
        const int L = (LI + static_cast<int>(R)) % NumLegs;
        int64_t Ret = 0;
        double Us = timedRun(*M, LegModes[L], Ret);
        if (!HaveWant) {
          WantRet = Ret;
          HaveWant = true;
        } else if (Ret != WantRet) {
          std::fprintf(stderr, "%s [%s]: result %lld diverged from %lld\n",
                       B.Name.c_str(), LegNames[L],
                       static_cast<long long>(Ret),
                       static_cast<long long>(WantRet));
          return 1;
        }
        if (KR.LegUs[L] == 0 || Us < KR.LegUs[L])
          KR.LegUs[L] = Us;
      }
    }

    std::printf("%-14s %10.1f %10.1f %10.1f %9.3f %9.3f %9.3f\n",
                KR.Name.c_str(), KR.offUs(), KR.LegUs[Metrics],
                KR.LegUs[Trace], KR.disabledRatio(), KR.metricsRatio(),
                KR.traceRatio());
    Results.push_back(std::move(KR));
  }

  auto Geomean = [&](double (KernelResult::*F)() const) {
    double LogSum = 0;
    for (const auto &R : Results)
      LogSum += std::log((R.*F)());
    return std::exp(LogSum / Results.size());
  };
  const double DisabledGeo = Geomean(&KernelResult::disabledRatio);
  const double MetricsGeo = Geomean(&KernelResult::metricsRatio);
  const double TraceGeo = Geomean(&KernelResult::traceRatio);

  bool Pass = DisabledGeo <= DisabledGate && MetricsGeo <= MetricsGate;
  std::printf("\ngeomean overhead: disabled %.3fx (gate <= %.2f), metrics "
              "%.3fx (gate <= %.2f), trace %.3fx (reported) -- %s\n",
              DisabledGeo, DisabledGate, MetricsGeo, MetricsGate, TraceGeo,
              Pass ? "pass" : "FAIL");

  const std::string JsonPath = benchutil::outputPath("BENCH_telemetry.json");
  if (FILE *F = std::fopen(JsonPath.c_str(), "w")) {
    std::fprintf(F,
                 "{\n  \"smoke\": %s,\n"
                 "  \"disabled_guard_ns_per_call\": %.2f,\n"
                 "  \"kernels\": [\n",
                 Smoke ? "true" : "false", GuardNs);
    for (size_t I = 0; I < Results.size(); ++I) {
      const auto &R = Results[I];
      std::fprintf(F,
                   "    {\"name\": \"%s\", \"off_us\": %.1f, "
                   "\"metrics_us\": %.1f, \"trace_us\": %.1f, "
                   "\"disabled_ratio\": %.3f, \"metrics_ratio\": %.3f, "
                   "\"trace_ratio\": %.3f}%s\n",
                   R.Name.c_str(), R.offUs(), R.LegUs[Metrics],
                   R.LegUs[Trace], R.disabledRatio(), R.metricsRatio(),
                   R.traceRatio(), I + 1 == Results.size() ? "" : ",");
    }
    std::fprintf(F,
                 "  ],\n"
                 "  \"geomean_disabled_overhead\": %.3f,\n"
                 "  \"geomean_metrics_overhead\": %.3f,\n"
                 "  \"geomean_trace_overhead\": %.3f,\n"
                 "  \"pass\": %s\n"
                 "}\n",
                 DisabledGeo, MetricsGeo, TraceGeo, Pass ? "true" : "false");
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath.c_str());
  }
  return Pass ? 0 : 1;
}
