//===----------------------------------------------------------------------===//
///
/// \file
/// Microbenchmark for the parallel runtime's dispatch path: per-region
/// dispatch latency through the persistent work-stealing pool (static
/// and chunked entry points) over the interpreter floor, plus
/// steady-state interpreter throughput under the pool. Emits
/// BENCH_runtime.json, whose static dispatch latency and throughput
/// `noelle-parallelize --overheads=` turns into the planner's spawn
/// cost.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "frontend/MiniC.h"
#include "runtime/ParallelRuntime.h"
#include "runtime/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <chrono>
#include <cstdio>

using namespace noelle;
using nir::ExecutionEngine;

namespace {

constexpr int DispatchTasks = 4;

/// An empty parallel region: dispatch cost dominates entirely.
const char *LatencySrc = R"(
  extern void noelle_dispatch(void (*task)(int *, int, int), int *env,
                              int n);
  int dummy[1];
  void task(int *env, int t, int n) { return; }
  int main() {
    noelle_dispatch(task, dummy, 4);
    return 0;
  }
)";

/// The same program with the parallel region removed: the interpreter
/// floor we subtract so the comparison isolates dispatch overhead.
const char *FloorSrc = R"(
  int dummy[1];
  int main() { return 0; }
)";

const char *LatencyChunkedSrc = R"(
  extern void noelle_dispatch_chunked(void (*task)(int *, int, int),
                                      int *env, int n, int grain);
  int dummy[1];
  void task(int *env, int t, int n) { return; }
  int main() {
    noelle_dispatch_chunked(task, dummy, 4, 1);
    return 0;
  }
)";

/// A DOALL-shaped region with real per-task work, for steady-state
/// throughput under the pool.
const char *ThroughputSrc = R"(
  extern void noelle_dispatch_chunked(void (*task)(int *, int, int),
                                      int *env, int n, int grain);
  int acc[4];
  void task(int *env, int t, int n) {
    int i = t;
    int s = 0;
    while (i < 40000) {
      s = s + i * 3 + 1;
      i = i + n;
    }
    acc[t] = s;
  }
  int main() {
    noelle_dispatch_chunked(task, acc, 4, 1);
    return 0;
  }
)";

/// Wall time per runMain() call in nanoseconds: best of three timed
/// repetitions, to shed scheduler noise on a loaded host.
double nsPerRun(ExecutionEngine &E, unsigned Iters) {
  E.runMain(); // warm-up: decode + pool worker creation
  E.runMain();
  double Best = 0;
  for (int Rep = 0; Rep < 3; ++Rep) {
    auto Start = std::chrono::steady_clock::now();
    for (unsigned I = 0; I < Iters; ++I)
      E.runMain();
    auto End = std::chrono::steady_clock::now();
    double Ns =
        static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                End - Start)
                                .count()) /
        Iters;
    if (Rep == 0 || Ns < Best)
      Best = Ns;
  }
  return Best;
}

} // namespace

int main() {
  constexpr unsigned Iters = 300;

  // Dispatch/steal/park accounting comes from the telemetry registry —
  // the same counters the runtime maintains for every consumer — so the
  // bench no longer keeps its own copy of pool bookkeeping.
  namespace telemetry = noelle::telemetry;
  telemetry::setMode(telemetry::Mode::Metrics);

  // Interpreter floor: runMain() with no parallel region at all.
  nir::Context C0;
  auto M0 = minic::compileMiniCOrDie(C0, FloorSrc);
  ExecutionEngine E0(*M0);
  double FloorNs = nsPerRun(E0, Iters);

  // Pool, static dispatch (HELIX/DSWP path).
  nir::Context C1;
  auto M1 = minic::compileMiniCOrDie(C1, LatencySrc);
  ExecutionEngine E1(*M1);
  registerParallelRuntime(E1);
  double PoolNs = nsPerRun(E1, Iters);
  // Worker count from the registry's pool.workers watermark: only E1's
  // pool has run yet, so the high-water mark is its thread count.
  uint64_t PoolThreads = 0;
  for (const auto &[Name, G] : telemetry::snapshotMetrics().Gauges)
    if (Name == "pool.workers")
      PoolThreads = static_cast<uint64_t>(G.Max);

  // Pool, chunked dispatch (DOALL path).
  nir::Context C2;
  auto M2 = minic::compileMiniCOrDie(C2, LatencyChunkedSrc);
  ExecutionEngine E2(*M2);
  registerParallelRuntime(E2);
  double ChunkedNs = nsPerRun(E2, Iters);

  // Steady-state throughput through the pool.
  nir::Context C3;
  auto M3 = minic::compileMiniCOrDie(C3, ThroughputSrc);
  ExecutionEngine E3(*M3);
  registerParallelRuntime(E3);
  E3.runMain();
  uint64_t InstrBefore = E3.getInstructionsExecuted();
  auto Start = std::chrono::steady_clock::now();
  constexpr unsigned ThroughputRuns = 20;
  for (unsigned I = 0; I < ThroughputRuns; ++I)
    E3.runMain();
  auto End = std::chrono::steady_clock::now();
  double Secs =
      std::chrono::duration_cast<std::chrono::duration<double>>(End - Start)
          .count();
  double Mips = (E3.getInstructionsExecuted() - InstrBefore) / Secs / 1e6;

  std::printf("Parallel-runtime microbenchmark (%d tasks/region, %u "
              "regions)\n\n",
              DispatchTasks, Iters);
  std::printf("  interpreter floor (no region)      : %12.0f\n", FloorNs);
  std::printf("  dispatch ns/region, pool (static)  : %12.0f\n", PoolNs);
  std::printf("  dispatch ns/region, pool (chunked) : %12.0f\n", ChunkedNs);
  std::printf("  steady-state throughput            : %12.1f Mips\n", Mips);
  std::printf("  pool threads after warm-up         : %12llu (stable "
              "across %u dispatches)\n",
              static_cast<unsigned long long>(PoolThreads), Iters + 2);

  const std::string JsonPath = benchutil::outputPath("BENCH_runtime.json");
  if (FILE *F = std::fopen(JsonPath.c_str(), "w")) {
    std::fprintf(F,
                 "{\n"
                 "  \"interpreter_floor_ns\": %.0f,\n"
                 "  \"dispatch_ns_per_region_pool_static\": %.0f,\n"
                 "  \"dispatch_ns_per_region_pool_chunked\": %.0f,\n"
                 "  \"steady_state_mips\": %.1f,\n"
                 "  \"pool_threads_after_warmup\": %llu\n"
                 "}\n",
                 FloorNs, PoolNs, ChunkedNs, Mips,
                 static_cast<unsigned long long>(PoolThreads));
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath.c_str());
  }
  return 0;
}
