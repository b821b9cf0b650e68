//===----------------------------------------------------------------------===//
///
/// \file
/// noelle-parallelize: the one-shot automatic parallelization driver.
///
/// Usage:
///   noelle-parallelize [options] <kernel-name | minic-file | nir-file>
///
/// Runs tools::runPipeline: the input is materialized, a pre-transform
/// snapshot is captured, the planner picks a strategy for every hot loop
/// (technique, worker count, chunk grain — from profile data and the
/// cost model), the plan is audited (`noelle-check --plan` semantics),
/// applied, the result is audited against the snapshot, and optionally
/// executed.
///
/// Options:
///   --cores=N            worker-count search ceiling, 1 to 1024 (4);
///                        --cores=1 plans nothing: the sequential run
///   --speculate          let the planner consider profile-guided
///                        speculative DOALL: a memory-dependence profile
///                        is collected (by running main()) and embedded
///                        unless the module carries a current one,
///                        speculative candidates join the enumeration,
///                        and the post-transform audit includes the
///                        --speculative checks
///   --technique=K        skip the planner: sweep doall|helix|dswp|
///                        spec-doall over every eligible loop, exactly
///                        the sweep `noelle-check --transform=K` audits
///   --plan-file=<path>   apply a previously saved plan instead of
///                        computing one
///   --plan-only          stop after planning: print the plan, do not
///                        transform
///   --emit-plan          print the plan (with --run, including the
///                        speedups the run measured)
///   --save-plan          embed the plan in the module's metadata
///                        (with --run, the measured plan)
///   --overheads=<json>   derive spawn cost from a BENCH_runtime.json
///   --no-nested          do not plan DOALL loops inside DSWP stages
///   --no-profile         plan from static defaults (no profile runs)
///   --no-check           skip the plan audit and the post-transform
///                        legality/race audit
///   --opt                run the optimizer pipeline first
///   --run                execute main() after transforming
///   --metrics=<path>     enable the telemetry registry and write its
///                        JSON snapshot to <path> on exit
///   --trace=<path>       record in telemetry trace mode and write a
///                        Chrome trace_event JSON (chrome://tracing,
///                        Perfetto): one span per pipeline layer and
///                        optimizer pass, plus the runtime's dispatch,
///                        task, chunk, queue and stall spans; then print
///                        a summary and the time of each layer
///   --print              print the transformed module to stdout
///   --list               list benchmark kernels and exit
///
/// Exit status: 0 clean, 1 when any audit finding or failed plan entry,
/// 2 on usage/compile/IO errors.
///
//===----------------------------------------------------------------------===//

#include "ToolDriver.h"

#include "tools/Pipeline.h"

#include <iostream>

using namespace noelle;

namespace {

struct CLIOptions {
  tools::PipelineConfig Pipeline;
  bool EmitPlan = false;
  bool Print = false;
  std::string MetricsPath;
  std::string TracePath;
  std::string Input;
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: noelle-parallelize [--cores=N] [--speculate] "
      "[--technique=doall|helix|dswp|spec-doall] [--plan-file=F] "
      "[--plan-only] [--emit-plan] [--save-plan] "
      "[--overheads=F] [--no-nested] [--no-profile] [--no-check] "
      "[--opt] [--run] [--metrics=F] [--trace=F] [--print] [--list] "
      "<kernel|file.minic|file.nir>\n");
}

bool parseArgs(int Argc, char **Argv, CLIOptions &O) {
  tools::PipelineConfig &P = O.Pipeline;
  for (int K = 1; K < Argc; ++K) {
    std::string Arg = Argv[K];
    std::string Value;
    if (Arg == "--list") {
      tooldriver::listKernels();
      std::exit(0);
    }
    if (tooldriver::parseCoresOpt("noelle-parallelize", Arg, P.Cores) ||
        tooldriver::parseStringOpt(Arg, "--plan-file=", P.PlanFile) ||
        tooldriver::parseMetricsOpt(Arg, O.MetricsPath) ||
        tooldriver::parseTraceOpt("noelle-parallelize", Arg, O.TracePath) ||
        tooldriver::parseSwitch(Arg, {{"--plan-only", &P.Apply, false},
                                      {"--emit-plan", &O.EmitPlan, true},
                                      {"--save-plan", &P.SavePlan, true},
                                      {"--speculate", &P.Speculate, true},
                                      {"--no-nested", &P.Nested, false},
                                      {"--no-profile", &P.Profile, false},
                                      {"--no-check", &P.Check, false},
                                      {"--opt", &P.Optimize, true},
                                      {"--run", &P.Run, true},
                                      {"--print", &O.Print, true}}))
      continue;
    if (tooldriver::parseStringOpt(Arg, "--technique=", Value)) {
      TechniqueKind Kind;
      if (!techniqueFromName(Value, Kind)) {
        std::fprintf(stderr,
                     "noelle-parallelize: unknown technique '%s'\n",
                     Value.c_str());
        return false;
      }
      P.Technique = Kind;
      continue;
    }
    if (tooldriver::parseStringOpt(Arg, "--overheads=", Value)) {
      std::string Err;
      if (!planner::loadMeasuredOverheads(Value, P.Overheads, Err)) {
        std::fprintf(stderr, "noelle-parallelize: %s\n", Err.c_str());
        return false;
      }
      continue;
    }
    if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "noelle-parallelize: unknown option '%s'\n",
                   Arg.c_str());
      return false;
    }
    if (!O.Input.empty()) {
      std::fprintf(stderr, "noelle-parallelize: multiple inputs\n");
      return false;
    }
    O.Input = Arg;
  }
  if (O.Input.empty()) {
    printUsage();
    return false;
  }
  return true;
}

void printDecisions(const std::vector<Decision> &Decisions) {
  unsigned Parallelized = 0;
  for (const Decision &D : Decisions) {
    if (D.Parallelized) {
      ++Parallelized;
      std::printf("  %s loop %u in @%s: %s, %u worker(s)\n",
                  techniqueName(D.Kind), D.LoopID,
                  D.FunctionName.c_str(), "parallelized", D.Workers);
    } else {
      std::printf("  %s loop %u in @%s: skipped (%s)\n",
                  techniqueName(D.Kind), D.LoopID,
                  D.FunctionName.c_str(), D.Reason.c_str());
    }
  }
  std::printf("noelle-parallelize: %u loop(s) parallelized\n",
              Parallelized);
}

/// Prints what the pipeline produced, up to the audit that stopped it.
/// Returns the exit status.
int printResult(const CLIOptions &O, const tools::PipelineResult &R) {
  const tools::PipelineConfig &P = O.Pipeline;
  if (!P.Technique && (O.EmitPlan || !P.Apply))
    std::fputs(R.Plan.serialize().c_str(), stdout);
  if (!R.PlanReport.clean()) {
    std::printf("%s", R.PlanReport.str().c_str());
    return 1;
  }
  if (P.Apply)
    printDecisions(R.Decisions);
  if (!R.ModuleReport.clean()) {
    std::printf("%s", R.ModuleReport.str().c_str());
    return 1;
  }
  if (O.Print)
    R.M->print(std::cout);
  if (R.Ran) {
    std::fputs(R.Output.c_str(), stdout);
    std::printf("main() = %lld\n", (long long)R.Main);
    if (R.Feedback.EntriesMeasured > 0)
      std::printf("noelle-parallelize: measured %u plan entr%s"
                  " (%u below 0.8x of estimate)\n",
                  R.Feedback.EntriesMeasured,
                  R.Feedback.EntriesMeasured == 1 ? "y" : "ies",
                  R.Feedback.Shortfalls);
  }
  // A forced sweep skips loops by design; a plan entry that does not
  // apply is a failure.
  if (!P.Technique)
    for (const Decision &D : R.Decisions)
      if (!D.Parallelized)
        return 1;
  return 0;
}

/// --trace=: writes the Chrome trace, then prints what it recorded and
/// the time of each layer that ran, ending with the part of the
/// pipeline's wall time that no layer covers.
bool writeTrace(const std::string &Path, const tools::PipelineResult &R) {
  if (!telemetry::writeFile(Path, telemetry::traceJson() + "\n")) {
    std::fprintf(stderr, "noelle-parallelize: cannot write trace to '%s'\n",
                 Path.c_str());
    return false;
  }
  const telemetry::MetricsSnapshot S = telemetry::snapshotMetrics();
  auto Count = [&](telemetry::Counter C) {
    return static_cast<unsigned long long>(S.counter(C));
  };
  std::printf("noelle-parallelize: %zu span(s) -> %s\n",
              telemetry::traceEventCount(), Path.c_str());
  std::printf("  dispatches:           %llu static, %llu chunked "
              "(%llu chunks)\n",
              Count(telemetry::Counter::DispatchStatic),
              Count(telemetry::Counter::DispatchChunked),
              Count(telemetry::Counter::DispatchChunks));
  std::printf("  pool tasks / steals:  %llu / %llu\n",
              Count(telemetry::Counter::PoolTasksRun),
              Count(telemetry::Counter::PoolSteals));
  std::printf("  queue push / pop:     %llu / %llu\n",
              Count(telemetry::Counter::QueuePush),
              Count(telemetry::Counter::QueuePop));
  if (const telemetry::HistSnapshot *H =
          S.histogram(telemetry::Hist::SSWaitStallNs))
    std::printf("  ss_wait stalls:       %llu (%llu ns total)\n",
                (unsigned long long)H->Count, (unsigned long long)H->Sum);
  for (const auto &En : R.Plan.Entries)
    if (En.MeasuredMilli != 0)
      std::printf("  %s loop@%llu:  est %.2fx, measured %.2fx\n",
                  En.FunctionName.c_str(),
                  (unsigned long long)En.HeaderInstID,
                  static_cast<double>(En.SpeedupMilli) / 1000.0,
                  static_cast<double>(En.MeasuredMilli) / 1000.0);
  std::printf("  layer times of %.3f ms:\n", R.WallMs);
  double Covered = 0;
  for (const tools::LayerTime &T : R.Layers) {
    std::printf("    %-22s %9.3f ms\n", tools::layerName(T.L), T.Ms);
    Covered += T.Ms;
  }
  std::printf("    %-22s %9.3f ms\n", "(no layer)", R.WallMs - Covered);
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  CLIOptions O;
  if (!parseArgs(Argc, Argv, O))
    return 2;

  const tools::PipelineResult R = tools::runPipeline(O.Input, O.Pipeline);
  const std::string &Err =
      R.InputError.empty() ? R.PlanFileError : R.InputError;
  if (!Err.empty()) {
    std::fprintf(stderr, "noelle-parallelize: %s\n", Err.c_str());
    return 2;
  }
  const int Status = printResult(O, R);
  if (!O.TracePath.empty() && !writeTrace(O.TracePath, R))
    return 2;
  if (!tooldriver::writeMetricsIfRequested("noelle-parallelize",
                                           O.MetricsPath))
    return 2;
  return Status;
}
