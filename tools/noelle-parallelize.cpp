//===----------------------------------------------------------------------===//
///
/// \file
/// noelle-parallelize: the one-shot automatic parallelization driver.
///
/// Usage:
///   noelle-parallelize [options] <kernel-name | minic-file | nir-file>
///
/// The input is materialized, a pre-transform snapshot is captured, the
/// planner picks a strategy for every hot loop (technique, worker
/// count, chunk grain — from profile data and the cost model), the plan
/// is audited (`noelle-check --plan` semantics), applied, the result is
/// audited against the snapshot, and optionally executed.
///
/// Options:
///   --cores=N            worker-count search ceiling (4)
///   --speculate          let the planner consider profile-guided
///                        speculative DOALL: a memory-dependence profile
///                        is collected (by running main()) and embedded
///                        unless the module carries a current one,
///                        speculative candidates join the enumeration,
///                        and the post-transform audit includes the
///                        --speculative checks
///   --technique=K        skip the planner: force doall|helix|dswp|
///                        spec-doall on every eligible loop (the legacy
///                        per-tool sweep)
///   --plan-file=<path>   apply a previously saved plan instead of
///                        computing one
///   --plan-only          stop after planning: print the plan, do not
///                        transform
///   --emit-plan          print the plan before applying it
///   --save-plan          embed the plan in the module's metadata
///   --overheads=<json>   derive spawn cost from a BENCH_runtime.json
///   --no-nested          do not plan DOALL loops inside DSWP stages
///   --no-profile         plan from static defaults (no profile runs)
///   --no-check           skip the plan audit and the post-transform
///                        legality/race audit
///   --opt                run the optimizer pipeline first
///   --run                execute main() after transforming
///   --metrics=<path>     enable the telemetry registry and write its
///                        JSON snapshot to <path> on exit
///   --print              print the transformed module to stdout
///   --list               list benchmark kernels and exit
///
/// Exit status: 0 clean, 1 when any audit finding or failed plan entry,
/// 2 on usage/compile errors.
///
//===----------------------------------------------------------------------===//

#include "ToolDriver.h"

#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "noelle/MemDepProfiler.h"
#include "noelle/Noelle.h"
#include "opt/Passes.h"
#include "planner/Feedback.h"
#include "planner/Planner.h"
#include "runtime/ParallelRuntime.h"
#include "verify/NoelleCheck.h"
#include "verify/PlanCheck.h"

#include <iostream>

using namespace noelle;

namespace {

struct CLIOptions {
  unsigned Cores = 4;
  std::string ForcedTechnique; // empty = free planner
  std::string PlanFile;
  std::string OverheadsFile;
  bool PlanOnly = false;
  bool EmitPlan = false;
  bool SavePlan = false;
  bool Nested = true;
  bool Profile = true;
  bool Speculate = false;
  bool Check = true;
  bool Optimize = false;
  bool Run = false;
  bool Print = false;
  std::string MetricsPath;
  std::string Input;
};

void printUsage() {
  std::fprintf(
      stderr,
      "usage: noelle-parallelize [--cores=N] [--speculate] "
      "[--technique=doall|helix|dswp|spec-doall] [--plan-file=F] "
      "[--plan-only] [--emit-plan] [--save-plan] "
      "[--overheads=F] [--no-nested] [--no-profile] [--no-check] "
      "[--opt] [--run] [--print] [--list] <kernel|file.minic|file.nir>\n");
}

bool parseArgs(int Argc, char **Argv, CLIOptions &O) {
  for (int K = 1; K < Argc; ++K) {
    std::string Arg = Argv[K];
    if (Arg == "--list") {
      tooldriver::listKernels();
      std::exit(0);
    }
    if (tooldriver::parseUnsignedOpt(Arg, "--cores=", O.Cores)) {
      if (O.Cores == 0) {
        std::fprintf(stderr,
                     "noelle-parallelize: --cores must be positive\n");
        return false;
      }
      continue;
    }
    if (tooldriver::parseStringOpt(Arg, "--technique=",
                                   O.ForcedTechnique)) {
      TechniqueKind K2;
      if (!techniqueFromName(O.ForcedTechnique, K2)) {
        std::fprintf(stderr,
                     "noelle-parallelize: unknown technique '%s'\n",
                     O.ForcedTechnique.c_str());
        return false;
      }
      continue;
    }
    if (tooldriver::parseStringOpt(Arg, "--plan-file=", O.PlanFile))
      continue;
    if (tooldriver::parseStringOpt(Arg, "--overheads=", O.OverheadsFile))
      continue;
    if (Arg == "--plan-only") {
      O.PlanOnly = true;
      continue;
    }
    if (Arg == "--emit-plan") {
      O.EmitPlan = true;
      continue;
    }
    if (Arg == "--save-plan") {
      O.SavePlan = true;
      continue;
    }
    if (Arg == "--speculate") {
      O.Speculate = true;
      continue;
    }
    if (Arg == "--no-nested") {
      O.Nested = false;
      continue;
    }
    if (Arg == "--no-profile") {
      O.Profile = false;
      continue;
    }
    if (Arg == "--no-check") {
      O.Check = false;
      continue;
    }
    if (Arg == "--opt") {
      O.Optimize = true;
      continue;
    }
    if (Arg == "--run") {
      O.Run = true;
      continue;
    }
    if (Arg == "--print") {
      O.Print = true;
      continue;
    }
    if (tooldriver::parseMetricsOpt(Arg, O.MetricsPath))
      continue;
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

} // namespace

int main(int Argc, char **Argv) {
  CLIOptions O;
  if (!parseArgs(Argc, Argv, O))
    return 2;

  nir::Context Ctx;
  auto M = tooldriver::loadInputModule("noelle-parallelize", Ctx, O.Input);
  if (!M)
    return 2;
  if (O.Optimize)
    opt::runPipeline(*M);

  // Speculation (planner enumeration or a forced spec-doall sweep) needs
  // a memory-dependence profile of this code. Collect and embed one
  // before the snapshot unless the module carries a current one:
  // embedding is hash-neutral, and the IDs it is keyed by are the same
  // ones captureForCheck assigns.
  bool WantSpec = O.Speculate || O.ForcedTechnique == "spec-doall";
  MemDepProfile Embedded;
  std::string NoProfile;
  if (WantSpec && !MemDepProfile::fromModule(*M, Embedded, NoProfile))
    profileMemDeps(*M).embed(*M);

  // Snapshot before anything mutates code: the audit's ground truth,
  // and the source of the deterministic IDs plans are keyed by.
  verify::PreTransformSnapshot Snap = verify::captureForCheck(*M);

  Noelle N(*M);

  // Forced mode: the legacy per-tool sweep over every eligible loop.
  if (!O.ForcedTechnique.empty()) {
    TechniqueKind K;
    techniqueFromName(O.ForcedTechnique, K);
    auto T = createTechnique(K, N, O.Cores);
    std::vector<Decision> Decisions = T->run();
    printDecisions(Decisions);
    if (O.Check) {
      verify::CheckOptions CO;
      CO.Speculative = WantSpec;
      verify::CheckReport Rep = verify::checkModule(*M, Snap, CO);
      if (!Rep.clean()) {
        std::printf("%s", Rep.str().c_str());
        return 1;
      }
    }
    if (O.Print)
      M->print(std::cout);
    if (O.Run) {
      nir::ExecutionEngine E(*M);
      registerParallelRuntime(E);
      const int64_t R = E.runMain();
      std::fputs(E.getOutput().c_str(), stdout);
      std::printf("main() = %lld\n", (long long)R);
    }
    if (!tooldriver::writeMetricsIfRequested("noelle-parallelize",
                                             O.MetricsPath))
      return 2;
    return 0;
  }

  planner::PlannerOptions PO;
  PO.MaxWorkers = O.Cores;
  PO.EnableNested = O.Nested;
  PO.UseProfiles = O.Profile;
  PO.EnableSpeculation = O.Speculate;
  if (!O.OverheadsFile.empty()) {
    std::string Err;
    if (!planner::loadMeasuredOverheads(O.OverheadsFile, PO.Overheads,
                                        Err)) {
      std::fprintf(stderr, "noelle-parallelize: %s\n", Err.c_str());
      return 2;
    }
  }
  planner::Planner Planner(N, PO);

  planner::ProgramPlan Plan;
  if (!O.PlanFile.empty()) {
    std::string Err;
    if (!tooldriver::loadPlan(O.PlanFile, *M, Plan, Err)) {
      std::fprintf(stderr, "noelle-parallelize: %s\n", Err.c_str());
      return 2;
    }
  } else {
    Plan = Planner.plan();
  }

  if (O.EmitPlan || O.PlanOnly)
    std::fputs(Plan.serialize().c_str(), stdout);
  if (O.SavePlan)
    Plan.embed(*M);

  if (O.Check) {
    verify::CheckReport PlanRep = verify::checkPlan(*M, Plan);
    if (!PlanRep.clean()) {
      std::printf("%s", PlanRep.str().c_str());
      return 1;
    }
  }
  if (O.PlanOnly) {
    if (O.Print)
      M->print(std::cout);
    if (!tooldriver::writeMetricsIfRequested("noelle-parallelize",
                                             O.MetricsPath))
      return 2;
    return 0;
  }

  std::vector<Decision> Decisions = Planner.apply(Plan);
  printDecisions(Decisions);
  bool AnyEntryFailed = false;
  for (const Decision &D : Decisions)
    AnyEntryFailed |= !D.Parallelized;

  if (O.Check) {
    verify::CheckOptions CO;
    CO.Speculative = WantSpec;
    verify::CheckReport Rep = verify::checkModule(*M, Snap, CO);
    if (!Rep.clean()) {
      std::printf("%s", Rep.str().c_str());
      return 1;
    }
  }

  if (O.Print)
    M->print(std::cout);
  if (O.Run) {
    nir::ExecutionEngine E(*M);
    registerParallelRuntime(E);
    const int64_t R = E.runMain();
    std::fputs(E.getOutput().c_str(), stdout);
    std::printf("main() = %lld\n", (long long)R);

    // Close the loop: annotate the plan with the speedups the run
    // actually delivered (PlanEntry::MeasuredMilli), and refresh the
    // embedded copy so a saved plan records both numbers.
    planner::FeedbackResult FB = planner::applyMeasuredSpeedups(
        Plan, *M, E.getDispatchRecords());
    if (FB.EntriesMeasured > 0) {
      std::printf("noelle-parallelize: measured %u plan entr%s"
                  " (%u below 0.8x of estimate)\n",
                  FB.EntriesMeasured,
                  FB.EntriesMeasured == 1 ? "y" : "ies", FB.Shortfalls);
      if (O.SavePlan)
        Plan.embed(*M);
    }
  }
  if (!tooldriver::writeMetricsIfRequested("noelle-parallelize",
                                           O.MetricsPath))
    return 2;
  return AnyEntryFailed ? 1 : 0;
}
