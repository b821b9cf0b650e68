//===----------------------------------------------------------------------===//
///
/// \file
/// noelle-check: PDG-grounded parallelization-legality verifier and static
/// race detector (command-line driver).
///
/// Usage:
///   noelle-check [options] <kernel-name | minic-file | nir-file>
///
/// The input is loaded (a benchmark-suite kernel by name, a MiniC source
/// file, or parsed NIR text for files ending in .nir), a pre-transform
/// snapshot is captured (IR text plus the embedded PDG cache), the
/// requested parallelizing transforms run, and the transformed module
/// is checked:
///   - structural + dominance SSA verification (nir::verifyModule);
///   - legality: every loop-carried dependence of the original loop must
///     be discharged by a legal mechanism of the transform that claimed
///     it (IV rebase, recognized reduction, sequential-segment coverage,
///     queue transport, stage co-location);
///   - static race detection over the generated task functions.
///
/// Options:
///   --transform=doall|helix|dswp|spec|all
///                                      which transform(s) to audit (all;
///                                      "spec" profiles the module first
///                                      and runs speculative DOALL)
///   --speculative                      audit the speculation machinery:
///                                      journal coverage, recovery path,
///                                      premise evidence. Defaults the
///                                      transform list to "spec"; in
///                                      --plan mode, profiles the module
///                                      and enumerates speculative plan
///                                      entries
///   --cores=N                          worker count (4)
///   --opt                              run the optimizer pipeline before
///                                      the transforms (noelle-opt order)
///   --lint                             also run the dataflow lint pack
///   --no-races                         skip the race detector
///   --race-rules=<list>                comma list of race discharge rules
///                                      to enable: queue-hb,
///                                      multi-queue-join, loop-phase,
///                                      segment-order, cross-segment;
///                                      or "all" (default), "none"
///   --stats                            print per-rule discharge counts,
///                                      Andersen-fallback counts, and
///                                      detector wall time as one JSON
///                                      object (the metrics-snapshot
///                                      shape)
///   --metrics=<path>                   enable the telemetry registry
///                                      and write its JSON snapshot to
///                                      <path> on exit
///   --no-legality                      skip the legality checker
///   --plan                             audit a parallelization plan
///                                      instead of transform results:
///                                      verify the planner's plan (or
///                                      --plan-file's) against the module
///   --plan-file=<path>                 serialized plan to audit
///                                      (implies --plan)
///   --list                             list benchmark kernels and exit
///
/// Exit status: 0 when every requested check is clean, 1 when any
/// diagnostic was produced, 2 on usage/compile errors.
///
//===----------------------------------------------------------------------===//

#include "ToolDriver.h"

#include "noelle/MemDepProfiler.h"
#include "noelle/Noelle.h"
#include "opt/Passes.h"
#include "planner/Planner.h"
#include "verify/NoelleCheck.h"
#include "verify/PlanCheck.h"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace noelle;

namespace {

struct CLIOptions {
  std::vector<std::string> Transforms;
  bool Speculative = false;
  unsigned Cores = 4;
  bool Optimize = false;
  bool Lint = false;
  bool Races = true;
  bool Legality = true;
  bool Stats = false;
  bool PlanMode = false;
  std::string PlanFile;
  std::string MetricsPath;
  std::string Input;
  verify::RaceDetectorOptions RaceOpts;
};

void printUsage() {
  std::fprintf(stderr,
               "usage: noelle-check [--transform=doall|helix|dswp|spec|all] "
               "[--speculative] [--cores=N] [--opt] [--lint] [--no-races] "
               "[--race-rules=LIST] [--stats] [--metrics=F] "
               "[--no-legality] [--plan] [--plan-file=F] "
               "[--list] <kernel|file.minic|file.nir>\n");
}

/// Parses the --race-rules value: "all", "none", or a comma list of rule
/// names to enable (every other rule disabled).
bool parseRaceRules(const std::string &List,
                    verify::RaceDetectorOptions &O) {
  if (List == "all") {
    O = verify::RaceDetectorOptions{};
    return true;
  }
  O = verify::RaceDetectorOptions{};
  O.UseQueueHB = O.UseMultiQueueJoin = O.UseLoopPhase = false;
  O.UseSegmentOrder = O.UseCrossSegment = false;
  if (List == "none")
    return true;
  size_t Pos = 0;
  while (Pos <= List.size()) {
    size_t Comma = List.find(',', Pos);
    std::string Tok = List.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    if (Tok == "queue-hb") {
      O.UseQueueHB = true;
    } else if (Tok == "multi-queue-join") {
      O.UseQueueHB = O.UseMultiQueueJoin = true;
    } else if (Tok == "loop-phase") {
      O.UseLoopPhase = true;
    } else if (Tok == "segment-order") {
      O.UseSegmentOrder = true;
    } else if (Tok == "cross-segment") {
      O.UseCrossSegment = true;
    } else {
      std::fprintf(stderr, "noelle-check: unknown race rule '%s'\n",
                   Tok.c_str());
      return false;
    }
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  return true;
}

bool parseArgs(int Argc, char **Argv, CLIOptions &Opts) {
  for (int K = 1; K < Argc; ++K) {
    std::string Arg = Argv[K];
    if (Arg == "--list") {
      tooldriver::listKernels();
      std::exit(0);
    }
    if (Arg.rfind("--transform=", 0) == 0) {
      std::string T = Arg.substr(12);
      if (T == "all") {
        Opts.Transforms = {"doall", "helix", "dswp"};
      } else if (T == "doall" || T == "helix" || T == "dswp" ||
                 T == "spec") {
        Opts.Transforms.push_back(T);
      } else {
        std::fprintf(stderr, "noelle-check: unknown transform '%s'\n",
                     T.c_str());
        return false;
      }
      continue;
    }
    if (Arg.rfind("--cores=", 0) == 0) {
      Opts.Cores = static_cast<unsigned>(std::atoi(Arg.c_str() + 8));
      if (Opts.Cores == 0) {
        std::fprintf(stderr, "noelle-check: --cores must be positive\n");
        return false;
      }
      continue;
    }
    if (Arg == "--speculative") {
      Opts.Speculative = true;
      continue;
    }
    if (Arg == "--plan") {
      Opts.PlanMode = true;
      continue;
    }
    if (tooldriver::parseStringOpt(Arg, "--plan-file=", Opts.PlanFile)) {
      Opts.PlanMode = true;
      continue;
    }
    if (Arg == "--opt") {
      Opts.Optimize = true;
      continue;
    }
    if (Arg == "--lint") {
      Opts.Lint = true;
      continue;
    }
    if (Arg == "--no-races") {
      Opts.Races = false;
      continue;
    }
    if (Arg.rfind("--race-rules=", 0) == 0) {
      if (!parseRaceRules(Arg.substr(13), Opts.RaceOpts))
        return false;
      continue;
    }
    if (Arg == "--stats") {
      Opts.Stats = true;
      continue;
    }
    if (tooldriver::parseMetricsOpt(Arg, Opts.MetricsPath))
      continue;
    if (Arg == "--no-legality") {
      Opts.Legality = false;
      continue;
    }
    if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "noelle-check: unknown option '%s'\n", Arg.c_str());
      return false;
    }
    if (!Opts.Input.empty()) {
      std::fprintf(stderr, "noelle-check: multiple inputs\n");
      return false;
    }
    Opts.Input = Arg;
  }
  if (Opts.Input.empty()) {
    printUsage();
    return false;
  }
  // --speculative with no explicit --transform audits the speculative
  // pipeline alone; with explicit transforms it just arms the audit.
  if (Opts.Transforms.empty())
    Opts.Transforms = Opts.Speculative
                          ? std::vector<std::string>{"spec"}
                          : std::vector<std::string>{"doall", "helix",
                                                     "dswp"};
  return true;
}

/// Plan-audit mode: computes (or loads) a plan for the module and
/// verifies it — hash binding, entry well-formedness, loop existence,
/// and per-entry technique legality — without transforming anything.
unsigned checkPlanMode(nir::Module &M, const CLIOptions &Opts) {
  if (Opts.Optimize)
    opt::runPipeline(M);

  // Speculative plan entries need the profile both to be enumerated and
  // to re-derive their premises during the audit. Embedding is hash-
  // neutral (the content hash is metadata-agnostic), so a --plan-file's
  // hash binding still holds.
  if (Opts.Speculative)
    profileMemDeps(M).embed(M);

  planner::ProgramPlan Plan;
  if (!Opts.PlanFile.empty()) {
    std::string Err;
    if (!tooldriver::loadPlan(Opts.PlanFile, M, Plan, Err)) {
      std::fprintf(stderr, "noelle-check: %s\n", Err.c_str());
      return 1;
    }
  } else {
    Noelle N(M);
    planner::PlannerOptions PO;
    PO.MaxWorkers = Opts.Cores;
    PO.EnableSpeculation = Opts.Speculative;
    Plan = planner::Planner(N, PO).plan();
  }

  verify::CheckReport Rep = verify::checkPlan(M, Plan);
  std::printf("== plan: %zu entr%s, %zu finding(s)\n", Plan.Entries.size(),
              Plan.Entries.size() == 1 ? "y" : "ies",
              Rep.diagnostics().size());
  if (!Rep.clean())
    std::printf("%s", Rep.str().c_str());
  return static_cast<unsigned>(Rep.diagnostics().size());
}

/// Transforms and checks one freshly loaded module. Returns the number
/// of diagnostics.
unsigned checkOne(nir::Module &M, const std::string &Transform,
                  const CLIOptions &Opts) {
  // With --opt the pipeline runs first, so the parallelizers (and the
  // legality snapshot) see the optimized loops — the production order.
  if (Opts.Optimize)
    opt::runPipeline(M);

  // Speculation needs its evidence base before the snapshot: profile the
  // original module and embed the result, so both the snapshot text and
  // the transformed module carry it.
  if (Transform == "spec")
    profileMemDeps(M).embed(M);

  verify::PreTransformSnapshot Snap = verify::captureForCheck(M);

  Noelle N(M);
  TechniqueKind K = TechniqueKind::SpecDOALL;
  if (Transform != "spec")
    techniqueFromName(Transform, K);
  unsigned Parallelized = 0;
  for (const auto &D : planner::makeTechnique(K, N, Opts.Cores)->run())
    Parallelized += D.Parallelized;

  verify::CheckOptions CO;
  CO.RunLegality = Opts.Legality;
  CO.RunRaces = Opts.Races;
  CO.Speculative = Opts.Speculative || Transform == "spec";
  CO.Races = Opts.RaceOpts;
  verify::RaceRuleStats Stats;
  if (Opts.Stats)
    CO.Races.Stats = &Stats;
  auto T0 = std::chrono::steady_clock::now();
  verify::CheckReport Rep = verify::checkModule(M, Snap, CO);
  auto T1 = std::chrono::steady_clock::now();
  if (Opts.Lint)
    verify::lintModule(M, Rep);

  std::printf("== %s: %u loop(s) parallelized, %zu finding(s)\n",
              Transform.c_str(), Parallelized, Rep.diagnostics().size());
  if (!Rep.clean())
    std::printf("%s", Rep.str().c_str());
  if (Opts.Stats) {
    // Machine-readable, mirroring the metrics-snapshot shape: detector
    // counters under "counters", per-rule discharges under "discharged".
    namespace telemetry = noelle::telemetry;
    double Ms = std::chrono::duration<double, std::milli>(T1 - T0).count();
    telemetry::JsonObject Counters;
    Counters.add("race.pairs_checked", Stats.PairsChecked)
        .add("race.andersen_fallback", Stats.AndersenFallback)
        .add("race.races_reported", Stats.RacesReported)
        .add("race.duplicates_suppressed", Stats.DuplicatesSuppressed);
    telemetry::JsonObject Discharged;
    for (const auto &[Rule, N] : Stats.Discharged)
      Discharged.add(Rule, N);
    telemetry::JsonObject Root;
    Root.add("tool", std::string("noelle-check"))
        .add("transform", Transform)
        .add("check_ms", Ms)
        .addRaw("counters", Counters.str())
        .addRaw("discharged", Discharged.str());
    std::printf("%s\n", Root.str().c_str());
  }
  return static_cast<unsigned>(Rep.diagnostics().size());
}

} // namespace

int main(int Argc, char **Argv) {
  CLIOptions Opts;
  if (!parseArgs(Argc, Argv, Opts))
    return 2;

  // Each audit starts from a fresh load: the transforms rewrite the
  // module.
  unsigned Findings = 0;
  size_t Audits = Opts.PlanMode ? 1 : Opts.Transforms.size();
  for (size_t I = 0; I < Audits; ++I) {
    nir::Context Ctx;
    auto M = tooldriver::loadInputModule("noelle-check", Ctx, Opts.Input);
    if (!M)
      return 2;
    Findings += Opts.PlanMode ? checkPlanMode(*M, Opts)
                              : checkOne(*M, Opts.Transforms[I], Opts);
  }

  if (Findings == 0)
    std::printf("noelle-check: clean\n");
  if (!tooldriver::writeMetricsIfRequested("noelle-check",
                                           Opts.MetricsPath))
    return 2;
  return Findings == 0 ? 0 : 1;
}
