//===----------------------------------------------------------------------===//
///
/// \file
/// noelle-check: PDG-grounded parallelization-legality verifier and static
/// race detector (command-line driver).
///
/// Usage:
///   noelle-check [options] <kernel-name | minic-file | nir-file>
///
/// For each requested transform, tools::runPipeline loads the input (a
/// benchmark-suite kernel by name, a MiniC source file, or parsed NIR
/// text for files ending in .nir), captures a pre-transform snapshot
/// (IR text plus the embedded PDG cache), sweeps the transform over
/// every eligible loop (`noelle-parallelize --technique=` runs the same
/// sweep), and checks the transformed module:
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
///                                      unless it carries a current
///                                      profile, and runs speculative
///                                      DOALL)
///   --speculative                      audit the speculation machinery:
///                                      journal coverage, recovery path,
///                                      premise evidence. Defaults the
///                                      transform list to "spec"; in
///                                      --plan mode, profiles the module
///                                      and enumerates speculative plan
///                                      entries
///   --cores=N                          worker count, 1 to 1024 (4)
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
///                                      the module audit's wall time
///                                      (check_ms) as one JSON
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

#include "tools/Pipeline.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace noelle;

namespace {

struct CLIOptions {
  std::vector<std::string> Transforms;
  /// --plan and --plan-file= clear Pipeline.Apply: audit the plan only.
  tools::PipelineConfig Pipeline;
  bool Lint = false;
  bool Stats = false;
  std::string MetricsPath;
  std::string Input;
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
  tools::PipelineConfig &P = Opts.Pipeline;
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
    if (tooldriver::parseStringOpt(Arg, "--plan-file=", P.PlanFile)) {
      P.Apply = false;
      continue;
    }
    if (Arg.rfind("--race-rules=", 0) == 0) {
      if (!parseRaceRules(Arg.substr(13), P.RaceRules))
        return false;
      continue;
    }
    if (tooldriver::parseCoresOpt("noelle-check", Arg, P.Cores) ||
        tooldriver::parseMetricsOpt(Arg, Opts.MetricsPath) ||
        tooldriver::parseSwitch(Arg, {{"--speculative", &P.Speculate, true},
                                      {"--plan", &P.Apply, false},
                                      {"--opt", &P.Optimize, true},
                                      {"--lint", &Opts.Lint, true},
                                      {"--no-races", &P.Races, false},
                                      {"--stats", &Opts.Stats, true},
                                      {"--no-legality", &P.Legality, false}}))
      continue;
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
    Opts.Transforms = P.Speculate ? std::vector<std::string>{"spec"}
                                  : std::vector<std::string>{"doall", "helix",
                                                             "dswp"};
  return true;
}

/// Plan-audit mode: the plan the planner computes (or --plan-file's) is
/// verified against the module — hash binding, entry well-formedness,
/// loop existence, and per-entry technique legality — without
/// transforming anything.
unsigned printPlanAudit(const tools::PipelineResult &R) {
  const verify::CheckReport &Rep = R.PlanReport;
  std::printf("== plan: %zu entr%s, %zu finding(s)\n", R.Plan.Entries.size(),
              R.Plan.Entries.size() == 1 ? "y" : "ies",
              Rep.diagnostics().size());
  if (!Rep.clean())
    std::printf("%s", Rep.str().c_str());
  return static_cast<unsigned>(Rep.diagnostics().size());
}

/// Prints the module audit of one transform's sweep. Returns the number
/// of diagnostics.
unsigned printModuleAudit(const CLIOptions &Opts, const std::string &Transform,
                          const tools::PipelineResult &R,
                          const verify::RaceRuleStats &Stats) {
  unsigned Parallelized = 0;
  for (const Decision &D : R.Decisions)
    Parallelized += D.Parallelized;
  verify::CheckReport Rep = R.ModuleReport;
  if (Opts.Lint)
    verify::lintModule(*R.M, Rep);

  std::printf("== %s: %u loop(s) parallelized, %zu finding(s)\n",
              Transform.c_str(), Parallelized, Rep.diagnostics().size());
  if (!Rep.clean())
    std::printf("%s", Rep.str().c_str());
  if (Opts.Stats) {
    // Machine-readable, mirroring the metrics-snapshot shape: detector
    // counters under "counters", per-rule discharges under "discharged".
    namespace telemetry = noelle::telemetry;
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
        .add("check_ms", R.ms(tools::Layer::ModuleCheck))
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

  // Each audit is its own pipeline run from a fresh load: the transforms
  // rewrite the module.
  const bool PlanMode = !Opts.Pipeline.Apply;
  unsigned Findings = 0;
  for (size_t I = 0; I < (PlanMode ? 1 : Opts.Transforms.size()); ++I) {
    tools::PipelineConfig C = Opts.Pipeline;
    verify::RaceRuleStats Stats;
    if (Opts.Stats)
      C.RaceRules.Stats = &Stats;
    if (!PlanMode) {
      TechniqueKind K = TechniqueKind::SpecDOALL;
      if (Opts.Transforms[I] != "spec")
        techniqueFromName(Opts.Transforms[I], K);
      C.Technique = K;
    }
    const tools::PipelineResult R = tools::runPipeline(Opts.Input, C);
    if (!R.InputError.empty()) {
      std::fprintf(stderr, "noelle-check: %s\n", R.InputError.c_str());
      return 2;
    }
    if (!R.PlanFileError.empty()) {
      std::fprintf(stderr, "noelle-check: %s\n", R.PlanFileError.c_str());
      ++Findings;
      continue;
    }
    Findings += PlanMode ? printPlanAudit(R)
                         : printModuleAudit(Opts, Opts.Transforms[I], R, Stats);
  }

  if (Findings == 0)
    std::printf("noelle-check: clean\n");
  if (!tooldriver::writeMetricsIfRequested("noelle-check",
                                           Opts.MetricsPath))
    return 2;
  return Findings == 0 ? 0 : 1;
}
