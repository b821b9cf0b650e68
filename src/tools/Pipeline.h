//===----------------------------------------------------------------------===//
///
/// \file
/// The one pipeline driver behind noelle-parallelize and noelle-check.
/// It owns the order of a tool invocation: load the input, optimize,
/// profile, snapshot, plan (or load a plan, or sweep one technique),
/// audit the plan, apply it, audit the module, execute, and feed the
/// run's measured speedups back into the plan. The tools parse flags,
/// call runPipeline and print the result.
///
/// Every layer is timed with two clock reads. In telemetry trace mode
/// each layer also records a span named as perfbench names the layer.
///
//===----------------------------------------------------------------------===//

#ifndef TOOLS_PIPELINE_H
#define TOOLS_PIPELINE_H

#include "planner/CostModel.h"
#include "planner/Feedback.h"
#include "planner/Plan.h"
#include "verify/NoelleCheck.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace noelle {
namespace tools {

/// The pipeline's layers, in the order they run.
enum class Layer : uint8_t {
  Frontend,
  Opt,
  MemDepProfile,
  Snapshot,
  BlockProfile,
  Plan,
  PlanCheck,
  Apply,
  ModuleCheck,
  EngineSetup,
  Exec,
};

/// The span name of \p L ("frontend", "verify.module_check", ...).
const char *layerName(Layer L);

/// What to run. Every field is set by a flag of noelle-parallelize or
/// noelle-check (named in each comment).
struct PipelineConfig {
  bool Optimize = false; ///< --opt
  /// --speculate, --speculative: embed a memory-dependence profile, let
  /// the planner enumerate speculative DOALL, audit the speculation.
  bool Speculate = false;
  unsigned Cores = 4; ///< --cores=
  /// --technique=, --transform=: sweep this technique over every
  /// eligible loop (planner conventions, gates off) instead of planning.
  std::optional<TechniqueKind> Technique;
  std::string PlanFile;             ///< --plan-file=
  planner::CostOverheads Overheads; ///< --overheads=
  bool Nested = true;               ///< --no-nested
  bool Profile = true;              ///< --no-profile
  bool SavePlan = false;            ///< --save-plan
  /// False (--plan-only, noelle-check --plan): stop after the plan audit.
  bool Apply = true;
  bool Check = true;                     ///< --no-check
  bool Legality = true;                  ///< --no-legality
  bool Races = true;                     ///< --no-races
  verify::RaceDetectorOptions RaceRules; ///< --race-rules=, --stats
  bool Run = false;                      ///< --run
};

struct LayerTime {
  Layer L = Layer::Frontend;
  double Ms = 0;
};

/// What the run produced. The pipeline stops at the first failed audit,
/// so a later field is empty when an earlier report is not clean.
struct PipelineResult {
  /// Non-empty when the input or the plan file could not be loaded.
  std::string InputError, PlanFileError;
  std::unique_ptr<nir::Context> Ctx;
  std::unique_ptr<nir::Module> M;
  planner::ProgramPlan Plan;
  std::vector<Decision> Decisions;
  verify::CheckReport PlanReport, ModuleReport;
  bool Ran = false;
  int64_t Main = 0; ///< main()'s return value, when Ran
  std::string Output;
  planner::FeedbackResult Feedback;
  /// The layers that ran, in order, and the driver's wall time.
  std::vector<LayerTime> Layers;
  double WallMs = 0;

  /// Milliseconds spent in \p L (0 when it did not run).
  double ms(Layer L) const;
};

/// Runs the pipeline on \p Input (a suite kernel's name, a MiniC file or
/// a .nir file) as \p Config says.
PipelineResult runPipeline(const std::string &Input,
                           const PipelineConfig &Config);

/// Materializes \p Input as a module: a benchmark kernel or MiniC file
/// compiles; a file ending in .nir parses as IR text. Returns null and
/// fills \p Err on failure.
std::unique_ptr<nir::Module> loadInputModule(nir::Context &Ctx,
                                             const std::string &Input,
                                             std::string &Err);

} // namespace tools
} // namespace noelle

#endif // TOOLS_PIPELINE_H
