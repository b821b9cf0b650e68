#include "tools/Pipeline.h"

#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "noelle/MemDepProfiler.h"
#include "opt/Passes.h"
#include "planner/Planner.h"
#include "runtime/ParallelRuntime.h"
#include "telemetry/Telemetry.h"
#include "verify/PlanCheck.h"

#include <fstream>
#include <sstream>

using namespace noelle;
using namespace noelle::tools;

const char *tools::layerName(Layer L) {
  static const char *const Names[] = {
      "frontend", "opt", "noelle.memdep_profile", "verify.snapshot",
      "noelle.block_profile", "planner.plan", "verify.plan_check",
      "xforms.apply", "verify.module_check", "interp.engine_setup",
      "interp.exec"};
  return Names[static_cast<size_t>(L)];
}

double PipelineResult::ms(Layer L) const {
  for (const LayerTime &T : Layers)
    if (T.L == L)
      return T.Ms;
  return 0;
}

namespace {

bool readFile(const std::string &Path, std::string &Text) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::stringstream SS;
  SS << In.rdbuf();
  Text = SS.str();
  return true;
}

/// Loads the plan to operate on: an explicit plan file when given,
/// otherwise the plan embedded in \p M's metadata. Hash binding is not
/// checked here; that is checkPlan's first audit.
bool loadPlan(const std::string &PlanFile, const nir::Module &M,
              planner::ProgramPlan &Out, std::string &Err) {
  if (PlanFile.empty())
    return planner::ProgramPlan::fromModule(M, Out, Err);
  std::string Text;
  if (!readFile(PlanFile, Text)) {
    Err = "cannot open '" + PlanFile + "'";
    return false;
  }
  return planner::ProgramPlan::deserialize(Text, Out, Err);
}

/// Times one layer of a pipeline run: two clock reads, plus a span in
/// trace mode.
class LayerTimer {
public:
  LayerTimer(PipelineResult &R, Layer L)
      : R(R), L(L), T0(telemetry::nowNs()) {}
  LayerTimer(const LayerTimer &) = delete;
  LayerTimer &operator=(const LayerTimer &) = delete;
  ~LayerTimer() {
    const uint64_t T1 = telemetry::nowNs();
    R.Layers.push_back({L, (T1 - T0) / 1e6});
    if (telemetry::traceEnabled())
      telemetry::traceSpan(layerName(L), T0, T1);
  }

private:
  PipelineResult &R;
  Layer L;
  uint64_t T0;
};

/// Runs \p Fn as layer \p L of \p R.
template <typename FnT>
decltype(auto) timed(PipelineResult &R, Layer L, FnT &&Fn) {
  LayerTimer T(R, L);
  return Fn();
}

void runSteps(const std::string &Input, const PipelineConfig &C,
              PipelineResult &R) {
  R.Ctx = std::make_unique<nir::Context>();
  R.M = timed(R, Layer::Frontend,
              [&] { return loadInputModule(*R.Ctx, Input, R.InputError); });
  if (!R.M)
    return;
  nir::Module &M = *R.M;
  if (C.Optimize)
    timed(R, Layer::Opt, [&] { opt::runPipeline(M); });

  // Speculation needs a memory-dependence profile of this code. Collect
  // and embed one before the snapshot unless the module carries a
  // current one: embedding is hash-neutral, and the IDs it is keyed by
  // are the ones captureForCheck assigns.
  const bool Speculate =
      C.Speculate || C.Technique == TechniqueKind::SpecDOALL;
  if (Speculate)
    timed(R, Layer::MemDepProfile, [&] {
      MemDepProfile Current;
      std::string Stale;
      if (!MemDepProfile::fromModule(M, Current, Stale))
        profileMemDeps(M).embed(M);
    });

  // Snapshot before anything mutates code: the audit's ground truth,
  // and the source of the deterministic IDs plans are keyed by.
  verify::PreTransformSnapshot Snap = timed(
      R, Layer::Snapshot, [&] { return verify::captureForCheck(M); });

  Noelle N(M);
  planner::PlannerOptions PO;
  PO.MaxWorkers = C.Cores;
  PO.UseProfiles = C.Profile;
  PO.EnableNested = C.Nested;
  PO.EnableSpeculation = C.Speculate;
  PO.Overheads = C.Overheads;
  planner::Planner Planner(N, PO);

  if (!C.Technique) {
    if (!C.PlanFile.empty()) {
      if (!timed(R, Layer::Plan, [&] {
            return loadPlan(C.PlanFile, M, R.Plan, R.PlanFileError);
          }))
        return;
    } else {
      // Collecting a block profile runs @main; modules without one plan
      // from static defaults.
      nir::Function *Main = M.getFunction("main");
      if (C.Profile && Main && !Main->isDeclaration())
        timed(R, Layer::BlockProfile, [&] { N.getProfiles(true); });
      R.Plan = timed(R, Layer::Plan, [&] { return Planner.plan(); });
    }
    if (C.SavePlan)
      R.Plan.embed(M);
    if (C.Check) {
      R.PlanReport = timed(R, Layer::PlanCheck,
                           [&] { return verify::checkPlan(M, R.Plan); });
      if (!R.PlanReport.clean())
        return;
    }
  }
  if (!C.Apply)
    return;

  R.Decisions = timed(R, Layer::Apply, [&] {
    return C.Technique
               ? planner::makeTechnique(*C.Technique, N, C.Cores)->run()
               : Planner.apply(R.Plan);
  });
  if (C.Check) {
    verify::CheckOptions CO;
    CO.RunLegality = C.Legality;
    CO.RunRaces = C.Races;
    CO.Speculative = Speculate;
    CO.Races = C.RaceRules;
    R.ModuleReport = timed(R, Layer::ModuleCheck, [&] {
      return verify::checkModule(M, Snap, CO);
    });
    if (!R.ModuleReport.clean())
      return;
  }
  if (!C.Run)
    return;

  auto E = timed(R, Layer::EngineSetup, [&] {
    auto E = std::make_unique<nir::ExecutionEngine>(M);
    registerParallelRuntime(*E);
    return E;
  });
  R.Main = timed(R, Layer::Exec, [&] { return E->runMain(); });
  R.Ran = true;
  R.Output = E->getOutput();

  // Close the loop: annotate the plan with the speedups the run
  // delivered (PlanEntry::MeasuredMilli), and refresh the embedded copy
  // so a saved plan records both numbers.
  if (!C.Technique) {
    R.Feedback =
        planner::applyMeasuredSpeedups(R.Plan, M, E->getDispatchRecords());
    if (C.SavePlan && R.Feedback.EntriesMeasured > 0)
      R.Plan.embed(M);
  }
}

} // namespace

PipelineResult tools::runPipeline(const std::string &Input,
                                  const PipelineConfig &Config) {
  PipelineResult R;
  const uint64_t Start = telemetry::nowNs();
  runSteps(Input, Config, R);
  R.WallMs = (telemetry::nowNs() - Start) / 1e6;
  return R;
}

std::unique_ptr<nir::Module> tools::loadInputModule(nir::Context &Ctx,
                                                    const std::string &Input,
                                                    std::string &Err) {
  std::string Source;
  if (const bench::Benchmark *B = bench::findBenchmark(Input)) {
    Source = B->Source;
  } else if (!readFile(Input, Source)) {
    Err = "cannot open '" + Input + "'";
    return nullptr;
  }
  std::string Error;
  const bool IsIR = Input.size() > 4 && Input.rfind(".nir") == Input.size() - 4;
  auto M = IsIR ? nir::parseModule(Ctx, Source, Error)
                : minic::compileMiniC(Ctx, Source, Error);
  if (!M)
    Err = Input + ": " + Error;
  return M;
}
