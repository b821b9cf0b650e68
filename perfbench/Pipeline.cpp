#include "Pipeline.h"
#include "Oracle.h"

#include "../bench/BenchUtils.h"

#include "frontend/MiniC.h"
#include "ir/Parser.h"
#include "noelle/MemDepProfiler.h"
#include "noelle/Noelle.h"
#include "opt/Passes.h"
#include "planner/Planner.h"
#include "runtime/ParallelRuntime.h"
#include "telemetry/Telemetry.h"
#include "verify/NoelleCheck.h"
#include "verify/PlanCheck.h"

#include <algorithm>
#include <cstdio>
#include <set>
#include <stdexcept>

namespace perfbench {

const char *layerName(Layer L) {
  static const char *const Names[NumLayers] = {
      "frontend",       "opt",           "noelle.memdep_profile",
      "verify.snapshot", "noelle.block_profile", "planner.plan",
      "verify.plan_check", "xforms.apply", "verify.module_check",
      "interp.engine_setup", "interp.exec", "oracle.check"};
  return Names[static_cast<size_t>(L)];
}

//===----------------------------------------------------------------------===//
// Recorder
//===----------------------------------------------------------------------===//

void Recorder::beginOp(const std::string &Name) {
  CurOp = NextOp++;
  CurName = Name;
  LayerMs.fill(0);
  OpStart = nowNs();
}

double Recorder::endOp() {
  OpEnd = nowNs();
  if (Tracing)
    Spans.push_back({CurName, CurOp, 0, OpStart, OpEnd});
  return (OpEnd - OpStart) / 1e6;
}

double Recorder::selfMs() const {
  double Self = (OpEnd - OpStart) / 1e6;
  for (double Ms : LayerMs)
    Self -= Ms;
  return Self;
}

void Recorder::record(Layer L, uint64_t Start, uint64_t End) {
  LayerMs[static_cast<size_t>(L)] += (End - Start) / 1e6;
  if (Tracing)
    Spans.push_back({layerName(L), CurOp, CurOp, Start, End});
}

std::string Recorder::chromeTrace() const {
  uint64_t Base = UINT64_MAX;
  for (const Span &S : Spans)
    Base = std::min(Base, S.StartNs);
  std::string Out = "{\"traceEvents\":[";
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"op\":%llu,\"parent\":%llu}}",
                  (S.StartNs - Base) / 1e3, (S.EndNs - S.StartNs) / 1e3,
                  static_cast<unsigned long long>(S.Op),
                  static_cast<unsigned long long>(S.Parent));
    Out += std::string(I ? "," : "") + "{\"name\":\"" +
           noelle::telemetry::jsonEscape(S.Name) + "\"," + Buf;
  }
  return Out + "]}\n";
}

//===----------------------------------------------------------------------===//
// Stages 1-9
//===----------------------------------------------------------------------===//

bool planKernel(const Kernel &K, unsigned Workers, Recorder &R,
                PlannedKernel &Out, std::string &Err) {
  using namespace noelle;
  Out.Ctx = std::make_unique<nir::Context>();
  Out.M = R.time(Layer::Frontend, [&] {
    return minic::compileMiniC(*Out.Ctx, K.Source, Err);
  });
  if (!Out.M)
    return false;
  nir::Module &M = *Out.M;
  CompileCounts &C = Out.Counts;
  C.FrontendInsts = M.getNumInstructions();
  Out.Globals = globalNames(M);

  opt::PipelineStats PS = R.time(Layer::Opt, [&] { return opt::runPipeline(M); });
  C.OptInsts = M.getNumInstructions();
  C.GVNReplaced = PS.GVNReplaced;
  C.LoopsUnrolled = PS.LoopsUnrolled;
  C.VectorInsts = PS.VectorInstsEmitted;

  R.time(Layer::MemDepProfile, [&] { profileMemDeps(M).embed(M); });
  verify::PreTransformSnapshot Snap =
      R.time(Layer::Snapshot, [&] { return verify::captureForCheck(M); });
  C.PDGEdges = Snap.PDGEdges;

  Noelle N(M);
  R.time(Layer::BlockProfile, [&] { N.getProfiles(true); });
  planner::PlannerOptions PO;
  PO.MaxWorkers = Workers;
  PO.EnableSpeculation = true;
  planner::Planner Planner(N, PO);
  planner::ProgramPlan Plan = R.time(Layer::Plan, [&] { return Planner.plan(); });
  C.PlanEntries = Plan.Entries.size();
  std::set<std::string> Kinds;
  for (const planner::PlanEntry &E : Plan.Entries)
    Kinds.insert(techniqueName(E.Kind));
  for (const std::string &Kind : Kinds)
    C.Techniques += (C.Techniques.empty() ? "" : "+") + Kind;
  if (C.Techniques.empty())
    C.Techniques = "sequential";

  verify::CheckReport PlanRep =
      R.time(Layer::PlanCheck, [&] { return verify::checkPlan(M, Plan); });
  std::vector<Decision> Decisions =
      R.time(Layer::Apply, [&] { return Planner.apply(Plan); });
  verify::CheckOptions CO;
  CO.Speculative = true;
  verify::CheckReport ModRep = R.time(
      Layer::ModuleCheck, [&] { return verify::checkModule(M, Snap, CO); });

  C.Findings = PlanRep.diagnostics().size() + ModRep.diagnostics().size();
  for (const Decision &D : Decisions) {
    if (D.Parallelized)
      ++C.Parallelized;
    else if (Out.Failure.empty())
      Out.Failure = "plan entry for loop " + std::to_string(D.LoopID) +
                    " in @" + D.FunctionName + " failed: " + D.Reason;
  }
  if (!PlanRep.clean())
    Out.Failure = "plan audit: " + PlanRep.diagnostics().front().str();
  else if (!ModRep.clean())
    Out.Failure = "module audit: " + ModRep.diagnostics().front().str();
  Out.RefIR = std::move(Snap.IRText);
  return true;
}

ReferenceModule parseReference(const PlannedKernel &P) {
  ReferenceModule Ref;
  Ref.Ctx = std::make_unique<nir::Context>();
  std::string Err;
  Ref.M = nir::parseModule(*Ref.Ctx, P.RefIR, Err);
  if (!Ref.M)
    throw std::runtime_error("reference module does not parse: " + Err);
  return Ref;
}

//===----------------------------------------------------------------------===//
// ReusableEngine
//===----------------------------------------------------------------------===//

ReusableEngine::ReusableEngine(nir::Module &M, bool WithRuntime) : E(M) {
  if (WithRuntime)
    noelle::registerParallelRuntime(E);
  for (const auto &G : M.getGlobals()) {
    auto *Addr = reinterpret_cast<uint8_t *>(E.getGlobalAddress(G.get()));
    InitialGlobals.emplace_back(
        Addr, std::vector<uint8_t>(Addr, Addr + G->getStoreSize()));
  }
}

int64_t ReusableEngine::run(double &Ms) {
  for (auto &[Addr, Bytes] : InitialGlobals)
    std::copy(Bytes.begin(), Bytes.end(), Addr);
  E.clearOutput();
  E.clearDispatchRecords();
  RetiredBefore = E.getInstructionsExecuted();
  ++Runs;
  const uint64_t Start = nowNs();
  const int64_t Main = E.runMain();
  Ms = (nowNs() - Start) / 1e6;
  return Main;
}

RunCounts ReusableEngine::counts() const {
  RunCounts C;
  C.Retired = E.getInstructionsExecuted() - RetiredBefore;
  for (const nir::DispatchRecord &D : E.getDispatchRecords()) {
    ++C.Regions;
    C.Tasks += D.NumTasks;
    C.SyncOps += D.TotalTaskSyncOps;
  }
  // The model reads the engine's lifetime retired count, which equals
  // this run's only on the engine's first run.
  if (Runs == 1)
    C.ModeledTime = benchutil::simulatedTime(E);
  return C;
}

} // namespace perfbench
