//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's Table 4: which NOELLE abstraction each custom
/// tool uses. Unlike the paper's hand-maintained table, this one is
/// *measured*: the demand-driven Noelle manager records every
/// abstraction request, so we run each tool on a representative program
/// and print what it actually asked for.
///
/// A second table checks §2.2's demand-driven claim, that users pay only
/// for the abstractions they request: five single requests to a fresh
/// manager, each with what it recorded and how many functions'
/// dependence lists it built (telemetry counter PDGFunctionsBuilt). The
/// loop requests build only the one function that holds loops, once.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "planner/Planner.h"
#include "telemetry/Telemetry.h"
#include "xforms/CARAT.h"
#include "xforms/COOS.h"
#include "xforms/DeadFunctionEliminator.h"
#include "xforms/LICM.h"
#include "xforms/Perspective.h"
#include "xforms/PRVJeeves.h"
#include "xforms/TimeSqueezer.h"

#include <cstdio>
#include <functional>

using namespace noelle;

namespace {

const char *RepresentativeSrc = R"(
  int prvg_next(int seed) {
    int s = (seed * 1103515245 + 12345) % 2147483647;
    if (s < 0) s = -s;
    return s;
  }
  int prvg_lcg_next(int seed) {
    int s = (seed * 69069 + 1) % 2147483647;
    if (s < 0) s = -s;
    return s;
  }
  int data[256];
  int out[256];
  int unusedhelper(int x) { return x * 3; }
  int main() {
    int seed = 11;
    for (int i = 0; i < 256; i = i + 1) {
      seed = prvg_next(seed);
      data[i] = seed % 100;
    }
    int s = 0;
    for (int i = 0; i < 256; i = i + 1) {
      out[i] = data[i] * 2 + 1;
      s = s + out[i];
    }
    return s % 100003;
  }
)";

struct Requests {
  std::set<std::string> Names;
  uint64_t FunctionPDGsBuilt = 0;
};

Requests requestsOf(const std::function<void(Noelle &)> &RunTool) {
  nir::Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, RepresentativeSrc);
  Noelle N(*M);
  telemetry::resetMetrics();
  RunTool(N);
  return {N.getRequestedAbstractions().names(),
          telemetry::snapshotMetrics().counter(
              telemetry::Counter::PDGFunctionsBuilt)};
}

} // namespace

int main() {
  telemetry::setMode(telemetry::Mode::Metrics);
  std::vector<std::pair<std::string, Requests>> Usage;

  Usage.push_back({"HELIX", requestsOf([](Noelle &N) {
                     planner::makeTechnique(TechniqueKind::HELIX, N, 4)
                         ->run();
                   })});
  Usage.push_back({"DSWP", requestsOf([](Noelle &N) {
                     planner::makeTechnique(TechniqueKind::DSWP, N, 4)
                         ->run();
                   })});
  Usage.push_back({"CARAT", requestsOf([](Noelle &N) {
                     CARAT T(N);
                     T.run();
                   })});
  Usage.push_back({"COOS", requestsOf([](Noelle &N) {
                     COOS T(N);
                     T.run();
                   })});
  Usage.push_back({"PRVJ", requestsOf([](Noelle &N) {
                     PRVJeeves T(N);
                     T.run();
                   })});
  Usage.push_back({"DOALL", requestsOf([](Noelle &N) {
                     planner::makeTechnique(TechniqueKind::DOALL, N, 4)
                         ->run();
                   })});
  Usage.push_back({"LICM", requestsOf([](Noelle &N) {
                     LICM T(N);
                     T.run();
                   })});
  Usage.push_back({"TIME", requestsOf([](Noelle &N) {
                     TimeSqueezer T(N);
                     T.run();
                   })});
  Usage.push_back({"DEAD", requestsOf([](Noelle &N) {
                     DeadFunctionEliminator T(N);
                     T.run();
                   })});
  Usage.push_back({"PERS", requestsOf([](Noelle &N) {
                     Perspective T(N);
                     T.planAll();
                   })});

  const std::vector<std::string> Columns = {
      "PDG", "aSCCDAG", "CG",  "ENV", "T",  "DFE", "PRO", "SCD", "L",
      "LB",  "IV",      "IVS", "INV", "FR", "ISL", "RD",  "AR",  "LS"};

  std::printf("Table 4: abstractions each custom tool requested "
              "(measured by the demand-driven Noelle manager)\n\n");
  std::printf("%-7s", "Tool");
  for (const auto &C : Columns)
    std::printf(" %-8s", C.c_str());
  std::printf("\n");
  for (const auto &[Tool, Requested] : Usage) {
    std::printf("%-7s", Tool.c_str());
    for (const auto &C : Columns)
      std::printf(" %-8s", Requested.Names.count(C) ? "x" : "");
    std::printf("\n");
  }

  // The paper's observation: every abstraction serves several tools.
  std::printf("\nabstractions used by >1 tool: ");
  unsigned Shared = 0;
  for (const auto &C : Columns) {
    unsigned Users = 0;
    for (const auto &[Tool, Requested] : Usage)
      Users += Requested.Names.count(C);
    if (Users > 1) {
      std::printf("%s ", C.c_str());
      ++Shared;
    }
  }
  std::printf("(%u of %zu)\n", Shared, Columns.size());

  // §2.2: a request builds what it needs and nothing more.
  const std::vector<std::pair<std::string, Requests>> Single = {
      {"loop structure", requestsOf([](Noelle &N) {
         for (const auto &F : N.getModule().getFunctions())
           if (!F->isDeclaration())
             N.getLoopInfo(*F);
       })},
      {"call graph", requestsOf([](Noelle &N) { N.getCallGraph(); })},
      {"full PDG", requestsOf([](Noelle &N) { N.getPDG(); })},
      {"all loop contents",
       requestsOf([](Noelle &N) { N.getLoopContents(); })},
      {"one loop's SCCDAG", requestsOf([](Noelle &N) {
         N.getLoopContents().front()->getSCCDAG();
       })}};
  std::printf("\nDemand-driven requests: what one request to a fresh "
              "manager recorded, and how many functions of the "
              "whole-program PDG it built\n\n");
  std::printf("%-18s %7s  %s\n", "Request", "PDG fns", "Abstractions");
  for (const auto &[Request, R] : Single) {
    std::printf("%-18s %7llu ", Request.c_str(),
                static_cast<unsigned long long>(R.FunctionPDGsBuilt));
    for (const auto &A : R.Names)
      std::printf(" %s", A.c_str());
    std::printf("\n");
  }
  return 0;
}
