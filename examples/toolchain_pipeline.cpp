//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's Figure 1, as a program: a custom compilation flow built
/// from NOELLE's tools. Two source files go through noelle-whole-IR,
/// profiling, profile embedding, loop-carried-dependence reduction,
/// PDG embedding, a full serialize/reparse round-trip (proving the
/// dependence cache survives on disk), noelle-load, the HELIX
/// transformation, and noelle-bin.
///
/// Build & run:  ./build/examples/example_toolchain_pipeline
///
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "planner/Planner.h"
#include "tools/NoelleTools.h"

#include <cstdio>

using namespace noelle;

int main() {
  // Two translation units, as Figure 1's "Source code 1..N".
  std::vector<std::string> Sources = {
      R"( extern int mix(int x, int i);
          int out[400];
          int main() {
            int state = 17;
            for (int i = 0; i < 400; i = i + 1) {
              state = mix(state, i);
              out[i] = state % 211 + i;
            }
            int t = 0;
            for (int i = 0; i < 400; i = i + 1) t = t + out[i];
            return t % 1000003;
          } )",
      R"( int mix(int x, int i) {
            return (x * 1103515245 + 12345 + i) % 1000000007;
          } )"};

  std::printf("[1] noelle-whole-IR: compiling and linking %zu sources\n",
              Sources.size());
  nir::Context Ctx;
  std::string Error;
  auto M = tools::wholeIR(Ctx, Sources, Error);
  if (!M) {
    std::printf("error: %s\n", Error.c_str());
    return 1;
  }
  int64_t Expected = tools::makeBinary(*M)->runMain();
  std::printf("    whole program: %llu instructions, reference result %lld\n",
              static_cast<unsigned long long>(M->getNumInstructions()),
              static_cast<long long>(Expected));

  std::printf("[2] noelle-prof-coverage + noelle-meta-prof-embed\n");
  auto Profile = tools::profCoverage(*M);
  tools::metaProfEmbed(*M, Profile);
  std::printf("    %llu dynamic instructions profiled\n",
              static_cast<unsigned long long>(
                  Profile.getTotalInstructions()));

  std::printf("[3] noelle-rm-lc-dependences\n");
  unsigned Moved = tools::rmLCDependences(*M);
  std::printf("    %u instruction(s) moved out of loops\n", Moved);

  std::printf("[4] noelle-meta-clean + re-profile + re-embed\n");
  tools::metaClean(*M);
  auto Profile2 = tools::profCoverage(*M);
  tools::metaProfEmbed(*M, Profile2);

  std::printf("[5] noelle-meta-pdg-embed: whole-program PDG -> module cache\n");
  uint64_t Edges = tools::pdgEmbed(*M);
  std::printf("    embedded %llu dependence edges\n",
              static_cast<unsigned long long>(Edges));

  std::printf("[6] serialize -> reparse: the IR file between tool runs\n");
  std::string Text = M->str();
  auto Reloaded = nir::parseModule(Ctx, Text, Error);
  if (!Reloaded) {
    std::printf("error: %s\n", Error.c_str());
    return 1;
  }
  M = std::move(Reloaded);
  PDGBuilder CacheCheck(*M);
  uint64_t LoadedEdges = CacheCheck.getPDG().getEdges().size();
  std::printf("    %zu bytes of IR; PDG %s, %llu edges\n", Text.size(),
              CacheCheck.wasPDGLoadedFromEmbedded()
                  ? "loaded from the embedded cache"
                  : "REBUILT (cache miss!)",
              static_cast<unsigned long long>(LoadedEdges));
  if (!CacheCheck.wasPDGLoadedFromEmbedded() || LoadedEdges != Edges)
    return 1;

  std::printf("[7] noelle-arch\n");
  auto Arch = tools::archDescribe(false);
  std::printf("    %u logical cores / %u physical cores\n",
              Arch.getNumLogicalCores(), Arch.getNumPhysicalCores());

  std::printf("[8] noelle-load + HELIX transformation\n");
  auto N = tools::load(*M);
  // The planner's factory: no profitability gate, so the demo always
  // transforms.
  for (const auto &D :
       planner::makeTechnique(TechniqueKind::HELIX, *N, 4)->run())
    std::printf("    @%s loop %u: %s%s%s\n", D.FunctionName.c_str(),
                D.LoopID,
                D.Parallelized ? "parallelized" : "skipped",
                D.Parallelized ? "" : " — ", D.Reason.c_str());

  std::printf("[9] noelle-linker + noelle-bin: running the parallel "
              "binary\n");
  auto Engine = tools::makeBinary(*M);
  int64_t Result = Engine->runMain();
  std::printf("    result %lld (%s)\n", static_cast<long long>(Result),
              Result == Expected ? "matches the sequential build"
                                 : "WRONG");
  return Result == Expected ? 0 : 1;
}
