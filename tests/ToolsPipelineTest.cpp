//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests of the noelle-* tool layer: the Figure-1 pipeline
/// (whole-IR -> profile -> embed -> rm-lc-deps -> meta-pdg-embed -> load
/// -> transform -> bin) end to end, and the pipeline driver behind
/// noelle-parallelize and noelle-check.
///
//===----------------------------------------------------------------------===//

#include "PDGEdgeKeys.h"

#include "ir/Parser.h"
#include "noelle/MemDepProfiler.h"
#include "planner/Planner.h"
#include "runtime/ParallelRuntime.h"
#include "telemetry/Telemetry.h"
#include "tools/NoelleTools.h"
#include "tools/Pipeline.h"
#include "xforms/HELIX.h"

#include <gtest/gtest.h>

using namespace noelle;
using nir::Context;

namespace {

TEST(ToolsTest, WholeIRLinksMultipleSources) {
  Context Ctx;
  std::string Error;
  std::vector<std::string> Sources = {
      R"( extern int helper(int x);
          int main() { return helper(20) + 2; } )",
      R"( int helper(int x) { return x * 2; } )"};
  auto M = tools::wholeIR(Ctx, Sources, Error);
  ASSERT_NE(M, nullptr) << Error;
  EXPECT_FALSE(M->getFunction("helper")->isDeclaration());
  EXPECT_EQ(M->getModuleMetadata("noelle.opt.level"), "O3");
  auto E = tools::makeBinary(*M);
  EXPECT_EQ(E->runMain(), 42);
}

TEST(ToolsTest, ProfileEmbedRoundTrip) {
  Context Ctx;
  std::string Error;
  auto M = tools::wholeIR(Ctx, {R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 100; i = i + 1) s = s + i;
      return s;
    }
  )"},
                          Error);
  ASSERT_NE(M, nullptr) << Error;
  auto P = tools::profCoverage(*M);
  EXPECT_GT(P.getTotalInstructions(), 0u);
  tools::metaProfEmbed(*M, P);

  // Print + reparse: the profile must survive.
  auto M2 = nir::parseModuleOrDie(Ctx, M->str());
  auto P2 = ProfileData::loadEmbedded(*M2);
  ASSERT_NE(P2, nullptr);
  EXPECT_EQ(P2->getTotalInstructions(), P.getTotalInstructions());
  Noelle N(*M2);
  ProfileData *Loaded = N.getProfiles(false);
  ASSERT_NE(Loaded, nullptr);
  EXPECT_EQ(Loaded->getTotalInstructions(), P.getTotalInstructions());
}

TEST(ToolsTest, PDGEmbedAndReconstruct) {
  Context Ctx;
  std::string Error;
  auto M = tools::wholeIR(Ctx, {R"(
    int buf[16];
    int main() {
      int s = 0;
      for (int i = 0; i < 16; i = i + 1) {
        buf[i] = i;
        s = s + buf[i];
      }
      return s;
    }
  )"},
                          Error);
  ASSERT_NE(M, nullptr) << Error;

  uint64_t Edges = tools::pdgEmbed(*M);
  ASSERT_GT(Edges, 0u);

  // The pdg record survives serialization, and the graph it loads is
  // the graph a cold build computes.
  auto M2 = nir::parseModuleOrDie(Ctx, M->str());
  auto Loaded = PDG::loadEmbedded(*M2);
  ASSERT_NE(Loaded, nullptr);
  EXPECT_EQ(Loaded->getNumEdges(), Edges);
  testutil::expectEqualsColdBuild(*M2, *Loaded);
}

TEST(ToolsTest, MetaCleanStripsEverything) {
  Context Ctx;
  std::string Error;
  auto M = tools::wholeIR(Ctx, {R"(
    int a[64];
    int main() {
      for (int i = 0; i < 64; i = i + 1) a[i] = i * 3;
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) s = s + a[i];
      return s;
    }
  )"},
                          Error);
  ASSERT_NE(M, nullptr) << Error;
  // All four artifact kinds: the block profile comes with the memdep
  // profile's run.
  profileMemDeps(*M).embed(*M);
  tools::pdgEmbed(*M);
  Noelle N(*M);
  planner::Planner(N).plan().embed(*M);

  tools::metaClean(*M);
  EXPECT_EQ(PDG::loadEmbedded(*M), nullptr);
  EXPECT_EQ(ProfileData::loadEmbedded(*M), nullptr);
  MemDepProfile MemDep;
  planner::ProgramPlan Plan;
  EXPECT_FALSE(MemDepProfile::fromModule(*M, MemDep, Error));
  EXPECT_FALSE(planner::ProgramPlan::fromModule(*M, Plan, Error));
  // Only the compilation options makeBinary reads stay.
  std::vector<std::string> Left;
  for (const auto &[K, V] : M->getAllModuleMetadata())
    Left.push_back(K);
  EXPECT_EQ(Left, (std::vector<std::string>{"noelle.link.runtime",
                                            "noelle.opt.level"}));
  // No noelle.* metadata may remain on any instruction.
  for (const auto &F : M->getFunctions())
    for (const auto &BB : F->getBlocks())
      for (const auto &I : BB->getInstList())
        for (const auto &[K, V] : I->getAllMetadata())
          EXPECT_NE(K.rfind("noelle.", 0), 0u) << K;
}

TEST(ToolsTest, Figure1PipelineEndToEnd) {
  // The HELIX compilation flow from Figure 1, condensed: whole-IR,
  // profile, embed, rm-lc-dependences, re-profile, pdg-embed, load,
  // HELIX, bin.
  Context Ctx;
  std::string Error;
  auto M = tools::wholeIR(Ctx, {R"(
    int out[200];
    int main() {
      int x = 7;
      for (int i = 0; i < 200; i = i + 1) {
        x = (x * 1103515245 + 12345) % 1000000007;
        out[i] = x % 91 + i;
      }
      int t = 0;
      for (int i = 0; i < 200; i = i + 1) t = t + out[i];
      return t % 1000033;
    }
  )"},
                          Error);
  ASSERT_NE(M, nullptr) << Error;

  int64_t Expected = tools::makeBinary(*M)->runMain();

  auto P = tools::profCoverage(*M);
  tools::metaProfEmbed(*M, P);
  tools::rmLCDependences(*M);
  tools::metaClean(*M);
  auto P2 = tools::profCoverage(*M);
  tools::metaProfEmbed(*M, P2);
  tools::pdgEmbed(*M);

  auto Arch = tools::archDescribe(false);
  auto N = tools::load(*M);
  auto Tool = createTechnique(TechniqueKind::HELIX, *N,
                              std::min(4u, Arch.getNumLogicalCores() * 4));
  unsigned Done = 0;
  for (const auto &D : Tool->run())
    Done += D.Parallelized;
  EXPECT_GE(Done, 1u);

  auto E = tools::makeBinary(*M);
  EXPECT_EQ(E->runMain(), Expected);
}

TEST(ToolsTest, RmLCDependencesReducesWork) {
  Context Ctx;
  std::string Error;
  const char *Src = R"(
    int out[100];
    int main() {
      int k = 13;
      int s = 0;
      for (int i = 0; i < 100; i = i + 1) {
        int heavy = k * k * k + 17;   // invariant
        out[i] = heavy + i;
        s = s + out[i];
      }
      return s;
    }
  )";
  auto M = tools::wholeIR(Ctx, {Src}, Error);
  ASSERT_NE(M, nullptr) << Error;
  int64_t Expected = tools::makeBinary(*M)->runMain();
  unsigned Moved = tools::rmLCDependences(*M);
  EXPECT_GT(Moved, 0u);
  EXPECT_EQ(tools::makeBinary(*M)->runMain(), Expected);
}

// The pipeline driver times every layer it runs. With telemetry off it
// records no trace event; in trace mode each of those layers is a span.
TEST(ToolsTest, RunPipelineTimesEveryLayerItRan) {
  const telemetry::Mode Saved = telemetry::mode();
  tools::PipelineConfig Full; // --opt --speculate --run: every layer
  Full.Optimize = true;
  Full.Speculate = true;
  Full.Run = true;
  tools::PipelineConfig Forced; // --technique=doall: no planner, no run
  Forced.Technique = TechniqueKind::DOALL;

  telemetry::setMode(telemetry::Mode::Off);
  telemetry::clearTrace();
  const tools::PipelineResult Off = tools::runPipeline("x264", Full);
  EXPECT_EQ(telemetry::traceEventCount(), 0u);
  ASSERT_TRUE(Off.Ran);
  EXPECT_EQ(Off.Main, 220603);
  ASSERT_EQ(Off.Layers.size(), 11u);
  double Sum = 0;
  for (size_t I = 0; I < Off.Layers.size(); ++I) {
    EXPECT_EQ(Off.Layers[I].L, static_cast<tools::Layer>(I));
    EXPECT_GT(Off.Layers[I].Ms, 0) << tools::layerName(Off.Layers[I].L);
    Sum += Off.Layers[I].Ms;
  }
  EXPECT_LE(Sum, Off.WallMs);

  const tools::PipelineResult Sweep = tools::runPipeline("crc", Forced);
  std::vector<tools::Layer> Ran;
  for (const tools::LayerTime &T : Sweep.Layers)
    Ran.push_back(T.L);
  EXPECT_EQ(Ran, (std::vector<tools::Layer>{
                     tools::Layer::Frontend, tools::Layer::Snapshot,
                     tools::Layer::Apply, tools::Layer::ModuleCheck}));

  telemetry::setMode(telemetry::Mode::Trace);
  if (telemetry::traceEnabled()) {
    for (const tools::PipelineConfig &C : {Full, Forced}) {
      telemetry::clearTrace();
      const tools::PipelineResult On = tools::runPipeline("x264", C);
      const std::string Trace = telemetry::traceJson();
      ASSERT_FALSE(On.Layers.empty());
      for (const tools::LayerTime &T : On.Layers)
        EXPECT_NE(Trace.find(std::string("\"name\": \"") +
                             tools::layerName(T.L) + "\""),
                  std::string::npos)
            << tools::layerName(T.L);
    }
  }
  telemetry::setMode(Saved);
  telemetry::clearTrace();
}

} // namespace
