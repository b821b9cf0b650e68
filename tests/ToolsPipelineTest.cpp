//===----------------------------------------------------------------------===//
///
/// \file
/// Integration tests of the noelle-* tool layer: the Figure-1 pipeline
/// (whole-IR -> profile -> embed -> rm-lc-deps -> pdg-embed -> load ->
/// transform -> bin) end to end.
///
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "runtime/ParallelRuntime.h"
#include "tools/NoelleTools.h"
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
  const uint64_t Hash = M->getContentHash();
  tools::metaProfEmbed(*M, P);
  // Embedding is metadata, so it leaves the content hash it binds to
  // unchanged.
  EXPECT_EQ(M->getContentHash(), Hash);

  // Print + reparse: the profile must survive, still bound to the code.
  auto M2 = nir::parseModuleOrDie(Ctx, M->str());
  EXPECT_EQ(M2->getContentHash(), Hash);
  EXPECT_TRUE(ProfileData::isEmbedded(*M2));
  EXPECT_TRUE(ProfileData::isCurrent(*M2));
  auto P2 = ProfileData::fromMetadata(*M2);
  EXPECT_EQ(P2.getTotalInstructions(), P.getTotalInstructions());
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

  tools::metaPDGEmbed(*M);
  ASSERT_TRUE(tools::hasPDGMetadata(*M));

  // Fresh PDG vs reconstructed-from-metadata PDG: same edge count.
  PDGBuilder Fresh(*M);
  uint64_t FreshEdges = Fresh.getPDG().getNumEdges();
  auto Rebuilt = tools::pdgFromMetadata(*M);
  EXPECT_EQ(Rebuilt->getNumEdges(), FreshEdges);

  // And it survives serialization.
  auto M2 = nir::parseModuleOrDie(Ctx, M->str());
  ASSERT_TRUE(tools::hasPDGMetadata(*M2));
  auto Rebuilt2 = tools::pdgFromMetadata(*M2);
  EXPECT_EQ(Rebuilt2->getNumEdges(), FreshEdges);
}

TEST(ToolsTest, MetaCleanStripsEverything) {
  Context Ctx;
  std::string Error;
  auto M = tools::wholeIR(Ctx, {"int main() { return 7; }"}, Error);
  ASSERT_NE(M, nullptr) << Error;
  auto P = tools::profCoverage(*M);
  tools::metaProfEmbed(*M, P);
  tools::metaPDGEmbed(*M);
  tools::metaClean(*M);
  EXPECT_FALSE(tools::hasPDGMetadata(*M));
  EXPECT_FALSE(ProfileData::isEmbedded(*M));
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
  tools::metaPDGEmbed(*M);

  auto Arch = tools::archDescribe(false);
  auto N = tools::load(*M);
  HELIXOptions HO;
  HO.NumCores = std::min(4u, Arch.getNumLogicalCores() * 4);
  HELIX Tool(*N, HO);
  unsigned Done = 0;
  for (const auto &D : Tool.run())
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

} // namespace
