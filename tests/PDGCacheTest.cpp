//===----------------------------------------------------------------------===//
///
/// \file
/// The PDG construction/caching contract: the parallel per-function
/// build produces exactly the serial edge sequence on every suite
/// kernel, function and loop graphs split out of the embedded form equal
/// those of a cold build, the embedded form survives the textual
/// print/parse round-trip, a mutated module or a weaker precision
/// rejects it, loop requests build each function once, and the Noelle
/// manager's invalidation drops whole-program state while keeping
/// untouched functions' analyses alive.
///
//===----------------------------------------------------------------------===//

#include "PDGEdgeKeys.h"

#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "ir/Constants.h"
#include "ir/IDs.h"
#include "ir/Parser.h"
#include "opt/Passes.h"
#include "telemetry/Telemetry.h"
#include "tools/NoelleTools.h"
#include "xforms/DOALL.h"

#include <gtest/gtest.h>

using namespace noelle;
using nir::Context;

namespace {

using testutil::EdgeKey;
using testutil::edgeKeysOf;
using testutil::keyOf;

PDGBuildOptions parallelOpts(unsigned Parallelism) {
  PDGBuildOptions O;
  O.ParallelBuild = true;
  O.Parallelism = Parallelism;
  O.UseEmbedded = false;
  return O;
}

class PDGParallelSuite : public ::testing::TestWithParam<const char *> {};

/// The tentpole guarantee: on every suite kernel the concurrent
/// per-function build merges into the exact serial edge sequence — same
/// edges, same attributes, same insertion order, same stats.
TEST_P(PDGParallelSuite, ParallelMatchesSerial) {
  const bench::Benchmark *B = bench::findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B->Source);
  nir::assignDeterministicIDs(*M);

  PDGBuilder Serial(*M, testutil::coldSerialOpts());
  PDGBuilder Parallel(*M, parallelOpts(4));
  PDG &GS = Serial.getPDG();
  PDG &GP = Parallel.getPDG();
  EXPECT_FALSE(Parallel.wasPDGLoadedFromEmbedded());

  EXPECT_EQ(GS.getNumNodes(), GP.getNumNodes());
  auto SE = GS.getEdges();
  auto PE = GP.getEdges();
  ASSERT_EQ(SE.size(), PE.size()) << B->Name;
  for (size_t I = 0; I < SE.size(); ++I)
    EXPECT_EQ(keyOf(SE[I]), keyOf(PE[I])) << B->Name << " edge " << I;

  EXPECT_EQ(GS.getStats().MemoryPairsQueried,
            GP.getStats().MemoryPairsQueried);
  EXPECT_EQ(GS.getStats().MemoryPairsDisproved,
            GP.getStats().MemoryPairsDisproved);
}

/// The edges of every function graph of \p M and, after each, of its
/// loops' graphs (preorder), as \p B assembles them.
std::vector<std::vector<EdgeKey>> viewKeysOf(nir::Module &M, PDGBuilder &B) {
  std::vector<std::vector<EdgeKey>> Out;
  for (const auto &F : M.getFunctions()) {
    if (F->isDeclaration())
      continue;
    Out.push_back(edgeKeysOf(*B.getFunctionDG(*F)));
    nir::DominatorTree DT(*F);
    nir::LoopInfo LI(*F, DT);
    for (nir::LoopStructure *L : LI.getLoopsInPreorder())
      Out.push_back(edgeKeysOf(*B.getLoopDG(*L)));
  }
  return Out;
}

/// Expects \p B's whole-program, function and loop graphs of \p M to
/// equal those of a build at the same precision that ignores the pdg
/// artifact.
void expectEqualsColdViews(nir::Module &M, PDGBuilder &B,
                           PDGBuildOptions Opts, const std::string &What) {
  Opts.UseEmbedded = false;
  PDGBuilder Cold(M, Opts);
  EXPECT_EQ(edgeKeysOf(B.getPDG()), edgeKeysOf(Cold.getPDG())) << What;
  auto Views = viewKeysOf(M, B);
  auto ColdViews = viewKeysOf(M, Cold);
  ASSERT_EQ(Views.size(), ColdViews.size()) << What;
  for (size_t I = 0; I < Views.size(); ++I)
    EXPECT_EQ(Views[I], ColdViews[I]) << What << ", graph " << I;
}

class PDGViewSuite : public ::testing::TestWithParam<const char *> {};

/// Function and loop graphs assembled from the lists split out of the
/// pdg artifact equal those of a cold build — same edges, order,
/// loop-carried flags and distances — before and after the optimizer.
TEST_P(PDGViewSuite, ArtifactViewsMatchColdBuild) {
  const bench::Benchmark *B = bench::findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  for (bool Optimize : {false, true}) {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, B->Source);
    if (Optimize)
      opt::runPipeline(*M);
    tools::pdgEmbed(*M);
    PDGBuilder Loaded(*M);
    expectEqualsColdViews(*M, Loaded, {},
                          B->Name + (Optimize ? " after opt" : ""));
    EXPECT_TRUE(Loaded.wasPDGLoadedFromEmbedded());
  }
}

std::vector<const char *> allBenchmarkNames() {
  std::vector<const char *> Names;
  for (const auto &B : bench::getBenchmarkSuite())
    Names.push_back(B.Name.c_str());
  return Names;
}

INSTANTIATE_TEST_SUITE_P(All, PDGParallelSuite,
                         ::testing::ValuesIn(allBenchmarkNames()),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });
INSTANTIATE_TEST_SUITE_P(All, PDGViewSuite,
                         ::testing::ValuesIn(allBenchmarkNames()),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

/// The pdg artifact holds what the default precision proves. A weaker
/// builder that adopted it would report edges its own analyses cannot
/// disprove as absent (on fft, 141 edges instead of 145).
TEST(PDGCacheTest, WeakerPrecisionIgnoresArtifact) {
  const bench::Benchmark *B = bench::findBenchmark("fft");
  ASSERT_NE(B, nullptr);
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B->Source);
  tools::pdgEmbed(*M);

  PDGBuildOptions Weak;
  Weak.AliasAnalysisName = "llvm";
  Weak.UseModRefSummaries = false;
  PDGBuilder Builder(*M, Weak);
  expectEqualsColdViews(*M, Builder, Weak, "fft at llvm precision");
  EXPECT_FALSE(Builder.wasPDGLoadedFromEmbedded());
}

/// A loop request builds its function's list once, however many loops
/// the function has, and builds nothing when the pdg artifact is
/// current.
TEST(PDGCacheTest, LoopRequestsBuildEachFunctionOnce) {
  const telemetry::Mode Saved = telemetry::mode();
  telemetry::setMode(telemetry::Mode::Metrics);
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, R"(
    int a[64];
    int main() {
      for (int i = 0; i < 64; i = i + 1) a[i] = i * 3;
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) s = s + a[i];
      return s;
    }
  )");
  // (functions built, artifact loads) of one getLoopContents.
  auto LoopRequest = [&] {
    telemetry::resetMetrics();
    Noelle N(*M);
    EXPECT_EQ(N.getLoopContents().size(), 2u);
    const auto Snap = telemetry::snapshotMetrics();
    return std::pair(Snap.counter(telemetry::Counter::PDGFunctionsBuilt),
                     Snap.counter(telemetry::Counter::PDGEmbeddedHit));
  };
  EXPECT_EQ(LoopRequest(), (std::pair<uint64_t, uint64_t>(1, 0)));
  tools::pdgEmbed(*M);
  EXPECT_EQ(LoopRequest(), (std::pair<uint64_t, uint64_t>(0, 1)));
  telemetry::setMode(Saved);
  telemetry::resetMetrics();
}

TEST(PDGCacheTest, EmbedPrintParseLoadRoundTrip) {
  const bench::Benchmark *B = bench::findBenchmark("blackscholes");
  ASSERT_NE(B, nullptr);
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B->Source);

  uint64_t Embedded = tools::pdgEmbed(*M);
  ASSERT_GT(Embedded, 0u);

  // Through the textual printer and back: metadata, IDs, and the pdg
  // record must all survive.
  std::string Text = M->str();
  std::string Error;
  auto M2 = nir::parseModule(Ctx, Text, Error);
  ASSERT_NE(M2, nullptr) << Error;

  PDGBuilder Cached(*M2);
  PDG &Loaded = Cached.getPDG();
  EXPECT_TRUE(Cached.wasPDGLoadedFromEmbedded());
  EXPECT_EQ(Loaded.getEdges().size(), Embedded);
  EXPECT_EQ(Loaded.getNumNodes(), M2->getNumInstructions());
  testutil::expectEqualsColdBuild(*M2, Loaded);
}

TEST(PDGCacheTest, StaleHashRejectsEmbeddedPDG) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, R"(
    int a[64];
    int main() {
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) { a[i] = i; s = s + a[i]; }
      return s;
    }
  )");
  tools::pdgEmbed(*M);

  // Metadata is annotation, not executable structure: annotation tools
  // (profile embedding, ID assignment) must compose with the cache, not
  // invalidate it.
  nir::Instruction *First = nullptr;
  for (const auto &F : M->getFunctions()) {
    if (F->isDeclaration())
      continue;
    First = F->getBlocks().front()->getInstList().front().get();
    break;
  }
  ASSERT_NE(First, nullptr);
  First->setMetadata("test.annotation", "1");
  EXPECT_NE(PDG::loadEmbedded(*M), nullptr);

  // A change to the executable structure — here a constant operand —
  // must invalidate the cache.
  nir::User *Mutated = nullptr;
  for (const auto &F : M->getFunctions())
    for (const auto &BB : F->getBlocks())
      for (const auto &I : BB->getInstList())
        for (unsigned Idx = 0; !Mutated && Idx < I->getNumOperands(); ++Idx)
          if (auto *C = nir::dyn_cast<nir::ConstantInt>(I->getOperand(Idx))) {
            Mutated = I.get();
            Mutated->setOperand(
                Idx, Ctx.getConstantInt(C->getType(), C->getValue() + 1));
          }
  ASSERT_NE(Mutated, nullptr);

  PDGBuilder Builder(*M);
  PDG &G = Builder.getPDG();
  EXPECT_FALSE(Builder.wasPDGLoadedFromEmbedded());
  EXPECT_EQ(G.getNumNodes(), M->getNumInstructions());
}

/// Regression: the memoized whole-program PDG used to survive
/// invalidation, leaving transforms reading a graph over freed
/// instructions. After a parallelizing transform reshapes the module,
/// a fresh getPDG must describe the *current* IR.
TEST(PDGCacheTest, InvalidationDropsStaleWholeProgramPDG) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, R"(
    int a[256];
    int main() {
      for (int i = 0; i < 256; i = i + 1) a[i] = i * 3;
      int s = 0;
      for (int i = 0; i < 256; i = i + 1) s = s + a[i];
      return s;
    }
  )");
  Noelle N(*M);
  uint64_t NodesBefore = N.getPDG().getNumNodes();
  EXPECT_EQ(NodesBefore, M->getNumInstructions());

  DOALLOptions Opts;
  Opts.NumCores = 2;
  DOALL Tool(N, Opts);
  Tool.run();

  // The transform outlined loop bodies into new task functions; the
  // memoized PDG would neither cover them nor drop the erased loops.
  EXPECT_EQ(N.getPDG().getNumNodes(), M->getNumInstructions());
  EXPECT_NE(N.getPDG().getNumNodes(), NodesBefore);
}

TEST(PDGCacheTest, PerFunctionInvalidationIsSelective) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, R"(
    int a[32];
    int touched() {
      int s = 0;
      for (int i = 0; i < 32; i = i + 1) s = s + a[i];
      return s;
    }
    int untouched() {
      int p = 1;
      for (int i = 1; i < 6; i = i + 1) p = p * i;
      return p;
    }
    int main() { return touched() + untouched(); }
  )");
  Noelle N(*M);
  nir::Function *Touched = M->getFunction("touched");
  nir::Function *Untouched = M->getFunction("untouched");
  ASSERT_NE(Touched, nullptr);
  ASSERT_NE(Untouched, nullptr);

  auto Loops = N.getLoopContents();
  ASSERT_EQ(Loops.size(), 2u);
  nir::LoopInfo *UntouchedLI = &N.getLoopInfo(*Untouched);
  LoopContent *UntouchedLC = nullptr;
  for (LoopContent *LC : Loops)
    if (LC->getLoopStructure().getFunction() == Untouched)
      UntouchedLC = LC;
  ASSERT_NE(UntouchedLC, nullptr);

  N.invalidate(*Touched);

  // The untouched function's analyses and loop bundle are the same
  // objects; the touched function's loops are re-discovered on demand.
  EXPECT_EQ(&N.getLoopInfo(*Untouched), UntouchedLI);
  auto After = N.getLoopContents();
  ASSERT_EQ(After.size(), 2u);
  bool UntouchedSurvived = false;
  for (LoopContent *LC : After)
    if (LC == UntouchedLC)
      UntouchedSurvived = true;
  EXPECT_TRUE(UntouchedSurvived);

  // Full invalidation rebuilds everything, same shape.
  N.invalidateAll();
  EXPECT_EQ(N.getLoopContents().size(), 2u);
}

} // namespace
