//===----------------------------------------------------------------------===//
///
/// \file
/// Property-style tests over the whole benchmark suite: IR round-trip
/// stability, verifier cleanliness after every transformation, SCCDAG
/// structural invariants, pdg artifact fidelity, and composition of
/// custom tools (LICM then DOALL then CARAT on one module).
///
//===----------------------------------------------------------------------===//

#include "PDGEdgeKeys.h"

#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "runtime/ParallelRuntime.h"
#include "tools/NoelleTools.h"
#include "xforms/CARAT.h"
#include "xforms/DOALL.h"
#include "xforms/LICM.h"
#include "xforms/TimeSqueezer.h"

#include <gtest/gtest.h>

using namespace noelle;
using nir::Context;
using nir::ExecutionEngine;

namespace {

class SuiteProperty : public ::testing::TestWithParam<const char *> {};

TEST_P(SuiteProperty, PrintParseFixpoint) {
  // print(parse(print(M))) == print(M): the textual format is stable.
  const bench::Benchmark *B = bench::findBenchmark(GetParam());
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B->Source);
  std::string T1 = M->str();
  auto M2 = nir::parseModuleOrDie(Ctx, T1);
  std::string T2 = M2->str();
  EXPECT_EQ(T1, T2) << B->Name;
}

TEST_P(SuiteProperty, ReparsedModuleComputesSameResult) {
  const bench::Benchmark *B = bench::findBenchmark(GetParam());
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B->Source);
  int64_t R1 = ExecutionEngine(*M).runMain();
  auto M2 = nir::parseModuleOrDie(Ctx, M->str());
  EXPECT_EQ(ExecutionEngine(*M2).runMain(), R1) << B->Name;
}

TEST_P(SuiteProperty, SCCDAGInvariants) {
  // For every loop: SCCs partition the internal nodes; the DAG has no
  // self-successors; reducible SCCs expose their reduction machinery.
  const bench::Benchmark *B = bench::findBenchmark(GetParam());
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B->Source);
  Noelle N(*M);
  for (LoopContent *LC : N.getLoopContents()) {
    auto &Dag = LC->getSCCDAG();
    size_t Covered = 0;
    for (const auto &S : Dag.getSCCs()) {
      Covered += S->size();
      EXPECT_EQ(Dag.getSuccessors(S.get()).count(S.get()), 0u)
          << B->Name << ": SCC is its own successor";
      for (auto *V : S->getNodes())
        EXPECT_EQ(Dag.sccOf(V), S.get()) << B->Name;
      if (S->getAttribute() == SCC::Attribute::Reducible) {
        EXPECT_NE(S->getReductionPhi(), nullptr) << B->Name;
        EXPECT_NE(S->getReductionUpdate(), nullptr) << B->Name;
      }
    }
    EXPECT_EQ(Covered, LC->getLoopDG().getInternalNodes().size())
        << B->Name << ": SCCs must partition the loop's nodes";
  }
}

TEST_P(SuiteProperty, PDGMetadataRoundTripsEdgeCount) {
  const bench::Benchmark *B = bench::findBenchmark(GetParam());
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B->Source);
  tools::pdgEmbed(*M);
  auto M2 = nir::parseModuleOrDie(Ctx, M->str());
  auto Loaded = PDG::loadEmbedded(*M2);
  ASSERT_NE(Loaded, nullptr) << B->Name;
  testutil::expectEqualsColdBuild(*M2, *Loaded);
}

TEST_P(SuiteProperty, ToolCompositionPreservesSemantics) {
  // LICM, then DOALL, then CARAT, then TimeSqueezer — all on the same
  // module; the program must still verify and compute its result.
  const bench::Benchmark *B = bench::findBenchmark(GetParam());
  int64_t Expected;
  {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, B->Source);
    Expected = ExecutionEngine(*M).runMain();
  }
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B->Source);
  {
    Noelle N(*M);
    LICM L(N);
    L.run();
  }
  {
    Noelle N(*M);
    DOALLOptions O;
    O.NumCores = 3;
    DOALL D(N, O);
    D.run();
  }
  {
    Noelle N(*M);
    CARAT C(N);
    C.run();
  }
  {
    Noelle N(*M);
    TimeSqueezer T(N);
    T.run();
  }
  ASSERT_TRUE(nir::moduleVerifies(*M)) << B->Name;
  ExecutionEngine E(*M);
  registerParallelRuntime(E);
  registerCARATRuntime(E);
  E.registerExternal("set_clock",
                     [](ExecutionEngine &, const nir::CallInst *,
                        const std::vector<nir::RuntimeValue> &) {
                       return nir::RuntimeValue();
                     });
  EXPECT_EQ(E.runMain(), Expected) << B->Name;
}

std::vector<const char *> names() {
  std::vector<const char *> Out;
  for (const auto &B : bench::getBenchmarkSuite())
    Out.push_back(B.Name.c_str());
  return Out;
}

INSTANTIATE_TEST_SUITE_P(All, SuiteProperty, ::testing::ValuesIn(names()),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

} // namespace
