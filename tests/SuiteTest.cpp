//===----------------------------------------------------------------------===//
///
/// \file
/// Validates the benchmark suite: every kernel compiles, verifies, runs
/// deterministically, and keeps its result under each parallelizer.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "ir/Verifier.h"
#include "runtime/ParallelRuntime.h"
#include "xforms/DOALL.h"
#include "xforms/DSWP.h"
#include "xforms/HELIX.h"

#include <gtest/gtest.h>

using namespace noelle;
using nir::Context;
using nir::ExecutionEngine;

namespace {

int64_t runSequential(const bench::Benchmark &B) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B.Source);
  ExecutionEngine E(*M);
  return E.runMain();
}

class SuiteBenchmark : public ::testing::TestWithParam<const char *> {};

TEST_P(SuiteBenchmark, CompilesVerifiesAndRunsDeterministically) {
  const bench::Benchmark *B = bench::findBenchmark(GetParam());
  ASSERT_NE(B, nullptr);
  Context Ctx;
  std::string Error;
  auto M = minic::compileMiniC(Ctx, B->Source, Error);
  ASSERT_NE(M, nullptr) << B->Name << ": " << Error;
  EXPECT_TRUE(nir::moduleVerifies(*M)) << B->Name;
  int64_t R1 = runSequential(*B);
  int64_t R2 = runSequential(*B);
  EXPECT_EQ(R1, R2) << B->Name << " is nondeterministic";
}

TEST_P(SuiteBenchmark, DOALLPreservesResult) {
  const bench::Benchmark *B = bench::findBenchmark(GetParam());
  int64_t Expected = runSequential(*B);
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B->Source);
  Noelle N(*M);
  DOALLOptions Opts;
  Opts.NumCores = 4;
  DOALL Tool(N, Opts);
  Tool.run();
  ASSERT_TRUE(nir::moduleVerifies(*M)) << B->Name;
  ExecutionEngine E(*M);
  registerParallelRuntime(E);
  EXPECT_EQ(E.runMain(), Expected) << B->Name;
}

TEST_P(SuiteBenchmark, HELIXPreservesResult) {
  const bench::Benchmark *B = bench::findBenchmark(GetParam());
  int64_t Expected = runSequential(*B);
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B->Source);
  Noelle N(*M);
  createTechnique(TechniqueKind::HELIX, N, 4)->run();
  ASSERT_TRUE(nir::moduleVerifies(*M)) << B->Name;
  ExecutionEngine E(*M);
  registerParallelRuntime(E);
  EXPECT_EQ(E.runMain(), Expected) << B->Name;
}

TEST_P(SuiteBenchmark, DSWPPreservesResult) {
  const bench::Benchmark *B = bench::findBenchmark(GetParam());
  int64_t Expected = runSequential(*B);
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, B->Source);
  Noelle N(*M);
  createTechnique(TechniqueKind::DSWP, N, 2)->run();
  ASSERT_TRUE(nir::moduleVerifies(*M)) << B->Name;
  ExecutionEngine E(*M);
  registerParallelRuntime(E);
  EXPECT_EQ(E.runMain(), Expected) << B->Name;
}

std::vector<const char *> allBenchmarkNames() {
  std::vector<const char *> Names;
  for (const auto &B : bench::getBenchmarkSuite())
    Names.push_back(B.Name.c_str());
  return Names;
}

INSTANTIATE_TEST_SUITE_P(All, SuiteBenchmark,
                         ::testing::ValuesIn(allBenchmarkNames()),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

TEST(SuiteTest, CoversThreeSuites) {
  EXPECT_GE(bench::getSuite("PARSEC").size(), 5u);
  EXPECT_GE(bench::getSuite("MiBench").size(), 6u);
  EXPECT_GE(bench::getSuite("SPEC").size(), 4u);
}

} // namespace
