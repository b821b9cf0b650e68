//===----------------------------------------------------------------------===//
///
/// \file
/// suite-oracle: validates the benchmark suite. Every kernel compiles,
/// verifies and runs deterministically, and keeps its behaviour under
/// each parallelizer. The oracle is the unoptimized sequential run of the
/// untransformed kernel: main()'s value, the printed output, and an
/// FNV-1a digest of every global's final bytes (the definition
/// perfbench/expected.txt records). Each cell compiles the kernel
/// unoptimized and through opt::runPipeline, transforms it — the
/// planner with and without speculation, or one technique forced on
/// every eligible loop via planner::makeTechnique — and must reproduce
/// the oracle on the parallel runtime.
///
//===----------------------------------------------------------------------===//

#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "ir/IDs.h"
#include "ir/Verifier.h"
#include "noelle/MemDepProfiler.h"
#include "opt/Passes.h"
#include "planner/Planner.h"
#include "runtime/ParallelRuntime.h"

#include <gtest/gtest.h>

#include <functional>

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

/// What one run of a kernel produced. The return value alone is a weak
/// check (stringsearch returns 0), so every global's bytes count too.
struct Outcome {
  int64_t Main = 0;
  std::string Output;
  uint64_t GlobalsDigest = 0; ///< FNV-1a over (name, bytes) per global
  bool operator==(const Outcome &) const = default;
};

void fnv1a(uint64_t &H, const void *Data, size_t Bytes) {
  const auto *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I < Bytes; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
}

/// Reads back a finished run of \p E. \p Globals are the unoptimized
/// module's global names, looked up in whatever module ran; a missing
/// one poisons the digest.
Outcome observe(const ExecutionEngine &E, int64_t Main,
                const std::vector<std::string> &Globals) {
  Outcome O;
  O.Main = Main;
  O.Output = E.getOutput();
  O.GlobalsDigest = 0xcbf29ce484222325ull;
  for (const std::string &Name : Globals) {
    fnv1a(O.GlobalsDigest, Name.data(), Name.size());
    const nir::GlobalVariable *G = E.getModule().getGlobal(Name);
    if (!G) {
      fnv1a(O.GlobalsDigest, "<missing>", 9);
      continue;
    }
    fnv1a(O.GlobalsDigest,
          reinterpret_cast<const void *>(E.getGlobalAddress(G)),
          G->getStoreSize());
  }
  return O;
}

using Transform = std::function<void(nir::Module &)>;

/// Checks one transform against the oracle on the unoptimized and on
/// the optimized module.
void expectMatchesOracle(const char *Kernel, const Transform &T) {
  const bench::Benchmark *B = bench::findBenchmark(Kernel);
  ASSERT_NE(B, nullptr);
  std::vector<std::string> Globals;
  Outcome Want;
  {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, B->Source);
    for (const auto &G : M->getGlobals())
      Globals.push_back(G->getName());
    ExecutionEngine E(*M);
    const int64_t Main = E.runMain();
    Want = observe(E, Main, Globals);
  }
  for (bool Optimize : {false, true}) {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, B->Source);
    if (Optimize)
      opt::runPipeline(*M);
    T(*M);
    const char *Mode = Optimize ? "optimized" : "unoptimized";
    ASSERT_TRUE(nir::moduleVerifies(*M)) << B->Name << ", " << Mode;
    ExecutionEngine E(*M);
    registerParallelRuntime(E);
    const int64_t Main = E.runMain();
    Outcome Got = observe(E, Main, Globals);
    EXPECT_EQ(Got.Main, Want.Main) << B->Name << ", " << Mode;
    EXPECT_EQ(Got.Output, Want.Output) << B->Name << ", " << Mode;
    EXPECT_EQ(Got.GlobalsDigest, Want.GlobalsDigest)
        << B->Name << ", " << Mode << ": globals differ";
  }
}

Transform forced(TechniqueKind K) {
  return [K](nir::Module &M) {
    Noelle N(M);
    planner::makeTechnique(K, N, 4)->run();
  };
}

Transform planned(bool Speculate) {
  return [Speculate](nir::Module &M) {
    if (Speculate) {
      nir::assignDeterministicIDs(M);
      profileMemDeps(M).embed(M);
    }
    Noelle N(M);
    planner::PlannerOptions PO;
    PO.EnableSpeculation = Speculate;
    planner::Planner(N, PO).planAndApply();
  };
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

// DOALL has no profitability gate, so its forced sweep is the tool
// itself.
TEST_P(SuiteBenchmark, DOALLPreservesResult) {
  expectMatchesOracle(GetParam(), forced(TechniqueKind::DOALL));
}

TEST_P(SuiteBenchmark, ForcedHELIXPreservesResult) {
  expectMatchesOracle(GetParam(), forced(TechniqueKind::HELIX));
}

TEST_P(SuiteBenchmark, ForcedDSWPPreservesResult) {
  expectMatchesOracle(GetParam(), forced(TechniqueKind::DSWP));
}

TEST_P(SuiteBenchmark, PlannerPreservesResult) {
  expectMatchesOracle(GetParam(), planned(/*Speculate=*/false));
}

TEST_P(SuiteBenchmark, SpeculativePlannerPreservesResult) {
  expectMatchesOracle(GetParam(), planned(/*Speculate=*/true));
}

// The paper's per-tool gates (createTechnique) leave different loops
// sequential than the forced sweeps above, so nested loops parallelize
// differently: HELIX behind its 1.05x gate, DSWP as two stages.
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
