//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests for the DOALL parallelizer: loops transform, the
/// parallel runtime executes them, and results match sequential runs at
/// every thread count.
///
//===----------------------------------------------------------------------===//

#include "frontend/MiniC.h"
#include "ir/Verifier.h"
#include "opt/Passes.h"
#include "planner/Planner.h"
#include "runtime/ParallelRuntime.h"
#include "verify/NoelleCheck.h"
#include "xforms/DOALL.h"

#include <gtest/gtest.h>

using namespace noelle;
using nir::Context;
using nir::ExecutionEngine;

namespace {

/// Runs a source sequentially, then DOALL-parallelized with \p Cores,
/// and returns (sequential result, parallel result, #parallelized).
struct DOALLResult {
  int64_t Sequential = 0;
  int64_t Parallel = 0;
  unsigned LoopsParallelized = 0;
  std::string SeqOutput, ParOutput;
};

DOALLResult runBoth(const char *Src, unsigned Cores) {
  DOALLResult R;
  {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, Src);
    ExecutionEngine E(*M);
    R.Sequential = E.runMain();
    R.SeqOutput = E.getOutput();
  }
  {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, Src);
    verify::PreTransformSnapshot Snap = verify::captureForCheck(*M);
    Noelle N(*M);
    DOALLOptions Opts;
    Opts.NumCores = Cores;
    DOALL Tool(N, Opts);
    for (const auto &D : Tool.run())
      if (D.Parallelized)
        ++R.LoopsParallelized;
    verify::CheckReport Rep = verify::checkModule(*M, Snap);
    EXPECT_TRUE(Rep.clean()) << Rep.str();
    ExecutionEngine E(*M);
    registerParallelRuntime(E);
    R.Parallel = E.runMain();
    R.ParOutput = E.getOutput();
  }
  return R;
}

TEST(DOALLTest, ParallelizesIndependentArrayLoop) {
  const char *Src = R"(
    int a[4096];
    int b[4096];
    int main() {
      for (int i = 0; i < 4096; i = i + 1) b[i] = 0;
      for (int i = 0; i < 4096; i = i + 1) a[i] = i * 3 + 1;
      int s = 0;
      for (int i = 0; i < 4096; i = i + 1) s = s + a[i];
      return s % 100007;
    }
  )";
  auto R = runBoth(Src, 4);
  EXPECT_GE(R.LoopsParallelized, 2u);
  EXPECT_EQ(R.Sequential, R.Parallel);
}

TEST(DOALLTest, SumReduction) {
  const char *Src = R"(
    int a[1000];
    int main() {
      for (int i = 0; i < 1000; i = i + 1) a[i] = i;
      int s = 5;                      // nonzero initial accumulator
      for (int i = 0; i < 1000; i = i + 1) s = s + a[i];
      return s;                        // 5 + 499500
    }
  )";
  auto R = runBoth(Src, 4);
  EXPECT_GE(R.LoopsParallelized, 1u);
  EXPECT_EQ(R.Sequential, 499505);
  EXPECT_EQ(R.Parallel, 499505);
}

TEST(DOALLTest, ProductReduction) {
  const char *Src = R"(
    int main() {
      int p = 3;
      for (int i = 0; i < 10; i = i + 1) p = p * 2;
      return p;                        // 3 * 1024
    }
  )";
  auto R = runBoth(Src, 4);
  EXPECT_EQ(R.Sequential, 3072);
  EXPECT_EQ(R.Parallel, 3072);
}

TEST(DOALLTest, DoubleReduction) {
  const char *Src = R"(
    double x[512];
    int main() {
      for (int i = 0; i < 512; i = i + 1) x[i] = (double)i * 0.5;
      double s = 0.0;
      for (int i = 0; i < 512; i = i + 1) s = s + x[i];
      return (int)s;
    }
  )";
  auto R = runBoth(Src, 4);
  EXPECT_EQ(R.Sequential, R.Parallel);
}

TEST(DOALLTest, RespectsLoopCarriedDependence) {
  // A recurrence must NOT be parallelized.
  const char *Src = R"(
    int a[256];
    int main() {
      a[0] = 1;
      for (int i = 1; i < 256; i = i + 1) a[i] = a[i - 1] + i;
      return a[255];
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Noelle N(*M);
  DOALL Tool(N);
  unsigned Parallelized = 0;
  std::string RecurrenceReason;
  for (const auto &D : Tool.run()) {
    if (D.Parallelized)
      ++Parallelized;
    else
      RecurrenceReason = D.Reason;
  }
  EXPECT_EQ(Parallelized, 0u);
  EXPECT_FALSE(RecurrenceReason.empty());
}

TEST(DOALLTest, RejectsEscapingPartialSums) {
  const char *Src = R"(
    int a[64];
    int b[64];
    int main() {
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) {
        s = s + a[i];
        b[i] = s;      // partial sums observable -> sequential
      }
      return s;
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Noelle N(*M);
  DOALL Tool(N);
  for (const auto &D : Tool.run())
    EXPECT_FALSE(D.Parallelized);
}

TEST(DOALLTest, NegativeStepLoop) {
  const char *Src = R"(
    int a[2048];
    int main() {
      for (int i = 2047; i >= 0; i = i - 1) a[i] = i * 2;
      int s = 0;
      for (int i = 0; i < 2048; i = i + 1) s = s + a[i];
      return s % 65521;
    }
  )";
  auto R = runBoth(Src, 4);
  EXPECT_GE(R.LoopsParallelized, 1u);
  EXPECT_EQ(R.Sequential, R.Parallel);
}

TEST(DOALLTest, StridedLoop) {
  const char *Src = R"(
    int a[4096];
    int main() {
      for (int i = 0; i < 4096; i = i + 4) a[i] = i;
      int s = 0;
      for (int i = 0; i < 4096; i = i + 1) s = s + a[i];
      return s % 99991;
    }
  )";
  auto R = runBoth(Src, 4);
  EXPECT_EQ(R.Sequential, R.Parallel);
}

TEST(DOALLTest, NotEqualExitTest) {
  const char *Src = R"(
    int a[1024];
    int main() {
      int i = 0;
      while (i != 1024) { a[i] = 7 * i; i = i + 1; }
      int s = 0;
      for (int j = 0; j < 1024; j = j + 1) s = s + a[j];
      return s % 131071;
    }
  )";
  auto R = runBoth(Src, 4);
  EXPECT_GE(R.LoopsParallelized, 2u);
  EXPECT_EQ(R.Sequential, R.Parallel);
}

class DOALLThreadSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(DOALLThreadSweep, MatrixScaleMatchesAtEveryWidth) {
  // Property: the transformed program computes the same result at any
  // thread count, including more threads than iterations.
  const char *Src = R"(
    int m[900];
    int main() {
      for (int i = 0; i < 900; i = i + 1) m[i] = i % 31;
      int s = 0;
      for (int i = 0; i < 900; i = i + 1) s = s + m[i] * 3;
      return s;
    }
  )";
  auto R = runBoth(Src, GetParam());
  EXPECT_EQ(R.Sequential, R.Parallel) << "cores=" << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Widths, DOALLThreadSweep,
                         ::testing::Values(1, 2, 3, 4, 7, 8, 16, 1024));

TEST(DOALLTest, NestedLoopParallelizesOuterOnly) {
  const char *Src = R"(
    int m[64];
    int main() {
      for (int i = 0; i < 8; i = i + 1)
        for (int j = 0; j < 8; j = j + 1)
          m[i * 8 + j] = i + j;
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) s = s + m[i];
      return s;
    }
  )";
  auto R = runBoth(Src, 4);
  EXPECT_EQ(R.Sequential, R.Parallel);
}

TEST(DOALLTest, PerformanceModelShowsSpeedup) {
  // Speedup under the instruction-level performance model: per-task
  // retired instructions are recorded by every dispatch, and the
  // parallel "time" is serial work + the max per-task work of each
  // region.
  const char *Src = R"(
    double out[200];
    int main() {
      for (int i = 0; i < 200; i = i + 1) {
        double acc = 0.0;
        for (int k = 0; k < 2000; k = k + 1) {
          acc = acc + (double)((i * 7 + k * 13) % 97) * 0.25;
        }
        out[i] = acc;
      }
      double total = 0.0;
      for (int i = 0; i < 200; i = i + 1) total = total + out[i];
      return (int)total;
    }
  )";
  // Sequential instruction count.
  uint64_t SeqInstrs;
  int64_t SeqResult;
  {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, Src);
    ExecutionEngine E(*M);
    SeqResult = E.runMain();
    SeqInstrs = E.getInstructionsExecuted();
  }
  // Parallel: simulated time = total - taskWork + sum(maxTaskWork).
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Noelle N(*M);
  DOALLOptions Opts;
  Opts.NumCores = 4;
  DOALL Tool(N, Opts);
  unsigned Parallelized = 0;
  for (const auto &D : Tool.run())
    Parallelized += D.Parallelized;
  ASSERT_GE(Parallelized, 1u);

  ExecutionEngine E(*M);
  registerParallelRuntime(E);
  EXPECT_EQ(E.runMain(), SeqResult);

  uint64_t Total = E.getInstructionsExecuted();
  uint64_t TaskTotal = 0, CriticalPath = 0;
  for (const auto &R : E.getDispatchRecords()) {
    TaskTotal += R.TotalTaskInstructions;
    CriticalPath += R.MaxTaskInstructions;
  }
  ASSERT_GT(TaskTotal, 0u);
  uint64_t SimulatedParallel = Total - TaskTotal + CriticalPath;
  double Speedup =
      static_cast<double>(SeqInstrs) / static_cast<double>(SimulatedParallel);
  EXPECT_GT(Speedup, 2.5) << "4-core DOALL on a balanced loop should "
                             "approach 4x; got "
                          << Speedup;
}

/// After opt::runPipeline, GVN folds the `i + 1` of `a[i + 1]` into the
/// IV update itself, so the cloned update has a user besides its phi and
/// exit compare. The trip count comes from memory, so the unroller
/// leaves the loop alone.
const char *SharedIVUpdateSrc = R"(
  int a[48];
  int b[48];
  int main() {
    for (int i = 0; i < 48; i = i + 1) a[i] = (i * i) % 23;
    int n = a[7] + 31;
    for (int i = 0; i < n; i = i + 1) b[i] = a[i + 1] - a[i];
    int s = 0;
    for (int i = 0; i < 48; i = i + 1) s = s * 3 % 1000003 + b[i];
    return s;
  }
)";

// DOALL and HELIX share rebaseInductionVariables: re-basing must give
// the back edge its own stride rather than scale the shared update in
// place, or every task reads a[i + Workers] where the source reads
// a[i + 1].
TEST(DOALLTest, RebaseLeavesSharedIVUpdateAlone) {
  int64_t Expected;
  {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, SharedIVUpdateSrc);
    ExecutionEngine E(*M);
    Expected = E.runMain();
  }
  for (TechniqueKind K : {TechniqueKind::DOALL, TechniqueKind::HELIX}) {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, SharedIVUpdateSrc);
    opt::runPipeline(*M);
    verify::PreTransformSnapshot Snap = verify::captureForCheck(*M);
    Noelle N(*M);
    unsigned Parallelized = 0;
    for (const auto &D : planner::makeTechnique(K, N, 4)->run())
      Parallelized += D.Parallelized;
    ASSERT_GE(Parallelized, 1u) << techniqueName(K);
    verify::CheckReport Rep = verify::checkModule(*M, Snap);
    EXPECT_TRUE(Rep.clean()) << techniqueName(K) << ":\n" << Rep.str();
    ExecutionEngine E(*M);
    registerParallelRuntime(E);
    EXPECT_EQ(E.runMain(), Expected) << techniqueName(K);
  }
}

} // namespace
