//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests for DSWP: pipeline-stage partitioning, queue-based
/// value forwarding, and semantic preservation.
///
//===----------------------------------------------------------------------===//

#include "frontend/MiniC.h"
#include "ir/Verifier.h"
#include "runtime/ParallelRuntime.h"
#include "verify/NoelleCheck.h"
#include "xforms/DSWP.h"

#include <gtest/gtest.h>

using namespace noelle;
using nir::Context;
using nir::ExecutionEngine;

namespace {

struct DSWPResult {
  int64_t Sequential = 0;
  int64_t Parallel = 0;
  unsigned LoopsParallelized = 0;
  unsigned Stages = 0;
  unsigned Queues = 0;
};

DSWPResult runBoth(const char *Src, unsigned Cores) {
  DSWPResult R;
  {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, Src);
    ExecutionEngine E(*M);
    R.Sequential = E.runMain();
  }
  {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, Src);
    verify::PreTransformSnapshot Snap = verify::captureForCheck(*M);
    Noelle N(*M);
    DSWPOptions Opts;
    Opts.NumCores = Cores;
    Opts.MinimumStageWeight = 0; // tests force the transformation
    DSWP Tool(N, Opts);
    for (const auto &D : Tool.run())
      if (D.Parallelized) {
        ++R.LoopsParallelized;
        R.Stages += D.NumStages;
        R.Queues += D.NumQueues;
      }
    verify::CheckReport Rep = verify::checkModule(*M, Snap);
    EXPECT_TRUE(Rep.clean()) << Rep.str();
    ExecutionEngine E(*M);
    registerParallelRuntime(E);
    R.Parallel = E.runMain();
  }
  return R;
}

TEST(DSWPTest, TwoStagePipelineWithRecurrences) {
  // Stage 1: a sequential pointer-chase-like recurrence produces values;
  // stage 2: a second recurrence consumes them. Neither stage is DOALL,
  // but they pipeline.
  const char *Src = R"(
    int src[512];
    int main() {
      for (int i = 0; i < 512; i = i + 1) src[i] = (i * 37 + 11) % 101;
      int x = 1;
      int y = 0;
      for (int i = 0; i < 512; i = i + 1) {
        x = (x * 13 + src[i]) % 65537;    // stage 1 (recurrence on x)
        y = (y + x * 3) % 39916801;       // stage 2 (recurrence on y, consumes x)
      }
      return y;
    }
  )";
  auto R = runBoth(Src, 2);
  EXPECT_GE(R.LoopsParallelized, 1u);
  EXPECT_GE(R.Stages, 2u);
  EXPECT_GE(R.Queues, 1u);
  EXPECT_EQ(R.Sequential, R.Parallel);
}

TEST(DSWPTest, RespectsBackwardDependences) {
  // y feeds back into x: a pipeline would need a backward queue.
  const char *Src = R"(
    int main() {
      int x = 1;
      int y = 0;
      for (int i = 0; i < 64; i = i + 1) {
        x = (x + y) % 1013;
        y = (y * 3 + x) % 2027;
      }
      return x + y;
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Noelle N(*M);
  for (const auto &D : createTechnique(TechniqueKind::DSWP, N)->run())
    EXPECT_FALSE(D.Parallelized) << "merged recurrences cannot pipeline";
}

TEST(DSWPTest, MemoryStagesStayTogether) {
  // The store and the dependent load must land in one stage; with the
  // independent compute that still leaves two stages.
  const char *Src = R"(
    int scratch[1];
    int out[256];
    int main() {
      scratch[0] = 3;
      int acc = 0;
      for (int i = 0; i < 256; i = i + 1) {
        int s = scratch[0];
        scratch[0] = (s * 5 + i) % 10007;    // memory recurrence
        acc = (acc + s * s) % 1000003;       // consumes s
      }
      return acc;
    }
  )";
  auto R = runBoth(Src, 2);
  EXPECT_EQ(R.Sequential, R.Parallel);
}

TEST(DSWPTest, ThreadSweepPreservesSemantics) {
  const char *Src = R"(
    int src[300];
    int main() {
      for (int i = 0; i < 300; i = i + 1) src[i] = i * i % 211;
      int x = 2;
      int y = 5;
      for (int i = 0; i < 300; i = i + 1) {
        x = (x * 31 + src[i]) % 524287;
        y = (y + x) % 1000033;
      }
      return y;
    }
  )";
  int64_t Expected = 0;
  {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, Src);
    ExecutionEngine E(*M);
    Expected = E.runMain();
  }
  for (unsigned Cores : {2u, 3u, 4u}) {
    auto R = runBoth(Src, Cores);
    EXPECT_EQ(R.Parallel, Expected) << "cores=" << Cores;
  }
}

TEST(DSWPTest, QueueOpsAreCountedForTheModel) {
  const char *Src = R"(
    int src[100];
    int main() {
      for (int i = 0; i < 100; i = i + 1) src[i] = i;
      int x = 1;
      int y = 0;
      for (int i = 0; i < 100; i = i + 1) {
        x = (x * 3 + src[i]) % 9973;
        y = (y + x) % 99991;
      }
      return y;
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Noelle N(*M);
  DSWPOptions Opts;
  Opts.NumCores = 2;
  Opts.MinimumStageWeight = 0;
  DSWP Tool(N, Opts);
  unsigned Done = 0;
  for (const auto &D : Tool.run())
    Done += D.Parallelized;
  ASSERT_GE(Done, 1u);
  ExecutionEngine E(*M);
  registerParallelRuntime(E);
  E.runMain();
  bool SawQueueTraffic = false;
  for (const auto &R : E.getDispatchRecords())
    if (R.TotalTaskSyncOps > 0)
      SawQueueTraffic = true;
  EXPECT_TRUE(SawQueueTraffic);
}

} // namespace
