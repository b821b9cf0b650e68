//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end tests for HELIX: loops with sequential SCCs parallelize
/// with sequential segments, and cross-iteration order is preserved.
///
//===----------------------------------------------------------------------===//

#include "frontend/MiniC.h"
#include "ir/Verifier.h"
#include "runtime/ParallelRuntime.h"
#include "verify/NoelleCheck.h"
#include "xforms/HELIX.h"

#include <gtest/gtest.h>

using namespace noelle;
using nir::Context;
using nir::ExecutionEngine;

namespace {

struct HELIXResult {
  int64_t Sequential = 0;
  int64_t Parallel = 0;
  unsigned LoopsParallelized = 0;
  unsigned Segments = 0;
};

HELIXResult runBoth(const char *Src, unsigned Cores) {
  HELIXResult R;
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
    HELIXOptions Opts;
    Opts.NumCores = Cores;
    Opts.MinimumEstimatedSpeedup = 0; // tests force the transformation
    HELIX Tool(N, Opts);
    for (const auto &D : Tool.run())
      if (D.Parallelized) {
        ++R.LoopsParallelized;
        R.Segments += D.NumSequentialSegments;
      }
    verify::CheckReport Rep = verify::checkModule(*M, Snap);
    EXPECT_TRUE(Rep.clean()) << Rep.str();
    ExecutionEngine E(*M);
    registerParallelRuntime(E);
    R.Parallel = E.runMain();
  }
  return R;
}

TEST(HELIXTest, MemoryRecurrenceWithParallelWork) {
  // state[0] evolves sequentially (a linear congruential walk) while the
  // expensive part of each iteration is independent: HELIX territory.
  const char *Src = R"(
    int state[1];
    int out[256];
    int main() {
      state[0] = 7;
      for (int i = 0; i < 256; i = i + 1) {
        int s = state[0];
        state[0] = (s * 1103515245 + 12345) % 2147483647;
        int heavy = 0;
        int base = i * 17;
        heavy = heavy + (base * base) % 1013;
        heavy = heavy + ((base + 3) * (base + 7)) % 2027;
        out[i] = s % 1000 + heavy;
      }
      int total = 0;
      for (int i = 0; i < 256; i = i + 1) total = total + out[i];
      return total % 1000003;
    }
  )";
  auto R = runBoth(Src, 4);
  EXPECT_GE(R.LoopsParallelized, 1u);
  EXPECT_GE(R.Segments, 1u);
  EXPECT_EQ(R.Sequential, R.Parallel);
}

TEST(HELIXTest, RegisterRecurrenceSpilledThroughSharedSlot) {
  // x evolves as a register recurrence; its cross-iteration order is
  // enforced by a sequential segment with a spilled slot.
  const char *Src = R"(
    int out[128];
    int main() {
      int x = 1;
      for (int i = 0; i < 128; i = i + 1) {
        x = (x * 3 + 1) % 65537;
        out[i] = x;
      }
      int t = 0;
      for (int i = 0; i < 128; i = i + 1) t = t + out[i];
      return t % 100003;
    }
  )";
  auto R = runBoth(Src, 4);
  EXPECT_GE(R.LoopsParallelized, 1u);
  EXPECT_EQ(R.Sequential, R.Parallel);
}

TEST(HELIXTest, RecurrenceLiveOutReadsFinalState) {
  const char *Src = R"(
    int main() {
      int x = 5;
      for (int i = 0; i < 64; i = i + 1) {
        x = (x * 7 + 11) % 10007;
      }
      return x;   // final state of the recurrence
    }
  )";
  auto R = runBoth(Src, 4);
  EXPECT_GE(R.LoopsParallelized, 1u);
  EXPECT_EQ(R.Sequential, R.Parallel);
}

TEST(HELIXTest, ReductionPlusRecurrence) {
  const char *Src = R"(
    int main() {
      int x = 3;
      int sum = 0;
      for (int i = 0; i < 200; i = i + 1) {
        x = (x * 5 + 1) % 9973;
        sum = sum + i * 2;     // independent reduction
      }
      return (x * 100000 + sum) % 1000000007;
    }
  )";
  auto R = runBoth(Src, 4);
  EXPECT_GE(R.LoopsParallelized, 1u);
  EXPECT_EQ(R.Sequential, R.Parallel);
}

TEST(HELIXTest, RejectsConditionalSequentialWork) {
  // The recurrence only advances under a data-dependent condition:
  // wait/signal cannot bracket it once per iteration.
  const char *Src = R"(
    int a[64];
    int main() {
      int x = 1;
      for (int i = 0; i < 64; i = i + 1) {
        if (a[i] > 0) { x = x * 3 + i; }
        a[i] = x;
      }
      return x;
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Noelle N(*M);
  for (const auto &D : createTechnique(TechniqueKind::HELIX, N)->run())
    EXPECT_FALSE(D.Parallelized) << D.FunctionName << " loop " << D.LoopID;
}

TEST(HELIXTest, ThreadSweepPreservesSemantics) {
  const char *Src = R"(
    int out[300];
    int main() {
      int x = 9;
      for (int i = 0; i < 300; i = i + 1) {
        x = (x * 1103515245 + 12345) % 1000000007;
        out[i] = x % 97 + i;
      }
      int t = 0;
      for (int i = 0; i < 300; i = i + 1) t = t + out[i];
      return t % 1000033;
    }
  )";
  int64_t Expected = runBoth(Src, 1).Sequential;
  for (unsigned Cores : {2u, 3u, 4u, 8u}) {
    auto R = runBoth(Src, Cores);
    EXPECT_EQ(R.Parallel, Expected) << "cores=" << Cores;
  }
}

TEST(HELIXTest, SegmentWorkIsMeasured) {
  const char *Src = R"(
    int out[100];
    int main() {
      int x = 2;
      for (int i = 0; i < 100; i = i + 1) {
        x = (x * 13 + 7) % 30011;
        out[i] = x + i;
      }
      int t = 0;
      for (int i = 0; i < 100; i = i + 1) t = t + out[i];
      return t % 65599;
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Noelle N(*M);
  HELIXOptions Opts;
  Opts.NumCores = 4;
  Opts.MinimumEstimatedSpeedup = 0; // force, to observe segment work
  HELIX Tool(N, Opts);
  unsigned Done = 0;
  for (const auto &D : Tool.run())
    Done += D.Parallelized;
  ASSERT_GE(Done, 1u);
  ExecutionEngine E(*M);
  registerParallelRuntime(E);
  E.runMain();
  bool SawSegmentWork = false;
  for (const auto &R : E.getDispatchRecords())
    if (R.TotalSegmentInstructions > 0)
      SawSegmentWork = true;
  EXPECT_TRUE(SawSegmentWork)
      << "HELIX dispatches must report serialized segment work";
}

} // namespace
