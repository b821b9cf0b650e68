//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the non-parallelizing custom tools: LICM, DEAD, CARAT,
/// TimeSqueezer, COOS, PRVJeeves, Perspective-lite, and the
/// gcc/icc-style baselines.
///
//===----------------------------------------------------------------------===//

#include "baselines/ConservativeParallelizer.h"
#include "baselines/LLVMBaselines.h"
#include "frontend/MiniC.h"
#include "ir/Verifier.h"
#include "runtime/ParallelRuntime.h"
#include "xforms/CARAT.h"
#include "xforms/COOS.h"
#include "xforms/DeadFunctionEliminator.h"
#include "xforms/LICM.h"
#include "xforms/Perspective.h"
#include "xforms/PRVJeeves.h"
#include "xforms/TimeSqueezer.h"

#include <gtest/gtest.h>

using namespace noelle;
using nir::Context;
using nir::ExecutionEngine;
using nir::Function;
using nir::Instruction;

namespace {

//===----------------------------------------------------------------------===//
// LICM
//===----------------------------------------------------------------------===//

TEST(LICMTest, HoistsInvariantComputation) {
  const char *Src = R"(
    int out[64];
    int main() {
      int k = 21;
      for (int i = 0; i < 64; i = i + 1) {
        int t = k * k + 7;     // invariant
        out[i] = t + i;
      }
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) s = s + out[i];
      return s;
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  int64_t Before;
  {
    ExecutionEngine E(*M);
    Before = E.runMain();
  }
  uint64_t InstrsBefore;
  {
    ExecutionEngine E(*M);
    E.runMain();
    InstrsBefore = E.getInstructionsExecuted();
  }
  Noelle N(*M);
  LICM Tool(N);
  auto R = Tool.run();
  EXPECT_GT(R.InstructionsHoisted, 0u);
  EXPECT_TRUE(nir::moduleVerifies(*M));
  ExecutionEngine E(*M);
  EXPECT_EQ(E.runMain(), Before);
  EXPECT_LT(E.getInstructionsExecuted(), InstrsBefore)
      << "hoisting must reduce dynamic instructions";
}

TEST(LICMTest, HoistsInvariantLoadOfUnmodifiedGlobal) {
  const char *Src = R"(
    int cfg[4];
    int out[64];
    int main() {
      cfg[0] = 9;
      for (int i = 0; i < 64; i = i + 1) out[i] = cfg[0] * i;
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) s = s + out[i];
      return s;
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  int64_t Before;
  {
    ExecutionEngine E(*M);
    Before = E.runMain();
  }
  Noelle N(*M);
  LICM Tool(N);
  auto R = Tool.run();
  EXPECT_GT(R.InstructionsHoisted, 0u)
      << "the PDG-powered LICM must hoist the cfg[0] load";
  ExecutionEngine E(*M);
  EXPECT_EQ(E.runMain(), Before);
}

TEST(LICMTest, NoelleBeatsAlgorithm1OnInvariantCount) {
  // The Figure-4 property: Algorithm 2 (PDG) finds at least as many
  // invariants as Algorithm 1 (low-level), and strictly more here.
  // The load of cfg[0] happens behind a pointer parameter: LLVM's
  // intraprocedural AA cannot separate dst from cfg, NOELLE's
  // whole-program points-to can.
  const char *Src = R"(
    int cfg[4];
    int out[64];
    void work(int *dst, int n) {
      for (int i = 0; i < n; i = i + 1) {
        dst[i] = cfg[0] * i + cfg[1];
      }
    }
    int main() {
      cfg[0] = 5;
      cfg[1] = 2;
      work(out, 64);
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) s = s + out[i];
      return s;
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Noelle N(*M);
  LoopContent *LC = nullptr;
  for (LoopContent *Cand : N.getLoopContents())
    if (Cand->getLoopStructure().getFunction()->getName() == "work")
      LC = Cand;
  ASSERT_NE(LC, nullptr);
  unsigned NoelleCount =
      static_cast<unsigned>(LC->getInvariantManager().getInvariants().size());

  nir::BasicAliasAnalysis BasicAA;
  nir::DominatorTree DT(*M->getFunction("work"));
  unsigned LLVMCount = static_cast<unsigned>(
      baselines::findInvariantsLLVM(LC->getLoopStructure(), DT, BasicAA)
          .size());
  EXPECT_GT(NoelleCount, LLVMCount);
}

//===----------------------------------------------------------------------===//
// DeadFunctionEliminator
//===----------------------------------------------------------------------===//

TEST(DeadTest, RemovesUnreachableFunctions) {
  const char *Src = R"(
    int used(int x) { return x * 2; }
    int dead1(int x) { return x + 1; }
    int dead2(int x) { return dead1(x) * 3; }   // dead island
    int main() { return used(21); }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Noelle N(*M);
  DeadFunctionEliminator Tool(N);
  auto R = Tool.run();
  EXPECT_EQ(R.FunctionsRemoved, 2u);
  EXPECT_LT(R.BinaryBytesAfter, R.BinaryBytesBefore);
  EXPECT_TRUE(nir::moduleVerifies(*M));
  ExecutionEngine E(*M);
  EXPECT_EQ(E.runMain(), 42);
}

TEST(DeadTest, KeepsIndirectlyCallableFunctions) {
  // handler is only ever called through a pointer: the complete call
  // graph must keep it alive.
  const char *Src = R"(
    int handler(int x) { return x + 5; }
    int other(int x) { return x - 1; }
    int main() {
      int (*f)(int) = handler;
      return f(37);
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Noelle N(*M);
  DeadFunctionEliminator Tool(N);
  Tool.run();
  EXPECT_NE(M->getFunction("handler"), nullptr)
      << "indirect callee must survive";
  ExecutionEngine E(*M);
  EXPECT_EQ(E.runMain(), 42);
}

//===----------------------------------------------------------------------===//
// CARAT
//===----------------------------------------------------------------------===//

TEST(CARATTest, GuardsUnprovenAccessesAndPreservesSemantics) {
  const char *Src = R"(
    int data[128];
    int sum(int *p, int n) {
      int s = 0;
      for (int i = 0; i < n; i = i + 1) s = s + p[i];
      return s;
    }
    int main() {
      for (int i = 0; i < 128; i = i + 1) data[i] = i;
      return sum(data, 128);
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  int64_t Before;
  {
    ExecutionEngine E(*M);
    Before = E.runMain();
  }
  Noelle N(*M);
  CARAT Tool(N);
  auto R = Tool.run();
  EXPECT_GT(R.GuardsInjected, 0u);
  EXPECT_TRUE(nir::moduleVerifies(*M));
  ExecutionEngine E(*M);
  registerCARATRuntime(E);
  EXPECT_EQ(E.runMain(), Before);
}

TEST(CARATTest, SkipsProvablyValidAccesses) {
  // Constant in-bounds indexes into a global need no guard.
  const char *Src = R"(
    int g[8];
    int main() {
      g[0] = 1; g[1] = 2; g[7] = 3;
      return g[0] + g[1] + g[7];
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Noelle N(*M);
  CARAT Tool(N);
  auto R = Tool.run();
  EXPECT_EQ(R.GuardsInjected, 0u);
}

TEST(CARATTest, HoistsInvariantAddressGuards) {
  const char *Src = R"(
    int cell[1];
    int consume(int *p, int n) {
      int s = 0;
      for (int i = 0; i < n; i = i + 1) {
        s = s + *p;          // invariant address, guard hoists
      }
      return s;
    }
    int main() {
      cell[0] = 3;
      return consume(cell, 50);
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Noelle N(*M);
  CARAT Tool(N);
  auto R = Tool.run();
  EXPECT_GT(R.GuardsHoisted, 0u);
  ExecutionEngine E(*M);
  registerCARATRuntime(E);
  EXPECT_EQ(E.runMain(), 150);
}

//===----------------------------------------------------------------------===//
// TimeSqueezer
//===----------------------------------------------------------------------===//

TEST(TimeSqueezerTest, CanonicalizesAndSaves) {
  const char *Src = R"(
    int a[64];
    int main() {
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) {
        if (10 < a[i]) s = s + 1;       // constant on the left
        s = s + a[i] * 3;
      }
      return s;
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  int64_t Before;
  {
    ExecutionEngine E(*M);
    Before = E.runMain();
  }
  Noelle N(*M);
  TimeSqueezer Tool(N);
  auto R = Tool.run();
  EXPECT_GT(R.ComparesCanonicalized, 0u);
  EXPECT_GT(R.ClockChangesInjected, 0u);
  EXPECT_LT(R.SqueezedCycles, R.BaselineCycles)
      << "clock squeezing must beat the fixed worst-case clock";
  ExecutionEngine E(*M);
  E.registerExternal("set_clock",
                     [](ExecutionEngine &, const nir::CallInst *,
                        const std::vector<nir::RuntimeValue> &) {
                       return nir::RuntimeValue();
                     });
  EXPECT_EQ(E.runMain(), Before);
}

//===----------------------------------------------------------------------===//
// COOS
//===----------------------------------------------------------------------===//

TEST(COOSTest, InjectsTicksIntoLoops) {
  const char *Src = R"(
    int main() {
      int s = 0;
      int i = 0;
      while (s < 100000) {     // potentially unbounded for the analysis
        s = s + i % 7 + 1;
        i = i + 1;
      }
      return i;
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  int64_t Before;
  {
    ExecutionEngine E(*M);
    uint64_t Ticks = 0;
    registerCOOSRuntime(E, &Ticks);
    Before = E.runMain();
  }
  Noelle N(*M);
  COOS Tool(N);
  auto R = Tool.run();
  EXPECT_GT(R.TicksInjected, 0u);
  EXPECT_GE(R.LoopsInstrumented, 1u);

  ExecutionEngine E(*M);
  uint64_t Ticks = 0;
  registerCOOSRuntime(E, &Ticks);
  EXPECT_EQ(E.runMain(), Before);
  EXPECT_GT(Ticks, 0u) << "the injected callbacks must fire at runtime";
}

TEST(COOSTest, BoundsStraightLineGaps) {
  // A long straight-line block must be broken up by ticks.
  std::string Body;
  for (int I = 0; I < 50; ++I)
    Body += "      x = x * 3 + " + std::to_string(I) + "; x = x % 100003;\n";
  std::string Src = "    int main() {\n      int x = 1;\n" + Body +
                    "      return x;\n    }\n";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Noelle N(*M);
  COOSOptions Opts;
  Opts.Quantum = 32;
  COOS Tool(N, Opts);
  auto R = Tool.run();
  EXPECT_GT(R.TicksInjected, 0u);
  EXPECT_LE(R.MaxGapAfter, 2 * Opts.Quantum)
      << "no straight-line region may exceed ~the quantum";
}

//===----------------------------------------------------------------------===//
// PRVJeeves
//===----------------------------------------------------------------------===//

const char *PRVJSrc = R"(
  int prvg_next(int seed) {          // generic: expensive path
    int s = seed;
    s = (s * 1103515245 + 12345) % 2147483647;
    s = (s * 1103515245 + 12345) % 2147483647;
    s = (s * 1103515245 + 12345) % 2147483647;
    if (s < 0) s = -s;
    return s;
  }
  int prvg_lcg_next(int seed) {      // cheap
    int s = (seed * 1103515245 + 12345) % 2147483647;
    if (s < 0) s = -s;
    return s;
  }
  int prvg_mt_next(int seed) {       // high quality (modeled)
    int s = seed;
    s = (s * 6364136223846793005 + 1442695040888963407) % 2147483647;
    s = (s * 6364136223846793005 + 1442695040888963407) % 2147483647;
    s = (s * 6364136223846793005 + 1442695040888963407) % 2147483647;
    s = (s * 6364136223846793005 + 1442695040888963407) % 2147483647;
    if (s < 0) s = -s;
    return s;
  }
  double monte(int n) {              // needs quality: feeds doubles
    int seed = 7;
    double acc = 0.0;
    for (int i = 0; i < n; i = i + 1) {
      seed = prvg_next(seed);
      acc = acc + (double)(seed % 1000) / 1000.0;
    }
    return acc / (double)n;
  }
  int shuffleish(int n) {            // integer-only: LCG suffices
    int seed = 3;
    int acc = 0;
    for (int i = 0; i < n; i = i + 1) {
      seed = prvg_next(seed);
      acc = (acc + seed % 97) % 100003;
    }
    return acc;
  }
  int main() {
    double m = monte(200);
    int s = shuffleish(200);
    return s + (int)(m * 10.0);
  }
)";

TEST(PRVJeevesTest, SelectsGeneratorsByConsumption) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, PRVJSrc);
  Noelle N(*M);
  PRVJeeves Tool(N);
  auto R = Tool.run();
  EXPECT_EQ(R.SitesAnalyzed, 2u);
  EXPECT_EQ(R.DowngradedToLCG, 1u) << "integer-only site takes the LCG";
  EXPECT_EQ(R.PinnedToMT, 1u) << "double-consuming site keeps quality";
  EXPECT_TRUE(nir::moduleVerifies(*M));
  // Still runs (values differ by design — generator selection changes
  // the stream, as in the real tool).
  ExecutionEngine E(*M);
  E.runMain();
}

TEST(PRVJeevesTest, LCGSelectionSavesInstructions) {
  Context Ctx1, Ctx2;
  auto M1 = minic::compileMiniCOrDie(Ctx1, PRVJSrc);
  auto M2 = minic::compileMiniCOrDie(Ctx2, PRVJSrc);
  Noelle N(*M2);
  PRVJeeves Tool(N);
  Tool.run();
  ExecutionEngine E1(*M1), E2(*M2);
  E1.runMain();
  E2.runMain();
  EXPECT_LT(E2.getInstructionsExecuted(), E1.getInstructionsExecuted())
      << "selecting the cheap generator must reduce dynamic work";
}

//===----------------------------------------------------------------------===//
// Perspective-lite
//===----------------------------------------------------------------------===//

TEST(PerspectiveTest, PlansSpeculationForApparentDeps) {
  // p and q never alias at runtime, but the compiler cannot prove it:
  // the loop-carried dependence is apparent -> speculable.
  const char *Src = R"(
    int A[256];
    int B[256];
    int touch(int *p, int *q, int n) {
      int s = 0;
      for (int i = 1; i < n; i = i + 1) {
        p[i] = q[i - 1] + 1;    // apparent cross-iteration dep if p==q
        s = s + p[i];
      }
      return s;
    }
    int main() { return touch(A, B, 256); }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  // Weak analysis so the dependence stays apparent.
  NoelleOptions Opts;
  Opts.PDGOptions.AliasAnalysisName = "llvm";
  Opts.PDGOptions.UseModRefSummaries = false;
  Noelle N(*M, Opts);
  Perspective Tool(N);
  bool FoundSpeculable = false;
  for (const auto &Plan : Tool.planAll())
    for (const auto &R : Plan.Remedies)
      if (R.TheKind == Remedy::Kind::SpeculateApparentDep)
        FoundSpeculable = true;
  EXPECT_TRUE(FoundSpeculable);
}

TEST(PerspectiveTest, MustRecurrenceIsUnresolvable) {
  const char *Src = R"(
    int a[128];
    int main() {
      a[0] = 1;
      for (int i = 1; i < 128; i = i + 1) a[i] = a[i - 1] * 2 % 10007;
      return a[127];
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Noelle N(*M);
  Perspective Tool(N);
  bool SawPlan = false;
  for (const auto &Plan : Tool.planAll()) {
    if (Plan.AlreadyDOALL || Plan.Remedies.empty())
      continue;
    SawPlan = true;
    EXPECT_FALSE(Plan.PlannableWithSpeculation &&
                 Plan.Remedies.size() == 1)
        << "a real recurrence must not look fully speculable";
  }
  EXPECT_TRUE(SawPlan);
}

//===----------------------------------------------------------------------===//
// Conservative (gcc/icc-like) baselines
//===----------------------------------------------------------------------===//

TEST(BaselineTest, ConservativeParallelizerRejectsWhileLoops) {
  // The same loop NOELLE's DOALL handles: the conservative model cannot
  // even find the IV because the loop is while-shaped.
  const char *Src = R"(
    int a[512];
    int main() {
      for (int i = 0; i < 512; i = i + 1) a[i] = i * 3;
      return a[100];
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  for (const auto &D : baselines::runConservativeParallelizer(*M)) {
    EXPECT_FALSE(D.Parallelized);
    EXPECT_NE(D.Reason.find("do-while"), std::string::npos);
  }
}

TEST(BaselineTest, LLVMIVDetectionNeedsDoWhileShape) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 10; i = i + 1) s = s + i;   // while shape
      int j = 0;
      do { s = s + j; j = j + 1; } while (j < 10);    // do-while shape
      return s;
    }
  )");
  Function *Main = M->getFunction("main");
  nir::DominatorTree DT(*Main);
  nir::LoopInfo LI(*Main, DT);
  ASSERT_EQ(LI.getNumLoops(), 2u);
  unsigned Found = 0;
  for (auto *L : LI.getLoopsInPreorder())
    if (baselines::findGoverningIVLLVM(*L))
      ++Found;
  EXPECT_EQ(Found, 1u) << "LLVM-style detection sees only the do-while IV";
}

} // namespace
