//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the scheduler hierarchy (SCD) and the loop builder (LB):
/// PDG-legal motion, block scheduling, preheader creation, and
/// while -> do-while rotation.
///
//===----------------------------------------------------------------------===//

#include "frontend/MiniC.h"
#include "interp/Interpreter.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "noelle/Noelle.h"

#include <gtest/gtest.h>

using namespace noelle;
using nir::BasicBlock;
using nir::Context;
using nir::ExecutionEngine;
using nir::Function;
using nir::Instruction;

namespace {

//===----------------------------------------------------------------------===//
// Scheduler
//===----------------------------------------------------------------------===//

TEST(SchedulerTest, RefusesToMoveAcrossMemoryDependence) {
  Context Ctx;
  auto M = nir::parseModuleOrDie(Ctx, R"(
global @g : i64
func @f() -> i64 {
entry:
  store i64 1, @g
  %v = load i64, @g
  store i64 2, @g
  %w = load i64, @g
  %r = add i64 %v, %w
  ret i64 %r
}
)");
  Function *F = M->getFunction("f");
  Noelle N(*M);
  Scheduler S = N.getScheduler(*F);

  // %w (4th instr) cannot move above the second store.
  std::vector<Instruction *> Insts;
  for (auto &I : F->getEntryBlock().getInstList())
    Insts.push_back(I.get());
  Instruction *SecondStore = Insts[2];
  Instruction *LoadW = Insts[3];
  EXPECT_FALSE(S.canMoveBefore(LoadW, SecondStore));
  // But %r can move nowhere useful upward past its operands either.
  EXPECT_FALSE(S.canMoveBefore(Insts[4], Insts[3]));
}

TEST(SchedulerTest, MovesIndependentInstruction) {
  Context Ctx;
  auto M = nir::parseModuleOrDie(Ctx, R"(
func @f(%a: i64, %b: i64) -> i64 {
entry:
  %x = add i64 %a, 1
  %y = mul i64 %b, 2
  %r = add i64 %x, %y
  ret i64 %r
}
)");
  Function *F = M->getFunction("f");
  Noelle N(*M);
  Scheduler S = N.getScheduler(*F);
  std::vector<Instruction *> Insts;
  for (auto &I : F->getEntryBlock().getInstList())
    Insts.push_back(I.get());
  // %y is independent of %x: it may move above it.
  EXPECT_TRUE(S.canMoveBefore(Insts[1], Insts[0]));
  EXPECT_TRUE(S.moveBefore(Insts[1], Insts[0]));
  EXPECT_EQ(F->getEntryBlock().front(), Insts[1]);
  EXPECT_TRUE(nir::moduleVerifies(*M));
}

TEST(SchedulerTest, BlockSchedulingPreservesSemantics) {
  const char *Src = R"(
    int a[32];
    int main() {
      int s = 0;
      for (int i = 0; i < 32; i = i + 1) {
        int u = i * 3;
        int v = i + 100;
        int w = u * v;
        a[i] = w;
        s = s + w % 7;
      }
      return s;
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  int64_t Expected = ExecutionEngine(*M).runMain();

  Noelle N(*M);
  Function *Main = M->getFunction("main");
  PDG &DG = N.getFunctionDG(*Main);
  nir::DominatorTree &DT = N.getDominators(*Main);
  BasicBlockScheduler Sched(DG, DT);
  // Reverse-ish rank shuffles everything the PDG allows.
  for (auto &BB : Main->getBlocks())
    Sched.schedule(BB.get(), [](const Instruction *I) {
      return -static_cast<int>(I->getKind());
    });
  EXPECT_TRUE(nir::moduleVerifies(*M));
  EXPECT_EQ(ExecutionEngine(*M).runMain(), Expected);
}

TEST(SchedulerTest, LoopSchedulerShrinksHeader) {
  // A while loop whose header computes something only the body needs.
  Context Ctx;
  auto M = nir::parseModuleOrDie(Ctx, R"(
global @out : [64 x i64]
func @f(%n: i64) -> i64 {
entry:
  br label header
header:
  %i = phi i64 [0, entry], [%inext, body]
  %heavy = mul i64 %i, 12345
  %c = cmp slt i64 %i, %n
  br %c, label body, label exit
body:
  %p = gep @out, i64 %i, scale 8
  store i64 %heavy, %p
  %inext = add i64 %i, 1
  br label header
exit:
  ret i64 0
}
)");
  Function *F = M->getFunction("f");
  int64_t HeaderSizeBefore = 0;
  for (auto &BB : F->getBlocks())
    if (BB->getName() == "header")
      HeaderSizeBefore = static_cast<int64_t>(BB->size());

  Noelle N(*M);
  nir::LoopInfo &LI = N.getLoopInfo(*F);
  ASSERT_EQ(LI.getNumLoops(), 1u);
  PDG &DG = N.getFunctionDG(*F);
  LoopScheduler LS(DG, N.getDominators(*F), *LI.getTopLevelLoops()[0]);
  EXPECT_GT(LS.shrinkHeader(), 0u);
  for (auto &BB : F->getBlocks())
    if (BB->getName() == "header") {
      EXPECT_LT(static_cast<int64_t>(BB->size()), HeaderSizeBefore);
    }
  EXPECT_TRUE(nir::moduleVerifies(*M));
}

//===----------------------------------------------------------------------===//
// LoopBuilder
//===----------------------------------------------------------------------===//

TEST(LoopBuilderTest, CreatesPreheaderWhenMissing) {
  // Two out-of-loop predecessors of the header: no preheader.
  Context Ctx;
  auto M = nir::parseModuleOrDie(Ctx, R"(
global @out : [64 x i64]
func @f(%c: i1) -> i64 {
entry:
  br %c, label a, label b
a:
  br label header
b:
  br label header
header:
  %i = phi i64 [0, a], [5, b], [%inext, bodyblk]
  %cond = cmp slt i64 %i, 20
  br %cond, label bodyblk, label exit
bodyblk:
  %p = gep @out, i64 %i, scale 8
  store i64 %i, %p
  %inext = add i64 %i, 1
  br label header
exit:
  ret i64 %i
}
)");
  Function *F = M->getFunction("f");
  nir::DominatorTree DT(*F);
  nir::LoopInfo LI(*F, DT);
  ASSERT_EQ(LI.getNumLoops(), 1u);
  ASSERT_EQ(LI.getTopLevelLoops()[0]->getPreheader(), nullptr);

  LoopBuilder LB(Ctx);
  BasicBlock *PH = LB.getOrCreatePreheader(*LI.getTopLevelLoops()[0]);
  ASSERT_NE(PH, nullptr);
  EXPECT_TRUE(nir::moduleVerifies(*M));

  // Recompute: the loop now has a preheader, and execution still works.
  nir::DominatorTree DT2(*F);
  nir::LoopInfo LI2(*F, DT2);
  EXPECT_EQ(LI2.getTopLevelLoops()[0]->getPreheader(), PH);
  ExecutionEngine E(*M);
  auto RTrue =
      E.runFunction(F, {nir::RuntimeValue::ofInt(1)});
  auto RFalse =
      E.runFunction(F, {nir::RuntimeValue::ofInt(0)});
  EXPECT_EQ(RTrue.I, 20);
  EXPECT_EQ(RFalse.I, 20);
}

TEST(LoopBuilderTest, RotatesWhileToDoWhile) {
  const char *Src = R"(
    int out[64];
    int main() {
      for (int i = 0; i < 50; i = i + 1) out[i] = i * 2;
      int s = 0;
      for (int i = 0; i < 50; i = i + 1) s = s + out[i];
      return s;
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  int64_t Expected = ExecutionEngine(*M).runMain();

  Function *Main = M->getFunction("main");
  nir::DominatorTree DT(*Main);
  nir::LoopInfo LI(*Main, DT);
  // Rotate the first (store) loop: it has no register live-outs.
  nir::LoopStructure *Target = nullptr;
  for (auto *L : LI.getLoopsInPreorder())
    if (L->isWhileForm() && !Target)
      Target = L;
  ASSERT_NE(Target, nullptr);

  LoopBuilder LB(Ctx);
  bool Rotated = LB.rotateWhileToDoWhile(*Target);
  ASSERT_TRUE(Rotated);
  EXPECT_TRUE(nir::moduleVerifies(*M));

  // The rotated loop is now in do-while shape.
  nir::DominatorTree DT2(*Main);
  nir::LoopInfo LI2(*Main, DT2);
  bool AnyDoWhile = false;
  for (auto *L : LI2.getLoopsInPreorder())
    AnyDoWhile |= L->isDoWhileForm();
  EXPECT_TRUE(AnyDoWhile);
  EXPECT_EQ(ExecutionEngine(*M).runMain(), Expected);
}

TEST(LoopBuilderTest, RotationRefusedWhenValuesEscape) {
  // The sum loop's accumulator is live-out: rotation must refuse.
  const char *Src = R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 10; i = i + 1) s = s + i;
      return s;
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  Function *Main = M->getFunction("main");
  nir::DominatorTree DT(*Main);
  nir::LoopInfo LI(*Main, DT);
  ASSERT_EQ(LI.getNumLoops(), 1u);
  LoopBuilder LB(Ctx);
  EXPECT_FALSE(LB.rotateWhileToDoWhile(*LI.getTopLevelLoops()[0]));
  EXPECT_TRUE(nir::moduleVerifies(*M));
}

} // namespace
