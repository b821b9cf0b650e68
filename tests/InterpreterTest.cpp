//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the optimizing interpreter: decode-time optimization
/// (constant folding into immediate opcodes, GEP flattening, phi edge
/// moves, superinstruction fusion) must be observationally invisible —
/// same results, same output, same retired-instruction counts — across
/// every dispatch tier; DispatchRecords must be identical across tiers
/// for parallelized programs; the observed tier must report the same
/// profile regardless of decode optimization; the retirement flush
/// protocol must expose identical counts at every external-call
/// boundary; and the decoded speculative accessors must be plain memory
/// accesses outside a speculative dispatch.
///
//===----------------------------------------------------------------------===//

#include "frontend/MiniC.h"
#include "interp/Interpreter.h"
#include "noelle/MemDepProfiler.h"
#include "noelle/Profiler.h"
#include "runtime/ParallelRuntime.h"
#include "verify/CheckMetadata.h"
#include "xforms/DOALL.h"
#include "xforms/DSWP.h"
#include "xforms/SpecDOALL.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>

using namespace noelle;
using nir::Context;
using nir::ExecutionEngine;
using nir::Function;
using nir::RuntimeValue;

namespace {

/// The four engine configurations every equivalence test sweeps: decode
/// optimization on/off crossed with threaded/switch dispatch. When the
/// build has no computed-goto support the threaded rows silently run
/// the switch loop (DispatchMode::Auto semantics), which still checks
/// opt vs noopt.
std::vector<std::pair<const char *, ExecutionEngine::Options>> allConfigs() {
  std::vector<std::pair<const char *, ExecutionEngine::Options>> Out;
  for (bool Opt : {true, false})
    for (auto Mode : {ExecutionEngine::DispatchMode::Threaded,
                      ExecutionEngine::DispatchMode::Switch}) {
      ExecutionEngine::Options O;
      O.DecodeOpt = Opt;
      O.Dispatch = Mode;
      Out.push_back({Opt ? (Mode == ExecutionEngine::DispatchMode::Threaded
                                ? "threaded+opt"
                                : "switch+opt")
                         : (Mode == ExecutionEngine::DispatchMode::Threaded
                                ? "threaded+noopt"
                                : "switch+noopt"),
                     O});
    }
  return Out;
}

struct Observed {
  int64_t Ret = 0;
  std::string Output;
  uint64_t Instructions = 0;
};

/// Runs @main of \p Src under every configuration and checks that the
/// result, the captured output, and the retired-instruction count all
/// agree; returns the common observation.
Observed runAllConfigs(const char *Src) {
  Observed First;
  bool HaveFirst = false;
  for (const auto &[Name, Opts] : allConfigs()) {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, Src);
    ExecutionEngine E(*M, Opts);
    Observed O;
    O.Ret = E.runMain();
    O.Output = E.getOutput();
    O.Instructions = E.getInstructionsExecuted();
    if (!HaveFirst) {
      First = O;
      HaveFirst = true;
      continue;
    }
    EXPECT_EQ(O.Ret, First.Ret) << Name;
    EXPECT_EQ(O.Output, First.Output) << Name;
    EXPECT_EQ(O.Instructions, First.Instructions) << Name;
  }
  return First;
}

//===----------------------------------------------------------------------===//
// Decode-time optimization is observationally invisible.
//===----------------------------------------------------------------------===//

TEST(InterpFoldingTest, ConstantOperandsFoldToImmediates) {
  // Every binary/compare shape with one constant operand, on both
  // sides (the non-commutative ones decode to dedicated IR variants).
  Observed O = runAllConfigs(R"(
    int main() {
      int s = 0;
      for (int i = 1; i < 200; i = i + 1) {
        s = s + i * 3;
        s = s - 100 / i;
        s = s + (1000 - i);
        s = s + i / 7 + i % 7;
        s = s + 4096 / i - 4096 % i;
        if (s > 100000) s = s - 100000;
        if (17 < i) s = s + 1;
      }
      return s;
    }
  )");
  EXPECT_NE(O.Ret, 0);
}

TEST(InterpFoldingTest, FloatImmediatesAndCasts) {
  Observed O = runAllConfigs(R"(
    int main() {
      double acc = 0.0;
      for (int i = 0; i < 100; i = i + 1) {
        double x = i * 1.5;
        acc = acc + x * 2.0 - 0.25;
        acc = acc + 10.0 / (x + 1.0);
      }
      print_f64(acc);
      return (int)acc;
    }
  )");
  EXPECT_FALSE(O.Output.empty());
}

TEST(InterpFoldingTest, GepFlatteningOnMultiDimIndexing) {
  // a[i*10+j] style addressing: the decoder folds the index arithmetic
  // into a single scaled-index address opcode and fuses it into the
  // adjacent load/store.
  Observed O = runAllConfigs(R"(
    int a[100];
    char bytes[100];
    int main() {
      for (int i = 0; i < 10; i = i + 1)
        for (int j = 0; j < 10; j = j + 1) {
          a[i * 10 + j] = i * j + 1;
          bytes[i * 10 + j] = i + j;
        }
      int s = 0;
      for (int i = 0; i < 10; i = i + 1)
        for (int j = 0; j < 10; j = j + 1)
          s = s + a[j * 10 + i] + bytes[j * 10 + i];
      return s;
    }
  )");
  EXPECT_NE(O.Ret, 0);
}

TEST(InterpFoldingTest, PhiSwapCycleSequentializes) {
  // The classic parallel-copy cycle: both loop phis read each other's
  // previous value, forcing the edge-move sequentializer through its
  // scratch-register path.
  Observed O = runAllConfigs(R"(
    int main() {
      int a = 1;
      int b = 2;
      int c = 3;
      for (int i = 0; i < 50; i = i + 1) {
        int t = a;
        a = b;
        b = c;
        c = t;
      }
      return a * 1000000 + b * 1000 + c;
    }
  )");
  // 50 rotations of (1,2,3): 50 % 3 == 2 -> (3,1,2).
  EXPECT_EQ(O.Ret, 3001002);
}

TEST(InterpFoldingTest, WrappedDivisionEdgeCases) {
  // INT64_MIN / -1 wraps (defined behavior in the interpreter), the
  // matching srem is 0, and shift amounts are masked to 6 bits. Checked
  // through runFunction so the operands stay runtime values.
  const char *Src = R"(
    int div(int a, int b) { return a / b; }
    int rem(int a, int b) { return a % b; }
    int shl(int a, int b) { return a << b; }
  )";
  for (const auto &[Name, Opts] : allConfigs()) {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, Src);
    ExecutionEngine E(*M, Opts);
    int64_t Min = INT64_MIN;
    auto Call = [&](const char *F, int64_t A, int64_t B) {
      return E
          .runFunction(M->getFunction(F),
                       {RuntimeValue::ofInt(A), RuntimeValue::ofInt(B)})
          .I;
    };
    EXPECT_EQ(Call("div", Min, -1), Min) << Name;
    EXPECT_EQ(Call("rem", Min, -1), 0) << Name;
    EXPECT_EQ(Call("div", 7, 0), 0) << Name;
    EXPECT_EQ(Call("rem", 7, 0), 0) << Name;
    EXPECT_EQ(Call("shl", 1, 65), 2) << Name;
  }
}

//===----------------------------------------------------------------------===//
// DispatchRecords are identical across tiers (the Figure-5 pin).
//===----------------------------------------------------------------------===//

struct AtomicObserver : nir::ExecutionObserver {
  std::atomic<uint64_t> Blocks{0};
  void onBlockExecuted(const nir::BasicBlock *) override {
    Blocks.fetch_add(1, std::memory_order_relaxed);
  }
};

void expectSameRecords(const std::vector<nir::DispatchRecord> &A,
                       const std::vector<nir::DispatchRecord> &B,
                       const char *Tag) {
  ASSERT_EQ(A.size(), B.size()) << Tag;
  for (size_t I = 0; I < A.size(); ++I) {
    EXPECT_EQ(A[I].NumTasks, B[I].NumTasks) << Tag << " #" << I;
    EXPECT_EQ(A[I].MaxTaskInstructions, B[I].MaxTaskInstructions)
        << Tag << " #" << I;
    EXPECT_EQ(A[I].TotalTaskInstructions, B[I].TotalTaskInstructions)
        << Tag << " #" << I;
    EXPECT_EQ(A[I].MaxTaskSyncOps, B[I].MaxTaskSyncOps) << Tag << " #" << I;
    EXPECT_EQ(A[I].TotalTaskSyncOps, B[I].TotalTaskSyncOps)
        << Tag << " #" << I;
    EXPECT_EQ(A[I].TotalSegmentInstructions, B[I].TotalSegmentInstructions)
        << Tag << " #" << I;
  }
}

/// The spec-suite's seeded kernel on its profiled input (mode == 0):
/// every inner iteration touches its own data[i], so each speculative
/// dispatch commits. Its task body is journaled accesses only, which the
/// engine decodes to the SpecLd/SpecSt opcodes; the task's environment
/// holds one live-in, r.
const char *SeededSpecSrc = R"(
  int mode;
  int data[2048];
  int main() {
    int total = 0;
    for (int r = 0; r < 8; r = r + 1) {
      for (int i = 0; i < 2048; i = i + 1) {
        int idx = i;
        if (mode > 0) idx = 0;
        data[idx] = data[idx] + i + r;
      }
      total = total + data[r];
    }
    return total % 100007;
  }
)";

/// Profiles \p M's memory dependences and applies SpecDOALL to every
/// loop it admits; returns the doall-spec task (null if none).
Function *speculate(nir::Module &M) {
  profileMemDeps(M).embed(M);
  Noelle N(M);
  SpecDOALL(N).run();
  for (const auto &F : M.getFunctions())
    if (F->getMetadata(verify::TaskKindKey) == "doall-spec")
      return F.get();
  return nullptr;
}

TEST(InterpDispatchTest, RecordsInvariantAcrossTiersUnderDOALLAndDSWP) {
  const char *Src = R"(
    int a[512];
    int main() {
      for (int i = 0; i < 512; i = i + 1) a[i] = (i * 37 + 11) % 101;
      int x = 1;
      int y = 0;
      for (int i = 0; i < 512; i = i + 1) {
        x = (x * 13 + a[i]) % 65537;
        y = (y + x * 3) % 39916801;
      }
      return y;
    }
  )";
  for (const std::string Which : {"doall", "dswp", "doall-spec"}) {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(
        Ctx, Which == "doall-spec" ? SeededSpecSrc : Src);
    if (Which == "doall-spec") {
      ASSERT_NE(speculate(*M), nullptr);
    } else {
      Noelle N(*M);
      unsigned Parallelized = 0;
      if (Which == "doall") {
        DOALLOptions O;
        O.NumCores = 4;
        DOALL Tool(N, O);
        for (const auto &D : Tool.run())
          Parallelized += D.Parallelized;
      } else {
        DSWPOptions O;
        O.NumCores = 2;
        O.MinimumStageWeight = 0;
        DSWP Tool(N, O);
        for (const auto &D : Tool.run())
          Parallelized += D.Parallelized;
      }
      ASSERT_GE(Parallelized, 1u) << Which;
    }

    auto runTier = [&](ExecutionEngine::DispatchMode Mode, bool Observe,
                       bool DecodeOpt) {
      ExecutionEngine E(*M, [&] {
        ExecutionEngine::Options O;
        O.Dispatch = Mode;
        O.DecodeOpt = DecodeOpt;
        return O;
      }());
      registerParallelRuntime(E);
      AtomicObserver Obs;
      if (Observe)
        E.setObserver(&Obs);
      int64_t Ret = E.runMain();
      return std::make_pair(Ret, E.getDispatchRecords());
    };

    const char *Tag = Which.c_str();
    auto [RetT, RecT] =
        runTier(ExecutionEngine::DispatchMode::Threaded, false, true);
    auto [RetS, RecS] =
        runTier(ExecutionEngine::DispatchMode::Switch, false, true);
    auto [RetO, RecO] =
        runTier(ExecutionEngine::DispatchMode::Auto, true, true);
    auto [RetN, RecN] =
        runTier(ExecutionEngine::DispatchMode::Auto, false, false);
    EXPECT_EQ(RetT, RetS) << Tag;
    EXPECT_EQ(RetT, RetO) << Tag;
    EXPECT_EQ(RetT, RetN) << Tag;
    ASSERT_FALSE(RecT.empty()) << Tag;
    expectSameRecords(RecT, RecS, Tag);
    expectSameRecords(RecT, RecO, Tag);
    expectSameRecords(RecT, RecN, Tag);
  }
}

TEST(InterpDispatchTest, SpecTaskOutsideDispatchWritesMemory) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, SeededSpecSrc);
  Function *Task = speculate(*M);
  ASSERT_NE(Task, nullptr);
  const int64_t NumTasks =
      std::stoll(Task->getMetadata(verify::TaskWorkersKey));

  // With no journal installed the task's speculative accesses are plain
  // loads and stores: running every task of one outer iteration (r = 5)
  // updates data[] in place.
  for (bool DecodeOpt : {true, false}) {
    ExecutionEngine::Options O;
    O.DecodeOpt = DecodeOpt;
    ExecutionEngine E(*M, O);
    const int64_t Env[1] = {5};
    for (int64_t T = 0; T < NumTasks; ++T)
      E.runFunction(Task,
                    {RuntimeValue::ofPtr(reinterpret_cast<uint64_t>(Env)),
                     RuntimeValue::ofInt(T), RuntimeValue::ofInt(NumTasks)});
    const auto *Data = reinterpret_cast<const int64_t *>(
        E.getGlobalAddress(M->getGlobal("data")));
    for (int64_t I = 0; I < 2048; ++I)
      ASSERT_EQ(Data[I], I + 5)
          << "data[" << I << "], decode-opt " << DecodeOpt;
  }
}

//===----------------------------------------------------------------------===//
// Observer semantics under batching.
//===----------------------------------------------------------------------===//

TEST(InterpObserverTest, ProfileInvariantUnderDecodeOpt) {
  const char *Src = R"(
    int fib(int n) {
      if (n < 2) return n;
      return fib(n - 1) + fib(n - 2);
    }
    int main() {
      int s = 0;
      for (int i = 0; i < 12; i = i + 1)
        if (i - (i / 2) * 2 == 0) s = s + fib(i);
      return s;
    }
  )";
  auto profile = [&](bool Opt, Context &Ctx,
                     std::unique_ptr<nir::Module> &M) {
    M = minic::compileMiniCOrDie(Ctx, Src);
    ExecutionEngine::Options O;
    O.DecodeOpt = Opt;
    ExecutionEngine E(*M, O);
    Profiler P(*M);
    E.setObserver(&P);
    E.runMain();
    return P.takeData();
  };
  Context CtxA, CtxB;
  std::unique_ptr<nir::Module> MA, MB;
  ProfileData A = profile(true, CtxA, MA);
  ProfileData B = profile(false, CtxB, MB);

  EXPECT_EQ(A.getTotalInstructions(), B.getTotalInstructions());
  EXPECT_GT(A.getTotalInstructions(), 0u);
  // Same program, two parses: compare block counts positionally.
  for (const auto &FA : MA->getFunctions()) {
    if (FA->isDeclaration())
      continue;
    const Function *FB = MB->getFunction(FA->getName());
    ASSERT_NE(FB, nullptr);
    EXPECT_EQ(A.getFunctionInvocations(FA.get()),
              B.getFunctionInvocations(FB));
    auto ItA = FA->getBlocks().begin();
    auto ItB = FB->getBlocks().begin();
    for (; ItA != FA->getBlocks().end(); ++ItA, ++ItB) {
      ASSERT_NE(ItB, FB->getBlocks().end());
      EXPECT_EQ(A.getBlockCount(ItA->get()), B.getBlockCount(ItB->get()))
          << FA->getName() << "/" << (*ItA)->getName();
    }
  }
}

TEST(InterpObserverTest, InstructionCountUnchangedByObserver) {
  const char *Src = R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 500; i = i + 1) s = s + i * i;
      return s % 1000;
    }
  )";
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  uint64_t Without, With;
  int64_t RetA, RetB;
  {
    ExecutionEngine E(*M);
    RetA = E.runMain();
    Without = E.getInstructionsExecuted();
  }
  {
    ExecutionEngine E(*M);
    AtomicObserver Obs;
    E.setObserver(&Obs);
    RetB = E.runMain();
    With = E.getInstructionsExecuted();
    EXPECT_GT(Obs.Blocks.load(), 0u);
  }
  EXPECT_EQ(RetA, RetB);
  EXPECT_EQ(Without, With);
}

//===----------------------------------------------------------------------===//
// Retirement flush protocol at external-call boundaries.
//===----------------------------------------------------------------------===//

TEST(InterpRetireTest, ExternalCallsSeeIdenticalCountsAcrossConfigs) {
  // The engine must flush retired instructions up to and including the
  // call before entering an external, so the sequence of thread counts
  // seen by the external is pinned by the original instruction stream —
  // independent of fusion, folding, and dispatch tier. The engine-wide
  // count takes main's instructions when main returns.
  const char *Src = R"(
    extern int probe(int x);
    int a[64];
    int main() {
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) {
        a[i] = i * 3 + 1;
        s = s + a[i];
        if (i - (i / 7) * 7 == 0) s = s + probe(s);
      }
      return probe(s);
    }
  )";
  std::vector<std::vector<uint64_t>> Sequences;
  std::vector<int64_t> Rets;
  for (const auto &[Name, Opts] : allConfigs()) {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, Src);
    ExecutionEngine E(*M, Opts);
    std::vector<uint64_t> Seq;
    E.registerExternal(
        "probe", [&Seq](ExecutionEngine &, const nir::CallInst *,
                        const std::vector<RuntimeValue> &Args) {
          Seq.push_back(ExecutionEngine::readThreadRetired());
          return RuntimeValue::ofInt(Args[0].I % 11);
        });
    ExecutionEngine::resetThreadRetired();
    Rets.push_back(E.runMain());
    EXPECT_EQ(E.getInstructionsExecuted(),
              ExecutionEngine::readThreadRetired())
        << Name;
    Sequences.push_back(std::move(Seq));
  }
  for (size_t I = 1; I < Sequences.size(); ++I) {
    EXPECT_EQ(Rets[I], Rets[0]);
    EXPECT_EQ(Sequences[I], Sequences[0]) << "config #" << I;
  }
  ASSERT_EQ(Sequences[0].size(), 11u); // 10 in-loop probes + the final one
  EXPECT_GT(Sequences[0][0], 0u);
  for (size_t I = 1; I < Sequences[0].size(); ++I)
    EXPECT_LT(Sequences[0][I - 1], Sequences[0][I]) << "probe #" << I;
}

} // namespace
