//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for NOELLE's abstractions: PDG, aSCCDAG, invariants, induction
/// variables, reductions, environments, forest, and the demand-driven
/// Noelle manager.
///
//===----------------------------------------------------------------------===//

#include "frontend/MiniC.h"
#include "noelle/Noelle.h"

#include <gtest/gtest.h>

using namespace noelle;
using nir::Context;
using nir::Function;
using nir::Instruction;
using nir::LoopInfo;
using nir::LoopStructure;

namespace {

/// Compiles and returns the single top-level loop of @main (or the named
/// function).
struct LoopFixture {
  Context Ctx;
  std::unique_ptr<nir::Module> M;
  std::unique_ptr<Noelle> N;
  LoopContent *LC = nullptr;

  explicit LoopFixture(const char *Src, const char *FnName = "main") {
    M = minic::compileMiniCOrDie(Ctx, Src);
    N = std::make_unique<Noelle>(*M);
    for (LoopContent *Cand : N->getLoopContents())
      if (Cand->getLoopStructure().getFunction()->getName() == FnName &&
          !LC)
        LC = Cand;
    assert(LC && "fixture source has no loop");
  }
};

//===----------------------------------------------------------------------===//
// PDG
//===----------------------------------------------------------------------===//

TEST(PDGTest, RegisterDepsFollowDefUse) {
  LoopFixture F(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 10; i = i + 1) s = s + i;
      return s;
    }
  )");
  PDG &DG = F.LC->getLoopDG();
  // Every internal node with operands has incoming register edges.
  bool FoundRegEdge = false;
  for (auto *E : DG.getEdges())
    if (!E->IsControl && !E->IsMemory)
      FoundRegEdge = true;
  EXPECT_TRUE(FoundRegEdge);
}

TEST(PDGTest, MemoryDepWhenSameLocation) {
  LoopFixture F(R"(
    int buf[64];
    int main() {
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) {
        buf[0] = i;        // store to fixed slot
        s = s + buf[0];    // load from the same slot
      }
      return s;
    }
  )");
  PDG &DG = F.LC->getLoopDG();
  bool FoundRAWMem = false;
  for (auto *E : DG.getEdges())
    if (E->IsMemory && E->Kind == DataDepKind::RAW)
      FoundRAWMem = true;
  EXPECT_TRUE(FoundRAWMem);
}

TEST(PDGTest, NoMemoryDepAcrossDistinctArrays) {
  LoopFixture F(R"(
    int a[64];
    int b[64];
    int main() {
      for (int i = 0; i < 64; i = i + 1) {
        a[i] = i;
        b[i] = 2 * i;
      }
      return a[0] + b[0];
    }
  )");
  PDG &DG = F.LC->getLoopDG();
  // The two stores must not depend on each other.
  std::vector<Instruction *> Stores;
  for (nir::Value *V : DG.getInternalNodes())
    if (nir::isa<nir::StoreInst>(V))
      Stores.push_back(nir::cast<nir::StoreInst>(V));
  ASSERT_EQ(Stores.size(), 2u);
  for (auto *E : DG.getOutEdges(Stores[0]))
    EXPECT_NE(E->To, static_cast<nir::Value *>(Stores[1]));
}

TEST(PDGTest, ControlDependences) {
  LoopFixture F(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 10; i = i + 1) {
        if (i % 2 == 0) s = s + i;
      }
      return s;
    }
  )");
  PDG &DG = F.LC->getLoopDG();
  bool FoundControl = false;
  for (auto *E : DG.getEdges())
    if (E->IsControl)
      FoundControl = true;
  EXPECT_TRUE(FoundControl);
}

TEST(PDGTest, LoopCarriedRegisterDep) {
  LoopFixture F(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 10; i = i + 1) s = s + i;
      return s;
    }
  )");
  PDG &DG = F.LC->getLoopDG();
  bool FoundCarried = false;
  for (auto *E : DG.getEdges())
    if (E->IsLoopCarried && !E->IsMemory)
      FoundCarried = true;
  EXPECT_TRUE(FoundCarried);
}

TEST(PDGTest, IVIndexedArrayStoreIsNotLoopCarried) {
  LoopFixture F(R"(
    int a[128];
    int main() {
      for (int i = 0; i < 128; i = i + 1) a[i] = i * 3;
      return a[5];
    }
  )");
  PDG &DG = F.LC->getLoopDG();
  for (auto *E : DG.getEdges()) {
    if (!E->IsMemory)
      continue;
    auto *FromI = nir::dyn_cast<Instruction>(E->From);
    auto *ToI = nir::dyn_cast<Instruction>(E->To);
    if (FromI && ToI && F.LC->getLoopStructure().contains(FromI) &&
        F.LC->getLoopStructure().contains(ToI)) {
      EXPECT_FALSE(E->IsLoopCarried)
          << "a[i] self-dependence should not be loop-carried";
    }
  }
}

TEST(PDGTest, RecurrenceIsLoopCarried) {
  LoopFixture F(R"(
    int a[128];
    int main() {
      for (int i = 1; i < 128; i = i + 1) a[i] = a[i - 1] + 1;
      return a[100];
    }
  )");
  PDG &DG = F.LC->getLoopDG();
  bool CarriedMem = false;
  for (auto *E : DG.getEdges())
    if (E->IsMemory && E->IsLoopCarried)
      CarriedMem = true;
  EXPECT_TRUE(CarriedMem);
}

TEST(PDGTest, NoelleDisprovesMoreThanLLVMConfig) {
  const char *Src = R"(
    int A[256];
    int B[256];
    int C[256];
    void fill(int *p, int n, int k) {
      for (int i = 0; i < n; i = i + 1) p[i] = i * k;
    }
    int main() {
      int s = 0;
      for (int i = 0; i < 256; i = i + 1) {
        fill(A, 256, 1);      // writes only A or B (never C)
        s = s + C[i];         // NOELLE can prove fill does not touch C
        C[i] = s;
      }
      return s;
    }
  )";
  Context Ctx1, Ctx2;
  auto M1 = minic::compileMiniCOrDie(Ctx1, Src);
  auto M2 = minic::compileMiniCOrDie(Ctx2, Src);

  PDGBuildOptions LLVMOpts;
  LLVMOpts.AliasAnalysisName = "llvm";
  LLVMOpts.UseModRefSummaries = false;
  PDGBuilder LLVMBuilder(*M1, LLVMOpts);
  LLVMBuilder.getPDG();

  PDGBuildOptions NoelleOpts; // defaults: andersen + summaries
  PDGBuilder NoelleBuilder(*M2, NoelleOpts);
  NoelleBuilder.getPDG();

  const auto &SL = LLVMBuilder.getPDG().getStats();
  const auto &SN = NoelleBuilder.getPDG().getStats();
  EXPECT_EQ(SL.MemoryPairsQueried, SN.MemoryPairsQueried);
  EXPECT_GT(SN.MemoryPairsDisproved, SL.MemoryPairsDisproved)
      << "NOELLE's AA stack must disprove strictly more dependences";
}

//===----------------------------------------------------------------------===//
// aSCCDAG
//===----------------------------------------------------------------------===//

TEST(SCCDAGTest, ReductionSCCIsReducible) {
  LoopFixture F(R"(
    int a[256];
    int main() {
      int s = 0;
      for (int i = 0; i < 256; i = i + 1) s = s + a[i];
      return s;
    }
  )");
  SCCDAG &Dag = F.LC->getSCCDAG();
  unsigned Reducible = 0, Sequential = 0;
  for (const auto &S : Dag.getSCCs()) {
    if (S->getAttribute() == SCC::Attribute::Reducible)
      ++Reducible;
    if (S->getAttribute() == SCC::Attribute::Sequential &&
        S->size() > 1) {
      // The only multi-node sequential cycle should be the IV.
      bool HasPhi = false;
      for (auto *V : S->getNodes())
        if (nir::isa<nir::PhiInst>(V))
          HasPhi = true;
      EXPECT_TRUE(HasPhi);
      ++Sequential;
    }
  }
  EXPECT_EQ(Reducible, 1u) << "the sum accumulation must be reducible";
}

TEST(SCCDAGTest, IndependentSCCsForDOALLBody) {
  LoopFixture F(R"(
    int a[256];
    int b[256];
    int main() {
      for (int i = 0; i < 256; i = i + 1) b[i] = a[i] * 2;
      return b[0];
    }
  )");
  SCCDAG &Dag = F.LC->getSCCDAG();
  // The loads/stores of the body must sit in Independent SCCs; only the
  // IV cycle may be sequential.
  for (const auto &S : Dag.getSCCs()) {
    if (S->getAttribute() != SCC::Attribute::Sequential)
      continue;
    for (auto *V : S->getNodes())
      EXPECT_FALSE(nir::isa<nir::StoreInst>(V))
          << "stores must not be in sequential SCCs for a DOALL loop";
  }
}

TEST(SCCDAGTest, TopologicalOrderRespectsEdges) {
  LoopFixture F(R"(
    int a[64];
    int main() {
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) {
        int t = a[i] * 2;
        s = s + t;
      }
      return s;
    }
  )");
  SCCDAG &Dag = F.LC->getSCCDAG();
  auto Order = Dag.getTopologicalOrder();
  std::map<SCC *, size_t> Pos;
  for (size_t I = 0; I < Order.size(); ++I)
    Pos[Order[I]] = I;
  for (const auto &S : Dag.getSCCs())
    for (SCC *Succ : Dag.getSuccessors(S.get()))
      EXPECT_LT(Pos[S.get()], Pos[Succ]);
}

TEST(SCCDAGTest, IsAcyclic) {
  LoopFixture F(R"(
    int main() {
      int s = 0;
      int p = 1;
      for (int i = 0; i < 32; i = i + 1) {
        s = s + i;
        p = p * 2;
      }
      return s + p;
    }
  )");
  SCCDAG &Dag = F.LC->getSCCDAG();
  // DFS from each SCC must not return to itself.
  for (const auto &S : Dag.getSCCs()) {
    std::set<SCC *> Seen;
    std::vector<SCC *> Work(Dag.getSuccessors(S.get()).begin(),
                            Dag.getSuccessors(S.get()).end());
    while (!Work.empty()) {
      SCC *Cur = Work.back();
      Work.pop_back();
      EXPECT_NE(Cur, S.get()) << "SCCDAG has a cycle";
      if (!Seen.insert(Cur).second)
        continue;
      for (SCC *Next : Dag.getSuccessors(Cur))
        Work.push_back(Next);
    }
  }
}

//===----------------------------------------------------------------------===//
// Invariants (Algorithm 2)
//===----------------------------------------------------------------------===//

TEST(InvariantTest, DetectsArithmeticInvariant) {
  LoopFixture F(R"(
    int main() {
      int n = 100;
      int k = 3;
      int s = 0;
      for (int i = 0; i < n; i = i + 1) {
        int t = k * 7 + 2;   // invariant
        s = s + t + i;       // varies
      }
      return s;
    }
  )");
  auto &Inv = F.LC->getInvariantManager();
  auto Invariants = Inv.getInvariants();
  EXPECT_FALSE(Invariants.empty());
  // The IV update must not be invariant.
  auto &IVs = F.LC->getIVManager();
  ASSERT_FALSE(IVs.getInductionVariables().empty());
  EXPECT_FALSE(Inv.isLoopInvariant(
      IVs.getInductionVariables()[0]->getStepInstruction()));
}

TEST(InvariantTest, LoadFromUnmodifiedMemoryIsInvariant) {
  LoopFixture F(R"(
    int cfg[4];
    int out[64];
    int main() {
      for (int i = 0; i < 64; i = i + 1) {
        out[i] = cfg[0] * i;   // cfg never written in the loop
      }
      return out[3];
    }
  )");
  auto &Inv = F.LC->getInvariantManager();
  bool FoundInvariantLoad = false;
  for (Instruction *I : Inv.getInvariants())
    if (nir::isa<nir::LoadInst>(I))
      FoundInvariantLoad = true;
  EXPECT_TRUE(FoundInvariantLoad)
      << "PDG-powered invariance must see through unmodified memory";
}

TEST(InvariantTest, LoadFromModifiedMemoryIsVariant) {
  LoopFixture F(R"(
    int cfg[4];
    int main() {
      int s = 0;
      for (int i = 0; i < 64; i = i + 1) {
        s = s + cfg[0];
        cfg[0] = i;          // modified inside the loop
      }
      return s;
    }
  )");
  auto &Inv = F.LC->getInvariantManager();
  for (Instruction *I : Inv.getInvariants())
    EXPECT_FALSE(nir::isa<nir::LoadInst>(I))
        << "load from written memory must not be invariant";
}

//===----------------------------------------------------------------------===//
// Induction variables
//===----------------------------------------------------------------------===//

TEST(IVTest, DetectsIVInWhileShapedLoop) {
  LoopFixture F(R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 10; i = i + 1) s = s + i;
      return s;
    }
  )");
  auto &IVs = F.LC->getIVManager();
  ASSERT_EQ(IVs.getInductionVariables().size(), 1u);
  auto *IV = IVs.getInductionVariables()[0].get();
  EXPECT_TRUE(IV->hasConstantStep());
  EXPECT_EQ(IV->getConstantStep(), 1);
  ASSERT_NE(IVs.getGoverningIV(), nullptr);
  EXPECT_EQ(IVs.getGoverningIV(), IV);
}

TEST(IVTest, DetectsNegativeStep) {
  LoopFixture F(R"(
    int main() {
      int s = 0;
      for (int i = 100; i > 0; i = i - 1) s = s + i;
      return s;
    }
  )");
  auto &IVs = F.LC->getIVManager();
  ASSERT_EQ(IVs.getInductionVariables().size(), 1u);
  EXPECT_EQ(IVs.getInductionVariables()[0]->getConstantStep(), -1);
  EXPECT_NE(IVs.getGoverningIV(), nullptr);
}

TEST(IVTest, MultipleIVs) {
  LoopFixture F(R"(
    int main() {
      int s = 0;
      int j = 100;
      for (int i = 0; i < 50; i = i + 2) {
        s = s + j;
        j = j + 3;
      }
      return s;
    }
  )");
  auto &IVs = F.LC->getIVManager();
  EXPECT_EQ(IVs.getInductionVariables().size(), 2u);
  ASSERT_NE(IVs.getGoverningIV(), nullptr);
  EXPECT_EQ(IVs.getGoverningIV()->getConstantStep(), 2);
}

TEST(IVTest, GoverningIVInDoWhileLoop) {
  LoopFixture F(R"(
    int main() {
      int s = 0;
      int i = 0;
      do { s = s + i; i = i + 1; } while (i < 10);
      return s;
    }
  )");
  auto &IVs = F.LC->getIVManager();
  ASSERT_FALSE(IVs.getInductionVariables().empty());
  EXPECT_NE(IVs.getGoverningIV(), nullptr)
      << "NOELLE detects governing IVs regardless of loop shape";
}

//===----------------------------------------------------------------------===//
// Reductions
//===----------------------------------------------------------------------===//

TEST(ReductionTest, SumAndProduct) {
  LoopFixture F(R"(
    int a[32];
    int main() {
      int s = 0;
      int p = 1;
      for (int i = 0; i < 32; i = i + 1) {
        s = s + a[i];
        p = p * 2;
      }
      return s + p;
    }
  )");
  auto &RM = F.LC->getReductionManager();
  ASSERT_EQ(RM.getReductions().size(), 2u);
  std::set<nir::BinaryInst::Op> Ops;
  for (const auto &R : RM.getReductions())
    Ops.insert(R.Op);
  EXPECT_TRUE(Ops.count(nir::BinaryInst::Op::Add));
  EXPECT_TRUE(Ops.count(nir::BinaryInst::Op::Mul));
}

TEST(ReductionTest, IdentityValues) {
  LoopFixture F(R"(
    int a[32];
    int main() {
      int s = 0;
      for (int i = 0; i < 32; i = i + 1) s = s + a[i];
      return s;
    }
  )");
  auto &RM = F.LC->getReductionManager();
  ASSERT_EQ(RM.getReductions().size(), 1u);
  const auto &R = RM.getReductions()[0];
  auto *Id = nir::dyn_cast<nir::ConstantInt>(R.getIdentity(F.Ctx));
  ASSERT_NE(Id, nullptr);
  EXPECT_EQ(Id->getValue(), 0);
}

TEST(ReductionTest, NonAssociativeUpdateIsNotReduction) {
  LoopFixture F(R"(
    int a[32];
    int main() {
      int s = 1;
      for (int i = 0; i < 32; i = i + 1) s = s / 2 + a[i];
      return s;
    }
  )");
  auto &RM = F.LC->getReductionManager();
  EXPECT_TRUE(RM.getReductions().empty());
}

TEST(ReductionTest, IntermediateUseBlocksReduction) {
  LoopFixture F(R"(
    int a[32];
    int b[32];
    int main() {
      int s = 0;
      for (int i = 0; i < 32; i = i + 1) {
        s = s + a[i];
        b[i] = s;     // observes intermediate sums
      }
      return s;
    }
  )");
  auto &RM = F.LC->getReductionManager();
  EXPECT_TRUE(RM.getReductions().empty())
      << "a reduction whose partial values escape cannot be reordered";
}

//===----------------------------------------------------------------------===//
// Environment
//===----------------------------------------------------------------------===//

TEST(EnvironmentTest, LiveInsAndLiveOuts) {
  LoopFixture F(R"(
    int compute(int n, int k) {
      int s = 0;
      for (int i = 0; i < n; i = i + 1) s = s + i * k;
      return s;
    }
    int main() { return compute(10, 3); }
  )",
                "compute");
  auto &Env = F.LC->getEnvironment();
  // live-ins: n and k (arguments used in the loop).
  EXPECT_EQ(Env.getLiveIns().size(), 2u);
  // live-outs: the sum (used by the return).
  ASSERT_EQ(Env.getLiveOuts().size(), 1u);
  EXPECT_GE(Env.indexOfLiveOut(Env.getLiveOuts()[0]), 0);
  EXPECT_EQ(Env.size(), 3u);
}

//===----------------------------------------------------------------------===//
// Forest
//===----------------------------------------------------------------------===//

TEST(ForestTest, RemoveNodeReattachesChildren) {
  Forest<int> F;
  int A = 1, B = 2, C = 3, D = 4;
  auto *NA = F.addNode(&A, nullptr);
  auto *NB = F.addNode(&B, NA);
  auto *NC = F.addNode(&C, NB);
  auto *ND = F.addNode(&D, NB);
  EXPECT_EQ(F.size(), 4u);

  F.removeNode(NB);
  EXPECT_EQ(F.size(), 3u);
  // C and D re-attach to A.
  EXPECT_EQ(NC->Parent, NA);
  EXPECT_EQ(ND->Parent, NA);
  EXPECT_EQ(NA->Children.size(), 2u);
}

TEST(ForestTest, PostorderVisitsChildrenFirst) {
  Forest<int> F;
  int A = 1, B = 2, C = 3;
  auto *NA = F.addNode(&A, nullptr);
  F.addNode(&B, NA);
  F.addNode(&C, NA);
  std::vector<int> Order;
  F.visitPostorder([&](Forest<int>::Node *N) { Order.push_back(*N->Payload); });
  ASSERT_EQ(Order.size(), 3u);
  EXPECT_EQ(Order.back(), 1);
}

TEST(ForestTest, LoopNestingForest) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 4; i = i + 1)
        for (int j = 0; j < 4; j = j + 1)
          s = s + i * j;
      return s;
    }
  )");
  Noelle N(*M);
  auto &F = N.getLoopForest();
  ASSERT_EQ(F.getRoots().size(), 1u);
  EXPECT_EQ(F.getRoots()[0]->Children.size(), 1u);
  EXPECT_EQ(F.size(), 2u);
}

//===----------------------------------------------------------------------===//
// Noelle manager
//===----------------------------------------------------------------------===//

TEST(NoelleTest, TracksRequestedAbstractions) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 4; i = i + 1) s = s + i;
      return s;
    }
  )");
  Noelle N(*M);
  EXPECT_TRUE(N.getRequestedAbstractions().empty());
  N.getPDG();
  EXPECT_TRUE(N.getRequestedAbstractions().contains(Abstraction::PDG));
  EXPECT_FALSE(N.getRequestedAbstractions().contains(Abstraction::CG));
  EXPECT_TRUE(N.getRequestedAbstractions().names().count("PDG"));
  N.getCallGraph();
  EXPECT_TRUE(N.getRequestedAbstractions().contains(Abstraction::CG));
  N.resetRequestTracking();
  EXPECT_TRUE(N.getRequestedAbstractions().empty());
}

TEST(NoelleTest, HotnessFiltersLoops) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, R"(
    int main() {
      int s = 0;
      for (int i = 0; i < 10000; i = i + 1) s = s + i;   // hot
      for (int i = 0; i < 2; i = i + 1) s = s + 1;       // cold
      return s;
    }
  )");
  // Profile, embed, then load through Noelle with a hotness bar.
  auto Prof = Profiler::profileModule(*M);
  Prof.embed(*M);

  NoelleOptions Opts;
  Opts.MinimumLoopHotness = 0.5;
  Noelle N(*M, Opts);
  auto Hot = N.getLoopContents();
  ASSERT_EQ(Hot.size(), 1u);

  NoelleOptions All;
  Noelle N2(*M, All);
  EXPECT_EQ(N2.getLoopContents().size(), 2u);
}

} // namespace
