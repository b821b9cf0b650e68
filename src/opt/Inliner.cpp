//===----------------------------------------------------------------------===//
///
/// \file
/// Function inlining with a size/benefit heuristic. Recursion is ruled
/// out with the complete call graph (CG) rather than a syntactic scan:
/// a callee is inlinable only when it cannot reach itself through any
/// chain of calls. The call site's block is split after the call, the
/// callee body is cloned with arguments and blocks remapped, returns
/// become branches to the tail block (joined by a phi when the call
/// produces a value), and the call disappears.
///
/// Callees containing allocas never inline: the interpreter zero-fills a
/// frame once per call, so a cloned alloca inside a caller loop would
/// see the previous iteration's bytes — a semantic change, not just a
/// layout one.
///
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "ir/Instructions.h"

#include <map>
#include <set>

using namespace noelle;
using nir::BasicBlock;
using nir::BranchInst;
using nir::CallInst;
using nir::Function;
using nir::Instruction;
using nir::PhiInst;
using nir::RetInst;
using nir::Value;

namespace {

/// Callees above this instruction count never inline.
constexpr unsigned InlineBudget = 64;

struct CalleeProfile {
  uint64_t NumInsts = 0;
  bool HasAlloca = false;
};

CalleeProfile profileOf(Function &F) {
  CalleeProfile P;
  for (const auto &BB : F.getBlocks())
    for (const auto &I : BB->getInstList()) {
      ++P.NumInsts;
      if (nir::isa<nir::AllocaInst>(I.get()))
        P.HasAlloca = true;
    }
  return P;
}

/// True when \p F can call back into itself through any call chain.
bool isRecursive(CallGraph &CG, Function *F) {
  std::vector<Function *> DirectCallees;
  for (auto *E : CG.getCallees(F))
    DirectCallees.push_back(E->Callee);
  if (DirectCallees.empty())
    return false;
  return CG.getReachableFrom(DirectCallees).count(F) != 0;
}

/// Inlines one call site. \p Call must be a direct call to a defined
/// function; the caller guarantees the heuristic already approved it.
void inlineCallSite(CallInst *Call) {
  Function *Caller = Call->getParent()->getParent();
  Function *Callee = Call->getCalledFunction();
  BasicBlock *BB = Call->getParent();

  // Split the block right after the call; the rest of it becomes the
  // tail block the cloned returns branch to. A call is never a
  // terminator, so a next instruction always exists.
  BasicBlock *TailBB =
      BB->splitBefore(Call->getNextInst(), BB->getName() + ".tail");
  // The terminator moved into the tail block, so phis naming BB as a
  // predecessor must name TailBB now.
  for (BasicBlock *Succ : TailBB->successors())
    for (const auto &I : Succ->getInstList()) {
      auto *Phi = nir::dyn_cast<PhiInst>(I.get());
      if (!Phi)
        break;
      int Idx;
      while ((Idx = Phi->getBlockIndex(BB)) >= 0)
        Phi->setIncomingBlock(static_cast<unsigned>(Idx), TailBB);
    }

  // Clone the callee body: first materialize every block and
  // instruction, then remap operands (forward phi references need the
  // complete map).
  std::map<Value *, Value *> VMap;
  for (unsigned I = 0, E = Callee->getNumArgs(); I != E; ++I)
    VMap[Callee->getArg(I)] = Call->getArg(I);
  std::vector<BasicBlock *> NewBlocks;
  for (const auto &CBB : Callee->getBlocks()) {
    BasicBlock *NBB = Caller->createBlock(CBB->getName() + ".inl");
    VMap[CBB.get()] = NBB;
    NewBlocks.push_back(NBB);
    for (const auto &I : CBB->getInstList()) {
      Instruction *C = I->clone();
      NBB->push_back(std::unique_ptr<Instruction>(C));
      VMap[I.get()] = C;
    }
  }
  for (BasicBlock *NBB : NewBlocks)
    for (const auto &I : NBB->getInstList())
      for (unsigned OpI = 0, OpE = I->getNumOperands(); OpI != OpE; ++OpI) {
        auto Found = VMap.find(I->getOperand(OpI));
        if (Found != VMap.end())
          I->setOperand(OpI, Found->second);
      }

  // Returns become branches to the tail; a value-producing call joins
  // the returned values with a phi at the tail's head.
  std::vector<std::pair<BasicBlock *, Value *>> Rets;
  for (BasicBlock *NBB : NewBlocks) {
    auto *Ret = nir::dyn_cast<RetInst>(NBB->getTerminator());
    if (!Ret)
      continue;
    Value *RV = Ret->hasReturnValue() ? Ret->getReturnValue() : nullptr;
    Rets.emplace_back(NBB, RV);
    Ret->eraseFromParent();
    NBB->push_back(std::make_unique<BranchInst>(
        Caller->getParent()->getContext().getVoidTy(), TailBB));
  }

  // Enter the cloned body instead of calling.
  auto *Entry = nir::cast<BasicBlock>(VMap.at(&Callee->getEntryBlock()));
  nir::cast<BranchInst>(BB->getTerminator())->setSuccessor(0, Entry);

  if (!Call->getType()->isVoid()) {
    if (Rets.size() == 1) {
      Call->replaceAllUsesWith(Rets.front().second);
    } else {
      auto Join = std::make_unique<PhiInst>(Call->getType());
      for (auto &[RBB, RV] : Rets)
        Join->addIncoming(RV, RBB);
      PhiInst *JoinP = nir::cast<PhiInst>(
          TailBB->insert(TailBB->getInstList().begin()->get(),
                         std::move(Join)));
      Call->replaceAllUsesWith(JoinP);
    }
  }
  Call->eraseFromParent();
}

} // namespace

uint64_t noelle::opt::inlineFunctions(Noelle &N, PipelineStats &S) {
  nir::Module &M = N.getModule();
  uint64_t Inlined = 0;
  // Chains (a calls b calls c) settle over a few rounds; the budget and
  // the recursion check bound total growth.
  for (unsigned Round = 0; Round < 4; ++Round) {
    N.noteRequest(Abstraction::CG);
    CallGraph &CG = N.getCallGraph();

    std::map<Function *, CalleeProfile> Profiles;
    std::set<Function *> Recursive;
    for (const auto &F : M.getFunctions())
      if (!F->isDeclaration()) {
        Profiles[F.get()] = profileOf(*F);
        if (isRecursive(CG, F.get()))
          Recursive.insert(F.get());
      }

    std::vector<CallInst *> Sites;
    for (const auto &F : M.getFunctions()) {
      if (F->isDeclaration())
        continue;
      for (const auto &BB : F->getBlocks())
        for (const auto &I : BB->getInstList()) {
          auto *Call = nir::dyn_cast<CallInst>(I.get());
          if (!Call)
            continue;
          Function *Callee = Call->getCalledFunction();
          if (!Callee || Callee->isDeclaration() || Callee == F.get())
            continue;
          if (Recursive.count(Callee) || Recursive.count(F.get()))
            continue;
          const CalleeProfile &P = Profiles[Callee];
          if (P.HasAlloca || P.NumInsts > InlineBudget)
            continue;
          Sites.push_back(Call);
        }
    }
    if (Sites.empty())
      break;

    std::set<Function *> Mutated;
    for (CallInst *Call : Sites) {
      Mutated.insert(Call->getParent()->getParent());
      inlineCallSite(Call);
      ++Inlined;
    }
    for (Function *F : Mutated)
      N.invalidate(*F);
  }
  S.CallsInlined += Inlined;
  return Inlined;
}
