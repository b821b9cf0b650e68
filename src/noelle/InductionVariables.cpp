#include "noelle/InductionVariables.h"

#include "ir/Instructions.h"

using namespace noelle;
using nir::BasicBlock;
using nir::Instruction;

InductionVariableManager::InductionVariableManager(nir::LoopStructure &L,
                                                   SCCDAG &Dag,
                                                   InvariantManager &Inv)
    : L(L), Dag(Dag), Inv(Inv) {
  detect();
  findGoverning();
}

void InductionVariableManager::detect() {
  // An IV is embodied by a cross-iteration data cycle of the aSCCDAG: a
  // header phi advanced by add/sub of loop-invariant amounts. The SCC
  // containing the phi may also hold the exit compare/branch (control
  // dependences close that cycle); we trace the *data* cycle through the
  // phi directly, which is how NOELLE sees through loop shape.
  for (const auto &IPtr : L.getHeader()->getInstList()) {
    auto *Phi = nir::dyn_cast<PhiInst>(IPtr.get());
    if (!Phi)
      break;
    if (!Phi->getType()->isInteger())
      continue;

    // Each in-loop incoming must be add/sub(phi, invariant).
    Value *Step = nullptr;
    BinaryInst *StepInst = nullptr;
    bool Bad = false;
    for (unsigned K = 0; K < Phi->getNumIncoming(); ++K) {
      if (!L.contains(Phi->getIncomingBlock(K)))
        continue;
      auto *B = nir::dyn_cast<BinaryInst>(Phi->getIncomingValue(K));
      if (!B || !L.contains(B) ||
          (B->getOp() != BinaryInst::Op::Add &&
           B->getOp() != BinaryInst::Op::Sub)) {
        Bad = true;
        break;
      }
      Value *Other = nullptr;
      if (B->getLHS() == Phi)
        Other = B->getRHS();
      else if (B->getRHS() == Phi && B->getOp() == BinaryInst::Op::Add)
        Other = B->getLHS();
      else {
        Bad = true;
        break;
      }
      if (!Inv.isLoopInvariant(Other)) {
        Bad = true;
        break;
      }
      if (StepInst && StepInst != B) {
        Bad = true; // Different updates per latch: not a simple IV.
        break;
      }
      StepInst = B;
      Step = Other;
    }
    if (Bad || !StepInst || !Step)
      continue;

    auto IV = std::make_unique<InductionVariable>();
    IV->Phi = Phi;
    IV->StepInst = StepInst;
    IV->TheSCC = Dag.sccOf(Phi);
    // Negative direction for sub-steps with constant amounts.
    if (StepInst->getOp() == BinaryInst::Op::Sub) {
      if (auto *C = nir::dyn_cast<ConstantInt>(Step))
        Step = L.getFunction()
                   ->getParent()
                   ->getContext()
                   .getConstantInt(C->getType(), -C->getValue());
      else
        continue; // Non-constant subtractive step: skip for simplicity.
    }
    IV->Step = Step;
    for (unsigned K = 0; K < Phi->getNumIncoming(); ++K)
      if (!L.contains(Phi->getIncomingBlock(K)))
        IV->Start = Phi->getIncomingValue(K);
    if (!IV->Start)
      continue;
    IVs.push_back(std::move(IV));
  }
}

void InductionVariableManager::findGoverning() {
  // A governing IV controls a loop exit: some exiting block's branch
  // condition compares the IV (phi or stepped value) against a
  // loop-invariant bound. Works for while loops (header exit) and
  // do-while loops (latch exit) alike.
  for (auto &IV : IVs) {
    for (BasicBlock *Exiting : L.getExitingBlocks()) {
      auto *Br = nir::dyn_cast_or_null<BranchInst>(Exiting->getTerminator());
      if (!Br || !Br->isConditional())
        continue;
      auto *Cmp = nir::dyn_cast<CmpInst>(Br->getCondition());
      if (!Cmp)
        continue;
      auto MatchSide = [&](Value *Side, Value *Other) -> bool {
        bool IsIVExpr = Side == IV->Phi || Side == IV->StepInst;
        if (!IsIVExpr)
          return false;
        if (!Inv.isLoopInvariant(Other))
          return false;
        IV->GoverningCmp = Cmp;
        IV->GoverningBranch = Br;
        IV->ExitBound = Other;
        IV->CmpOnPhi = Side == IV->Phi;
        return true;
      };
      if (MatchSide(Cmp->getLHS(), Cmp->getRHS()) ||
          MatchSide(Cmp->getRHS(), Cmp->getLHS())) {
        if (!Governing)
          Governing = IV.get();
        break;
      }
    }
  }
}

InductionVariable *
InductionVariableManager::getIVForPhi(const PhiInst *Phi) const {
  for (const auto &IV : IVs)
    if (IV->getPhi() == Phi)
      return IV.get();
  return nullptr;
}

bool InductionVariableManager::isIVSCC(const SCC *S) const {
  for (const auto &IV : IVs)
    if (IV->getSCC() == S || S->contains(IV->getPhi()))
      return true;
  return false;
}
