#include "noelle/Reduction.h"

using namespace noelle;
using nir::Context;

Value *ReductionVariable::getIdentity(Context &Ctx) const {
  nir::Type *Ty = Phi->getType();
  switch (Op) {
  case BinaryInst::Op::Add:
  case BinaryInst::Op::Or:
  case BinaryInst::Op::Xor:
    return Ty->isDouble() ? static_cast<Value *>(Ctx.getConstantFP(0.0))
                          : static_cast<Value *>(Ctx.getConstantInt(Ty, 0));
  case BinaryInst::Op::FAdd:
    return Ctx.getConstantFP(0.0);
  case BinaryInst::Op::Mul:
    return Ctx.getConstantInt(Ty, 1);
  case BinaryInst::Op::FMul:
    return Ctx.getConstantFP(1.0);
  case BinaryInst::Op::And:
    return Ctx.getConstantInt(Ty, -1);
  default:
    assert(false && "operator is not a supported reduction");
    return Ctx.getConstantInt(Ty, 0);
  }
}

ReductionManager::ReductionManager(SCCDAG &Dag) {
  nir::LoopStructure &L = Dag.getLoop();
  for (const auto &S : Dag.getSCCs()) {
    if (S->getAttribute() != SCC::Attribute::Reducible)
      continue;
    ReductionVariable R;
    R.TheSCC = S.get();
    R.Phi = S->getReductionPhi();
    R.Update = S->getReductionUpdate();
    R.Op = S->getReductionOp();
    for (unsigned K = 0; K < R.Phi->getNumIncoming(); ++K)
      if (!L.contains(R.Phi->getIncomingBlock(K)))
        R.InitialValue = R.Phi->getIncomingValue(K);
    assert(R.InitialValue && "reduction phi lacks an entry value");
    Reductions.push_back(R);
  }
}

const ReductionVariable *
ReductionManager::getReductionFor(const SCC *S) const {
  for (const auto &R : Reductions)
    if (R.TheSCC == S)
      return &R;
  return nullptr;
}

const ReductionVariable *
ReductionManager::getReductionForLiveOut(const Instruction *Out) const {
  for (const auto &R : Reductions)
    if (Out == R.Phi || Out == R.Update)
      return &R;
  return nullptr;
}

Value *ReductionManager::emitCombine(nir::IRBuilder &B, BinaryInst::Op Op,
                                     Value *A, Value *Bv) {
  return B.createBinary(Op, A, Bv);
}
