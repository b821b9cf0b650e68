//===----------------------------------------------------------------------===//
///
/// \file
/// IV-guided partial loop unrolling. The induction-variable manager (IV)
/// proves the governing IV affine with constant start, step, and bound;
/// the exact trip count is then derived by directly evaluating the
/// governing compare with the interpreter's wrapping integer semantics,
/// so no closed-form trip-count formula can disagree with execution.
/// Only innermost loops whose body is a straight-line block chain
/// unroll, and only when the factor divides the trip count exactly —
/// the intermediate exit tests then evaluate to "continue" by
/// construction and are simply not emitted, which is where the win
/// comes from (fewer compares, branches, and dispatches per iteration).
///
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "ir/Instructions.h"

#include <map>
#include <set>

using namespace noelle;
using nir::BasicBlock;
using nir::BranchInst;
using nir::CmpInst;
using nir::ConstantInt;
using nir::Instruction;
using nir::LoopStructure;
using nir::PhiInst;
using nir::Value;

namespace {

/// Cap on body growth per unrolled loop (cloned instructions).
constexpr unsigned UnrollGrowthBudget = 400;

/// Preferred unroll factor; loops whose trip count it does not divide
/// fall back to 2, then stay rolled.
constexpr unsigned UnrollFactor = 4;

/// The loop shapes we unroll: header = phis + cmp + condbr, body = a
/// straight-line chain of single-predecessor blocks ending at the latch.
struct LoopShape {
  BasicBlock *Header = nullptr;
  BasicBlock *Latch = nullptr;
  BasicBlock *Preheader = nullptr;
  std::vector<BasicBlock *> Chain; ///< in-loop blocks after the header
  CmpInst *Cmp = nullptr;
  BranchInst *Br = nullptr;
  bool InLoopIsThen = false; ///< the taken edge that stays in the loop
  uint64_t BodyInsts = 0;
};

bool matchShape(LoopStructure &LS, LoopShape &Out) {
  if (!LS.getSubLoops().empty())
    return false;
  if (LS.getLatches().size() != 1)
    return false;
  Out.Header = LS.getHeader();
  Out.Latch = LS.getLatches().front();
  Out.Preheader = LS.getPreheader();
  if (!Out.Preheader)
    return false;

  // Header: phis, then exactly a compare and the conditional branch.
  Instruction *NonPhi = Out.Header->getFirstNonPhi();
  Out.Cmp = nir::dyn_cast<CmpInst>(NonPhi);
  if (!Out.Cmp)
    return false;
  Out.Br = nir::dyn_cast<BranchInst>(Out.Cmp->getNextInst());
  if (!Out.Br || !Out.Br->isConditional() ||
      Out.Br->getCondition() != Out.Cmp || Out.Br != Out.Header->getTerminator())
    return false;
  const bool ThenIn = LS.contains(Out.Br->getSuccessor(0));
  const bool ElseIn = LS.contains(Out.Br->getSuccessor(1));
  if (ThenIn == ElseIn)
    return false; // need one in-loop edge and one exit edge
  Out.InLoopIsThen = ThenIn;

  // Body: walk the in-loop edge to the latch through unconditional
  // branches; every block must have a single predecessor and no phis.
  BasicBlock *Cur = Out.Br->getSuccessor(ThenIn ? 0 : 1);
  std::set<BasicBlock *> Seen;
  while (true) {
    if (Cur == Out.Header || Seen.count(Cur) || !LS.contains(Cur))
      return false;
    if (Cur->predecessors().size() != 1)
      return false;
    if (nir::isa<PhiInst>(&*Cur->getInstList().front()))
      return false;
    Seen.insert(Cur);
    Out.Chain.push_back(Cur);
    Out.BodyInsts += Cur->getInstList().size();
    auto *T = nir::dyn_cast<BranchInst>(Cur->getTerminator());
    if (!T || T->isConditional())
      return false;
    if (Cur == Out.Latch) {
      if (T->getSuccessor(0) != Out.Header)
        return false;
      break;
    }
    Cur = T->getSuccessor(0);
  }
  // The chain plus the header must be the whole loop.
  if (Out.Chain.size() + 1 != LS.getBlocks().size())
    return false;

  // Copies re-enter mid-loop without re-executing the header, so no body
  // instruction (nor any back-edge value) may read a non-phi header
  // definition such as the governing compare — it would be stale in the
  // clones.
  auto IsNonPhiHeaderDef = [&](const Value *V) {
    const auto *I = nir::dyn_cast<Instruction>(V);
    return I && I->getParent() == Out.Header && !nir::isa<PhiInst>(I);
  };
  for (BasicBlock *BB : Out.Chain)
    for (const auto &I : BB->getInstList())
      for (const Value *Op : I->operands())
        if (IsNonPhiHeaderDef(Op))
          return false;
  for (const auto &I : Out.Header->getInstList()) {
    const auto *Phi = nir::dyn_cast<PhiInst>(I.get());
    if (!Phi)
      break;
    if (IsNonPhiHeaderDef(Phi->getIncomingValueForBlock(Out.Latch)))
      return false;
  }
  return true;
}

bool evalCmp(CmpInst::Pred P, int64_t L, int64_t R) {
  switch (P) {
  case CmpInst::Pred::EQ:
    return L == R;
  case CmpInst::Pred::NE:
    return L != R;
  case CmpInst::Pred::SLT:
    return L < R;
  case CmpInst::Pred::SLE:
    return L <= R;
  case CmpInst::Pred::SGT:
    return L > R;
  case CmpInst::Pred::SGE:
    return L >= R;
  default:
    return false; // FP predicates never govern an integer IV
  }
}

/// Exact trip count by evaluating the governing compare, or 0 when the
/// loop does not terminate within the cap (then it never unrolls).
uint64_t simulateTripCount(CmpInst::Pred P, bool IVIsLHS, bool InLoopOnTrue,
                           int64_t Start, int64_t Step, int64_t Bound) {
  constexpr uint64_t Cap = 1u << 22;
  uint64_t V = static_cast<uint64_t>(Start);
  for (uint64_t Trips = 0; Trips <= Cap; ++Trips) {
    const int64_t IV = static_cast<int64_t>(V);
    const bool Taken = IVIsLHS ? evalCmp(P, IV, Bound) : evalCmp(P, Bound, IV);
    if (Taken != InLoopOnTrue)
      return Trips;
    V += static_cast<uint64_t>(Step); // wrapping, like the interpreter
  }
  return 0;
}

/// Resolves \p V through the per-copy maps: body instructions map to the
/// current copy's clone, header phis to their value entering this copy.
Value *resolve(Value *V, const std::map<Value *, Value *> &CloneMap,
               const std::map<PhiInst *, Value *> &PhiVal) {
  if (auto It = CloneMap.find(V); It != CloneMap.end())
    return It->second;
  if (auto *Phi = nir::dyn_cast<PhiInst>(V))
    if (auto It = PhiVal.find(Phi); It != PhiVal.end())
      return It->second;
  return V;
}

void unrollBy(LoopShape &Sh, unsigned F) {
  nir::Function *Fn = Sh.Header->getParent();

  // Values each header phi carries into the next iteration.
  std::vector<PhiInst *> Phis;
  for (const auto &I : Sh.Header->getInstList()) {
    auto *Phi = nir::dyn_cast<PhiInst>(I.get());
    if (!Phi)
      break;
    Phis.push_back(Phi);
  }
  std::map<PhiInst *, Value *> CurPhiVal; // value entering the next copy
  for (PhiInst *Phi : Phis)
    CurPhiVal[Phi] = Phi->getIncomingValueForBlock(Sh.Latch);

  BasicBlock *PrevLatch = Sh.Latch;
  for (unsigned C = 1; C != F; ++C) {
    std::map<Value *, Value *> CloneMap;
    std::vector<BasicBlock *> NewBlocks;
    for (BasicBlock *BB : Sh.Chain) {
      BasicBlock *NBB = Fn->createBlock(BB->getName() + ".u" +
                                        std::to_string(C));
      CloneMap[BB] = NBB;
      NewBlocks.push_back(NBB);
      for (const auto &I : BB->getInstList()) {
        Instruction *Clone = I->clone();
        NBB->push_back(std::unique_ptr<Instruction>(Clone));
        CloneMap[I.get()] = Clone;
      }
    }
    // Remap: same-copy defs to their clones, header phis to the value
    // they hold entering this copy, everything else (invariants, defs
    // from outside the loop) stays.
    for (BasicBlock *NBB : NewBlocks)
      for (const auto &I : NBB->getInstList())
        for (unsigned OpI = 0, OpE = I->getNumOperands(); OpI != OpE; ++OpI)
          I->setOperand(OpI, resolve(I->getOperand(OpI), CloneMap, CurPhiVal));

    // Chain the copy in: the previous latch falls through to this
    // copy's first block instead of the header.
    nir::cast<BranchInst>(PrevLatch->getTerminator())
        ->setSuccessor(0, NewBlocks.front());
    PrevLatch = NewBlocks.back();

    // Advance the phi carries: the value entering copy C+1 is this
    // copy's clone of the latch-incoming value (phis referencing other
    // phis read the snapshot from before this copy).
    std::map<PhiInst *, Value *> Next;
    for (PhiInst *Phi : Phis)
      Next[Phi] = resolve(Phi->getIncomingValueForBlock(Sh.Latch), CloneMap,
                          CurPhiVal);
    CurPhiVal = std::move(Next);
  }

  // Close the loop: the last copy branches back to the header, and the
  // header phis take their back-edge values from it.
  nir::cast<BranchInst>(PrevLatch->getTerminator())->setSuccessor(0, Sh.Header);
  // The whole unrolled body merges into the first chain block below, so
  // that block becomes the latch the phis name.
  BasicBlock *Merged = Sh.Chain.front();
  for (PhiInst *Phi : Phis) {
    int Idx = Phi->getBlockIndex(Sh.Latch);
    assert(Idx >= 0 && "latch must feed every header phi");
    Phi->setIncomingBlock(static_cast<unsigned>(Idx), Merged);
    Phi->setIncomingValue(static_cast<unsigned>(Idx), CurPhiVal[Phi]);
  }

  // Merge the straight-line chain of copies into one block: every
  // member has a single predecessor and an unconditional branch, and
  // the superword vectorizer only packs stores it sees in one block.
  while (true) {
    auto *T = nir::cast<BranchInst>(Merged->getTerminator());
    BasicBlock *Next = T->getSuccessor(0);
    if (Next == Sh.Header)
      break;
    std::vector<Instruction *> Pending;
    for (const auto &I : Next->getInstList())
      Pending.push_back(I.get());
    for (Instruction *I : Pending)
      I->moveBefore(T);
    T->eraseFromParent();
    Next->eraseFromParent();
  }
}

} // namespace

uint64_t noelle::opt::runUnroll(Noelle &N, PipelineStats &S) {
  N.noteRequest(Abstraction::IV);
  N.noteRequest(Abstraction::LS);
  N.noteRequest(Abstraction::FR);
  N.noteRequest(Abstraction::L);

  auto &LoopForest = N.getLoopForest();
  std::vector<LoopContent *> Order;
  LoopForest.visitPostorder(
      [&](Forest<LoopContent>::Node *Node) { Order.push_back(Node->Payload); });

  uint64_t Unrolled = 0;
  std::set<nir::Function *> Mutated;
  std::vector<LoopStructure *> Done;
  for (LoopContent *LC : Order) {
    LoopStructure &LS = LC->getLoopStructure();
    // Unrolling a loop leaves its ancestors' cached block sets stale
    // (they miss the clones), so ancestors skip this round; siblings
    // are untouched and proceed. Postorder guarantees descendants were
    // already handled.
    bool StaleAncestor = false;
    for (LoopStructure *U : Done)
      if (&LS != U && LS.contains(U->getHeader()))
        StaleAncestor = true;
    if (StaleAncestor)
      continue;

    LoopShape Sh;
    if (!matchShape(LS, Sh))
      continue;

    // The governing IV must be a header phi compared against a constant
    // with constant start and step.
    InductionVariable *IV = LC->getIVManager().getGoverningIV();
    if (!IV || !IV->hasConstantStep() || !IV->cmpUsesPhi() ||
        IV->getGoverningCmp() != Sh.Cmp)
      continue;
    const auto *Start = nir::dyn_cast<ConstantInt>(IV->getStartValue());
    if (!Start)
      continue;
    PhiInst *Phi = IV->getPhi();
    const bool IVIsLHS = Sh.Cmp->getLHS() == Phi;
    if (!IVIsLHS && Sh.Cmp->getRHS() != Phi)
      continue;
    Value *BoundV = IVIsLHS ? Sh.Cmp->getRHS() : Sh.Cmp->getLHS();
    const auto *Bound = nir::dyn_cast<ConstantInt>(BoundV);
    if (!Bound)
      continue;

    const uint64_t Trips = simulateTripCount(
        Sh.Cmp->getPred(), IVIsLHS, Sh.InLoopIsThen, Start->getValue(),
        IV->getConstantStep(), Bound->getValue());
    if (Trips < 2)
      continue;

    unsigned F = 0;
    for (unsigned Cand : {UnrollFactor, 2u}) {
      if (Cand >= 2 && Trips % Cand == 0 && Trips >= Cand &&
          Sh.BodyInsts * (Cand - 1) <= UnrollGrowthBudget) {
        F = Cand;
        break;
      }
    }
    if (F == 0)
      continue;

    unrollBy(Sh, F);
    Mutated.insert(LS.getFunction());
    Done.push_back(&LS);
    ++Unrolled;
  }

  for (nir::Function *Fn : Mutated)
    N.invalidate(*Fn);
  S.LoopsUnrolled += Unrolled;
  return Unrolled;
}
