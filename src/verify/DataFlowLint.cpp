#include "verify/DataFlowLint.h"

#include "analysis/AliasAnalysis.h"
#include "ir/Function.h"
#include "ir/Instructions.h"
#include "noelle/DataFlow.h"
#include "verify/TaskModel.h"

#include <set>

using namespace noelle;
using namespace noelle::verify;
using nir::AllocaInst;
using nir::CallInst;
using nir::CastInst;
using nir::CmpInst;
using nir::ConstantInt;
using nir::Function;
using nir::GEPInst;
using nir::Instruction;
using nir::LoadInst;
using nir::StoreInst;
using nir::Value;

namespace {

/// Chases a pointer through casts and geps to its base value.
const Value *underlyingBase(const Value *P) {
  while (true) {
    if (const auto *C = nir::dyn_cast<CastInst>(P)) {
      P = C->getValueOperand();
      continue;
    }
    if (const auto *G = nir::dyn_cast<GEPInst>(P)) {
      P = G->getBase();
      continue;
    }
    return P;
  }
}

/// True if the slot's address leaves the function's direct load/store
/// view: passed to a call, stored somewhere as a value, or returned.
/// Escaped slots can be read or written by code the lint cannot see.
bool escapes(const AllocaInst *A) {
  for (const auto &U : A->uses()) {
    const auto *User =
        nir::dyn_cast<Instruction>(static_cast<const Value *>(U.TheUser));
    if (!User)
      continue;
    if (nir::isa<CallInst>(User))
      return true;
    if (const auto *S = nir::dyn_cast<StoreInst>(User)) {
      if (S->getValueOperand() == A)
        return true;
      continue;
    }
    if (nir::isa<nir::RetInst>(User))
      return true;
    // Casts/geps of the address: escape if any derived value does.
    if (nir::isa<CastInst>(User) || nir::isa<GEPInst>(User)) {
      for (const auto &U2 : User->uses()) {
        const auto *User2 = nir::dyn_cast<Instruction>(
            static_cast<const Value *>(U2.TheUser));
        if (User2 && (nir::isa<CallInst>(User2) ||
                      (nir::isa<StoreInst>(User2) &&
                       nir::cast<StoreInst>(User2)->getValueOperand() ==
                           static_cast<const Value *>(User))))
          return true;
      }
    }
  }
  return false;
}

void addDiag(CheckReport &Rep, DiagKind K, std::string Msg,
             const Instruction *Site, const Instruction *Slot,
             Function &F) {
  Diagnostic D;
  D.Kind = K;
  D.Message = std::move(Msg);
  D.First = describe(Site);
  if (Slot)
    D.Second = describe(Slot);
  D.InFunction = F.getName();
  Rep.add(std::move(D));
}

/// Forward all-paths "definitely initialized" facts per alloca; a load
/// from a slot outside IN(load) may read garbage.
void lintUninitializedReads(Function &F, CheckReport &Rep) {
  DataFlowProblem P;
  P.Forward = true;
  P.MeetIsUnion = false;
  P.BoundaryAllOnes = false;
  for (const auto &BB : F.getBlocks())
    for (const auto &I : BB->getInstList())
      if (nir::isa<AllocaInst>(I.get()))
        P.Universe.push_back(I.get());
  if (P.Universe.empty())
    return;

  P.Transfer = [](const Instruction *I, const DataFlowResult &R,
                  nir::BitVector &Gen, nir::BitVector &Kill) {
    nir::MemAccess Acc;
    if (nir::memoryAccessOf(I, Acc) && Acc.IsWrite) {
      const Value *Base = underlyingBase(Acc.Ptr);
      if (R.hasIndex(Base))
        Gen.set(R.indexOf(Base));
    } else if (nir::isa<CallInst>(I)) {
      // A call receiving the address may initialize the slot; assume it
      // does (the lint stays conservative about reporting).
      for (const Value *Op : I->operands()) {
        const Value *Base = underlyingBase(Op);
        if (R.hasIndex(Base))
          Gen.set(R.indexOf(Base));
      }
    }
  };
  auto DF = DataFlowEngine().solve(F, P);

  for (const auto &BB : F.getBlocks())
    for (const auto &I : BB->getInstList()) {
      nir::MemAccess Acc;
      if (!nir::memoryAccessOf(I.get(), Acc) || Acc.IsWrite)
        continue;
      const Value *Base = underlyingBase(Acc.Ptr);
      if (!DF->hasIndex(Base))
        continue;
      if (!DF->in(I.get()).test(DF->indexOf(Base)))
        addDiag(Rep, DiagKind::UninitializedRead,
                "load may read a stack slot before any store to it",
                I.get(), nir::cast<Instruction>(Base), F);
    }
}

/// Backward slot liveness; a store to a non-escaping slot that is dead
/// in OUT(store) is never read.
void lintDeadStores(Function &F, CheckReport &Rep) {
  DataFlowProblem P;
  P.Forward = false;
  P.MeetIsUnion = true;
  P.BoundaryAllOnes = false;
  std::set<const Value *> Escaped;
  for (const auto &BB : F.getBlocks())
    for (const auto &I : BB->getInstList())
      if (const auto *A = nir::dyn_cast<AllocaInst>(I.get())) {
        P.Universe.push_back(I.get());
        if (escapes(A))
          Escaped.insert(A);
      }
  if (P.Universe.empty())
    return;

  P.Transfer = [](const Instruction *I, const DataFlowResult &R,
                  nir::BitVector &Gen, nir::BitVector &Kill) {
    nir::MemAccess Acc;
    if (nir::memoryAccessOf(I, Acc) && !Acc.IsWrite) {
      const Value *Base = underlyingBase(Acc.Ptr);
      if (R.hasIndex(Base))
        Gen.set(R.indexOf(Base));
    } else if (nir::isa<StoreInst>(I)) {
      // A direct whole-slot scalar store shadows earlier stores; stores
      // through geps may be partial, so they do not kill (nor do vector
      // stores, whose extent need not match the slot).
      const Value *Ptr = nir::cast<StoreInst>(I)->getPointerOperand();
      if (R.hasIndex(Ptr))
        Kill.set(R.indexOf(Ptr));
    } else if (nir::isa<CallInst>(I)) {
      for (const Value *Op : I->operands()) {
        const Value *Base = underlyingBase(Op);
        if (R.hasIndex(Base))
          Gen.set(R.indexOf(Base));
      }
    }
  };
  auto DF = DataFlowEngine().solve(F, P);

  for (const auto &BB : F.getBlocks())
    for (const auto &I : BB->getInstList()) {
      const auto *S = nir::dyn_cast<StoreInst>(I.get());
      if (!S)
        continue;
      // Only direct stores to the slot itself: gep'd element stores into
      // arrays are usually read through differently-shaped geps.
      const Value *Ptr = S->getPointerOperand();
      if (!DF->hasIndex(Ptr) || Escaped.count(Ptr))
        continue;
      if (!DF->out(S).test(DF->indexOf(Ptr)))
        addDiag(Rep, DiagKind::DeadStore,
                "store to a stack slot is never read afterwards",
                S, nir::cast<Instruction>(Ptr), F);
    }
}

/// Forward all-paths "compared against null" facts per allocator call; a
/// dereference of an unchecked handle crashes when the allocation fails.
void lintNullDerefs(Function &F, CheckReport &Rep) {
  DataFlowProblem P;
  P.Forward = true;
  P.MeetIsUnion = false;
  P.BoundaryAllOnes = false;
  for (const auto &BB : F.getBlocks())
    for (const auto &I : BB->getInstList())
      if (const auto *C = nir::dyn_cast<CallInst>(I.get()))
        if (C->getCalledFunction() &&
            C->getCalledFunction()->getName() == "malloc")
          P.Universe.push_back(I.get());
  if (P.Universe.empty())
    return;

  P.Transfer = [](const Instruction *I, const DataFlowResult &R,
                  nir::BitVector &Gen, nir::BitVector &Kill) {
    const auto *Cmp = nir::dyn_cast<CmpInst>(I);
    if (!Cmp)
      return;
    // handle == null / handle != null (either operand order, possibly
    // through casts).
    for (const Value *Side : {Cmp->getLHS(), Cmp->getRHS()}) {
      const Value *Other =
          Side == Cmp->getLHS() ? Cmp->getRHS() : Cmp->getLHS();
      const auto *CI = nir::dyn_cast<ConstantInt>(Other);
      bool OtherIsNull = CI && CI->getValue() == 0;
      if (!OtherIsNull)
        continue;
      const Value *Handle = Side;
      while (const auto *Cast = nir::dyn_cast<CastInst>(Handle))
        Handle = Cast->getValueOperand();
      if (R.hasIndex(Handle))
        Gen.set(R.indexOf(Handle));
    }
  };
  auto DF = DataFlowEngine().solve(F, P);

  for (const auto &BB : F.getBlocks())
    for (const auto &I : BB->getInstList()) {
      nir::MemAccess Acc;
      if (!nir::memoryAccessOf(I.get(), Acc))
        continue;
      const Value *Ptr = Acc.Ptr;
      const Value *Base = underlyingBase(Ptr);
      if (!DF->hasIndex(Base))
        continue;
      if (!DF->in(I.get()).test(DF->indexOf(Base)))
        addDiag(Rep, DiagKind::NullDeref,
                "heap handle is dereferenced without a null check on some "
                "path from its allocation",
                I.get(), nir::cast<Instruction>(Base), F);
    }
}

} // namespace

void noelle::verify::lintModule(nir::Module &M, CheckReport &Rep) {
  for (const auto &F : M.getFunctions()) {
    if (F->isDeclaration())
      continue;
    lintUninitializedReads(*F, Rep);
    lintDeadStores(*F, Rep);
    lintNullDerefs(*F, Rep);
  }
}
