#include "xforms/ParallelizationUtils.h"

#include "ir/IDs.h"
#include "ir/Utils.h"
#include "runtime/ParallelRuntime.h"
#include "verify/CheckMetadata.h"

using namespace noelle;
using nir::Argument;
using nir::BasicBlock;
using nir::BinaryInst;
using nir::BranchInst;
using nir::CmpInst;
using nir::Function;
using nir::IRBuilder;
using nir::Module;
using nir::PhiInst;
using nir::Type;

Function *noelle::createTaskFunction(Module &M, const std::string &Name) {
  nir::Context &Ctx = M.getContext();
  Type *FnTy = Ctx.getFunctionTy(
      Ctx.getVoidTy(), {Ctx.getPtrTy(), Ctx.getInt64Ty(), Ctx.getInt64Ty()});
  std::string Unique = Name;
  unsigned Suffix = 0;
  while (M.getFunction(Unique))
    Unique = Name + "." + std::to_string(++Suffix);
  Function *F = M.createFunction(FnTy, Unique);
  F->getArg(0)->setName("env");
  F->getArg(1)->setName("taskID");
  F->getArg(2)->setName("numTasks");
  F->setMetadata("noelle.task", "true");
  return F;
}

void noelle::emitEnvStore(IRBuilder &B, Value *Env, unsigned Slot,
                          Value *V) {
  Value *Addr = B.createGEP(Env, B.getInt64(Slot), 8, "env.slot");
  B.createStore(V, Addr);
}

Value *noelle::emitEnvLoad(IRBuilder &B, Value *Env, unsigned Slot,
                           Type *Ty, const std::string &Name) {
  Value *Addr = B.createGEP(Env, B.getInt64(Slot), 8, Name + ".slot");
  // Function-typed live-ins travel as plain pointers.
  Type *LoadTy = Ty->isFunction() ? B.getContext().getPtrTy() : Ty;
  return B.createLoad(LoadTy, Addr, Name);
}

void noelle::rebaseInductionVariables(InductionVariableManager &IVs,
                                      ClonedLoopTask &Task,
                                      unsigned Workers) {
  nir::Context &Ctx = Task.TaskFn->getParent()->getContext();
  BasicBlock *TaskEntry = &Task.TaskFn->getEntryBlock();
  IRBuilder EntryB(Ctx);
  EntryB.setInsertPoint(TaskEntry->getTerminator());
  InductionVariable *GIV = IVs.getGoverningIV();
  auto *ClonedCmp =
      nir::cast<CmpInst>(Task.ValueMap[GIV->getGoverningCmp()]);
  for (const auto &IV : IVs.getInductionVariables()) {
    auto *ClonedPhi = nir::cast<PhiInst>(Task.ValueMap[IV->getPhi()]);
    auto *ClonedUpd =
        nir::cast<BinaryInst>(Task.ValueMap[IV->getStepInstruction()]);
    int64_t Step = IV->getConstantStep();

    Value *Offset =
        EntryB.createMul(Task.TaskIDArg, EntryB.getInt64(Step), "iv.offset");
    Value *NewStart = EntryB.createAdd(
        ClonedPhi->getIncomingValueForBlock(TaskEntry), Offset, "iv.start");
    int Idx = ClonedPhi->getBlockIndex(TaskEntry);
    assert(Idx >= 0);
    ClonedPhi->setIncomingValue(static_cast<unsigned>(Idx), NewStart);

    // The update is add/sub(phi, amount) (normalized by the IV manager).
    int64_t RawAmount =
        ClonedUpd->getOp() == BinaryInst::Op::Sub ? -Step : Step;
    Value *NewAmount =
        Ctx.getInt64(RawAmount * static_cast<int64_t>(Workers));
    bool Shared = false;
    for (nir::User *U : ClonedUpd->users())
      Shared |= U != ClonedPhi && U != ClonedCmp;
    if (!Shared) {
      ClonedUpd->setOperand(ClonedUpd->getLHS() == ClonedPhi ? 1 : 0,
                            NewAmount);
      continue;
    }
    IRBuilder UpdB(Ctx);
    UpdB.setInsertPoint(ClonedUpd);
    Value *Next =
        UpdB.createBinary(ClonedUpd->getOp(), ClonedPhi, NewAmount, "iv.next");
    ClonedPhi->replaceUsesOfWith(ClonedUpd, Next);
    ClonedCmp->replaceUsesOfWith(ClonedUpd, Next);
  }

  if (ClonedCmp->getPred() != CmpInst::Pred::NE &&
      ClonedCmp->getPred() != CmpInst::Pred::EQ)
    return;
  // "iv != bound" continues while iv < bound (positive step).
  CmpInst::Pred Continue = GIV->getConstantStep() > 0 ? CmpInst::Pred::SLT
                                                      : CmpInst::Pred::SGT;
  const CmpInst *Cmp = GIV->getGoverningCmp();
  if (Cmp->getLHS() != GIV->getPhi() &&
      Cmp->getLHS() != GIV->getStepInstruction())
    Continue = CmpInst::getSwappedPred(Continue);
  // "iv == bound" exits the loop; its negation continues.
  ClonedCmp->setPred(ClonedCmp->getPred() == CmpInst::Pred::NE
                         ? Continue
                         : CmpInst::getInversePred(Continue));
}

ClonedLoopTask noelle::cloneLoopIntoTask(nir::LoopStructure &LS,
                                         const EnvLayout &Layout,
                                         const std::string &Name) {
  Function *Orig = LS.getFunction();
  Module &M = *Orig->getParent();
  nir::Context &Ctx = M.getContext();

  ClonedLoopTask Out;
  Out.TaskFn = createTaskFunction(M, Name);
  Out.EnvArg = Out.TaskFn->getArg(0);
  Out.TaskIDArg = Out.TaskFn->getArg(1);
  Out.NumTasksArg = Out.TaskFn->getArg(2);

  // Provenance for noelle-check: which function and loop (identified by
  // the header's first instruction's deterministic ID, when the pipeline
  // captured one) this task was generated from.
  Out.TaskFn->setMetadata(verify::TaskSrcFnKey, Orig->getName());
  if (!LS.getHeader()->getInstList().empty()) {
    std::string OriginId =
        LS.getHeader()->getInstList().front()->getMetadata(nir::InstIDKey);
    if (!OriginId.empty())
      Out.TaskFn->setMetadata(verify::TaskOriginKey, OriginId);
  }

  BasicBlock *Entry = Out.TaskFn->createBlock("entry");
  IRBuilder B(Ctx, Entry);

  // Load live-ins.
  for (Value *V : Layout.Env->getLiveIns()) {
    Value *L = emitEnvLoad(B, Out.EnvArg, Layout.liveInSlot(V),
                           V->getType(),
                           V->hasName() ? V->getName() : "livein");
    Out.ValueMap[V] = L;
  }

  // Create cloned blocks.
  for (BasicBlock *BB : LS.getBlocks()) {
    BasicBlock *NewBB = Out.TaskFn->createBlock(BB->getName());
    Out.ValueMap[BB] = NewBB;
  }
  Out.ExitBlock = Out.TaskFn->createBlock("task.exit");

  // Clone instructions.
  for (BasicBlock *BB : LS.getBlocks()) {
    auto *NewBB = nir::cast<BasicBlock>(Out.ValueMap[BB]);
    for (const auto &I : BB->getInstList()) {
      nir::Instruction *C = I->clone();
      // clone() copies all metadata, so the clone inherits the original's
      // deterministic ID; rewrite it into provenance metadata instead
      // (duplicate IDs would corrupt every ID-keyed index).
      std::string Id = I->getMetadata(nir::InstIDKey);
      if (!Id.empty()) {
        C->removeMetadata(nir::InstIDKey);
        C->setMetadata(verify::CheckOrigKey, Id);
      }
      NewBB->push_back(std::unique_ptr<nir::Instruction>(C));
      Out.ValueMap[I.get()] = C;
    }
  }

  // Remap operands: cloned values, blocks, preheader -> entry, exit
  // targets -> task exit.
  BasicBlock *PH = LS.getPreheader();
  for (BasicBlock *BB : LS.getBlocks()) {
    auto *NewBB = nir::cast<BasicBlock>(Out.ValueMap[BB]);
    for (const auto &I : NewBB->getInstList()) {
      for (unsigned Op = 0; Op < I->getNumOperands(); ++Op) {
        Value *V = I->getOperand(Op);
        auto It = Out.ValueMap.find(V);
        if (It != Out.ValueMap.end()) {
          I->setOperand(Op, It->second);
          continue;
        }
        if (auto *TargetBB = nir::dyn_cast<BasicBlock>(V)) {
          if (TargetBB == PH)
            I->setOperand(Op, Entry);
          else if (!LS.contains(TargetBB))
            I->setOperand(Op, Out.ExitBlock);
        }
      }
    }
  }

  // Entry falls into the cloned header; the exit returns.
  B.setInsertPoint(Entry);
  B.createBr(nir::cast<BasicBlock>(Out.ValueMap[LS.getHeader()]));
  B.setInsertPoint(Out.ExitBlock);
  B.createRetVoid();
  return Out;
}

BasicBlock *noelle::replaceLoopWithDispatch(nir::LoopStructure &LS,
                                            const EnvLayout &Layout,
                                            Function *TaskFn,
                                            unsigned NumTasks,
                                            unsigned ChunkGrain,
                                            Function *SpecSeqFn) {
  Function *F = LS.getFunction();
  Module &M = *F->getParent();
  nir::Context &Ctx = M.getContext();
  declareParallelRuntime(M);

  BasicBlock *PH = LS.getPreheader();
  assert(PH && "parallelized loop must have a preheader");
  assert(LS.getExitBlocks().size() == 1 &&
         "parallelized loop must have a single exit block");
  BasicBlock *Exit = LS.getExitBlocks()[0];

  auto DispatchOwned = std::make_unique<BasicBlock>(
      Ctx.getVoidTy(), LS.getHeader()->getName() + ".dispatch");
  BasicBlock *Dispatch = F->insertBlock(std::move(DispatchOwned), nullptr);

  IRBuilder B(Ctx, Dispatch);
  Value *Env = B.createAlloca(
      Ctx.getArrayTy(Ctx.getInt64Ty(), Layout.totalSlots()), "env");
  for (Value *V : Layout.Env->getLiveIns())
    emitEnvStore(B, Env, Layout.liveInSlot(V), V);

  if (SpecSeqFn) {
    Function *DispatchFn = M.getFunction("noelle_dispatch_spec");
    B.createCall(DispatchFn,
                 {TaskFn, SpecSeqFn, Env,
                  Ctx.getInt64(static_cast<int64_t>(NumTasks)),
                  Ctx.getInt64(static_cast<int64_t>(
                      ChunkGrain > 0 ? ChunkGrain : 1))});
  } else if (ChunkGrain > 0) {
    Function *DispatchFn = M.getFunction("noelle_dispatch_chunked");
    B.createCall(DispatchFn,
                 {TaskFn, Env, Ctx.getInt64(static_cast<int64_t>(NumTasks)),
                  Ctx.getInt64(static_cast<int64_t>(ChunkGrain))});
  } else {
    Function *DispatchFn = M.getFunction("noelle_dispatch");
    B.createCall(DispatchFn,
                 {TaskFn, Env, Ctx.getInt64(static_cast<int64_t>(NumTasks))});
  }
  B.createBr(Exit);

  // Rewire the preheader.
  auto *PHBr = nir::cast<BranchInst>(PH->getTerminator());
  for (unsigned S = 0; S < PHBr->getNumSuccessors(); ++S)
    if (PHBr->getSuccessor(S) == LS.getHeader())
      PHBr->setSuccessor(S, Dispatch);

  return Dispatch;
}

void noelle::finalizeLoopRemoval(nir::LoopStructure &LS,
                                 BasicBlock *Dispatch) {
  assert(LS.getExitBlocks().size() == 1);
  BasicBlock *Exit = LS.getExitBlocks()[0];
  Function *F = LS.getFunction();

  // Exit phis: the dispatch edge contributes the (already substituted)
  // value the loop used to produce; the old loop incomings die with the
  // loop blocks.
  for (const auto &I : Exit->getInstList()) {
    auto *Phi = nir::dyn_cast<PhiInst>(I.get());
    if (!Phi)
      break;
    Value *FromLoop = nullptr;
    for (unsigned K = 0; K < Phi->getNumIncoming(); ++K)
      if (LS.contains(Phi->getIncomingBlock(K)))
        FromLoop = Phi->getIncomingValue(K);
    if (FromLoop && Phi->getBlockIndex(Dispatch) < 0)
      Phi->addIncoming(FromLoop, Dispatch);
  }

  nir::removeUnreachableBlocks(*F);
}
