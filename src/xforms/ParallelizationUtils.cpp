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

bool noelle::checkLoopShape(LoopContent &LC, bool HeaderExit,
                            ExitTests Tests, std::string &Reason) {
  nir::LoopStructure &LS = LC.getLoopStructure();
  auto Fail = [&](const char *R) {
    Reason = R;
    return false;
  };
  if (!LS.getPreheader())
    return Fail("no preheader");
  if (LS.getExitBlocks().size() != 1 || LS.getExitingBlocks().size() != 1)
    return Fail("multiple exits");
  // The unique exit block must be reached only from the loop, so it can
  // be retargeted to the dispatch code.
  for (BasicBlock *Pred : LS.getExitBlocks()[0]->predecessors())
    if (!LS.contains(Pred))
      return Fail("exit block has non-loop predecessors");
  BasicBlock *Exiting = LS.getExitingBlocks()[0];
  if (HeaderExit && Exiting != LS.getHeader())
    return Fail("loop is not in while form (header must be the exit)");

  InductionVariableManager &IVs = LC.getIVManager();
  InductionVariable *GIV = IVs.getGoverningIV();
  if (!GIV || !GIV->hasConstantStep() || GIV->getConstantStep() == 0)
    return Fail("no governing IV with a nonzero constant step");
  // The governing branch must be the loop's only exit.
  BranchInst *Br = GIV->getGoverningBranch();
  if (Br->getParent() != Exiting)
    return Fail("exit is not controlled by the governing IV");
  bool TrueContinues = LS.contains(Br->getSuccessor(0));
  if (Tests != ExitTests::Any)
    switch (GIV->getGoverningCmp()->getPred()) {
    case CmpInst::Pred::SLT:
    case CmpInst::Pred::SLE:
    case CmpInst::Pred::SGT:
    case CmpInst::Pred::SGE:
      break;
    case CmpInst::Pred::NE:
      // Counted "while (iv != bound)" form: true must continue the loop.
      if (!TrueContinues)
        return Fail("inverted != exit test");
      break;
    case CmpInst::Pred::EQ:
      // Counted "if (iv == bound) exit" form: true must leave the loop.
      if (Tests != ExitTests::OrderedOrEQ || TrueContinues)
        return Fail("unsupported == exit test");
      break;
    default:
      return Fail("unsupported governing comparison");
    }
  for (const auto &IV : IVs.getInductionVariables())
    if (!IV->hasConstantStep())
      return Fail("secondary IV with non-constant step");
  return true;
}

uint64_t noelle::bodyWeight(const nir::LoopStructure &LS) {
  uint64_t Weight = 0;
  for (BasicBlock *BB : LS.getBlocks())
    for (const auto &I : BB->getInstList())
      if (!nir::isa<PhiInst>(I.get()) && !I->isTerminator())
        ++Weight;
  return Weight;
}

std::unordered_map<const Instruction *, uint64_t>
noelle::numberInstructions(const Function &F) {
  std::unordered_map<const Instruction *, uint64_t> Pos;
  for (const auto &BB : F.getBlocks())
    for (const auto &I : BB->getInstList())
      Pos.emplace(I.get(), Pos.size());
  return Pos;
}

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

void noelle::privatizeReduction(const ReductionVariable &R, Instruction *Out,
                                const EnvLayout &Layout,
                                ClonedLoopTask &Task) {
  nir::Context &Ctx = Task.TaskFn->getParent()->getContext();
  auto *ClonedPhi = nir::cast<PhiInst>(Task.ValueMap[R.Phi]);
  int Idx = ClonedPhi->getBlockIndex(&Task.TaskFn->getEntryBlock());
  assert(Idx >= 0);
  ClonedPhi->setIncomingValue(static_cast<unsigned>(Idx), R.getIdentity(Ctx));

  IRBuilder B(Ctx);
  B.setInsertPoint(Task.ExitBlock->getTerminator());
  Value *Slot = B.createGEP(
      Task.EnvArg,
      B.createAdd(B.getInt64(Layout.liveOutSlot(Out, 0)), Task.TaskIDArg,
                  "lane"),
      8, "out.slot");
  B.createStore(Task.ValueMap[Out], Slot);
}

void noelle::combineReductionLanes(IRBuilder &B, Value *Env,
                                   const ReductionVariable &R,
                                   Instruction *Out, const EnvLayout &Layout) {
  Value *Acc = nullptr;
  for (unsigned Lane = 0; Lane < Layout.Lanes; ++Lane) {
    Value *Partial = emitEnvLoad(B, Env, Layout.liveOutSlot(Out, Lane),
                                 Out->getType(), "partial");
    Acc = Acc ? ReductionManager::emitCombine(B, R.Op, Acc, Partial)
              : Partial;
  }
  // Fold in the value the accumulator had before the loop.
  Out->replaceAllUsesWith(
      ReductionManager::emitCombine(B, R.Op, R.InitialValue, Acc));
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

DispatchSite noelle::replaceLoopWithDispatch(nir::LoopStructure &LS,
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
  DispatchSite Site;
  Site.Block = Dispatch;
  Site.Env = B.createAlloca(
      Ctx.getArrayTy(Ctx.getInt64Ty(), Layout.totalSlots()), "env");
  for (Value *V : Layout.Env->getLiveIns())
    emitEnvStore(B, Site.Env, Layout.liveInSlot(V), V);

  Value *Tasks = Ctx.getInt64(static_cast<int64_t>(NumTasks));
  if (SpecSeqFn)
    Site.Call = B.createCall(
        M.getFunction("noelle_dispatch_spec"),
        {TaskFn, SpecSeqFn, Site.Env, Tasks,
         Ctx.getInt64(static_cast<int64_t>(ChunkGrain > 0 ? ChunkGrain : 1))});
  else if (ChunkGrain > 0)
    Site.Call = B.createCall(
        M.getFunction("noelle_dispatch_chunked"),
        {TaskFn, Site.Env, Tasks,
         Ctx.getInt64(static_cast<int64_t>(ChunkGrain))});
  else
    Site.Call = B.createCall(M.getFunction("noelle_dispatch"),
                             {TaskFn, Site.Env, Tasks});
  B.createBr(Exit);

  // Rewire the preheader.
  auto *PHBr = nir::cast<BranchInst>(PH->getTerminator());
  for (unsigned S = 0; S < PHBr->getNumSuccessors(); ++S)
    if (PHBr->getSuccessor(S) == LS.getHeader())
      PHBr->setSuccessor(S, Dispatch);

  return Site;
}

Function *noelle::finalizeLoopRemoval(nir::LoopStructure &LS,
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
  return F;
}
