#include "xforms/SpecDOALL.h"

#include "ir/IDs.h"
#include "ir/IRBuilder.h"
#include "ir/Instructions.h"
#include "noelle/MemDepProfiler.h"
#include "runtime/ParallelRuntime.h"
#include "verify/CheckMetadata.h"

using namespace noelle;
using nir::BasicBlock;
using nir::CallInst;
using nir::CastInst;
using nir::Function;
using nir::Instruction;
using nir::IRBuilder;
using nir::LoadInst;
using nir::StoreInst;
using nir::Type;

Legality SpecDOALL::applicable(LoopContent &LC) {
  Legality L;
  nir::LoopStructure &LS = LC.getLoopStructure();

  const MemDepProfile *Profile = N.getMemDepProfile();
  if (!Profile) {
    L.Reason = "no current memory-dependence profile embedded in the "
               "module";
    return L;
  }
  uint64_t H = LS.getHeaderID().value_or(0);
  if (!H) {
    L.Reason = "loop carries no deterministic IDs (run captureForCheck "
               "or pdgEmbed first)";
    return L;
  }
  if (!Profile->coversLoop(H)) {
    L.Reason = "profile never observed this loop (no absence evidence)";
    return L;
  }

  // Structural limits of the write-log protocol: every memory effect of
  // a speculative task must go through the journal, and rollback must
  // be able to undo everything the tasks did.
  for (BasicBlock *BB : LS.getBlocks())
    for (const auto &I : BB->getInstList()) {
      if (nir::isa<nir::AllocaInst>(I.get())) {
        L.Reason = "loop body allocates frame memory (journal would "
                   "outlive it)";
        return L;
      }
      if (nir::isa<nir::VLoadInst>(I.get()) ||
          nir::isa<nir::VStoreInst>(I.get())) {
        L.Reason = "vector memory access cannot be journaled";
        return L;
      }
      if (auto *C = nir::dyn_cast<CallInst>(I.get())) {
        Function *Callee = C->getCalledFunction();
        if (!Callee || !Callee->isDeclaration() ||
            !verify::isSpecPureExternal(Callee->getName())) {
          L.Reason = "loop body calls a function with memory or "
                     "observable effects";
          return L;
        }
      }
    }

  if (!LC.getEnvironment().getLiveOuts().empty()) {
    L.Reason = "speculative DOALL requires a loop without live-out "
               "values";
    return L;
  }

  // Run the static discharge with the speculation hook armed: carried
  // memory dependences the profile never saw manifest are admitted as
  // premises instead of rejections.
  L = DOALL::applicable(LC);
  if (L.Ok && L.SpecPremises.empty()) {
    L.Ok = false;
    L.Reason = "no speculative premises (static DOALL already applies)";
  }
  return L;
}

bool SpecDOALL::mayIgnoreCarriedDep(LoopContent &LC, const PDG::EdgeT &E,
                                    Legality &L) {
  // Only data dependences through memory can be covered by the write
  // log; control and register dependences stay hard rejections.
  if (E.IsControl || !E.IsMemory)
    return false;
  auto *From = nir::dyn_cast<Instruction>(E.From);
  auto *To = nir::dyn_cast<Instruction>(E.To);
  if (!From || !To)
    return false;
  const MemDepProfile *Profile = N.getMemDepProfile();
  uint64_t H = LC.getLoopStructure().getHeaderID().value_or(0);
  uint64_t A = nir::instIDOf(From).value_or(0);
  uint64_t B = nir::instIDOf(To).value_or(0);
  if (!Profile || !H || !A || !B)
    return false;
  if (!Profile->coversLoop(H) || Profile->manifested(H, A, B))
    return false;
  L.SpecPremises.push_back({A, B});
  return true;
}

TechniqueCost SpecDOALL::estimate(const Legality &L, const LoopPlan &P,
                                  const CostQuery &Q) const {
  double W = std::max(1u, P.Workers);
  // Priced in retired-instruction units (CostQuery::RetiredScale):
  // speculation lives in the marginal zone where spawn cost rivals body
  // work, so the body must be in the same currency as the measured
  // overheads.
  double Body = static_cast<double>(std::max<uint64_t>(1, L.BodyWeight)) *
                std::max(Q.BodyScale, Q.RetiredScale);
  double MemOps = static_cast<double>(L.MemOpWeight) * Q.BodyScale;
  // The instrumented body pays the accessor call + cast + journal
  // bookkeeping per memory access; validation/commit at the join is a
  // small per-worker pairwise interval check.
  double SpecBody = Body + MemOps * Q.SpecAccessCost;
  double ValidateCommit = W * 150.0;

  TechniqueCost C;
  C.SequentialTime = Q.Invocations * Q.TripCount * Body;
  double Parallel =
      Q.TripCount * SpecBody / W + W * Q.SpawnCostPerTask + ValidateCommit;
  // Expected rollback charge: a misspeculated dispatch throws away the
  // parallel attempt and re-runs the whole invocation sequentially.
  double Rollback = Q.MisspecProbability * Q.TripCount * Body;
  C.ParallelTime = Q.Invocations * (Parallel + Rollback);
  return C;
}

nir::Function *SpecDOALL::prepareSpeculation(LoopContent &LC,
                                             const EnvLayout &Layout,
                                             ClonedLoopTask &Task) {
  nir::LoopStructure &LS = LC.getLoopStructure();
  nir::Module &M = *LS.getFunction()->getParent();
  declareParallelRuntime(M);

  // Sequential fallback: a second, untouched clone of the original
  // loop. It ignores its taskID/numTasks arguments, so seq(env, 0, 1)
  // re-executes the whole region in original iteration order with raw
  // (non-journaled) memory accesses.
  ClonedLoopTask Seq = cloneLoopIntoTask(
      LS, Layout, Task.TaskFn->getName() + ".seq");
  Seq.TaskFn->setMetadata(verify::TaskKindKey, "doall-spec-seq");

  instrumentSpeculativeTask(*Task.TaskFn);
  Task.TaskFn->setMetadata(verify::TaskSpecSeqKey, Seq.TaskFn->getName());
  return Seq.TaskFn;
}

void noelle::instrumentSpeculativeTask(nir::Function &TaskFn) {
  nir::Module &M = *TaskFn.getParent();
  nir::Context &Ctx = M.getContext();
  declareParallelRuntime(M);
  IRBuilder B(Ctx);

  // Collect first: the rewrite below erases from the lists being
  // walked.
  std::vector<Instruction *> Accesses;
  for (const auto &BB : TaskFn.getBlocks())
    for (const auto &I : BB->getInstList())
      if (nir::isa<LoadInst>(I.get()) || nir::isa<StoreInst>(I.get()))
        Accesses.push_back(I.get());

  auto CarryProvenance = [](Instruction *To, Instruction *From) {
    std::string Orig = From->getMetadata(verify::CheckOrigKey);
    if (!Orig.empty())
      To->setMetadata(verify::CheckOrigKey, Orig);
  };

  for (Instruction *I : Accesses) {
    B.setInsertPoint(I);
    if (auto *LI = nir::dyn_cast<LoadInst>(I)) {
      Type *Ty = LI->getType();
      Value *Ptr = LI->getPointerOperand();
      CallInst *C = nullptr;
      Value *Repl = nullptr;
      switch (Ty->getKind()) {
      case Type::Kind::Int64:
        Repl = C = B.createCall(M.getFunction("noelle_spec_load_i64"),
                                {Ptr}, "spec.ld");
        break;
      case Type::Kind::Double:
        Repl = C = B.createCall(M.getFunction("noelle_spec_load_f64"),
                                {Ptr}, "spec.ld");
        break;
      case Type::Kind::Ptr:
        C = B.createCall(M.getFunction("noelle_spec_load_i64"), {Ptr},
                         "spec.ld");
        Repl = B.createCast(CastInst::Op::IntToPtr, C, Ty, "spec.ld.p");
        break;
      case Type::Kind::Int32:
        // The i32 accessor sign-extends (Ld4 semantics); narrow back to
        // the load's static type.
        C = B.createCall(M.getFunction("noelle_spec_load_i32"), {Ptr},
                         "spec.ld");
        Repl = B.createCast(CastInst::Op::Trunc, C, Ty, "spec.ld.n");
        break;
      default:
        // Int8/Int1: one zero-extended byte (Ld1 semantics).
        C = B.createCall(M.getFunction("noelle_spec_load_i8"), {Ptr},
                         "spec.ld");
        Repl = B.createCast(CastInst::Op::Trunc, C, Ty, "spec.ld.n");
        break;
      }
      CarryProvenance(C, LI);
      if (LI->hasName())
        Repl->setName(LI->getName());
      LI->replaceAllUsesWith(Repl);
      LI->eraseFromParent();
    } else {
      auto *SI = nir::cast<StoreInst>(I);
      Value *V = SI->getValueOperand();
      Value *Ptr = SI->getPointerOperand();
      Type *Ty = V->getType();
      CallInst *C = nullptr;
      switch (Ty->getKind()) {
      case Type::Kind::Int64:
        C = B.createCall(M.getFunction("noelle_spec_store_i64"),
                         {Ptr, V});
        break;
      case Type::Kind::Double:
        C = B.createCall(M.getFunction("noelle_spec_store_f64"),
                         {Ptr, V});
        break;
      case Type::Kind::Ptr: {
        Value *E = B.createCast(CastInst::Op::PtrToInt, V,
                                Ctx.getInt64Ty(), "spec.st.i");
        C = B.createCall(M.getFunction("noelle_spec_store_i64"),
                         {Ptr, E});
        break;
      }
      case Type::Kind::Int32: {
        Value *E = B.createCast(CastInst::Op::SExt, V, Ctx.getInt64Ty(),
                                "spec.st.w");
        C = B.createCall(M.getFunction("noelle_spec_store_i32"),
                         {Ptr, E});
        break;
      }
      default: {
        // Int8/Int1.
        Value *E = B.createCast(CastInst::Op::ZExt, V, Ctx.getInt64Ty(),
                                "spec.st.w");
        C = B.createCall(M.getFunction("noelle_spec_store_i8"),
                         {Ptr, E});
        break;
      }
      }
      CarryProvenance(C, SI);
      SI->eraseFromParent();
    }
  }
}
