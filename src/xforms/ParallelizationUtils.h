//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery of the parallelizing custom tools (DOALL, HELIX,
/// DSWP): the loop shape they all require, loop-to-task extraction with
/// environment marshalling, the ENV array layout, IV re-basing,
/// reduction privatization, and caller-side loop replacement. This is
/// the code the paper's parallelizers build from the T/ENV/LB/IVS/RD
/// abstractions.
///
//===----------------------------------------------------------------------===//

#ifndef XFORMS_PARALLELIZATIONUTILS_H
#define XFORMS_PARALLELIZATIONUTILS_H

#include "noelle/Noelle.h"

namespace noelle {

/// The result of cloning a loop into a task function.
struct ClonedLoopTask {
  nir::Function *TaskFn = nullptr;
  /// original value -> task value (live-in loads, cloned instructions,
  /// cloned blocks).
  std::map<const Value *, Value *> ValueMap;
  /// The task block every loop exit was redirected to (before its
  /// terminating ret).
  nir::BasicBlock *ExitBlock = nullptr;
  /// Task arguments.
  nir::Argument *EnvArg = nullptr;
  nir::Argument *TaskIDArg = nullptr;
  nir::Argument *NumTasksArg = nullptr;
};

/// Environment array layout used by all parallelizers:
///   slots [0 .. numLiveIns)                        live-in values
///   slots [numLiveIns .. numLiveIns+K*Lanes)       per-task live-out lanes
///   slots [numLiveIns+K*Lanes .. +ExtraSlots)      technique-owned slots
/// where each of the K live-outs owns `Lanes` consecutive slots.
struct EnvLayout {
  const Environment *Env = nullptr;
  unsigned Lanes = 1; ///< one lane per task for privatized live-outs
  /// Slots after the live-out lanes that a technique owns (HELIX's spill
  /// slots and gates pointer, DSWP's queue handles).
  unsigned ExtraSlots = 0;

  unsigned liveInSlot(const Value *V) const {
    int Idx = Env->indexOfLiveIn(V);
    assert(Idx >= 0 && "value is not a live-in");
    return static_cast<unsigned>(Idx);
  }
  unsigned liveOutSlot(const Instruction *I, unsigned Lane) const {
    int Idx = Env->indexOfLiveOut(I);
    assert(Idx >= 0 && "value is not a live-out");
    return static_cast<unsigned>(Env->getLiveIns().size()) +
           static_cast<unsigned>(Idx) * Lanes + Lane;
  }
  /// Slot \p K of the technique-owned slots.
  unsigned extraSlot(unsigned K) const {
    return static_cast<unsigned>(Env->getLiveIns().size()) +
           static_cast<unsigned>(Env->getLiveOuts().size()) * Lanes + K;
  }
  unsigned totalSlots() const { return extraSlot(ExtraSlots); }
};

/// The governing exit tests a technique accepts.
enum class ExitTests : uint8_t {
  Any,        ///< DSWP: every stage replicates the exit test as it is
  Ordered,    ///< slt/sle/sgt/sge, or "while (iv != bound)" (HELIX)
  OrderedOrEQ ///< also "if (iv == bound) exit" (DOALL)
};

/// The loop shape DOALL, HELIX and DSWP share: a preheader; one exit
/// block, reached only from the loop, and one exiting block, which must
/// be the header when \p HeaderExit; a governing IV with a nonzero
/// constant step whose branch is in the exiting block and whose exit
/// test is one of \p Tests; and a constant step on every IV (each is
/// re-based or replicated per task). Returns false and sets \p Reason
/// otherwise.
bool checkLoopShape(LoopContent &LC, bool HeaderExit, ExitTests Tests,
                    std::string &Reason);

/// The executable work of one iteration of \p LS: its non-phi,
/// non-terminator instructions (Legality::BodyWeight).
uint64_t bodyWeight(const nir::LoopStructure &LS);

/// The program-order (block-major) position of every instruction of
/// \p F, numbered in one walk.
std::unordered_map<const Instruction *, uint64_t>
numberInstructions(const nir::Function &F);

/// Creates an empty task function `Name`(ptr env, i64 taskID,
/// i64 numTasks) -> void with an entry block.
nir::Function *createTaskFunction(nir::Module &M, const std::string &Name);

/// Clones loop \p LS into a fresh task function:
///  - entry block loads every live-in from the environment;
///  - loop blocks are cloned with values/blocks remapped;
///  - every exit edge is redirected to a single task exit block ending
///    in `ret void`.
/// The caller then specializes the clone (IV re-basing, reduction
/// privatization, segment synchronization...).
ClonedLoopTask cloneLoopIntoTask(nir::LoopStructure &LS,
                                 const EnvLayout &Layout,
                                 const std::string &Name);

/// Re-bases every induction variable of the cloned loop in \p Task for
/// cyclic distribution over \p Workers tasks (DOALL and HELIX): start' =
/// start + taskID * step, computed at the end of the task's entry block,
/// and stride' = step * Workers. A cloned update whose only users are its
/// phi and the governing exit compare is rewritten in place. One that
/// other code also reads (GVN merges `i + 1` with a neighbour access
/// `a[i + 1]`) is left alone: the back edge and the exit compare get
/// their own `phi + step * Workers`. An EQ/NE governing exit test becomes
/// an ordered compare, since the wider stride could step over the bound.
void rebaseInductionVariables(InductionVariableManager &IVs,
                              ClonedLoopTask &Task, unsigned Workers);

/// Privatizes reduction \p R, carried by live-out \p Out, in \p Task
/// (DOALL, HELIX): the cloned accumulator starts at the operator
/// identity, and the task stores its partial result into lane
/// liveOutSlot(Out, 0) + taskID at its exit.
void privatizeReduction(const ReductionVariable &R, Instruction *Out,
                        const EnvLayout &Layout, ClonedLoopTask &Task);

/// At \p B, after the dispatch: loads the Layout.Lanes partial results
/// of reduction \p R's live-out \p Out from \p Env, combines them, folds
/// in the accumulator's initial value, and replaces every use of \p Out
/// with the result.
void combineReductionLanes(nir::IRBuilder &B, Value *Env,
                           const ReductionVariable &R, Instruction *Out,
                           const EnvLayout &Layout);

/// The caller side of a loop replaced by a dispatch.
struct DispatchSite {
  nir::BasicBlock *Block = nullptr; ///< the dispatch block
  Value *Env = nullptr;             ///< the environment array
  nir::CallInst *Call = nullptr;    ///< the noelle_dispatch* call
};

/// Emits caller-side code that replaces loop \p LS with:
///   env = alloca [Layout.totalSlots() x i64]; store live-ins;
///   call noelle_dispatch(@task, env, NumTasks);
/// in a new "dispatch" block, and rewires the preheader to it and the
/// dispatch block to the loop's unique exit block. Callers fill their
/// extra slots before the call and read live-outs before the block's
/// terminator, then call finalizeLoopRemoval. The loop must have a
/// preheader and exactly one exit block.
///
/// When \p ChunkGrain > 0 the call is emitted against
/// noelle_dispatch_chunked(@task, env, NumTasks, ChunkGrain) instead:
/// the runtime schedules the NumTasks logical tasks dynamically in
/// chunks of ChunkGrain indices (DOALL only — tasks must not block on
/// one another).
///
/// When \p SpecSeqFn is non-null the dispatch is speculative:
/// noelle_dispatch_spec(@task, @seq, env, NumTasks, ChunkGrain) runs
/// the instrumented task under write-log journals and falls back to
/// \p SpecSeqFn (the uninstrumented sequential clone) on conflict.
DispatchSite replaceLoopWithDispatch(nir::LoopStructure &LS,
                                     const EnvLayout &Layout,
                                     nir::Function *TaskFn, unsigned NumTasks,
                                     unsigned ChunkGrain = 0,
                                     nir::Function *SpecSeqFn = nullptr);

/// After live-out uses have been rewritten, patches phis in the loop's
/// exit block (the dispatch block contributes the substituted value) and
/// deletes the now-unreachable loop body. Returns the host function,
/// which \p LS can no longer answer: it reads its freed header.
nir::Function *finalizeLoopRemoval(nir::LoopStructure &LS,
                                   nir::BasicBlock *Dispatch);

/// Stores \p V into environment slot \p Slot (env base pointer \p Env)
/// at the builder's insertion point.
void emitEnvStore(nir::IRBuilder &B, Value *Env, unsigned Slot, Value *V);

/// Loads a value of type \p Ty from environment slot \p Slot.
Value *emitEnvLoad(nir::IRBuilder &B, Value *Env, unsigned Slot,
                   nir::Type *Ty, const std::string &Name = "");

} // namespace noelle

#endif // XFORMS_PARALLELIZATIONUTILS_H
