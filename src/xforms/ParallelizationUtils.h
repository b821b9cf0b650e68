//===----------------------------------------------------------------------===//
///
/// \file
/// Shared machinery of the parallelizing custom tools (DOALL, HELIX,
/// DSWP): loop-to-task extraction with environment marshalling, the ENV
/// array layout, and caller-side loop replacement. This is the code the
/// paper's parallelizers build from the T/ENV/LB abstractions.
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
///   slots [0 .. numLiveIns)                      live-in values
///   slots [numLiveIns .. numLiveIns+K*killanes)  per-task live-out lanes
/// where each live-out owns `Lanes` consecutive slots.
struct EnvLayout {
  const Environment *Env = nullptr;
  unsigned Lanes = 1; ///< one lane per task for privatized live-outs

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
  unsigned totalSlots() const {
    return static_cast<unsigned>(Env->getLiveIns().size()) +
           static_cast<unsigned>(Env->getLiveOuts().size()) * Lanes;
  }
};

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

/// Emits caller-side code that replaces loop \p LS with:
///   env = alloca [slots x i64]; store live-ins;
///   call noelle_dispatch(@task, env, NumTasks);
/// in a new "dispatch" block, rewires the preheader to it and the
/// dispatch block to the loop's unique exit block, and removes the now
/// unreachable loop body. Returns the dispatch block positioned before
/// its terminator so callers can append live-out reads via the builder.
/// Exit-block phis fed only by the removed loop are folded. The loop
/// must have a preheader and exactly one exit block.
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
nir::BasicBlock *replaceLoopWithDispatch(nir::LoopStructure &LS,
                                         const EnvLayout &Layout,
                                         nir::Function *TaskFn,
                                         unsigned NumTasks,
                                         unsigned ChunkGrain = 0,
                                         nir::Function *SpecSeqFn = nullptr);

/// After live-out uses have been rewritten, patches phis in the loop's
/// exit block (the dispatch block contributes the substituted value) and
/// deletes the now-unreachable loop body.
void finalizeLoopRemoval(nir::LoopStructure &LS, nir::BasicBlock *Dispatch);

/// Stores \p V into environment slot \p Slot (env base pointer \p Env)
/// at the builder's insertion point.
void emitEnvStore(nir::IRBuilder &B, Value *Env, unsigned Slot, Value *V);

/// Loads a value of type \p Ty from environment slot \p Slot.
Value *emitEnvLoad(nir::IRBuilder &B, Value *Env, unsigned Slot,
                   nir::Type *Ty, const std::string &Name = "");

} // namespace noelle

#endif // XFORMS_PARALLELIZATIONUTILS_H
