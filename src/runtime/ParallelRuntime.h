//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel runtime backing NOELLE's parallelizers: task dispatch
/// onto the engine's persistent work-stealing thread pool (DOALL/HELIX/
/// DSWP), HELIX sequential-segment synchronization, and DSWP inter-core
/// queues. Transformed IR calls these as external functions;
/// registerParallelRuntime installs them into an ExecutionEngine, all
/// but the noelle_spec_* accessors, which the interpreter decodes.
///
/// IR-visible API (all i64/ptr):
///   noelle_dispatch(ptr task, ptr env, i64 numTasks) -> void
///       Runs task(env, t, numTasks) for t in [0, numTasks), one pool
///       worker per task (tasks may block on each other), and returns
///       once all complete. Workers persist across dispatches.
///   noelle_dispatch_chunked(ptr task, ptr env, i64 numTasks,
///                           i64 grain) -> void
///       DOALL's dynamically scheduled form: pool runners grab chunks of
///       `grain` consecutive task indices from a shared atomic counter
///       and run task(env, t, numTasks) for each. Tasks must not block
///       on one another. Per-task DispatchRecord accounting is identical
///       to noelle_dispatch.
///   noelle_dispatch_spec(ptr task, ptr seq, ptr env, i64 numTasks,
///                        i64 grain) -> void
///       Speculative DOALL dispatch. Runs task(env, t, numTasks) like
///       noelle_dispatch_chunked, but each logical task defers its
///       stores into a private write-log journal (interp/SpecJournal.h;
///       the task body routes memory accesses through the noelle_spec_*
///       accessors below) and marks every byte it read/wrote. At the
///       join the runtime validates the speculation: if no task's
///       written bytes overlap another task's read or written bytes, the
///       journals commit and execution is indistinguishable from a
///       legal DOALL; otherwise all journals are discarded (memory was
///       never touched) and the region re-executes sequentially via
///       seq(env, 0, 1), the uninstrumented clone — output
///       byte-identical to a never-parallelized run. Either way the
///       journals' pages return to a free list the dispatching thread
///       keeps for its next speculative dispatch, so a journal holds at
///       most the pages one dispatch touched. grain <= 0 selects static
///       dispatch.
///   noelle_spec_load_i8/i32/i64/f64(ptr) -> i64/f64
///   noelle_spec_store_i8/i32/i64/f64(ptr, v) -> void
///       Journal-aware memory accessors used inside speculative tasks.
///       They are declared here but not registered: the interpreter
///       decodes each call into a SpecLd/SpecSt opcode that reaches the
///       journal of the task running on its thread. Width and extension
///       semantics match the raw Ld/St opcodes (i8 zero-extends, i32
///       sign-extends). Loads see the task's own deferred writes;
///       outside a speculative dispatch they are plain memory accesses.
///   noelle_ss_create(i64 count) -> ptr
///       Allocates `count` sequential-segment gates, all at iteration 0.
///   noelle_ss_wait(ptr gates, i64 ss, i64 iteration) -> void
///       Blocks until gate `ss` reaches `iteration` (bounded spin, then
///       futex-style parking; never burns a core unboundedly).
///   noelle_ss_signal(ptr gates, i64 ss, i64 iteration) -> void
///       Marks gate `ss` as having completed `iteration` (sets it to
///       iteration + 1) and wakes parked waiters.
///   noelle_queue_create(i64 capacity) -> ptr
///       Queue handles are owned by the engine's QueueRegistry and die
///       with the engine.
///   noelle_queue_push(ptr q, i64 v) -> void   (blocking)
///   noelle_queue_pop(ptr q) -> i64            (blocking)
///
//===----------------------------------------------------------------------===//

#ifndef RUNTIME_PARALLELRUNTIME_H
#define RUNTIME_PARALLELRUNTIME_H

#include "interp/Interpreter.h"

namespace noelle {

/// Installs the parallel-runtime externals into \p Engine. Must be
/// called before running a module transformed by DOALL/HELIX/DSWP.
void registerParallelRuntime(nir::ExecutionEngine &Engine);

/// Declares the runtime functions in \p M (no-ops when already
/// declared) so transformed code can call them.
void declareParallelRuntime(nir::Module &M);

} // namespace noelle

#endif // RUNTIME_PARALLELRUNTIME_H
