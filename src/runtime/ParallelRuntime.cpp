#include "runtime/ParallelRuntime.h"

#include "interp/SpecJournal.h"
#include "ir/Instructions.h"
#include "noelle/Architecture.h"
#include "runtime/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <thread>
#include <vector>

using namespace noelle;
using nir::CallInst;
using nir::ExecutionEngine;
using nir::Function;
using nir::RuntimeValue;
using nir::SpecJournal;
using nir::ThreadPool;
namespace telemetry = noelle::telemetry;

namespace {

/// Synchronization operations performed by the calling thread inside the
/// current task (ss waits/signals + queue pushes/pops); feeds the
/// performance model.
thread_local uint64_t ThreadSyncOps = 0;

/// Journals of the speculative dispatches this thread makes, kept with
/// their pages between dispatches. A dispatch takes the whole set and
/// puts it back when it ends, so two dispatches never share a journal.
thread_local std::vector<SpecJournal> DispatcherJournals;

/// Segment-work accounting: noelle_ss_wait checkpoints the thread's
/// retired-instruction counter; noelle_ss_signal accumulates the delta.
thread_local uint64_t ThreadSegmentWork = 0;
thread_local uint64_t ThreadSegmentCheckpoint = 0;

/// Shared dispatch implementation. Tasks run on the engine's persistent
/// pool; the caller blocks on the batch's completion latch instead of
/// joining freshly spawned threads.
///
/// Grain == 0: static dispatch — one pool job per task, and the pool
/// guarantees every task holds a worker simultaneously (HELIX gates and
/// DSWP queues block across tasks).
///
/// Grain > 0: chunked dynamic scheduling for DOALL — a small set of
/// runner jobs grab chunks of `Grain` consecutive task indices from a
/// shared atomic counter until the index space [0, NumTasks) drains.
/// Tasks must not block on each other in this mode.
///
/// Either way the DispatchRecord is accounted per logical task, exactly
/// as the spawn-per-region runtime did: task t's instruction/sync/
/// segment counts depend only on (env, t, numTasks), so Figure-5 model
/// inputs are byte-identical across scheduling strategies.
/// \p Journals, when non-null, points at NumTasks speculative journals;
/// logical task T runs with Journals[T] installed as the thread's
/// journal, so its speculative accesses defer its stores.
/// Accounting is unchanged — the misspeculation-free speculative path
/// produces the same DispatchRecord a plain dispatch of the same task
/// would.
void runDispatch(ExecutionEngine &E, Function *Task, uint64_t EnvPtr,
                 int64_t NumTasks, int64_t Grain,
                 SpecJournal *Journals = nullptr) {
  nir::DispatchRecord Rec;
  Rec.TaskName = Task->getName();
  if (NumTasks <= 0) {
    E.recordDispatch(Rec);
    return;
  }
  telemetry::count(Grain <= 0 ? telemetry::Counter::DispatchStatic
                              : telemetry::Counter::DispatchChunked);
  const uint64_t DispatchT0 =
      telemetry::metricsEnabled() ? telemetry::nowNs() : 0;
  size_t N = static_cast<size_t>(NumTasks);
  std::vector<uint64_t> Work(N, 0), Sync(N, 0), Seg(N, 0);

  // Resolve the task function's decoded form once per dispatch; every
  // task invocation then skips the decode-cache lookup.
  ExecutionEngine::PreparedFunction Prepared = E.prepare(Task);

  auto RunOne = [&, EnvPtr, NumTasks, Journals](int64_t T) {
    ExecutionEngine::resetThreadRetired();
    ThreadSyncOps = 0;
    ThreadSegmentWork = 0;
    if (Journals)
      ExecutionEngine::setThreadJournal(&Journals[static_cast<size_t>(T)]);
    E.runPrepared(Prepared, {RuntimeValue::ofPtr(EnvPtr),
                             RuntimeValue::ofInt(T),
                             RuntimeValue::ofInt(NumTasks)});
    if (Journals)
      ExecutionEngine::setThreadJournal(nullptr);
    Work[static_cast<size_t>(T)] = ExecutionEngine::readThreadRetired();
    Sync[static_cast<size_t>(T)] = ThreadSyncOps;
    Seg[static_cast<size_t>(T)] = ThreadSegmentWork;
  };

  // Static dispatches (HELIX workers, DSWP stages) carry few tasks, so a
  // per-task span named after the task function is affordable; chunked
  // DOALL traces at chunk granularity instead (below).
  auto RunOneTraced = [&](int64_t T) {
    if (telemetry::traceEnabled()) {
      uint64_t T0 = telemetry::nowNs();
      RunOne(T);
      telemetry::traceSpan(Task->getName(), T0, telemetry::nowNs(),
                           {"task", T, "tasks", NumTasks});
    } else {
      RunOne(T);
    }
  };

  ThreadPool &Pool = E.getThreadPool();
  std::vector<ThreadPool::Job> Jobs;
  std::atomic<int64_t> NextChunk{0};
  if (Grain <= 0) {
    Jobs.reserve(N);
    for (int64_t T = 0; T < NumTasks; ++T)
      Jobs.push_back([&RunOneTraced, T] { RunOneTraced(T); });
  } else {
    // Runner count: one per host core is enough, since runners never
    // block and each drains chunks until the counter is exhausted.
    int64_t Runners = std::min<int64_t>(
        NumTasks, std::max(1u, Architecture::hostLogicalCores()));
    Jobs.reserve(static_cast<size_t>(Runners));
    for (int64_t R = 0; R < Runners; ++R)
      Jobs.push_back([&RunOne, &NextChunk, NumTasks, Grain] {
        for (;;) {
          int64_t Base =
              NextChunk.fetch_add(Grain, std::memory_order_relaxed);
          if (Base >= NumTasks)
            break;
          int64_t End = std::min(Base + Grain, NumTasks);
          telemetry::count(telemetry::Counter::DispatchChunks);
          if (telemetry::traceEnabled()) {
            uint64_t T0 = telemetry::nowNs();
            for (int64_t T = Base; T < End; ++T)
              RunOne(T);
            telemetry::traceSpan("doall.chunk", T0, telemetry::nowNs(),
                                 {"base", Base, "end", End});
          } else {
            for (int64_t T = Base; T < End; ++T)
              RunOne(T);
          }
        }
      });
  }
  Pool.run(std::move(Jobs)); // blocks on the completion latch

  if (DispatchT0) {
    uint64_t T1 = telemetry::nowNs();
    telemetry::record(telemetry::Hist::DispatchNs, T1 - DispatchT0);
    telemetry::traceSpan("dispatch", DispatchT0, T1,
                         {"tasks", NumTasks, "grain", Grain});
  }

  Rec.NumTasks = static_cast<uint64_t>(NumTasks);
  for (size_t T = 0; T < Work.size(); ++T) {
    Rec.MaxTaskInstructions = std::max(Rec.MaxTaskInstructions, Work[T]);
    Rec.TotalTaskInstructions += Work[T];
    Rec.MaxTaskSyncOps = std::max(Rec.MaxTaskSyncOps, Sync[T]);
    Rec.TotalTaskSyncOps += Sync[T];
    Rec.TotalSegmentInstructions += Seg[T];
  }
  E.recordDispatch(Rec);
}

/// Spin briefly before parking: gate latencies are usually a few
/// iterations of a peer task, but HELIX must not burn a core per gate
/// when the producer is descheduled.
inline void gateWait(std::atomic<int64_t> *Gate, int64_t Iter) {
  int64_t Cur = Gate->load(std::memory_order_acquire);
  unsigned Spins = 0;
  while (Cur < Iter) {
    if (Spins < 256) {
      ++Spins;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#else
      std::this_thread::yield();
#endif
    } else {
#if defined(__cpp_lib_atomic_wait)
      // Park until the gate value changes (futex-backed); signal calls
      // notify_all after every store.
      Gate->wait(Cur, std::memory_order_acquire);
#else
      std::this_thread::sleep_for(std::chrono::microseconds(50));
#endif
    }
    Cur = Gate->load(std::memory_order_acquire);
  }
}

} // namespace

void noelle::registerParallelRuntime(ExecutionEngine &Engine) {
  Engine.registerExternal(
      "noelle_dispatch",
      [](ExecutionEngine &E, const CallInst *,
         const std::vector<RuntimeValue> &A) {
        Function *Task = E.decodeFunction(A[0].P);
        if (!Task) {
          std::fprintf(stderr, "noelle_dispatch: invalid task pointer\n");
          std::abort();
        }
        runDispatch(E, Task, A[1].P, A[2].I, /*Grain=*/0);
        return RuntimeValue();
      });

  Engine.registerExternal(
      "noelle_dispatch_chunked",
      [](ExecutionEngine &E, const CallInst *,
         const std::vector<RuntimeValue> &A) {
        Function *Task = E.decodeFunction(A[0].P);
        if (!Task) {
          std::fprintf(stderr,
                       "noelle_dispatch_chunked: invalid task pointer\n");
          std::abort();
        }
        runDispatch(E, Task, A[1].P, A[2].I, std::max<int64_t>(A[3].I, 1));
        return RuntimeValue();
      });

  Engine.registerExternal(
      "noelle_dispatch_spec",
      [](ExecutionEngine &E, const CallInst *,
         const std::vector<RuntimeValue> &A) {
        Function *Task = E.decodeFunction(A[0].P);
        Function *Seq = E.decodeFunction(A[1].P);
        if (!Task || !Seq) {
          std::fprintf(stderr,
                       "noelle_dispatch_spec: invalid task pointer\n");
          std::abort();
        }
        uint64_t EnvPtr = A[2].P;
        int64_t NumTasks = A[3].I;
        int64_t Grain = A[4].I;
        if (NumTasks <= 0) {
          nir::DispatchRecord Rec;
          Rec.TaskName = Task->getName();
          E.recordDispatch(Rec);
          return RuntimeValue();
        }

        // Speculative run: every task defers its stores into a private
        // journal, so memory stays pristine until validation passes.
        const size_t N = static_cast<size_t>(NumTasks);
        std::vector<SpecJournal> Journals = std::move(DispatcherJournals);
        if (Journals.size() < N)
          Journals.resize(N);
        runDispatch(E, Task, EnvPtr, NumTasks, Grain, Journals.data());

        // Validate: the speculation fails iff any task's written bytes
        // overlap another task's read or written bytes — exactly the
        // loop-carried dependences the plan speculated away manifesting
        // across the task partition.
        const bool Traced = telemetry::traceEnabled();
        const uint64_t ValT0 = Traced ? telemetry::nowNs() : 0;
        const bool Conflict = nir::journalsConflict(Journals.data(), N);
        const uint64_t ValT1 = Traced ? telemetry::nowNs() : 0;
        if (Traced)
          telemetry::traceSpan("spec.validate", ValT0, ValT1,
                               {"tasks", NumTasks});

        if (!Conflict) {
          // Commit: journals hold disjoint written bytes (no write-write
          // overlap), so replay order across tasks is immaterial.
          for (size_t T = 0; T < N; ++T) {
            Journals[T].commit();
            Journals[T].recycle();
          }
          DispatcherJournals = std::move(Journals);
          telemetry::count(telemetry::Counter::SpecCommits);
          if (Traced)
            telemetry::traceSpan("spec.commit", ValT1, telemetry::nowNs(),
                                 {"tasks", NumTasks});
          return RuntimeValue();
        }

        // Misspeculate: discard every journal (memory was never touched)
        // and re-execute the region sequentially on this thread via the
        // uninstrumented clone. Output and memory end up byte-identical
        // to a never-parallelized run.
        telemetry::count(telemetry::Counter::SpecMisspeculations);
        for (size_t T = 0; T < N; ++T)
          Journals[T].recycle();
        DispatcherJournals = std::move(Journals);
        E.runFunction(Seq, {RuntimeValue::ofPtr(EnvPtr),
                            RuntimeValue::ofInt(0),
                            RuntimeValue::ofInt(1)});
        if (Traced)
          telemetry::traceSpan("spec.rollback", ValT1, telemetry::nowNs(),
                               {"tasks", NumTasks});
        return RuntimeValue();
      });

  Engine.registerExternal(
      "noelle_ss_create",
      [](ExecutionEngine &E, const CallInst *,
         const std::vector<RuntimeValue> &A) {
        int64_t Count = A[0].I;
        uint64_t Addr =
            E.heapAlloc(static_cast<uint64_t>(Count) * sizeof(int64_t));
        auto *Gates = reinterpret_cast<std::atomic<int64_t> *>(Addr);
        for (int64_t I = 0; I < Count; ++I)
          Gates[I].store(0, std::memory_order_relaxed);
        return RuntimeValue::ofPtr(Addr);
      });

  Engine.registerExternal(
      "noelle_ss_wait",
      [](ExecutionEngine &, const CallInst *,
         const std::vector<RuntimeValue> &A) {
        auto *Gates = reinterpret_cast<std::atomic<int64_t> *>(A[0].P);
        int64_t SS = A[1].I;
        int64_t Iter = A[2].I;
        ++ThreadSyncOps;
        ThreadSegmentCheckpoint = ExecutionEngine::readThreadRetired();
        // Stall time is only measured when the gate is not already open,
        // so the common fast path stays a single acquire load.
        if (telemetry::metricsEnabled() &&
            Gates[SS].load(std::memory_order_acquire) < Iter) {
          uint64_t T0 = telemetry::nowNs();
          gateWait(&Gates[SS], Iter);
          uint64_t T1 = telemetry::nowNs();
          telemetry::count(telemetry::Counter::SSWaitStalled);
          telemetry::record(telemetry::Hist::SSWaitStallNs, T1 - T0);
          telemetry::traceSpan("helix.ss_stall", T0, T1,
                               {"ss", SS, "iter", Iter});
        } else {
          telemetry::count(telemetry::Counter::SSWaitFast);
          gateWait(&Gates[SS], Iter);
        }
        return RuntimeValue();
      });

  Engine.registerExternal(
      "noelle_ss_signal",
      [](ExecutionEngine &, const CallInst *,
         const std::vector<RuntimeValue> &A) {
        auto *Gates = reinterpret_cast<std::atomic<int64_t> *>(A[0].P);
        int64_t SS = A[1].I;
        int64_t Iter = A[2].I;
        Gates[SS].store(Iter + 1, std::memory_order_release);
#if defined(__cpp_lib_atomic_wait)
        Gates[SS].notify_all();
#endif
        ThreadSegmentWork +=
            ExecutionEngine::readThreadRetired() - ThreadSegmentCheckpoint;
        return RuntimeValue();
      });

  Engine.registerExternal(
      "noelle_queue_create",
      [](ExecutionEngine &E, const CallInst *,
         const std::vector<RuntimeValue> &A) {
        nir::BlockingQueue *Q = E.getQueueRegistry().create(
            static_cast<size_t>(std::max<int64_t>(A[0].I, 1)));
        return RuntimeValue::ofPtr(reinterpret_cast<uint64_t>(Q));
      });

  Engine.registerExternal(
      "noelle_queue_push",
      [](ExecutionEngine &, const CallInst *,
         const std::vector<RuntimeValue> &A) {
        ++ThreadSyncOps;
        telemetry::count(telemetry::Counter::QueuePush);
        auto *Q = reinterpret_cast<nir::BlockingQueue *>(A[0].P);
        if (telemetry::traceEnabled()) {
          uint64_t T0 = telemetry::nowNs();
          Q->push(A[1].I);
          telemetry::traceSpan("dswp.queue_push", T0, telemetry::nowNs());
        } else {
          Q->push(A[1].I);
        }
        return RuntimeValue();
      });

  Engine.registerExternal(
      "noelle_queue_pop",
      [](ExecutionEngine &, const CallInst *,
         const std::vector<RuntimeValue> &A) {
        ++ThreadSyncOps;
        telemetry::count(telemetry::Counter::QueuePop);
        auto *Q = reinterpret_cast<nir::BlockingQueue *>(A[0].P);
        if (telemetry::traceEnabled()) {
          uint64_t T0 = telemetry::nowNs();
          int64_t V = Q->pop();
          telemetry::traceSpan("dswp.queue_pop", T0, telemetry::nowNs());
          return RuntimeValue::ofInt(V);
        }
        return RuntimeValue::ofInt(Q->pop());
      });
}

void noelle::declareParallelRuntime(nir::Module &M) {
  nir::Context &Ctx = M.getContext();
  auto Declare = [&](const char *Name, nir::Type *Ret,
                     std::vector<nir::Type *> Params) {
    if (M.getFunction(Name))
      return;
    M.createFunction(Ctx.getFunctionTy(Ret, Params), Name);
  };
  nir::Type *V = Ctx.getVoidTy();
  nir::Type *I = Ctx.getInt64Ty();
  nir::Type *P = Ctx.getPtrTy();
  nir::Type *D = Ctx.getDoubleTy();
  Declare("noelle_dispatch", V, {P, P, I});
  Declare("noelle_dispatch_chunked", V, {P, P, I, I});
  Declare("noelle_dispatch_spec", V, {P, P, P, I, I});
  Declare("noelle_spec_load_i8", I, {P});
  Declare("noelle_spec_load_i32", I, {P});
  Declare("noelle_spec_load_i64", I, {P});
  Declare("noelle_spec_load_f64", D, {P});
  Declare("noelle_spec_store_i8", V, {P, I});
  Declare("noelle_spec_store_i32", V, {P, I});
  Declare("noelle_spec_store_i64", V, {P, I});
  Declare("noelle_spec_store_f64", V, {P, D});
  Declare("noelle_ss_create", P, {I});
  Declare("noelle_ss_wait", V, {P, I, I});
  Declare("noelle_ss_signal", V, {P, I, I});
  Declare("noelle_queue_create", P, {I});
  Declare("noelle_queue_push", V, {P, I});
  Declare("noelle_queue_pop", I, {P});
}
