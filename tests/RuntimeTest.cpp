//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the parallel runtime primitives: the persistent
/// work-stealing thread pool (worker reuse, forward progress for
/// blocking jobs), the per-engine blocking queues under producer/
/// consumer contention, sequential-segment gate ordering, chunked
/// dispatch coverage, and the heap allocator's bounds check.
///
//===----------------------------------------------------------------------===//

#include "frontend/MiniC.h"
#include "runtime/ParallelRuntime.h"
#include "runtime/ThreadPool.h"

#include <gtest/gtest.h>

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <set>
#include <thread>
#include <vector>

using namespace noelle;
using nir::BlockingQueue;
using nir::Context;
using nir::ExecutionEngine;
using nir::ThreadPool;

namespace {

int64_t runWithRuntime(const char *Src, ExecutionEngine **OutEngine,
                       std::unique_ptr<ExecutionEngine> &Keep,
                       std::unique_ptr<nir::Module> &KeepM, Context &Ctx) {
  KeepM = minic::compileMiniCOrDie(Ctx, Src);
  Keep = std::make_unique<ExecutionEngine>(*KeepM);
  registerParallelRuntime(*Keep);
  if (OutEngine)
    *OutEngine = Keep.get();
  return Keep->runMain();
}

int64_t runWithRuntime(const char *Src) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  ExecutionEngine E(*M);
  registerParallelRuntime(E);
  return E.runMain();
}

//===----------------------------------------------------------------------===//
// ThreadPool unit tests
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsAllJobsAndBlocksUntilDone) {
  ThreadPool Pool;
  std::atomic<int> Count{0};
  std::vector<ThreadPool::Job> Jobs;
  for (int I = 0; I < 64; ++I)
    Jobs.push_back([&Count] { Count.fetch_add(1); });
  Pool.run(std::move(Jobs));
  // run() is a barrier: every job has finished once it returns.
  EXPECT_EQ(Count.load(), 64);
}

TEST(ThreadPoolTest, ReusesWorkersAcrossBatches) {
  ThreadPool Pool;
  std::vector<ThreadPool::Job> Warm;
  for (int I = 0; I < 8; ++I)
    Warm.push_back([] {});
  Pool.run(std::move(Warm));
  uint64_t AfterWarmup = Pool.getThreadsCreated();
  EXPECT_GE(AfterWarmup, 1u);

  for (int Batch = 0; Batch < 50; ++Batch) {
    std::vector<ThreadPool::Job> Jobs;
    for (int I = 0; I < 8; ++I)
      Jobs.push_back([] {});
    Pool.run(std::move(Jobs));
  }
  // Same peak concurrency -> the pool must not have created any thread
  // after warm-up.
  EXPECT_EQ(Pool.getThreadsCreated(), AfterWarmup);
  EXPECT_EQ(Pool.getBatchesRun(), 51u);
}

TEST(ThreadPoolTest, InterdependentBlockingJobsMakeProgress) {
  // Jobs that block on each other (the HELIX/DSWP shape): each job J
  // waits for flag J-1 before setting flag J. A pool without the
  // forward-progress guarantee deadlocks here on a small machine.
  ThreadPool Pool;
  constexpr int N = 16;
  std::vector<std::atomic<int>> Flags(N);
  for (auto &F : Flags)
    F.store(0);
  std::vector<ThreadPool::Job> Jobs;
  for (int J = N - 1; J >= 0; --J) // worst-case enqueue order
    Jobs.push_back([&Flags, J] {
      if (J > 0)
        while (Flags[J - 1].load(std::memory_order_acquire) == 0)
          std::this_thread::yield();
      Flags[J].store(1, std::memory_order_release);
    });
  Pool.run(std::move(Jobs));
  for (auto &F : Flags)
    EXPECT_EQ(F.load(), 1);
}

TEST(ThreadPoolTest, ConcurrentBatchesFromMultipleThreads) {
  // Nested/concurrent dispatches (a HELIX region inside a DSWP stage)
  // issue run() from worker threads; the pool must keep all batches
  // progressing.
  ThreadPool Pool;
  std::atomic<int> Count{0};
  std::vector<ThreadPool::Job> Outer;
  for (int I = 0; I < 4; ++I)
    Outer.push_back([&Pool, &Count] {
      std::vector<ThreadPool::Job> Inner;
      for (int J = 0; J < 4; ++J)
        Inner.push_back([&Count] { Count.fetch_add(1); });
      Pool.run(std::move(Inner));
    });
  Pool.run(std::move(Outer));
  EXPECT_EQ(Count.load(), 16);
}

TEST(ThreadPoolTest, SimultaneousJobsRunOnDistinctCPUs) {
  // K jobs that wait for each other all run at once; each then records
  // its CPU. Unpinned workers of a fresh pool may share one CPU (the
  // kernel need not move a thread off the CPU it was created on), so the
  // pool pins worker i to the i-th CPU of its creator's affinity mask.
  cpu_set_t Mask;
  CPU_ZERO(&Mask);
  ASSERT_EQ(sched_getaffinity(0, sizeof(Mask), &Mask), 0);
  const int K = std::min(4, CPU_COUNT(&Mask));
  ThreadPool Pool;
  std::atomic<int> Started{0};
  std::vector<int> CPUs(K, -1);
  std::vector<ThreadPool::Job> Jobs;
  for (int I = 0; I < K; ++I)
    Jobs.push_back([&Started, &CPUs, K, I] {
      Started.fetch_add(1);
      while (Started.load() < K)
        std::this_thread::yield();
      CPUs[I] = sched_getcpu();
    });
  Pool.run(std::move(Jobs));
  EXPECT_EQ(std::set<int>(CPUs.begin(), CPUs.end()).size(),
            static_cast<size_t>(K));
}

//===----------------------------------------------------------------------===//
// BlockingQueue unit tests
//===----------------------------------------------------------------------===//

TEST(BlockingQueueTest, ProducerConsumerStress) {
  // Two producers, two consumers, tiny capacity so both the full and
  // the empty wait paths are exercised constantly.
  BlockingQueue Q(8);
  constexpr int64_t PerProducer = 1000;
  std::atomic<int64_t> Sum{0};
  std::atomic<int64_t> Received{0};

  auto Producer = [&Q] {
    for (int64_t V = 0; V < PerProducer; ++V)
      Q.push(V);
  };
  auto Consumer = [&] {
    while (Received.fetch_add(1) < 2 * PerProducer)
      Sum.fetch_add(Q.pop());
  };

  std::thread P1(Producer), P2(Producer);
  std::thread C1(Consumer), C2(Consumer);
  P1.join();
  P2.join();
  C1.join();
  C2.join();
  EXPECT_EQ(Sum.load(), 2 * (PerProducer * (PerProducer - 1) / 2));
}

//===----------------------------------------------------------------------===//
// Engine-level runtime tests (MiniC programs through the interpreter)
//===----------------------------------------------------------------------===//

TEST(RuntimeTest, QueueStressThroughInterpreter) {
  // 2 producer tasks and 2 consumer tasks share one capacity-8 queue,
  // so both the queue-full and queue-empty wait paths run constantly.
  // Producers push disjoint ranges covering 0..999; consumers split
  // them arbitrarily but the sum of both partitions is fixed.
  const char *Src = R"(
    extern int *noelle_queue_create(int capacity);
    extern void noelle_queue_push(int *q, int v);
    extern int noelle_queue_pop(int *q);
    extern void noelle_dispatch(void (*task)(int *, int, int), int *env,
                                int n);
    int sums[2];
    void task(int *q, int t, int n) {
      if (t < 2) {
        int i = 0;
        while (i < 500) {
          noelle_queue_push(q, t * 500 + i);
          i = i + 1;
        }
      } else {
        int i = 0;
        int s = 0;
        while (i < 500) {
          s = s + noelle_queue_pop(q);
          i = i + 1;
        }
        sums[t - 2] = s;
      }
      return;
    }
    int main() {
      int *q = noelle_queue_create(8);
      noelle_dispatch(task, q, 4);
      return sums[0] + sums[1];
    }
  )";
  EXPECT_EQ(runWithRuntime(Src), 999 * 1000 / 2);
}

TEST(RuntimeTest, SequentialSegmentOrderingUnderContention) {
  // 4 tasks x 16 iterations increment a NON-atomic global inside a
  // sequential segment. Only the gate's ordering (ss_wait parks until
  // the counter reaches this task's turn) makes this race-free; any
  // lost update or misordering changes the result.
  const char *Src = R"(
    extern int *noelle_ss_create(int count);
    extern void noelle_ss_wait(int *gates, int ss, int iter);
    extern void noelle_ss_signal(int *gates, int ss, int iter);
    extern void noelle_dispatch(void (*task)(int *, int, int), int *env,
                                int n);
    int counter;
    void task(int *gates, int t, int n) {
      int i = t;
      while (i < 64) {
        noelle_ss_wait(gates, 0, i);
        counter = counter + 1;
        noelle_ss_signal(gates, 0, i);
        i = i + n;
      }
      return;
    }
    int main() {
      int *gates = noelle_ss_create(1);
      noelle_dispatch(task, gates, 4);
      return counter;
    }
  )";
  for (int Round = 0; Round < 5; ++Round)
    EXPECT_EQ(runWithRuntime(Src), 64);
}

TEST(RuntimeTest, WorkersAreReusedAcrossDispatches) {
  const char *Src = R"(
    extern void noelle_dispatch(void (*task)(int *, int, int), int *env,
                                int n);
    int env[1];
    void task(int *env, int t, int n) { return; }
    int main() {
      noelle_dispatch(task, env, 4);
      return 0;
    }
  )";
  Context Ctx;
  std::unique_ptr<nir::Module> M;
  std::unique_ptr<ExecutionEngine> E;
  ExecutionEngine *EP = nullptr;
  runWithRuntime(Src, &EP, E, M, Ctx);
  uint64_t AfterFirst = EP->getThreadPool().getThreadsCreated();
  EXPECT_GE(AfterFirst, 1u);
  for (int I = 0; I < 10; ++I)
    EP->runMain();
  // Repeated dispatches of the same width must not create new threads.
  EXPECT_EQ(EP->getThreadPool().getThreadsCreated(), AfterFirst);
}

TEST(RuntimeTest, ChunkedDispatchCoversEveryTaskExactlyOnce) {
  // 13 tasks, grain 3 (doesn't divide evenly): every logical task index
  // must run exactly once, regardless of which runner claims the chunk.
  const char *Src = R"(
    extern void noelle_dispatch_chunked(void (*task)(int *, int, int),
                                        int *env, int n, int grain);
    int hits[13];
    void task(int *env, int t, int n) {
      hits[t] = hits[t] + 1;
      return;
    }
    int main() {
      noelle_dispatch_chunked(task, hits, 13, 3);
      int i = 0;
      int bad = 0;
      while (i < 13) {
        if (hits[i] != 1) { bad = bad + 1; }
        i = i + 1;
      }
      return bad;
    }
  )";
  EXPECT_EQ(runWithRuntime(Src), 0);
}

TEST(RuntimeTest, ChunkedDispatchMatchesStaticResults) {
  // Same reduction computed via static and chunked dispatch must agree.
  const char *StaticSrc = R"(
    extern void noelle_dispatch(void (*task)(int *, int, int), int *env,
                                int n);
    int acc[4];
    void task(int *env, int t, int n) {
      int i = t;
      int s = 0;
      while (i < 1000) { s = s + i * i; i = i + n; }
      acc[t] = s;
      return;
    }
    int main() {
      noelle_dispatch(task, acc, 4);
      return acc[0] + acc[1] + acc[2] + acc[3];
    }
  )";
  const char *ChunkedSrc = R"(
    extern void noelle_dispatch_chunked(void (*task)(int *, int, int),
                                        int *env, int n, int grain);
    int acc[4];
    void task(int *env, int t, int n) {
      int i = t;
      int s = 0;
      while (i < 1000) { s = s + i * i; i = i + n; }
      acc[t] = s;
      return;
    }
    int main() {
      noelle_dispatch_chunked(task, acc, 4, 2);
      return acc[0] + acc[1] + acc[2] + acc[3];
    }
  )";
  EXPECT_EQ(runWithRuntime(StaticSrc), runWithRuntime(ChunkedSrc));
}

TEST(RuntimeTest, QueueRegistryIsPerEngine) {
  // Queues are owned by the engine that created them, not by a
  // process-global singleton: a fresh engine starts with an empty
  // registry even after another engine created queues.
  const char *Src = R"(
    extern int *noelle_queue_create(int capacity);
    int main() {
      noelle_queue_create(4);
      noelle_queue_create(4);
      return 0;
    }
  )";
  Context Ctx1;
  auto M1 = minic::compileMiniCOrDie(Ctx1, Src);
  ExecutionEngine E1(*M1);
  registerParallelRuntime(E1);
  E1.runMain();
  EXPECT_EQ(E1.getQueueRegistry().size(), 2u);

  Context Ctx2;
  auto M2 = minic::compileMiniCOrDie(Ctx2, Src);
  ExecutionEngine E2(*M2);
  registerParallelRuntime(E2);
  E2.runMain();
  // With the old global registry this would observe E1's queues too.
  EXPECT_EQ(E2.getQueueRegistry().size(), 2u);
}

TEST(RuntimeTest, HeapAllocIsRaceFreeUnderConcurrentAllocation) {
  // Hammer the engine's bump allocator (malloc -> heapAlloc) from 4
  // pooled tasks; blocks must be disjoint. With the old
  // fetch_add-then-check scheme, racing allocations near the heap end
  // could both commit and hand out overlapping memory.
  const char *Src = R"(
    extern void noelle_dispatch(void (*task)(int *, int, int), int *env,
                                int n);
    int ok[4];
    void task(int *env, int t, int n) {
      int i = 0;
      int good = 1;
      while (i < 200) {
        int *p = malloc(16);
        p[0] = t * 1000 + i;
        p[1] = t * 1000 - i;
        if (p[0] != t * 1000 + i) { good = 0; }
        if (p[1] != t * 1000 - i) { good = 0; }
        i = i + 1;
      }
      ok[t] = good;
      return;
    }
    int main() {
      noelle_dispatch(task, ok, 4);
      return ok[0] + ok[1] + ok[2] + ok[3];
    }
  )";
  EXPECT_EQ(runWithRuntime(Src), 4);
}

} // namespace
