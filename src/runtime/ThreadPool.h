//===----------------------------------------------------------------------===//
///
/// \file
/// Persistent runtime primitives owned by an ExecutionEngine: a
/// work-stealing thread pool that keeps workers alive across parallel
/// region invocations (so noelle_dispatch pays an enqueue + latch wait
/// instead of a thread create/join per region), the blocking queue used
/// as DSWP's inter-core channel, and the per-engine registry that owns
/// queue objects for the engine's lifetime.
///
//===----------------------------------------------------------------------===//

#ifndef RUNTIME_THREADPOOL_H
#define RUNTIME_THREADPOOL_H

#include "telemetry/Telemetry.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace nir {

/// A pool of long-lived worker threads with one task deque per worker
/// and work stealing between them.
///
/// Forward-progress guarantee: jobs submitted through run() may block on
/// each other indefinitely (HELIX sequential-segment gates, DSWP queue
/// pops), so the pool grows its worker count to cover the peak number of
/// simultaneously outstanding jobs. Every job therefore eventually holds
/// a worker even when all other jobs are blocked. Workers are never
/// retired before the pool is destroyed, so repeated dispatches of the
/// same width create no threads after the first ("warm-up") dispatch.
///
/// Placement: worker i is pinned to the i-th CPU of the creating
/// thread's affinity mask, wrapping around. The kernel does not reliably
/// move a thread off the CPU it was created or woken on (for example
/// under a cpuset root with sched_load_balance = 0), so unpinned workers
/// of one dispatch can end up time-sharing a single CPU. A one-CPU mask
/// pins nothing. The cost: a pinned worker cannot leave a CPU that
/// another process keeps busy (DESIGN.md §4, "Placement").
class ThreadPool {
public:
  using Job = std::function<void()>;

  ThreadPool();
  ~ThreadPool();
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Runs every job to completion and blocks the caller on a completion
  /// latch. Safe to call from a worker thread (nested batches are
  /// covered by the forward-progress guarantee above).
  void run(std::vector<Job> Jobs);

  /// Analysis-side submission API: runs jobs that never block on each
  /// other (pure fork/join work such as per-function PDG construction).
  /// Unlike run(), the pool grows only to \p Parallelism workers (0 =
  /// hardware concurrency), not to one worker per job, so a module with
  /// hundreds of functions does not spawn hundreds of threads. Jobs must
  /// not wait on other jobs of the same batch and must not be submitted
  /// from inside a pool worker.
  void runIndependent(std::vector<Job> Jobs, unsigned Parallelism = 0);

  /// Worker threads currently alive.
  unsigned getWorkerCount() const {
    return NumWorkers.load(std::memory_order_acquire);
  }
  /// Monotonic count of threads ever created; stable across repeated
  /// dispatches after warm-up (the reuse tests assert on this).
  uint64_t getThreadsCreated() const {
    return ThreadsCreated.load(std::memory_order_relaxed);
  }
  /// Number of run() batches dispatched so far.
  uint64_t getBatchesRun() const {
    return BatchesRun.load(std::memory_order_relaxed);
  }

  /// Hard cap on workers. The spawn-per-region runtime this pool
  /// replaces created NumTasks threads per dispatch, so any dispatch
  /// shape it survived fits far below this bound.
  static constexpr unsigned MaxWorkers = 1024;

private:
  struct Worker {
    std::mutex M;
    std::deque<Job> Jobs;
  };
  struct Latch;

  void workerLoop(unsigned Index);
  bool tryTake(unsigned Self, Job &Out);
  /// Grows the pool to \p Target workers. Caller holds PoolMutex.
  void ensureWorkers(unsigned Target);
  /// Enqueues pre-wrapped jobs round-robin and wakes the workers.
  void enqueue(std::vector<Job> &&Wrapped);

  /// Fixed-capacity slot table so workers can index it without locking
  /// while ensureWorkers publishes new slots (slot first, then count
  /// with release ordering).
  std::vector<std::unique_ptr<Worker>> Workers;
  std::vector<std::thread> Threads;
  std::atomic<unsigned> NumWorkers{0};
  std::atomic<uint64_t> ThreadsCreated{0};
  std::atomic<uint64_t> BatchesRun{0};
  /// Jobs enqueued or running across all batches; drives pool growth.
  std::atomic<uint64_t> OutstandingJobs{0};
  /// Jobs sitting in deques (not yet taken); the idle-wait predicate.
  std::atomic<uint64_t> QueuedJobs{0};
  /// Round-robin placement cursor for new batches.
  std::atomic<unsigned> PushCursor{0};
  /// CPUs of the creator's affinity mask, in ascending order; empty when
  /// it holds a single CPU.
  std::vector<int> CPUs;
  std::mutex PoolMutex;
  std::condition_variable WorkCV;
  bool ShuttingDown = false;
};

/// The process-wide pool shared by compile-time analyses (parallel PDG
/// construction). Distinct from the per-engine runtime pools: analysis
/// jobs are pure fork/join work submitted through runIndependent(), so
/// one shared pool sized to the machine is the right lifetime.
ThreadPool &analysisThreadPool();

/// A bounded blocking queue carrying 64-bit payloads (DSWP's inter-core
/// channel). Handles are stable heap pointers owned by a QueueRegistry
/// so IR code can hold them as opaque ptr values.
class BlockingQueue {
public:
  explicit BlockingQueue(size_t Capacity) : Capacity(Capacity) {}

  void push(int64_t V) {
    std::unique_lock<std::mutex> Lock(M);
    NotFull.wait(Lock, [&] { return Items.size() < Capacity; });
    Items.push_back(V);
    // Occupancy sampled under the queue lock: the size after a push (and
    // before a pop) is the channel's instantaneous depth.
    noelle::telemetry::record(noelle::telemetry::Hist::QueueOccupancy,
                              Items.size());
    NotEmpty.notify_one();
  }

  int64_t pop() {
    std::unique_lock<std::mutex> Lock(M);
    NotEmpty.wait(Lock, [&] { return !Items.empty(); });
    noelle::telemetry::record(noelle::telemetry::Hist::QueueOccupancy,
                              Items.size());
    int64_t V = Items.front();
    Items.pop_front();
    NotFull.notify_one();
    return V;
  }

private:
  size_t Capacity;
  std::mutex M;
  std::condition_variable NotFull, NotEmpty;
  std::deque<int64_t> Items;
};

/// Owns the queues created by one engine's parallel runtime; destroyed
/// with the engine so queues no longer leak across engine instances.
class QueueRegistry {
public:
  BlockingQueue *create(size_t Capacity) {
    std::lock_guard<std::mutex> Lock(M);
    Queues.push_back(std::make_unique<BlockingQueue>(Capacity));
    return Queues.back().get();
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Queues.size();
  }

private:
  mutable std::mutex M;
  std::vector<std::unique_ptr<BlockingQueue>> Queues;
};

} // namespace nir

#endif // RUNTIME_THREADPOOL_H
