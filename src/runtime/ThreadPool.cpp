#include "runtime/ThreadPool.h"

#include "telemetry/Telemetry.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include <pthread.h>
#include <sched.h>

using namespace nir;
namespace telemetry = noelle::telemetry;

/// Completion latch for one batch. Heap-allocated and shared with every
/// wrapped job so a worker finishing the last job can never touch a
/// latch the waiter has already destroyed.
struct ThreadPool::Latch {
  explicit Latch(size_t N) : Count(N) {}

  void countDown() {
    if (Count.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      std::lock_guard<std::mutex> Lock(M);
      CV.notify_all();
    }
  }

  void wait() {
    std::unique_lock<std::mutex> Lock(M);
    CV.wait(Lock, [&] { return Count.load(std::memory_order_acquire) == 0; });
  }

  std::atomic<size_t> Count;
  std::mutex M;
  std::condition_variable CV;
};

ThreadPool::ThreadPool() : Workers(MaxWorkers) {
  Threads.reserve(64);
  cpu_set_t Mask;
  CPU_ZERO(&Mask);
  if (sched_getaffinity(0, sizeof(Mask), &Mask) == 0 && CPU_COUNT(&Mask) > 1)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Mask))
        CPUs.push_back(C);
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(PoolMutex);
    ShuttingDown = true;
  }
  WorkCV.notify_all();
  for (auto &T : Threads)
    T.join();
}

void ThreadPool::ensureWorkers(unsigned Target) {
  Target = std::min(Target, MaxWorkers);
  unsigned Cur = NumWorkers.load(std::memory_order_relaxed);
  while (Cur < Target) {
    Workers[Cur] = std::make_unique<Worker>();
    Threads.emplace_back(&ThreadPool::workerLoop, this, Cur);
    // Placement is best effort: a worker the kernel refuses to pin runs
    // unpinned, which costs only time.
    if (!CPUs.empty()) {
      cpu_set_t One;
      CPU_ZERO(&One);
      CPU_SET(CPUs[Cur % CPUs.size()], &One);
      pthread_setaffinity_np(Threads.back().native_handle(), sizeof(One),
                             &One);
    }
    ThreadsCreated.fetch_add(1, std::memory_order_relaxed);
    ++Cur;
    // Publish the slot before the count so lock-free readers of
    // NumWorkers always see an initialized Worker.
    NumWorkers.store(Cur, std::memory_order_release);
  }
  telemetry::gaugeSet(telemetry::Gauge::PoolWorkers, Cur);
}

bool ThreadPool::tryTake(unsigned Self, Job &Out) {
  unsigned N = NumWorkers.load(std::memory_order_acquire);
  if (N == 0)
    return false;
  // Own deque first (front: most recently assigned batch order), then
  // steal from the back of the others.
  for (unsigned K = 0; K < N; ++K) {
    unsigned I = (Self + K) % N;
    Worker &W = *Workers[I];
    std::lock_guard<std::mutex> Lock(W.M);
    if (W.Jobs.empty())
      continue;
    if (I == Self) {
      Out = std::move(W.Jobs.front());
      W.Jobs.pop_front();
    } else {
      Out = std::move(W.Jobs.back());
      W.Jobs.pop_back();
      telemetry::count(telemetry::Counter::PoolSteals);
    }
    uint64_t Prev = QueuedJobs.fetch_sub(1, std::memory_order_relaxed);
    telemetry::gaugeSet(telemetry::Gauge::PoolQueueDepth,
                        static_cast<int64_t>(Prev) - 1);
    return true;
  }
  return false;
}

void ThreadPool::workerLoop(unsigned Index) {
  for (;;) {
    Job J;
    if (tryTake(Index, J)) {
      telemetry::count(telemetry::Counter::PoolTasksRun);
      if (telemetry::traceEnabled()) {
        uint64_t T0 = telemetry::nowNs();
        J();
        telemetry::traceSpan("pool.task", T0, telemetry::nowNs());
      } else {
        J();
      }
      continue;
    }
    std::unique_lock<std::mutex> Lock(PoolMutex);
    if (ShuttingDown)
      return;
    if (QueuedJobs.load(std::memory_order_relaxed) > 0)
      continue; // Raced with a producer; rescan the deques.
    telemetry::count(telemetry::Counter::PoolParks);
    WorkCV.wait(Lock, [&] {
      return ShuttingDown ||
             QueuedJobs.load(std::memory_order_relaxed) > 0;
    });
    telemetry::count(telemetry::Counter::PoolUnparks);
    if (ShuttingDown)
      return;
  }
}

void ThreadPool::run(std::vector<Job> Jobs) {
  if (Jobs.empty())
    return;
  size_t N = Jobs.size();
  BatchesRun.fetch_add(1, std::memory_order_relaxed);

  // Grow the pool to cover every simultaneously outstanding job (see the
  // forward-progress guarantee in the header).
  uint64_t NowOutstanding =
      OutstandingJobs.fetch_add(N, std::memory_order_acq_rel) + N;
  if (NowOutstanding > MaxWorkers) {
    std::fprintf(stderr,
                 "ThreadPool: %llu outstanding blocking jobs exceed the "
                 "%u-worker cap\n",
                 static_cast<unsigned long long>(NowOutstanding), MaxWorkers);
    std::abort();
  }
  {
    std::lock_guard<std::mutex> Lock(PoolMutex);
    ensureWorkers(static_cast<unsigned>(NowOutstanding));
  }

  auto L = std::make_shared<Latch>(N);
  // Enqueue-time stamp per job feeds the dispatch-to-start latency
  // histogram; zero (telemetry off) skips both clock reads.
  const bool Stamp = telemetry::metricsEnabled();
  std::vector<Job> Wrapped;
  Wrapped.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Wrapped.push_back([this, L, EnqNs = Stamp ? telemetry::nowNs() : 0,
                       J = std::move(Jobs[I])]() mutable {
      if (EnqNs)
        telemetry::record(telemetry::Hist::DispatchToStartNs,
                          telemetry::nowNs() - EnqNs);
      J();
      OutstandingJobs.fetch_sub(1, std::memory_order_acq_rel);
      L->countDown();
    });
  enqueue(std::move(Wrapped));

  L->wait();
}

void ThreadPool::enqueue(std::vector<Job> &&Wrapped) {
  size_t N = Wrapped.size();
  unsigned NW = NumWorkers.load(std::memory_order_acquire);
  unsigned Cursor = PushCursor.fetch_add(static_cast<unsigned>(N),
                                         std::memory_order_relaxed);
  for (size_t I = 0; I < N; ++I) {
    Worker &W = *Workers[(Cursor + I) % NW];
    {
      std::lock_guard<std::mutex> Lock(W.M);
      W.Jobs.push_back(std::move(Wrapped[I]));
    }
    uint64_t Now = QueuedJobs.fetch_add(1, std::memory_order_release) + 1;
    telemetry::gaugeSet(telemetry::Gauge::PoolQueueDepth,
                        static_cast<int64_t>(Now));
  }
  {
    // Pair with the idle-wait predicate so no worker misses the wakeup.
    std::lock_guard<std::mutex> Lock(PoolMutex);
  }
  WorkCV.notify_all();
}

void ThreadPool::runIndependent(std::vector<Job> Jobs, unsigned Parallelism) {
  if (Jobs.empty())
    return;
  size_t N = Jobs.size();
  BatchesRun.fetch_add(1, std::memory_order_relaxed);

  // Size the pool to the machine, not to the batch: independent jobs
  // never block, so Parallelism workers drain any backlog. Reserve slack
  // for blocking jobs already outstanding (they may be parked on queues
  // and must keep their workers).
  unsigned Want = Parallelism ? Parallelism : std::thread::hardware_concurrency();
  Want = std::max(1u, std::min<unsigned>(Want, static_cast<unsigned>(N)));
  uint64_t Blocking = OutstandingJobs.load(std::memory_order_acquire);
  unsigned Target = static_cast<unsigned>(
      std::min<uint64_t>(Blocking + Want, MaxWorkers));
  {
    std::lock_guard<std::mutex> Lock(PoolMutex);
    ensureWorkers(Target);
  }

  auto L = std::make_shared<Latch>(N);
  const bool Stamp = telemetry::metricsEnabled();
  std::vector<Job> Wrapped;
  Wrapped.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Wrapped.push_back([L, EnqNs = Stamp ? telemetry::nowNs() : 0,
                       J = std::move(Jobs[I])]() mutable {
      if (EnqNs)
        telemetry::record(telemetry::Hist::DispatchToStartNs,
                          telemetry::nowNs() - EnqNs);
      J();
      L->countDown();
    });
  enqueue(std::move(Wrapped));

  L->wait();
}

ThreadPool &nir::analysisThreadPool() {
  static ThreadPool Pool;
  return Pool;
}
