//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide observability: a metrics registry (counters, gauges,
/// power-of-two-bucket latency histograms with percentile queries) and a
/// trace recorder emitting Chrome `trace_event` JSON.
///
/// Design constraints, in order:
///
///  1. Near-zero cost when disabled. Every recording entry point is an
///     inline guard — one relaxed atomic load and a predictable branch —
///     before any out-of-line work. `NOELLE_TELEMETRY=off` (the default)
///     keeps that branch never-taken; building with
///     -DNOELLE_TELEMETRY_DISABLED turns the guards into compile-time
///     constants so the instrumentation folds away entirely.
///
///  2. Thread-safe without hot-path locks. Counters and histogram
///     buckets live in lock-free per-thread shards (relaxed atomic adds;
///     the owning thread is the only writer, the snapshot reader only
///     loads). A shard is retired into a plain accumulator when its
///     thread exits, so totals survive worker churn and a snapshot is
///     the exact sum of everything ever recorded.
///
///  3. One output format. `metricsJson()` is the canonical snapshot
///     shape; the tools' `--stats` / `--metrics` flags and the bench
///     JSON emitters all build on the same `JsonObject` writer.
///
/// Modes (env `NOELLE_TELEMETRY`, overridable via `setMode`):
///   off     - nothing recorded (default)
///   metrics - counters/gauges/histograms
///   trace   - metrics + span events for the trace recorder
///
//===----------------------------------------------------------------------===//

#ifndef NOELLE_TELEMETRY_TELEMETRY_H
#define NOELLE_TELEMETRY_TELEMETRY_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace noelle {
namespace telemetry {

enum class Mode : int { Off = 0, Metrics = 1, Trace = 2 };

namespace detail {
/// -1 until the first query; then the resolved Mode. Relaxed loads are
/// fine: stale reads only delay enablement by one event.
extern std::atomic<int> ModeCache;
int initMode(); // parses NOELLE_TELEMETRY, publishes, returns the mode

inline int modeValue() {
  int M = ModeCache.load(std::memory_order_relaxed);
  return M >= 0 ? M : initMode();
}
} // namespace detail

/// True when counters/gauges/histograms record (modes metrics|trace).
inline bool metricsEnabled() {
#ifdef NOELLE_TELEMETRY_DISABLED
  return false;
#else
  return detail::modeValue() >= static_cast<int>(Mode::Metrics);
#endif
}

/// True when span events record (mode trace). Trace implies metrics.
inline bool traceEnabled() {
#ifdef NOELLE_TELEMETRY_DISABLED
  return false;
#else
  return detail::modeValue() >= static_cast<int>(Mode::Trace);
#endif
}

Mode mode();
/// Programmatic override (tools' --trace/--metrics flags, benches,
/// tests). A compile-time kill switch wins over any runtime mode.
void setMode(Mode M);

//===----------------------------------------------------------------------===//
// Metric identifiers
//===----------------------------------------------------------------------===//

/// Fixed registry: every counter is a slot in each per-thread shard, so
/// recording is an indexed relaxed add with no lookup.
enum class Counter : uint16_t {
  PoolTasksRun,      ///< jobs executed by pool workers
  PoolSteals,        ///< jobs taken from another worker's deque
  PoolParks,         ///< worker blocked on the idle condvar
  PoolUnparks,       ///< worker woken from the idle condvar
  DispatchStatic,    ///< noelle_dispatch calls (one job per task)
  DispatchChunked,   ///< noelle_dispatch_chunked calls
  DispatchChunks,    ///< chunks claimed by chunked-dispatch runners
  SSWaitFast,        ///< ss_wait found the gate already open
  SSWaitStalled,     ///< ss_wait had to spin/park for the producer
  QueuePush,         ///< noelle_queue_push calls
  QueuePop,          ///< noelle_queue_pop calls
  DecodeHit,         ///< decode-cache hits (published slot or memo)
  DecodeMiss,        ///< full decodes
  TierThreaded,      ///< top-level entries into the computed-goto tier
  TierSwitch,        ///< top-level entries into the switch tier
  TierObserved,      ///< top-level entries into the observed tier
  FuseSiteCmpBr,     ///< fused compare-and-branch sites emitted
  FuseSiteGepMem,    ///< fused address (gep+load/store) sites emitted
  FuseSiteMulAdd,    ///< fused multiply-add sites emitted
  FuseSiteElided,    ///< producer instructions elided by fusion
  FuseFired,         ///< fused superinstructions executed (observed tier)
  PDGEmbeddedHit,    ///< pdg artifact split into per-function lists
  PDGEmbeddedMiss,   ///< pdg artifact absent/stale: lists get built
  PDGFunctionsBuilt, ///< per-function dependence lists built
  PlanMeasured,      ///< plan entries with measured speedup written back
  PlanShortfall,     ///< measured speedup < 0.8x of the plan's estimate
  SpecCommits,       ///< speculative dispatches validated and committed
  SpecMisspeculations, ///< speculative dispatches rolled back (conflict)
  kCount
};

enum class Gauge : uint8_t {
  PoolQueueDepth, ///< jobs queued in worker deques (value + watermark)
  PoolWorkers,    ///< workers created in the pool
  kCount
};

enum class Hist : uint8_t {
  DispatchToStartNs, ///< enqueue -> first instruction latency per job
  DispatchNs,        ///< whole noelle_dispatch[_chunked] wall time
  SSWaitStallNs,     ///< time ss_wait spent waiting for its producer
  QueueOccupancy,    ///< DSWP queue depth sampled at push/pop
  DecodeNs,          ///< full-decode latency per function
  PDGFnBuildNs,      ///< per-function dependence-list build latency
  kCount
};

const char *counterName(Counter C);
const char *gaugeName(Gauge G);
const char *histName(Hist H);

//===----------------------------------------------------------------------===//
// Recording
//===----------------------------------------------------------------------===//

namespace detail {
void countSlow(Counter C, uint64_t N);
void histSlow(Hist H, uint64_t Value);
void gaugeSetSlow(Gauge G, int64_t Value);
void gaugeAddSlow(Gauge G, int64_t Delta);
} // namespace detail

inline void count(Counter C, uint64_t N = 1) {
  if (!metricsEnabled() || N == 0)
    return;
  detail::countSlow(C, N);
}

inline void record(Hist H, uint64_t Value) {
  if (!metricsEnabled())
    return;
  detail::histSlow(H, Value);
}

/// Set a gauge's current value; its high-watermark updates via CAS-max.
inline void gaugeSet(Gauge G, int64_t Value) {
  if (!metricsEnabled())
    return;
  detail::gaugeSetSlow(G, Value);
}

inline void gaugeAdd(Gauge G, int64_t Delta) {
  if (!metricsEnabled())
    return;
  detail::gaugeAddSlow(G, Delta);
}

/// Monotonic nanoseconds; the time base for histograms and spans.
inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

//===----------------------------------------------------------------------===//
// Trace recorder
//===----------------------------------------------------------------------===//

/// Up to two integer arguments attached to a span. Keys must be string
/// literals (or otherwise outlive the trace): only the pointer is
/// stored.
struct TraceArgs {
  const char *K0 = nullptr;
  int64_t V0 = 0;
  const char *K1 = nullptr;
  int64_t V1 = 0;
};

namespace detail {
void traceSpanSlow(std::string Name, uint64_t StartNs, uint64_t EndNs,
                   TraceArgs A);
} // namespace detail

/// Record a completed span [StartNs, EndNs) on the calling thread's
/// track. The name is copied, so dynamic names (task function names)
/// are safe.
inline void traceSpan(std::string Name, uint64_t StartNs, uint64_t EndNs,
                      TraceArgs A = {}) {
  if (!traceEnabled())
    return;
  detail::traceSpanSlow(std::move(Name), StartNs, EndNs, A);
}

//===----------------------------------------------------------------------===//
// Snapshot and output
//===----------------------------------------------------------------------===//

struct HistSnapshot {
  uint64_t Count = 0;
  uint64_t Sum = 0;
  double P50 = 0;
  double P95 = 0;
  double P99 = 0;
};

struct GaugeSnapshot {
  int64_t Value = 0;
  int64_t Max = 0;
};

/// The merged view of every shard, live and retired. Entries appear for
/// every registered metric (zeros included) in enum order, so the JSON
/// schema is stable across runs.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> Counters;
  std::vector<std::pair<std::string, GaugeSnapshot>> Gauges;
  std::vector<std::pair<std::string, HistSnapshot>> Histograms;

  uint64_t counter(Counter C) const;
  const HistSnapshot *histogram(Hist H) const;
};

MetricsSnapshot snapshotMetrics();

/// Percentile from raw power-of-two buckets (exposed for tests; the
/// snapshot uses it for p50/p95/p99). `Buckets[i]` counts values whose
/// bit width is i (bucket 0 holds zeros); interpolation is linear
/// within a bucket, so the result is deterministic.
double histogramPercentile(const uint64_t (&Buckets)[64], double Q);

/// Canonical machine-readable snapshot:
/// {"counters":{...},"gauges":{...},"histograms":{...}}
std::string metricsJson();

/// Chrome trace_event JSON: {"traceEvents":[...]} with "X" (complete)
/// events, microsecond timestamps rebased to the earliest span, and one
/// tid per recording thread. Loadable in chrome://tracing and Perfetto.
std::string traceJson();

size_t traceEventCount();

/// Zero every counter/gauge/histogram (live shards included). Benches
/// use this to isolate phases.
void resetMetrics();
void clearTrace();

bool writeFile(const std::string &Path, const std::string &Text);

//===----------------------------------------------------------------------===//
// JSON building block shared with the tools' --stats emitters
//===----------------------------------------------------------------------===//

std::string jsonEscape(const std::string &S);

/// Insertion-ordered JSON object writer. Values are formatted on add;
/// `addRaw` nests prebuilt JSON (another object's str()).
class JsonObject {
public:
  JsonObject &add(const std::string &Key, uint64_t V);
  JsonObject &add(const std::string &Key, int64_t V);
  JsonObject &add(const std::string &Key, int V) {
    return add(Key, static_cast<int64_t>(V));
  }
  JsonObject &add(const std::string &Key, double V);
  JsonObject &add(const std::string &Key, const std::string &V);
  JsonObject &addRaw(const std::string &Key, const std::string &RawJson);
  std::string str() const;

private:
  std::vector<std::string> Members;
};

} // namespace telemetry
} // namespace noelle

#endif // NOELLE_TELEMETRY_TELEMETRY_H
