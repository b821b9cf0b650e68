#include "telemetry/Telemetry.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

using namespace noelle;
using namespace noelle::telemetry;

//===----------------------------------------------------------------------===//
// Mode
//===----------------------------------------------------------------------===//

std::atomic<int> telemetry::detail::ModeCache{-1};

int telemetry::detail::initMode() {
  int Resolved = static_cast<int>(Mode::Off);
  if (const char *Env = std::getenv("NOELLE_TELEMETRY")) {
    if (std::strcmp(Env, "metrics") == 0 || std::strcmp(Env, "on") == 0)
      Resolved = static_cast<int>(Mode::Metrics);
    else if (std::strcmp(Env, "trace") == 0)
      Resolved = static_cast<int>(Mode::Trace);
  }
  // First resolver wins; racing threads agree because the env does not
  // change underneath the process.
  int Expected = -1;
  ModeCache.compare_exchange_strong(Expected, Resolved,
                                    std::memory_order_relaxed);
  return ModeCache.load(std::memory_order_relaxed);
}

Mode telemetry::mode() { return static_cast<Mode>(detail::modeValue()); }

void telemetry::setMode(Mode M) {
  detail::ModeCache.store(static_cast<int>(M), std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// Names
//===----------------------------------------------------------------------===//

namespace {

constexpr size_t NumCounters = static_cast<size_t>(Counter::kCount);
constexpr size_t NumGauges = static_cast<size_t>(Gauge::kCount);
constexpr size_t NumHists = static_cast<size_t>(Hist::kCount);
constexpr size_t NumBuckets = 64;

const char *const CounterNames[NumCounters] = {
    "pool.tasks_run",
    "pool.steals",
    "pool.parks",
    "pool.unparks",
    "runtime.dispatch.static",
    "runtime.dispatch.chunked",
    "runtime.dispatch.chunks",
    "runtime.ss_wait.fast",
    "runtime.ss_wait.stalled",
    "runtime.queue.push",
    "runtime.queue.pop",
    "interp.decode.hit",
    "interp.decode.miss",
    "interp.tier.threaded",
    "interp.tier.switch",
    "interp.tier.observed",
    "interp.fuse.site.cmp_br",
    "interp.fuse.site.gep_mem",
    "interp.fuse.site.mul_add",
    "interp.fuse.site.elided",
    "interp.fuse.fired",
    "noelle.pdg.embedded.hit",
    "noelle.pdg.embedded.miss",
    "noelle.pdg.functions_built",
    "planner.feedback.entries_measured",
    "planner.feedback.speedup_shortfall",
    "runtime.spec.commits",
    "runtime.spec.misspeculations",
};

const char *const GaugeNames[NumGauges] = {
    "pool.queue_depth",
    "pool.workers",
};

const char *const HistNames[NumHists] = {
    "pool.dispatch_to_start_ns",
    "runtime.dispatch_ns",
    "runtime.ss_wait.stall_ns",
    "runtime.queue.occupancy",
    "interp.decode_ns",
    "noelle.pdg.fn_build_ns",
};

} // namespace

const char *telemetry::counterName(Counter C) {
  return CounterNames[static_cast<size_t>(C)];
}
const char *telemetry::gaugeName(Gauge G) {
  return GaugeNames[static_cast<size_t>(G)];
}
const char *telemetry::histName(Hist H) {
  return HistNames[static_cast<size_t>(H)];
}

//===----------------------------------------------------------------------===//
// Registry: per-thread shards + retired accumulator
//===----------------------------------------------------------------------===//

namespace {

/// One thread's slice of every counter and histogram. The owner does
/// relaxed adds; snapshot/reset threads do relaxed loads/stores. Values
/// are monotone between resets, so a racy snapshot is still a valid
/// (slightly stale) total.
struct Shard {
  std::atomic<uint64_t> C[NumCounters] = {};
  std::atomic<uint64_t> HB[NumHists][NumBuckets] = {};
  std::atomic<uint64_t> HSum[NumHists] = {};
};

/// One thread's span buffer. The owner appends under `Lock` (never
/// contended in steady state); the trace writer swaps buffers out under
/// the same lock.
struct SpanBuf {
  struct Event {
    std::string Name;
    uint64_t StartNs;
    uint64_t DurNs;
    uint32_t Tid;
    TraceArgs A;
  };
  std::mutex Lock;
  uint32_t Tid = 0;
  std::vector<Event> Events;
};

struct Registry {
  std::mutex Lock;
  std::vector<Shard *> LiveShards;
  uint64_t RetiredC[NumCounters] = {};
  uint64_t RetiredHB[NumHists][NumBuckets] = {};
  uint64_t RetiredHSum[NumHists] = {};

  std::atomic<int64_t> GaugeVal[NumGauges] = {};
  std::atomic<int64_t> GaugeMax[NumGauges] = {};

  std::vector<SpanBuf *> LiveBufs;
  std::vector<SpanBuf::Event> RetiredEvents;
  uint32_t NextTid = 1;

  Shard *adoptShard() {
    auto *S = new Shard();
    std::lock_guard<std::mutex> G(Lock);
    LiveShards.push_back(S);
    return S;
  }

  void retireShard(Shard *S) {
    std::lock_guard<std::mutex> G(Lock);
    for (size_t I = 0; I < NumCounters; ++I)
      RetiredC[I] += S->C[I].load(std::memory_order_relaxed);
    for (size_t H = 0; H < NumHists; ++H) {
      for (size_t B = 0; B < NumBuckets; ++B)
        RetiredHB[H][B] += S->HB[H][B].load(std::memory_order_relaxed);
      RetiredHSum[H] += S->HSum[H].load(std::memory_order_relaxed);
    }
    LiveShards.erase(
        std::find(LiveShards.begin(), LiveShards.end(), S));
    delete S;
  }

  SpanBuf *adoptBuf() {
    auto *B = new SpanBuf();
    std::lock_guard<std::mutex> G(Lock);
    B->Tid = NextTid++;
    LiveBufs.push_back(B);
    return B;
  }

  void retireBuf(SpanBuf *B) {
    std::lock_guard<std::mutex> G(Lock);
    {
      std::lock_guard<std::mutex> BG(B->Lock);
      RetiredEvents.insert(RetiredEvents.end(),
                           std::make_move_iterator(B->Events.begin()),
                           std::make_move_iterator(B->Events.end()));
    }
    LiveBufs.erase(std::find(LiveBufs.begin(), LiveBufs.end(), B));
    delete B;
  }
};

/// Leaked singleton: thread_local destructors of late-exiting threads
/// must be able to retire into it after main returns.
Registry &registry() {
  static Registry *R = new Registry();
  return *R;
}

struct TlsSlot {
  Shard *S = nullptr;
  SpanBuf *B = nullptr;
  ~TlsSlot() {
    if (S)
      registry().retireShard(S);
    if (B)
      registry().retireBuf(B);
  }
};

thread_local TlsSlot Tls;

Shard &myShard() {
  if (!Tls.S)
    Tls.S = registry().adoptShard();
  return *Tls.S;
}

SpanBuf &myBuf() {
  if (!Tls.B)
    Tls.B = registry().adoptBuf();
  return *Tls.B;
}

/// Bucket index of a value: its bit width (0 for 0, 1 for 1, ...,
/// 63 for anything with the top bits set).
inline size_t bucketOf(uint64_t V) {
  size_t W = static_cast<size_t>(std::bit_width(V));
  return W < NumBuckets ? W : NumBuckets - 1;
}

} // namespace

void telemetry::detail::countSlow(Counter C, uint64_t N) {
  myShard().C[static_cast<size_t>(C)].fetch_add(N,
                                                std::memory_order_relaxed);
}

void telemetry::detail::histSlow(Hist H, uint64_t Value) {
  Shard &S = myShard();
  size_t HI = static_cast<size_t>(H);
  S.HB[HI][bucketOf(Value)].fetch_add(1, std::memory_order_relaxed);
  S.HSum[HI].fetch_add(Value, std::memory_order_relaxed);
}

void telemetry::detail::gaugeSetSlow(Gauge G, int64_t Value) {
  Registry &R = registry();
  size_t GI = static_cast<size_t>(G);
  R.GaugeVal[GI].store(Value, std::memory_order_relaxed);
  int64_t Max = R.GaugeMax[GI].load(std::memory_order_relaxed);
  while (Value > Max &&
         !R.GaugeMax[GI].compare_exchange_weak(Max, Value,
                                               std::memory_order_relaxed)) {
  }
}

void telemetry::detail::gaugeAddSlow(Gauge G, int64_t Delta) {
  Registry &R = registry();
  size_t GI = static_cast<size_t>(G);
  int64_t Value =
      R.GaugeVal[GI].fetch_add(Delta, std::memory_order_relaxed) + Delta;
  int64_t Max = R.GaugeMax[GI].load(std::memory_order_relaxed);
  while (Value > Max &&
         !R.GaugeMax[GI].compare_exchange_weak(Max, Value,
                                               std::memory_order_relaxed)) {
  }
}

void telemetry::detail::traceSpanSlow(std::string Name, uint64_t StartNs,
                                      uint64_t EndNs, TraceArgs A) {
  SpanBuf &B = myBuf();
  std::lock_guard<std::mutex> G(B.Lock);
  B.Events.push_back({std::move(Name), StartNs,
                      EndNs > StartNs ? EndNs - StartNs : 0, B.Tid, A});
}

//===----------------------------------------------------------------------===//
// Snapshot
//===----------------------------------------------------------------------===//

double telemetry::histogramPercentile(const uint64_t (&Buckets)[64],
                                      double Q) {
  uint64_t Total = 0;
  for (uint64_t B : Buckets)
    Total += B;
  if (Total == 0)
    return 0.0;
  // Nearest-rank with linear interpolation inside the bucket: rank R in
  // [1, Total], bucket b spans [2^(b-1), 2^b - 1] (bucket 0 is exactly
  // zero).
  double Rank = Q * static_cast<double>(Total);
  if (Rank < 1.0)
    Rank = 1.0;
  uint64_t Cum = 0;
  for (size_t B = 0; B < NumBuckets; ++B) {
    if (Buckets[B] == 0)
      continue;
    if (static_cast<double>(Cum + Buckets[B]) >= Rank) {
      if (B == 0)
        return 0.0;
      double Lo = static_cast<double>(1ull << (B - 1));
      double Hi = (B >= 63) ? Lo * 2.0
                            : static_cast<double>((1ull << B) - 1);
      double Within =
          (Rank - static_cast<double>(Cum)) / static_cast<double>(Buckets[B]);
      return Lo + (Hi - Lo) * Within;
    }
    Cum += Buckets[B];
  }
  return 0.0;
}

uint64_t MetricsSnapshot::counter(Counter C) const {
  size_t I = static_cast<size_t>(C);
  return I < Counters.size() ? Counters[I].second : 0;
}

const HistSnapshot *MetricsSnapshot::histogram(Hist H) const {
  size_t I = static_cast<size_t>(H);
  return I < Histograms.size() ? &Histograms[I].second : nullptr;
}

MetricsSnapshot telemetry::snapshotMetrics() {
  MetricsSnapshot Snap;
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);

  uint64_t C[NumCounters];
  uint64_t HB[NumHists][NumBuckets];
  uint64_t HSum[NumHists];
  std::memcpy(C, R.RetiredC, sizeof(C));
  std::memcpy(HB, R.RetiredHB, sizeof(HB));
  std::memcpy(HSum, R.RetiredHSum, sizeof(HSum));
  for (Shard *S : R.LiveShards) {
    for (size_t I = 0; I < NumCounters; ++I)
      C[I] += S->C[I].load(std::memory_order_relaxed);
    for (size_t H = 0; H < NumHists; ++H) {
      for (size_t B = 0; B < NumBuckets; ++B)
        HB[H][B] += S->HB[H][B].load(std::memory_order_relaxed);
      HSum[H] += S->HSum[H].load(std::memory_order_relaxed);
    }
  }

  Snap.Counters.reserve(NumCounters);
  for (size_t I = 0; I < NumCounters; ++I)
    Snap.Counters.emplace_back(CounterNames[I], C[I]);

  Snap.Gauges.reserve(NumGauges);
  for (size_t I = 0; I < NumGauges; ++I) {
    GaugeSnapshot GS;
    GS.Value = R.GaugeVal[I].load(std::memory_order_relaxed);
    GS.Max = R.GaugeMax[I].load(std::memory_order_relaxed);
    Snap.Gauges.emplace_back(GaugeNames[I], GS);
  }

  Snap.Histograms.reserve(NumHists);
  for (size_t H = 0; H < NumHists; ++H) {
    HistSnapshot HS;
    for (size_t B = 0; B < NumBuckets; ++B)
      HS.Count += HB[H][B];
    HS.Sum = HSum[H];
    HS.P50 = histogramPercentile(HB[H], 0.50);
    HS.P95 = histogramPercentile(HB[H], 0.95);
    HS.P99 = histogramPercentile(HB[H], 0.99);
    Snap.Histograms.emplace_back(HistNames[H], HS);
  }
  return Snap;
}

void telemetry::resetMetrics() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  std::memset(R.RetiredC, 0, sizeof(R.RetiredC));
  std::memset(R.RetiredHB, 0, sizeof(R.RetiredHB));
  std::memset(R.RetiredHSum, 0, sizeof(R.RetiredHSum));
  for (Shard *S : R.LiveShards) {
    for (size_t I = 0; I < NumCounters; ++I)
      S->C[I].store(0, std::memory_order_relaxed);
    for (size_t H = 0; H < NumHists; ++H) {
      for (size_t B = 0; B < NumBuckets; ++B)
        S->HB[H][B].store(0, std::memory_order_relaxed);
      S->HSum[H].store(0, std::memory_order_relaxed);
    }
  }
  for (size_t I = 0; I < NumGauges; ++I) {
    R.GaugeVal[I].store(0, std::memory_order_relaxed);
    R.GaugeMax[I].store(0, std::memory_order_relaxed);
  }
}

void telemetry::clearTrace() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  R.RetiredEvents.clear();
  for (SpanBuf *B : R.LiveBufs) {
    std::lock_guard<std::mutex> BG(B->Lock);
    B->Events.clear();
  }
}

size_t telemetry::traceEventCount() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  size_t N = R.RetiredEvents.size();
  for (SpanBuf *B : R.LiveBufs) {
    std::lock_guard<std::mutex> BG(B->Lock);
    N += B->Events.size();
  }
  return N;
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

std::string telemetry::jsonEscape(const std::string &S) {
  std::string Out;
  Out.reserve(S.size());
  for (char Ch : S) {
    switch (Ch) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(Ch) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x",
                      static_cast<unsigned>(Ch) & 0xFF);
        Out += Buf;
      } else {
        Out += Ch;
      }
    }
  }
  return Out;
}

namespace {
std::string fmtDouble(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.3f", V);
  return Buf;
}
} // namespace

JsonObject &JsonObject::add(const std::string &Key, uint64_t V) {
  return addRaw(Key, std::to_string(V));
}
JsonObject &JsonObject::add(const std::string &Key, int64_t V) {
  return addRaw(Key, std::to_string(V));
}
JsonObject &JsonObject::add(const std::string &Key, double V) {
  return addRaw(Key, fmtDouble(V));
}
JsonObject &JsonObject::add(const std::string &Key, const std::string &V) {
  return addRaw(Key, "\"" + jsonEscape(V) + "\"");
}
JsonObject &JsonObject::addRaw(const std::string &Key,
                               const std::string &RawJson) {
  Members.push_back("\"" + jsonEscape(Key) + "\": " + RawJson);
  return *this;
}
std::string JsonObject::str() const {
  std::string Out = "{";
  for (size_t I = 0; I < Members.size(); ++I) {
    if (I)
      Out += ", ";
    Out += Members[I];
  }
  Out += "}";
  return Out;
}

std::string telemetry::metricsJson() {
  MetricsSnapshot Snap = snapshotMetrics();
  JsonObject Counters;
  for (const auto &[Name, V] : Snap.Counters)
    Counters.add(Name, V);
  JsonObject Gauges;
  for (const auto &[Name, G] : Snap.Gauges) {
    JsonObject GV;
    GV.add("value", G.Value).add("max", G.Max);
    Gauges.addRaw(Name, GV.str());
  }
  JsonObject Hists;
  for (const auto &[Name, H] : Snap.Histograms) {
    JsonObject HV;
    HV.add("count", H.Count)
        .add("sum", H.Sum)
        .add("p50", H.P50)
        .add("p95", H.P95)
        .add("p99", H.P99);
    Hists.addRaw(Name, HV.str());
  }
  JsonObject Root;
  Root.addRaw("counters", Counters.str())
      .addRaw("gauges", Gauges.str())
      .addRaw("histograms", Hists.str());
  return Root.str() + "\n";
}

std::string telemetry::traceJson() {
  // Gather every event (retired + live) under the registry lock.
  std::vector<SpanBuf::Event> Events;
  {
    Registry &R = registry();
    std::lock_guard<std::mutex> G(R.Lock);
    Events = R.RetiredEvents;
    for (SpanBuf *B : R.LiveBufs) {
      std::lock_guard<std::mutex> BG(B->Lock);
      Events.insert(Events.end(), B->Events.begin(), B->Events.end());
    }
  }
  std::sort(Events.begin(), Events.end(),
            [](const SpanBuf::Event &A, const SpanBuf::Event &B) {
              return A.StartNs < B.StartNs;
            });
  uint64_t Base = Events.empty() ? 0 : Events.front().StartNs;

  std::string Out = "{\"traceEvents\": [\n";
  for (size_t I = 0; I < Events.size(); ++I) {
    const SpanBuf::Event &E = Events[I];
    JsonObject Ev;
    Ev.add("name", E.Name)
        .add("ph", std::string("X"))
        .add("cat", std::string("noelle"))
        .addRaw("ts", fmtDouble(static_cast<double>(E.StartNs - Base) / 1e3))
        .addRaw("dur", fmtDouble(static_cast<double>(E.DurNs) / 1e3))
        .add("pid", static_cast<uint64_t>(1))
        .add("tid", static_cast<uint64_t>(E.Tid));
    if (E.A.K0) {
      JsonObject Args;
      Args.add(E.A.K0, E.A.V0);
      if (E.A.K1)
        Args.add(E.A.K1, E.A.V1);
      Ev.addRaw("args", Args.str());
    }
    Out += Ev.str();
    Out += (I + 1 == Events.size()) ? "\n" : ",\n";
  }
  Out += "]}\n";
  return Out;
}

bool telemetry::writeFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), F);
  std::fclose(F);
  return Written == Text.size();
}
