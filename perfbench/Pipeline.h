//===----------------------------------------------------------------------===//
///
/// \file
/// One `noelle-parallelize --opt --speculate --run` invocation, driven
/// through the library's public calls in the tool's order, with every
/// layer call timed from outside. Spans are kept in memory and written
/// as a Chrome trace when the benchmark ends.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PIPELINE_H
#define PERFBENCH_PIPELINE_H

#include "Kernels.h"

#include "interp/Interpreter.h"
#include "ir/Context.h"
#include "ir/Module.h"

#include <array>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// The layer calls of one invocation, in the tool's order.
enum class Layer : unsigned {
  Frontend,      ///< minic::compileMiniC
  Opt,           ///< opt::runPipeline
  MemDepProfile, ///< profileMemDeps + embed
  Snapshot,      ///< verify::captureForCheck (embeds the PDG)
  BlockProfile,  ///< Noelle::getProfiles(true)
  Plan,          ///< Planner::plan
  PlanCheck,     ///< verify::checkPlan
  Apply,         ///< Planner::apply
  ModuleCheck,   ///< verify::checkModule, speculative audits on
  EngineSetup,   ///< ExecutionEngine construction + runtime registration
  Exec,          ///< ExecutionEngine::runMain
  Oracle,        ///< comparison with the expected results
  Count
};
constexpr size_t NumLayers = static_cast<size_t>(Layer::Count);
const char *layerName(Layer L);

inline uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Times layer calls. The per-layer times of the current operation are
/// always kept (a clock read per call); spans are recorded only while
/// Tracing is set.
class Recorder {
public:
  struct Span {
    std::string Name;
    uint64_t Op = 0;     ///< operation id shared by an operation's spans
    uint64_t Parent = 0; ///< parent span's operation id, 0 for operations
    uint64_t StartNs = 0;
    uint64_t EndNs = 0;
  };

  bool Tracing = false;

  /// Starts operation \p Name; its spans share a fresh operation id.
  void beginOp(const std::string &Name);
  /// Ends the current operation; returns its wall time in ms.
  double endOp();

  template <class Fn> decltype(auto) time(Layer L, Fn &&F) {
    const uint64_t Start = nowNs();
    struct Stop {
      Recorder &R;
      Layer L;
      uint64_t Start;
      ~Stop() { R.record(L, Start, nowNs()); }
    } S{*this, L, Start};
    return F();
  }

  /// ms spent in \p L during the current operation (0 when not called).
  double ms(Layer L) const { return LayerMs[static_cast<size_t>(L)]; }
  /// The current operation's wall time minus its layer spans.
  double selfMs() const;

  /// Chrome trace_event JSON of every recorded span.
  std::string chromeTrace() const;

private:
  void record(Layer L, uint64_t Start, uint64_t End);

  uint64_t NextOp = 1;
  uint64_t CurOp = 0;
  std::string CurName;
  uint64_t OpStart = 0;
  uint64_t OpEnd = 0;
  std::array<double, NumLayers> LayerMs{};
  std::vector<Span> Spans;
};

/// Deterministic counts of one kernel's trip through the compile side.
struct CompileCounts {
  uint64_t FrontendInsts = 0;
  uint64_t OptInsts = 0;
  uint64_t GVNReplaced = 0;
  uint64_t LoopsUnrolled = 0;
  uint64_t VectorInsts = 0;
  uint64_t PDGEdges = 0;
  uint64_t PlanEntries = 0;
  uint64_t Parallelized = 0;
  uint64_t Findings = 0;
  std::string Techniques; ///< planned techniques, e.g. "doall+helix"

  bool operator==(const CompileCounts &O) const = default;
};

/// A kernel after stages 1-9: optimized, planned, transformed, audited.
struct PlannedKernel {
  std::unique_ptr<nir::Context> Ctx;
  std::unique_ptr<nir::Module> M; ///< the transformed program
  std::string RefIR;  ///< the optimized module before any transform
  std::vector<std::string> Globals; ///< source-level globals (oracle set)
  CompileCounts Counts;
  /// Why the invocation failed before running: a failed plan entry or
  /// an audit finding. Empty when clean.
  std::string Failure;
};

/// Runs stages 1-9 of the tool on \p K. Returns false (with \p Err) only
/// when the kernel does not compile; audit findings and failed plan
/// entries are reported in PlannedKernel::Failure.
bool planKernel(const Kernel &K, unsigned Workers, Recorder &R,
                PlannedKernel &Out, std::string &Err);

/// The untransformed optimized module of \p P, parsed into its own
/// context: the sequential reference program.
struct ReferenceModule {
  std::unique_ptr<nir::Context> Ctx;
  std::unique_ptr<nir::Module> M;
};
ReferenceModule parseReference(const PlannedKernel &P);

/// Counts of one run, read from the engine after it.
struct RunCounts {
  uint64_t Retired = 0;
  uint64_t Regions = 0;
  uint64_t Tasks = 0;
  uint64_t SyncOps = 0;
  uint64_t ModeledTime = 0; ///< BenchUtils.h model, first run only

  bool operator==(const RunCounts &O) const = default;
};

/// An engine that can run main() repeatedly: every global is restored
/// to its initial bytes, and output and dispatch records are cleared,
/// before each run, so each run starts from the state a fresh engine
/// would see.
class ReusableEngine {
public:
  ReusableEngine(nir::Module &M, bool WithRuntime);

  /// Runs main(); returns its result and sets \p Ms to the wall time of
  /// runMain alone.
  int64_t run(double &Ms);
  RunCounts counts() const;

  nir::ExecutionEngine &engine() { return E; }

private:
  nir::ExecutionEngine E;
  std::vector<std::pair<uint8_t *, std::vector<uint8_t>>> InitialGlobals;
  uint64_t RetiredBefore = 0;
  unsigned Runs = 0;
};

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_H
