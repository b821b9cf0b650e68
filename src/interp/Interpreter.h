//===----------------------------------------------------------------------===//
///
/// \file
/// ExecutionEngine: an interpreter for NIR. It is the "target machine" of
/// this reproduction — profilers observe it and the parallel runtime
/// executes transformed task functions on it from multiple host threads.
///
/// The engine is a two-tier optimizing interpreter. Functions are lazily
/// decoded into a flat threaded-code array: decode time performs constant
/// folding into immediate-operand opcodes, GEP flattening, phi elimination
/// into per-edge move lists, and superinstruction fusion (cmp+br, gep+load,
/// gep+store, mul+add). Execution uses computed-goto threaded dispatch when
/// the compiler supports it (NOELLE_INTERP_HAVE_CGOTO, probed by CMake)
/// with a portable switch fallback; installing an ExecutionObserver routes
/// execution through an unbatched tier that fires callbacks in program
/// order. Retired-instruction accounting is byte-identical across tiers
/// and optimization levels, which is what pins Figure-5 DispatchRecords.
///
//===----------------------------------------------------------------------===//

#ifndef INTERP_INTERPRETER_H
#define INTERP_INTERPRETER_H

#include "ir/Instructions.h"
#include "ir/Module.h"

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace nir {

class ThreadPool;
class QueueRegistry;
class SpecJournal;

/// A runtime value: one 64-bit slot interpreted per the static type.
union RuntimeValue {
  int64_t I;
  double F;
  uint64_t P; ///< Host address, or a tagged function reference.

  RuntimeValue() : I(0) {}
  static RuntimeValue ofInt(int64_t V) {
    RuntimeValue R;
    R.I = V;
    return R;
  }
  static RuntimeValue ofFloat(double V) {
    RuntimeValue R;
    R.F = V;
    return R;
  }
  static RuntimeValue ofPtr(uint64_t V) {
    RuntimeValue R;
    R.P = V;
    return R;
  }
};

class ExecutionEngine;

/// Observation points used by NOELLE's profilers. All callbacks run on
/// the executing thread; implementations must be cheap.
///
/// Installing an observer switches the engine to its unbatched execution
/// tier: onBlockExecuted / onBranchExecuted fire in program order, once
/// per dynamic block / conditional branch, exactly as in the pre-fusion
/// engine. Instruction accounting is unchanged by the tier switch.
class ExecutionObserver {
public:
  virtual ~ExecutionObserver() = default;
  /// A basic block began executing.
  virtual void onBlockExecuted(const BasicBlock *BB) {}
  /// A conditional branch executed; \p Taken is the successor index.
  virtual void onBranchExecuted(const BranchInst *Br, unsigned Taken) {}
  /// A call is about to run (direct calls to defined functions only).
  virtual void onCallExecuted(const CallInst *Call, const Function *Callee) {}
  /// A load of \p Bytes bytes from \p Addr executed. \p I is the source
  /// instruction (post-decode instructions report their original).
  virtual void onLoadExecuted(const Instruction *I, uint64_t Addr,
                              unsigned Bytes) {}
  /// A store of \p Bytes bytes to \p Addr executed.
  virtual void onStoreExecuted(const Instruction *I, uint64_t Addr,
                               unsigned Bytes) {}
};

/// External (declared) function implementation. Receives the evaluated
/// arguments and the engine for memory access.
using ExternalFn =
    std::function<RuntimeValue(ExecutionEngine &, const CallInst *,
                               const std::vector<RuntimeValue> &)>;

/// Per-parallel-region accounting: the input of the Figure-5
/// performance model (perfmodel in xforms/ParallelizationTechnique.h),
/// which computes speedups from per-task instruction counts.
struct DispatchRecord {
  uint64_t NumTasks = 0;
  uint64_t MaxTaskInstructions = 0;   ///< critical path of the region
  uint64_t TotalTaskInstructions = 0; ///< work moved into tasks
  uint64_t MaxTaskSyncOps = 0;        ///< ss-wait/queue ops on that path
  uint64_t TotalTaskSyncOps = 0;
  /// Instructions retired inside sequential segments (wait..signal),
  /// summed over all tasks: a lower bound on HELIX's serialized time.
  uint64_t TotalSegmentInstructions = 0;
  /// Name of the dispatched task function ("fn.doall3", "fn.helix1",
  /// "fn.dswp2.pipeline", ...). Provenance only — the planner's measured-
  /// speedup feedback maps records back to plan entries through it; the
  /// performance model never reads it, so the modeled numbers stay
  /// byte-identical to records produced without it.
  std::string TaskName;
};

/// Interprets a Module. Thread-safe for concurrent runFunction calls:
/// decoding is guarded by a mutex, heap allocation is atomic, and frames
/// are thread-local by construction.
class ExecutionEngine {
public:
  /// Dispatch-loop selection, mostly for benchmarking the tiers against
  /// each other; Auto picks threaded dispatch when the build has it.
  enum class DispatchMode { Auto, Threaded, Switch };

  struct Options {
    uint64_t HeapBytes = 64ull << 20; ///< malloc arena size
    uint64_t MaxCallDepth = 4096;
    uint64_t MaxInstructions = 0; ///< 0 = unlimited; else trap guard
    /// Decode-time optimization: constant folding into immediate-operand
    /// opcodes, GEP flattening, phi edge-move sequentialization, and
    /// superinstruction fusion. Off decodes one opcode per NIR
    /// instruction (the reference shape); results, output, and retired-
    /// instruction counts are identical either way.
    bool DecodeOpt = true;
    DispatchMode Dispatch = DispatchMode::Auto;
  };

  /// Decoded threaded-code form of a function (defined in the .cpp;
  /// public only so decode-time metadata can point at cache slots).
  struct DecodedFunction;

  /// Opaque handle to a decoded function, so callers that enter the same
  /// function many times (the parallel runtime's task entry path) can
  /// resolve the decode cache once per dispatch instead of once per task
  /// invocation.
  using PreparedFunction = DecodedFunction *;

  /// True when this build selected computed-goto threaded dispatch
  /// (DispatchMode::Threaded is honored; otherwise it falls back to the
  /// portable switch loop).
  static bool hasThreadedDispatch();

  explicit ExecutionEngine(Module &M) : ExecutionEngine(M, Options{}) {}
  ExecutionEngine(Module &M, Options Opts);
  ~ExecutionEngine();

  Module &getModule() const { return M; }

  /// Runs \p F with the given arguments and returns its result (undefined
  /// slot if void).
  RuntimeValue runFunction(Function *F,
                           const std::vector<RuntimeValue> &Args);

  /// Runs @main() and returns its integer result.
  int64_t runMain();

  /// Decodes \p F now (under the decode lock if needed) and returns a
  /// handle that runPrepared accepts without any cache lookup.
  PreparedFunction prepare(Function *F);
  RuntimeValue runPrepared(PreparedFunction P,
                           const std::vector<RuntimeValue> &Args);

  /// Registers an implementation for a declared function; overrides the
  /// built-in library for that name.
  void registerExternal(const std::string &Name, ExternalFn Fn);

  /// Installs (or clears, with null) the profiling observer.
  void setObserver(ExecutionObserver *O) { Observer = O; }

  /// Total instructions retired across all threads since construction.
  /// A frame's count joins the total when the frame returns, so a read
  /// during a run misses the frames still active.
  uint64_t getInstructionsExecuted() const { return InstructionsRetired; }

  /// Instructions retired by the calling thread (reset + read around a
  /// task to attribute work to it).
  static void resetThreadRetired();
  static uint64_t readThreadRetired();

  /// Routes the calling thread's speculative accesses (the decoded
  /// noelle_spec_* accessors) through \p J; null makes them plain loads
  /// and stores.
  static void setThreadJournal(SpecJournal *J);

  /// Parallel-region accounting (appended by the parallel runtime).
  void recordDispatch(const DispatchRecord &R);
  std::vector<DispatchRecord> getDispatchRecords() const;
  void clearDispatchRecords();

  /// The engine's persistent worker pool (created on first use, workers
  /// stay alive until the engine dies). The parallel runtime dispatches
  /// parallel regions through it instead of spawning threads.
  ThreadPool &getThreadPool();

  /// Per-engine owner of the DSWP queues created by noelle_queue_create;
  /// destroyed with the engine.
  QueueRegistry &getQueueRegistry();

  /// Bump-allocates \p Bytes from the shared heap (the engine's malloc).
  uint64_t heapAlloc(uint64_t Bytes);

  /// Address of a global's storage.
  uint64_t getGlobalAddress(const GlobalVariable *G) const;

  /// True if [Addr, Addr+Bytes) lies inside memory this engine manages
  /// (globals, heap, or a live frame). Used by the CARAT guard runtime.
  bool isValidAddress(uint64_t Addr, uint64_t Bytes) const;

  /// Encodes a Function as a runtime pointer value (for function
  /// pointers stored in memory) and decodes it back.
  uint64_t encodeFunction(const Function *F) const;
  Function *decodeFunction(uint64_t Encoded) const;

  /// Captured output of print_* library calls (tests compare this).
  const std::string &getOutput() const { return Output; }
  void appendOutput(const std::string &S);
  void clearOutput() { Output.clear(); }

private:
  DecodedFunction &getDecoded(Function *F);
  /// Tier selector: observer installed -> observed switch loop; else the
  /// threaded loop when available and not overridden by Options.
  RuntimeValue execute(DecodedFunction &DF,
                       const std::vector<RuntimeValue> &Args,
                       unsigned Depth);
  RuntimeValue execThreaded(DecodedFunction &DF,
                            const std::vector<RuntimeValue> &Args,
                            unsigned Depth);
  RuntimeValue execSwitch(DecodedFunction &DF,
                          const std::vector<RuntimeValue> &Args,
                          unsigned Depth);
  RuntimeValue execObserved(DecodedFunction &DF,
                            const std::vector<RuntimeValue> &Args,
                            unsigned Depth);
  RuntimeValue callExternal(Function *F, const CallInst *Call,
                            const std::vector<RuntimeValue> &Args);
  /// Returns the dense slot index for external name \p Name, assigning a
  /// fresh (empty) slot on first sight. Caller holds DecodeMutex.
  uint32_t externalIdFor(const std::string &Name);
  void installDefaultLibrary();

  Module &M;
  Options Opts;

  std::vector<uint8_t> GlobalStorage;
  std::unordered_map<const GlobalVariable *, uint64_t> GlobalAddr;

  /// The malloc arena: one MAP_NORESERVE reservation of Opts.HeapBytes.
  /// Pages commit on first touch and read as zero, so an engine costs
  /// nothing in proportion to its arena until the program allocates.
  /// Only [HeapBase, HeapBase + HeapTop) is valid memory.
  uint8_t *HeapBase = nullptr;
  std::atomic<uint64_t> HeapTop{0};

  /// Externals are resolved to dense indices at decode time so the hot
  /// call path does a vector read instead of a by-name map lookup.
  /// Registration (cold) must happen before execution starts; a deque
  /// keeps slot references stable as names are added.
  std::unordered_map<std::string, uint32_t> ExternalIdByName;
  std::deque<ExternalFn> ExternalTable;

  /// Decoded-function cache. The dense id table is the lock-free
  /// double-checked read path (slot published with release ordering
  /// after decoding completes); the overflow map covers functions
  /// created after engine construction. DecodeMutex guards decoding,
  /// the overflow map, and the external-name table.
  std::unordered_map<const Function *, uint64_t> FunctionIds;
  std::vector<Function *> FunctionById;
  std::vector<std::unique_ptr<DecodedFunction>> DecodedStore;
  std::unique_ptr<std::atomic<DecodedFunction *>[]> DecodedById;
  std::map<const Function *, DecodedFunction *> DecodedOverflow;
  mutable std::mutex DecodeMutex;
  std::mutex OutputMutex;

  /// Lazily created runtime state (see getThreadPool/getQueueRegistry).
  std::unique_ptr<ThreadPool> Pool;
  std::unique_ptr<QueueRegistry> Queues;
  std::mutex RuntimeStateMutex;

  ExecutionObserver *Observer = nullptr;
  std::atomic<uint64_t> InstructionsRetired{0};
  std::string Output;
  mutable std::mutex DispatchMutex;
  std::vector<DispatchRecord> Dispatches;
};

} // namespace nir

#endif // INTERP_INTERPRETER_H
