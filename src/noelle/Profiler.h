//===----------------------------------------------------------------------===//
///
/// \file
/// NOELLE's profiler abstraction (PRO): instruction/branch/loop/function
/// profilers driven by interpreter observation, profile embedding as a
/// hash-bound artifact (noelle-meta-prof-embed), and high-level hotness
/// queries.
///
//===----------------------------------------------------------------------===//

#ifndef NOELLE_PROFILER_H
#define NOELLE_PROFILER_H

#include "analysis/LoopInfo.h"
#include "interp/Interpreter.h"
#include "ir/Module.h"
#include "support/PointerMap.h"

#include <map>
#include <memory>
#include <vector>

namespace noelle {

using nir::BasicBlock;
using nir::BranchInst;
using nir::Function;
using nir::Module;

/// Collected execution statistics with high-level queries.
class ProfileData {
public:
  /// Executions of a block. Zero when never observed.
  uint64_t getBlockCount(const BasicBlock *BB) const;

  /// Times the branch took successor \p Idx.
  uint64_t getBranchTakenCount(const BranchInst *Br, unsigned Idx) const;

  /// Invocations of a function.
  uint64_t getFunctionInvocations(const Function *F) const;

  /// Total dynamic instructions observed.
  uint64_t getTotalInstructions() const { return TotalInstructions; }

  /// Fraction of all executed instructions spent inside loop \p L — the
  /// paper's "hotness of a code region".
  double getLoopHotness(const nir::LoopStructure &L) const;

  /// Fraction of all executed instructions spent in \p F.
  double getFunctionHotness(const Function &F) const;

  /// Total iterations of \p L (header executions minus invocations).
  uint64_t getLoopTotalIterations(const nir::LoopStructure &L) const;

  /// Times the loop was entered from outside.
  uint64_t getLoopInvocations(const nir::LoopStructure &L) const;

  /// Average iterations per invocation (0 when never invoked).
  double getLoopAverageIterations(const nir::LoopStructure &L) const;

  /// Stores the profile as \p M's prof artifact (ir/Artifact.h), bound
  /// to \p M's content hash: it survives printing and parsing, and any
  /// code edit makes it stale.
  void embed(Module &M) const;

  /// Reconstructs \p M's prof artifact. Null when \p M carries none, or
  /// when it is stale (collected on other code) or unreadable.
  static std::unique_ptr<ProfileData> loadEmbedded(const Module &M);

private:
  friend class Profiler;
  std::map<const BasicBlock *, uint64_t> BlockCounts;
  std::map<const BranchInst *, std::pair<uint64_t, uint64_t>> BranchCounts;
  std::map<const Function *, uint64_t> FnInvocations;
  uint64_t TotalInstructions = 0;
};

/// Observes an ExecutionEngine run and accumulates ProfileData —
/// noelle-prof-coverage's engine. Thread-compatible with single-threaded
/// profiling runs (profile collection happens before parallelization).
class Profiler : public nir::ExecutionObserver {
public:
  /// Counts the blocks of \p M, the module the observed engine runs.
  /// Events for blocks of any other module are not counted.
  explicit Profiler(const Module &M);

  void onBlockExecuted(const BasicBlock *BB) override;
  void onBranchExecuted(const BranchInst *Br, unsigned Taken) override;
  void onCallExecuted(const nir::CallInst *Call,
                      const Function *Callee) override;

  /// Runs @main of \p M under profiling and returns the collected data.
  static ProfileData profileModule(Module &M);

  /// As above, observing with \p P: a fresh Profiler of \p M, or a
  /// subclass that records more in the same run (MemDepProfiler).
  static ProfileData profileModule(Module &M, Profiler &P);

  ProfileData takeData();

protected:
  /// No block: \p BB is not a block of the profiled module.
  static constexpr uint32_t NoBlock = ~uint32_t(0);

  /// Counts one execution of \p BB and returns its position in module
  /// order (functions in order, then their blocks), or NoBlock.
  uint32_t countBlock(const BasicBlock *BB);

private:
  /// The counters of one block, in module order.
  struct BlockSlot {
    const BasicBlock *BB = nullptr;
    uint64_t Size = 0; ///< instructions of the block
    uint64_t Count = 0;
    uint64_t Taken[2] = {0, 0}; ///< per successor of its branch
  };

  uint32_t indexOf(const BasicBlock *BB) const {
    const uint32_t *Idx = BlockIndex.find(BB);
    return Idx ? *Idx : NoBlock;
  }

  std::vector<BlockSlot> Blocks;
  nir::PointerMap<uint32_t> BlockIndex;
  std::map<const Function *, uint64_t> FnInvocations;
  uint64_t TotalInstructions = 0;
  /// Last-block cache: dynamic block streams are dominated by tight
  /// loops re-hitting the same block, so one pointer compare usually
  /// replaces the table lookup.
  const BasicBlock *LastBlock = nullptr;
  uint32_t LastIdx = NoBlock;
};

} // namespace noelle

#endif // NOELLE_PROFILER_H
