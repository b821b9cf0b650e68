//===----------------------------------------------------------------------===//
///
/// \file
/// LoopStructure (NOELLE's "LS" abstraction) and LoopInfo: natural-loop
/// discovery with headers, latches, preheaders, exits, and nesting. The
/// objects are owned by LoopInfo and live until the user destroys it —
/// NOELLE's fix for LLVM's function-pass cache-invalidation hazard.
///
//===----------------------------------------------------------------------===//

#ifndef ANALYSIS_LOOPINFO_H
#define ANALYSIS_LOOPINFO_H

#include "analysis/Dominators.h"
#include "ir/Function.h"

#include <memory>
#include <optional>
#include <set>
#include <vector>

namespace nir {

/// The structure of one natural loop: header, body, latches, exits.
class LoopStructure {
public:
  BasicBlock *getHeader() const { return Header; }

  /// Blocks of the loop; the header is first.
  const std::vector<BasicBlock *> &getBlocks() const { return Blocks; }

  bool contains(const BasicBlock *BB) const { return BlockSet.count(BB); }
  bool contains(const Instruction *I) const {
    return I->getParent() && contains(I->getParent());
  }

  /// In-loop predecessors of the header (sources of back edges).
  const std::vector<BasicBlock *> &getLatches() const { return Latches; }

  /// The unique out-of-loop predecessor of the header whose only successor
  /// is the header, or null if the loop has no canonical preheader.
  BasicBlock *getPreheader() const { return Preheader; }

  /// In-loop blocks with a successor outside the loop.
  const std::vector<BasicBlock *> &getExitingBlocks() const {
    return ExitingBlocks;
  }

  /// Out-of-loop blocks targeted by exiting blocks.
  const std::vector<BasicBlock *> &getExitBlocks() const {
    return ExitBlocks;
  }

  LoopStructure *getParentLoop() const { return Parent; }
  const std::vector<LoopStructure *> &getSubLoops() const { return SubLoops; }

  /// Nesting depth; top-level loops have depth 1.
  unsigned getDepth() const { return Depth; }

  /// Number of instructions across the loop's blocks.
  uint64_t getNumInstructions() const;

  /// All instructions of the loop in block order.
  std::vector<Instruction *> getInstructions() const;

  /// True if the loop is in rotated (do-while) form: some latch is also an
  /// exiting block. LLVM's induction-variable analysis (modelled in
  /// src/baselines) only handles loops of this shape.
  bool isDoWhileForm() const;

  /// True if the header is an exiting block (classic while-loop shape).
  bool isWhileForm() const;

  /// The function containing this loop.
  Function *getFunction() const { return Header->getParent(); }

  /// A stable identifier within the function (preorder index).
  unsigned getID() const { return ID; }

  /// The deterministic ID (ir/IDs.h) of the header's first instruction:
  /// the loop identity plans, profiles and task provenance share.
  /// Nullopt when the module carries no IDs.
  std::optional<uint64_t> getHeaderID() const;

private:
  friend class LoopInfo;

  BasicBlock *Header = nullptr;
  std::vector<BasicBlock *> Blocks;
  std::set<const BasicBlock *> BlockSet;
  std::vector<BasicBlock *> Latches;
  BasicBlock *Preheader = nullptr;
  std::vector<BasicBlock *> ExitingBlocks;
  std::vector<BasicBlock *> ExitBlocks;
  LoopStructure *Parent = nullptr;
  std::vector<LoopStructure *> SubLoops;
  unsigned Depth = 1;
  unsigned ID = 0;
};

/// Discovers all natural loops of a function.
class LoopInfo {
public:
  LoopInfo(Function &F, const DominatorTree &DT);

  /// Outermost loops.
  const std::vector<LoopStructure *> &getTopLevelLoops() const {
    return TopLoops;
  }

  /// All loops, outer before inner (preorder over the nesting forest).
  std::vector<LoopStructure *> getLoopsInPreorder() const;

  /// The innermost loop containing \p BB, or null.
  LoopStructure *getLoopFor(const BasicBlock *BB) const;

  unsigned getNumLoops() const { return static_cast<unsigned>(Loops.size()); }

private:
  std::vector<std::unique_ptr<LoopStructure>> Loops;
  std::vector<LoopStructure *> TopLoops;
  std::map<const BasicBlock *, LoopStructure *> InnermostLoop;
};

} // namespace nir

#endif // ANALYSIS_LOOPINFO_H
