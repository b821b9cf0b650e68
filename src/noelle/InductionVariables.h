//===----------------------------------------------------------------------===//
///
/// \file
/// NOELLE's induction-variable abstraction (IV): SCC-based detection
/// that works on any loop shape (the paper's §4.3 contrast with LLVM's
/// do-while-only detection) and identification of the governing IV. The
/// IV stepper (IVS) that re-bases IVs per task is
/// rebaseInductionVariables in xforms/ParallelizationUtils.h.
///
//===----------------------------------------------------------------------===//

#ifndef NOELLE_INDUCTIONVARIABLES_H
#define NOELLE_INDUCTIONVARIABLES_H

#include "noelle/Invariants.h"
#include "noelle/SCCDAG.h"

namespace noelle {

using nir::BranchInst;
using nir::CmpInst;
using nir::ConstantInt;

/// One induction variable: a header phi advanced by a loop-invariant
/// step each iteration.
class InductionVariable {
public:
  PhiInst *getPhi() const { return Phi; }

  /// Value on loop entry (the preheader incoming).
  Value *getStartValue() const { return Start; }

  /// Loop-invariant per-iteration step (may be negative).
  Value *getStepValue() const { return Step; }

  /// The instruction computing phi+step along the back edge.
  BinaryInst *getStepInstruction() const { return StepInst; }

  /// True if the step is a compile-time constant.
  bool hasConstantStep() const {
    return nir::isa<ConstantInt>(Step);
  }
  int64_t getConstantStep() const {
    return nir::cast<ConstantInt>(Step)->getValue();
  }

  /// The SCC embodying this IV in the loop's aSCCDAG.
  SCC *getSCC() const { return TheSCC; }

  /// True if this IV controls the number of loop iterations.
  bool isGoverning() const { return GoverningCmp != nullptr; }

  /// For governing IVs: the exit comparison and branch.
  CmpInst *getGoverningCmp() const { return GoverningCmp; }
  BranchInst *getGoverningBranch() const { return GoverningBranch; }

  /// For governing IVs: the loop-invariant bound compared against.
  Value *getExitBound() const { return ExitBound; }

  /// True if the compared value is the phi itself (vs. the stepped
  /// value), which shifts trip-count computation by one.
  bool cmpUsesPhi() const { return CmpOnPhi; }

private:
  friend class InductionVariableManager;
  PhiInst *Phi = nullptr;
  Value *Start = nullptr;
  Value *Step = nullptr;
  BinaryInst *StepInst = nullptr;
  SCC *TheSCC = nullptr;
  CmpInst *GoverningCmp = nullptr;
  BranchInst *GoverningBranch = nullptr;
  Value *ExitBound = nullptr;
  bool CmpOnPhi = false;
};

/// Detects the induction variables of one loop from its aSCCDAG.
class InductionVariableManager {
public:
  InductionVariableManager(nir::LoopStructure &L, SCCDAG &Dag,
                           InvariantManager &Inv);

  const std::vector<std::unique_ptr<InductionVariable>> &
  getInductionVariables() const {
    return IVs;
  }

  /// The governing IV, or null if none was identified.
  InductionVariable *getGoverningIV() const { return Governing; }

  /// The IV embodied by \p Phi, or null.
  InductionVariable *getIVForPhi(const PhiInst *Phi) const;

  /// True if \p S is the cycle of one of the loop's IVs (the IV's own
  /// SCC, or an SCC holding its phi).
  bool isIVSCC(const SCC *S) const;

  nir::LoopStructure &getLoop() const { return L; }

private:
  void detect();
  void findGoverning();

  nir::LoopStructure &L;
  SCCDAG &Dag;
  InvariantManager &Inv;
  std::vector<std::unique_ptr<InductionVariable>> IVs;
  InductionVariable *Governing = nullptr;
};

} // namespace noelle

#endif // NOELLE_INDUCTIONVARIABLES_H
