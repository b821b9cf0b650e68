//===----------------------------------------------------------------------===//
///
/// \file
/// NOELLE's reduction abstraction (RD): identification of reducible loop
/// variables (via the aSCCDAG attribution) plus the algebra needed to
/// privatize and merge them — identity elements and combiner emission.
///
//===----------------------------------------------------------------------===//

#ifndef NOELLE_REDUCTION_H
#define NOELLE_REDUCTION_H

#include "ir/IRBuilder.h"
#include "noelle/SCCDAG.h"

namespace noelle {

/// One reducible loop variable.
struct ReductionVariable {
  SCC *TheSCC = nullptr;
  PhiInst *Phi = nullptr;          ///< accumulator phi in the header
  BinaryInst *Update = nullptr;    ///< acc = acc <op> contribution
  BinaryInst::Op Op;               ///< the associative operator
  Value *InitialValue = nullptr;   ///< accumulator value on loop entry

  /// The operator's identity element (0 for add/or/xor, 1 for mul, ...).
  Value *getIdentity(nir::Context &Ctx) const;
};

/// Enumerates the reducible variables of a loop.
class ReductionManager {
public:
  explicit ReductionManager(SCCDAG &Dag);

  const std::vector<ReductionVariable> &getReductions() const {
    return Reductions;
  }

  /// The reduction embodied by \p S, or null.
  const ReductionVariable *getReductionFor(const SCC *S) const;

  /// The reduction whose accumulator \p Out is (its phi or its update),
  /// or null: how a live-out is matched to the reduction it carries.
  const ReductionVariable *
  getReductionForLiveOut(const Instruction *Out) const;

  /// Emits code combining two partial accumulator values with the
  /// reduction operator at the builder's insertion point.
  static Value *emitCombine(nir::IRBuilder &B, BinaryInst::Op Op, Value *A,
                            Value *Bv);

private:
  std::vector<ReductionVariable> Reductions;
};

} // namespace noelle

#endif // NOELLE_REDUCTION_H
