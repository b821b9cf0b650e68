//===----------------------------------------------------------------------===//
///
/// \file
/// A model of gcc/icc auto-parallelization for Figure 5's baselines:
/// DOALL-style transformation gated on what production compilers can
/// prove — weak (intraprocedural) alias analysis, no interprocedural
/// mod/ref, do-while-only induction variables, and no speculation. On
/// the paper's irregular benchmarks these conditions almost never hold,
/// which is why the gcc/icc series in Figure 5 sits at 1.0x.
///
//===----------------------------------------------------------------------===//

#ifndef BASELINES_CONSERVATIVEPARALLELIZER_H
#define BASELINES_CONSERVATIVEPARALLELIZER_H

#include "xforms/DOALL.h"

namespace baselines {

struct ConservativeOptions {
  unsigned NumCores = 4;
  /// "gcc" and "icc" differ only marginally for our purposes; icc
  /// additionally recognizes simple sum reductions.
  bool AllowReductions = false;
};

/// The production-compiler model as a DOALL: it takes only loops whose
/// IV LLVM recognizes (do-while shape) and, unless icc, no reductions.
class ConservativeParallelizer : public noelle::DOALL {
public:
  ConservativeParallelizer(noelle::Noelle &N, ConservativeOptions Opts)
      : DOALL(N, {Opts.NumCores}), AllowReductions(Opts.AllowReductions) {}

  noelle::Legality applicable(noelle::LoopContent &LC) override;

private:
  bool AllowReductions;
};

/// Runs the conservative auto-parallelizer's forced sweep over \p M
/// under an "llvm"-strength PDG: weak AA, no interprocedural summaries.
std::vector<noelle::Decision>
runConservativeParallelizer(nir::Module &M, ConservativeOptions Opts = {});

} // namespace baselines

#endif // BASELINES_CONSERVATIVEPARALLELIZER_H
