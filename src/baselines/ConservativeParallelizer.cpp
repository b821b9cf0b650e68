#include "baselines/ConservativeParallelizer.h"

#include "baselines/LLVMBaselines.h"

using namespace baselines;
using noelle::Legality;

Legality ConservativeParallelizer::applicable(noelle::LoopContent &LC) {
  Legality L;
  // Production compilers only handle rotated counted loops.
  if (!findGoverningIVLLVM(LC.getLoopStructure()))
    L.Reason = "induction variable not recognized (loop is not in "
               "do-while form)";
  // gcc's auto-par has no reduction recognition in our model.
  else if (!AllowReductions &&
           !LC.getReductionManager().getReductions().empty())
    L.Reason = "reduction not supported";
  else
    L = DOALL::applicable(LC);
  return L;
}

std::vector<noelle::Decision>
baselines::runConservativeParallelizer(nir::Module &M,
                                       ConservativeOptions Opts) {
  noelle::NoelleOptions NOpts;
  NOpts.PDGOptions.AliasAnalysisName = "llvm";
  NOpts.PDGOptions.UseModRefSummaries = false;
  noelle::Noelle N(M, NOpts);
  return ConservativeParallelizer(N, Opts).run();
}
