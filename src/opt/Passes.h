//===----------------------------------------------------------------------===//
///
/// \file
/// The NIR-to-NIR optimization pipeline that runs in front of the
/// parallelizers: inlining, dominator-ordered GVN, DCE, NOELLE-driven
/// LICM (Algorithm 1's InvariantManager), IV-guided loop unrolling, and
/// an SLP-style superword vectorizer that packs isomorphic adjacent
/// scalar operations into NIR vector instructions. Each pass is a plain
/// function consuming the Noelle facade, so every abstraction request is
/// recorded (the Table 4 / ablation story) and analysis lifetimes stay
/// NOELLE-owned.
///
//===----------------------------------------------------------------------===//

#ifndef OPT_PASSES_H
#define OPT_PASSES_H

#include "noelle/Noelle.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace noelle {
namespace opt {

/// Per-pass switches; defaults describe the full pipeline.
struct PipelineOptions {
  bool EnableInline = true;
  bool EnableGVN = true;
  bool EnableDCE = true;
  bool EnableLICM = true;
  bool EnableUnroll = true;
  bool EnableSLP = true;
};

/// Counters the passes accumulate, plus the per-pass abstraction
/// consumption the ablation experiment prints.
struct PipelineStats {
  uint64_t CallsInlined = 0;
  uint64_t GVNReplaced = 0;
  uint64_t DCERemoved = 0;
  uint64_t LoopsVisited = 0;
  uint64_t InstructionsHoisted = 0;
  uint64_t LoopsUnrolled = 0;
  uint64_t VectorInstsEmitted = 0;
  uint64_t StoresVectorized = 0;
  /// (pass name, abstractions it requested) in pipeline order.
  std::vector<std::pair<std::string, AbstractionSet>> PassAbstractions;
};

/// Inlines small non-recursive direct calls (CG decides recursion).
/// Returns calls inlined.
uint64_t inlineFunctions(Noelle &N, PipelineStats &S);

/// Dominator-preorder global value numbering over pure scalar
/// instructions. Returns instructions replaced.
uint64_t runGVN(Noelle &N, PipelineStats &S);

/// Deletes unused side-effect-free instructions to a fixed point.
/// Returns instructions removed.
uint64_t runDCE(nir::Module &M, PipelineStats &S);

/// Hoists loop invariants to preheaders, innermost loops first, driven
/// by the InvariantManager (INV), loop builder (LB) and forest (FR).
/// Returns instructions hoisted.
uint64_t runLICM(Noelle &N, PipelineStats &S);

/// Partially unrolls innermost constant-trip-count loops whose governing
/// induction variable the IV manager proves affine, by 4 or, where 4
/// does not divide the trip count, by 2. Returns loops unrolled.
uint64_t runUnroll(Noelle &N, PipelineStats &S);

/// Superword-level parallelism: packs runs of adjacent scalar stores and
/// their isomorphic operand trees into NIR vector instructions; legality
/// is discharged with the function PDG plus size-aware alias queries.
/// Returns vector instructions emitted.
uint64_t runSLP(Noelle &N, PipelineStats &S);

/// Runs the whole pipeline:
///   Inline, GVN, DCE, LICM, Unroll, GVN, DCE, SLP, DCE
/// verifying the module after every pass.
PipelineStats runPipeline(nir::Module &M, const PipelineOptions &Opts = {});

} // namespace opt
} // namespace noelle

#endif // OPT_PASSES_H
