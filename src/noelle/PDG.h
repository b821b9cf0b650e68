//===----------------------------------------------------------------------===//
///
/// \file
/// The Program Dependence Graph abstraction: the dependence-graph template
/// instantiated over IR values, built from register def-use chains,
/// alias-analysis-powered memory disambiguation, interprocedural mod/ref
/// summaries, and post-dominance-based control dependences.
///
/// Construction is parallel (one job per defined function on the shared
/// analysis thread pool, deterministically merged), and the finished
/// whole-program graph can be embedded into the IR as a hash-bound
/// artifact (ir/Artifact.h), so downstream tools load it instead of
/// recomputing (the paper's noelle-meta-pdg-embed / noelle-load
/// workflow).
///
//===----------------------------------------------------------------------===//

#ifndef NOELLE_PDG_H
#define NOELLE_PDG_H

#include "analysis/AliasAnalysis.h"
#include "analysis/LoopInfo.h"
#include "noelle/DependenceGraph.h"

#include <memory>

namespace noelle {

using nir::Function;
using nir::Instruction;
using nir::LoopStructure;
using nir::Module;
using nir::Value;

/// The PDG: nodes are instructions (plus external nodes for region
/// live-ins/outs in derived graphs).
class PDG : public DependenceGraph<Value> {
public:
  /// Statistics from construction, used by the Figure 3 experiment.
  struct Stats {
    uint64_t MemoryPairsQueried = 0;  ///< potential memory dependences
    uint64_t MemoryPairsDisproved = 0; ///< proven NoAlias / NoModRef
  };

  const Stats &getStats() const { return TheStats; }
  Stats &getStatsMutable() { return TheStats; }

  /// Stores this whole-program PDG as \p M's pdg artifact
  /// (ir/Artifact.h): fresh deterministic instruction IDs are assigned,
  /// and every edge is encoded by the module-order positions of its
  /// endpoints, which the record's content hash pins. All nodes must be
  /// instructions of \p M (the whole-program graph shape).
  void embed(Module &M) const;

  /// Reconstructs \p M's pdg artifact. Returns null when \p M carries
  /// none, when it is stale or unreadable, or when an edge endpoint does
  /// not resolve to an instruction.
  static std::unique_ptr<PDG> loadEmbedded(Module &M);

private:
  Stats TheStats;
};

/// Options controlling PDG precision; the "llvm" configuration models
/// what stock LLVM can prove, the "noelle" configuration adds the
/// SCAF/SVF-class analyses the paper integrates.
struct PDGBuildOptions {
  std::string AliasAnalysisName = "noelle"; ///< none | llvm | noelle
  bool UseModRefSummaries = true; ///< interprocedural call mod/ref pruning
  /// Build per-function dependence subgraphs concurrently on the shared
  /// analysis thread pool; the merged result is bit-identical to the
  /// serial build.
  bool ParallelBuild = true;
  /// Worker count for the parallel build; 0 = hardware concurrency.
  unsigned Parallelism = 0;
  /// Load a module-embedded PDG instead of rebuilding when its content
  /// hash matches the module.
  bool UseEmbedded = true;
};

/// Builds whole-program and per-scope dependence graphs.
class PDGBuilder {
public:
  PDGBuilder(Module &M, PDGBuildOptions Opts = {});
  ~PDGBuilder();

  /// The whole-program PDG (memoized). Loaded from embedded metadata
  /// when present and verified; otherwise built — in parallel across
  /// functions unless the options say otherwise.
  PDG &getPDG();

  /// True if the last getPDG() materialization came from the embedded
  /// cache rather than a fresh build.
  bool wasPDGLoadedFromEmbedded() const { return LoadedFromEmbedded; }

  /// Marks loop-carried flags on the whole-program PDG for every
  /// natural loop of the module, innermost enclosing loop winning.
  /// Neither the fresh whole-program build nor the embedded cache
  /// carries this refinement (it is loop-scoped by nature); consumers
  /// that reason about which dependences cross iterations — e.g. the
  /// checker's race-detector grounding — call this once after getPDG().
  void refineAllLoopCarried();

  /// A dependence graph restricted to one function. Instructions of the
  /// function are internal nodes; referenced globals and arguments are
  /// external.
  std::unique_ptr<PDG> getFunctionDG(Function &F);

  /// A dependence graph restricted to one loop, with loop-centric
  /// refinement of loop-carried flags. Instructions of the loop are
  /// internal; values flowing in/out (live-ins / live-outs) are external.
  std::unique_ptr<PDG> getLoopDG(LoopStructure &L);

  /// Drops every memoized analysis result (the whole-program PDG, the
  /// alias analyses, and the mod/ref summaries). Must be called after
  /// the module is mutated: the memoized structures hold pointers into
  /// the old IR. Fresh analyses are rebuilt lazily on the next query.
  void invalidate();

  nir::AliasAnalysis &getAliasAnalysis() {
    ensureAA();
    return *AA;
  }

private:
  void ensureAA();
  void buildFunctionDeps(Function &F, PDG &G, PDG::Stats &Stats);
  void buildControlDeps(Function &F, PDG &G);
  /// Builds the whole-program graph serially (reference implementation).
  void buildWholeSerial(PDG &G);
  /// Builds per-function subgraphs on the analysis pool and merges them
  /// in module function order, which reproduces the serial edge order.
  void buildWholeParallel(PDG &G);

  /// True if \p Call may read or write the memory reached through
  /// \p Ptr, given the interprocedural summaries.
  bool callMayTouch(const nir::CallInst *Call, const Value *Ptr);

  /// Marks loop-carried flags on \p G's edges for loop \p L.
  void refineLoopCarried(LoopStructure &L, PDG &G);

  Module &M;
  PDGBuildOptions Opts;
  std::unique_ptr<nir::AliasAnalysis> AA;
  std::unique_ptr<nir::AndersenAliasAnalysis> SummaryAA; ///< for summaries
  std::unique_ptr<PDG> WholePDG;
  bool LoadedFromEmbedded = false;

  /// Per-function transitive sets of abstract objects read/written.
  /// Fully populated by buildModRefSummaries before any parallel phase;
  /// the const accessors below never mutate, so concurrent per-function
  /// jobs can query them lock-free.
  std::map<const Function *, std::set<const Value *>> ReadSet, WriteSet;
  std::map<const Function *, bool> TouchesUnknown;
  bool SummariesBuilt = false;
  void buildModRefSummaries();
  const std::set<const Value *> &readSetOf(const Function *F) const;
  const std::set<const Value *> &writeSetOf(const Function *F) const;
  bool touchesUnknown(const Function *F) const;
  std::set<const Value *> EmptyValueSet;
};

} // namespace noelle

#endif // NOELLE_PDG_H
