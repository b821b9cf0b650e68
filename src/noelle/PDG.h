//===----------------------------------------------------------------------===//
///
/// \file
/// The Program Dependence Graph abstraction: the dependence-graph template
/// instantiated over IR values, built from register def-use chains,
/// alias-analysis-powered memory disambiguation, interprocedural mod/ref
/// summaries, and post-dominance-based control dependences.
///
/// Dependences never cross a function boundary, so the builder computes
/// one edge list per function, once (in parallel on the shared analysis
/// thread pool for a whole-program request), and assembles the
/// whole-program, function and loop graphs from those lists. The
/// whole-program graph can be embedded into the IR as a hash-bound
/// artifact (ir/Artifact.h); a later builder splits it into the same
/// per-function lists instead of recomputing (the paper's
/// noelle-meta-pdg-embed / noelle-load workflow).
///
//===----------------------------------------------------------------------===//

#ifndef NOELLE_PDG_H
#define NOELLE_PDG_H

#include "analysis/AliasAnalysis.h"
#include "analysis/LoopInfo.h"
#include "noelle/DependenceGraph.h"

#include <memory>
#include <unordered_map>
#include <vector>

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
  /// Only the whole-program graph carries them.
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
  /// none, when it is stale or unreadable, or when an edge does not join
  /// two instructions of one function.
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
  /// Build the per-function edge lists a whole-program request lacks
  /// concurrently on the shared analysis thread pool; the assembled
  /// graph is bit-identical to the serial build.
  bool ParallelBuild = true;
  /// Worker count for the parallel build; 0 = hardware concurrency.
  unsigned Parallelism = 0;
  /// Split the module's pdg artifact into the per-function lists instead
  /// of building them, while its content hash matches the module. Only
  /// the precision pdgEmbed writes ("noelle" with mod/ref summaries)
  /// reads it; other precisions always build.
  bool UseEmbedded = true;
};

/// Builds whole-program and per-scope dependence graphs as views of one
/// memoized edge list per function. Every result describes the IR as it
/// was when the list was made: call invalidate() after mutating the
/// module.
class PDGBuilder {
public:
  PDGBuilder(Module &M, PDGBuildOptions Opts = {});
  ~PDGBuilder();

  /// The whole-program PDG (memoized): every function's list, in module
  /// order. Lists not yet made are built first — in parallel across
  /// functions unless the options say otherwise.
  PDG &getPDG();

  /// True if this builder's per-function lists came from the module's
  /// pdg artifact rather than fresh builds.
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

  /// Drops every memoized analysis result (the per-function lists, the
  /// whole-program PDG, the alias analyses, and the mod/ref summaries).
  /// Must be called after the module is mutated: the memoized structures
  /// hold pointers into the old IR. Fresh analyses are rebuilt lazily on
  /// the next query.
  void invalidate();

  nir::AliasAnalysis &getAliasAnalysis() {
    ensureAA();
    return *AA;
  }

private:
  /// One function's dependence edges in build order, never refined
  /// (only assembled graphs are), and the stats of their build.
  struct FunctionDeps {
    std::vector<PDG::EdgeT> Edges;
    PDG::Stats Stats;
  };

  void ensureAA();
  /// \p F's memoized list, split out of the artifact or built.
  const FunctionDeps &depsOf(Function &F);
  /// Builds the lists of \p Fns into Deps: one analysis-pool job each
  /// when the options allow and there are several, else serially.
  void buildDeps(const std::vector<Function *> &Fns);
  void buildFunctionDeps(Function &F, FunctionDeps &D);
  void buildControlDeps(Function &F, std::vector<PDG::EdgeT> &Edges);
  /// On the first request since construction or invalidate(), splits a
  /// current pdg artifact into one list per defined function.
  void loadArtifact();
  /// \p F's instructions as nodes — internal where \p L (or, when null,
  /// the function) contains them — the arguments and globals they read
  /// as external nodes with their register deps, then \p F's list.
  std::unique_ptr<PDG> assembleView(Function &F, const LoopStructure *L);

  /// True if \p Call may read or write the memory reached through
  /// \p Ptr, given the interprocedural summaries.
  bool callMayTouch(const nir::CallInst *Call, const Value *Ptr);

  /// Marks loop-carried flags on \p G's edges for loop \p L.
  void refineLoopCarried(LoopStructure &L, PDG &G);

  Module &M;
  PDGBuildOptions Opts;
  std::unique_ptr<nir::AliasAnalysis> AA;
  std::unique_ptr<nir::AndersenAliasAnalysis> SummaryAA; ///< for summaries
  std::unordered_map<const Function *, FunctionDeps> Deps;
  bool ArtifactChecked = false;
  bool LoadedFromEmbedded = false;
  /// The artifact's whole-program stats; its lists carry none.
  PDG::Stats ArtifactStats;
  std::unique_ptr<PDG> WholePDG;

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
