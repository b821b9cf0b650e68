//===----------------------------------------------------------------------===//
///
/// \file
/// NOELLE's tool layer (the paper's Table 2): the pieces users chain
/// into custom compilation flows like Figure 1's HELIX pipeline. Each
/// function mirrors one noelle-* command-line tool:
///
///   noelle-whole-IR          wholeIR()          sources -> one module
///   noelle-prof-coverage     profCoverage()     run profilers
///   noelle-meta-prof-embed   metaProfEmbed()    profile -> prof record
///   noelle-meta-pdg-embed    pdgEmbed()         PDG -> pdg record
///   noelle-meta-clean        metaClean()        strip NOELLE metadata
///   noelle-rm-lc-dependences rmLCDependences()  reduce loop-carried deps
///   noelle-arch              archDescribe()     machine description
///   noelle-load              load()             abstractions in memory
///   noelle-linker            (ir/Linker.h)      module linking
///   noelle-bin               makeBinary()       executable image
///
//===----------------------------------------------------------------------===//

#ifndef TOOLS_NOELLETOOLS_H
#define TOOLS_NOELLETOOLS_H

#include "interp/Interpreter.h"
#include "noelle/Noelle.h"

#include <memory>
#include <string>
#include <vector>

namespace noelle {
namespace tools {

/// noelle-whole-IR: compiles every MiniC source and links the results
/// into a single whole-program module, embedding the "compilation
/// options" (module metadata) the later stages read. Returns null and
/// fills \p Error on failure.
std::unique_ptr<nir::Module> wholeIR(nir::Context &Ctx,
                                     const std::vector<std::string> &Sources,
                                     std::string &Error);

/// noelle-prof-coverage: runs the instruction/branch/loop profilers over
/// the module's training execution (@main with its baked-in input).
ProfileData profCoverage(nir::Module &M);

/// noelle-meta-prof-embed: stores a collected profile as the module's
/// prof artifact (ProfileData::embed).
void metaProfEmbed(nir::Module &M, const ProfileData &P);

/// noelle-meta-pdg-embed: computes the whole-program PDG at the default
/// precision and stores it as the module's pdg artifact (PDG::embed,
/// ir/Artifact.h). The record survives the textual print/parse round
/// trip: a later PDGBuilder (or noelle-load) at that precision splits it
/// into its per-function lists instead of re-running the alias analyses
/// while the record's content hash matches, and rebuilds when the IR
/// changed underneath it. Returns the number of edges embedded.
uint64_t pdgEmbed(nir::Module &M);

/// noelle-meta-clean: removes every artifact record and every noelle.*
/// function and instruction metadata entry. The compilation options
/// wholeIR embeds stay.
void metaClean(nir::Module &M);

/// noelle-rm-lc-dependences: reduces loop-carried data dependences in
/// hot loops (hoisting invariant work out of loops removes the carried
/// memory dependences it participates in). Returns how many
/// instructions moved.
unsigned rmLCDependences(nir::Module &M, double MinimumHotness = 0.0);

/// noelle-arch: measures/describes the machine.
Architecture archDescribe(bool Measure);

/// noelle-load: the NOELLE layer, in memory, demand-driven.
std::unique_ptr<Noelle> load(nir::Module &M, NoelleOptions Opts = {});

/// noelle-bin: packages the module into an executable image (an engine
/// with the runtime installed), honoring the link options embedded by
/// wholeIR.
std::unique_ptr<nir::ExecutionEngine> makeBinary(nir::Module &M);

} // namespace tools
} // namespace noelle

#endif // TOOLS_NOELLETOOLS_H
