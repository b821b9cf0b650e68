#include "tools/NoelleTools.h"

#include "frontend/MiniC.h"
#include "ir/Artifact.h"
#include "ir/IDs.h"
#include "ir/Linker.h"
#include "runtime/ParallelRuntime.h"
#include "xforms/LICM.h"

using namespace noelle;
using nir::Module;

std::unique_ptr<Module>
tools::wholeIR(nir::Context &Ctx, const std::vector<std::string> &Sources,
               std::string &Error) {
  std::vector<std::unique_ptr<Module>> Units;
  std::vector<const Module *> Raw;
  for (size_t I = 0; I < Sources.size(); ++I) {
    minic::CompileOptions Opts;
    Opts.ModuleName = "tu" + std::to_string(I);
    auto M = minic::compileMiniC(Ctx, Sources[I], Error, Opts);
    if (!M)
      return nullptr;
    Raw.push_back(M.get());
    Units.push_back(std::move(M));
  }
  auto Linked = nir::linkModules(Ctx, Raw, Error);
  if (!Linked)
    return nullptr;
  // The compilation options later stages honor (the real tool embeds
  // clang flags and libraries-to-link here).
  Linked->setModuleMetadata("noelle.link.runtime", "parallel");
  Linked->setModuleMetadata("noelle.opt.level", "O3");
  nir::assignDeterministicIDs(*Linked);
  return Linked;
}

ProfileData tools::profCoverage(Module &M) {
  return Profiler::profileModule(M);
}

void tools::metaProfEmbed(Module &M, const ProfileData &P) { P.embed(M); }

uint64_t tools::pdgEmbed(Module &M) {
  // Never load an old record into the builder that is about to refresh
  // it: drop it first, then build (in parallel) and embed.
  nir::eraseArtifact(M, nir::ArtifactKind::PDG);
  PDGBuilder Builder(M);
  PDG &G = Builder.getPDG();
  G.embed(M);
  return G.getEdges().size();
}

void tools::metaClean(Module &M) {
  nir::eraseArtifacts(M);
  for (const auto &F : M.getFunctions()) {
    std::vector<std::string> Doomed;
    for (const auto &[K, V] : F->getAllMetadata())
      if (K.rfind("noelle.", 0) == 0)
        Doomed.push_back(K);
    for (const auto &K : Doomed)
      F->removeMetadata(K);
    for (const auto &BB : F->getBlocks())
      for (const auto &I : BB->getInstList()) {
        std::vector<std::string> DoomedI;
        for (const auto &[K, V] : I->getAllMetadata())
          if (K.rfind("noelle.", 0) == 0)
            DoomedI.push_back(K);
        for (const auto &K : DoomedI)
          I->removeMetadata(K);
      }
  }
}

unsigned tools::rmLCDependences(Module &M, double MinimumHotness) {
  NoelleOptions Opts;
  Opts.MinimumLoopHotness = MinimumHotness;
  Noelle N(M, Opts);
  LICM Tool(N);
  return Tool.run().InstructionsHoisted;
}

Architecture tools::archDescribe(bool Measure) {
  return Architecture(Measure);
}

std::unique_ptr<Noelle> tools::load(Module &M, NoelleOptions Opts) {
  return std::make_unique<Noelle>(M, Opts);
}

std::unique_ptr<nir::ExecutionEngine> tools::makeBinary(Module &M) {
  auto Engine = std::make_unique<nir::ExecutionEngine>(M);
  if (M.getModuleMetadata("noelle.link.runtime") == "parallel")
    registerParallelRuntime(*Engine);
  return Engine;
}
