#include "verify/NoelleCheck.h"

#include "ir/IDs.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"
#include "noelle/Noelle.h"
#include "tools/NoelleTools.h"
#include "verify/LegalityChecker.h"
#include "verify/RaceDetector.h"
#include "verify/SpecCheck.h"
#include "verify/TaskModel.h"

using namespace noelle;
using namespace noelle::verify;

PreTransformSnapshot noelle::verify::captureForCheck(nir::Module &M) {
  PreTransformSnapshot Snap;
  // noelle-meta-pdg-embed assigns fresh deterministic IDs and serializes the
  // PDG keyed by the module's content hash; both travel in the text.
  Snap.PDGEdges = tools::pdgEmbed(M);
  Snap.IRText = M.str();
  return Snap;
}

CheckReport noelle::verify::checkModule(nir::Module &M,
                                        const PreTransformSnapshot &Snap,
                                        const CheckOptions &Opts) {
  CheckReport Rep;

  if (Opts.RunVerifier) {
    for (const std::string &Err : nir::verifyModule(M)) {
      Diagnostic D;
      D.Kind = DiagKind::SSAViolation;
      D.Message = Err;
      Rep.add(std::move(D));
    }
  }

  if (!Opts.RunLegality && !Opts.RunRaces && !Opts.Speculative)
    return Rep;

  std::vector<ParallelRegion> Regions = discoverRegions(M, Rep);

  // Both the legality audit and the race detector are grounded in the
  // pre-transform snapshot: legality walks its loop-carried edges, the
  // race detector uses the PDG's proven-independent pairs to discipline
  // the points-to fallback.
  nir::Context SnapCtx;
  std::string ParseErr;
  auto SnapM = nir::parseModule(SnapCtx, Snap.IRText, ParseErr);
  if (!SnapM) {
    Diagnostic D;
    D.Kind = DiagKind::MissingMetadata;
    D.Message = "pre-transform snapshot does not parse: " + ParseErr;
    Rep.add(std::move(D));
    return Rep;
  }
  // The snapshot carries its own PDG cache; the default build options
  // load it after the content hash matches.
  Noelle SnapNoelle(*SnapM);

  if (Opts.RunLegality)
    checkLegality(SnapNoelle, Regions, Rep);

  if (Opts.Speculative)
    checkSpeculation(M, SnapNoelle, Regions, Rep);

  if (Opts.RunRaces) {
    // The snapshot's whole-program PDG (embedded or rebuilt) carries no
    // loop-carried refinement — only loop-scoped PDGs are refined at
    // build time. The race detector's grounded discharge hinges on the
    // distinction (for DOALL/HELIX only loop-carried dependences relate
    // distinct workers), so recover the flags first.
    SnapNoelle.refinePDGLoopCarried();
    PDGDependenceSummary Deps;
    for (const auto *E : SnapNoelle.getPDG().getEdges()) {
      if (!E->IsMemory)
        continue;
      uint64_t F = nir::instIDOf(E->From).value_or(0);
      uint64_t T = nir::instIDOf(E->To).value_or(0);
      if (!F || !T)
        continue;
      Deps.MemDeps.insert({F, T});
      Deps.MemDeps.insert({T, F});
      if (E->IsLoopCarried) {
        Deps.LoopCarriedMemDeps.insert({F, T});
        Deps.LoopCarriedMemDeps.insert({T, F});
      }
    }
    detectRaces(M, Regions, Rep, &Deps, Opts.Races);
  }

  return Rep;
}
