#include "verify/PlanCheck.h"

#include "planner/Planner.h"
#include "runtime/ThreadPool.h"

#include <algorithm>
#include <map>
#include <set>

using namespace noelle;
using namespace noelle::verify;
using planner::PlanEntry;
using planner::ProgramPlan;

namespace {

std::string entryLabel(const PlanEntry &E, size_t Idx) {
  return "entry " + std::to_string(Idx) + " (fn=" + E.FunctionName +
         " header=" + std::to_string(E.HeaderInstID) +
         " kind=" + techniqueName(E.Kind) + ")";
}

/// Finds the loop an entry names: the loop of \p N whose header
/// contains the instruction carrying the entry's deterministic ID, in
/// the named function.
LoopContent *findLoop(Noelle &N, const PlanEntry &E) {
  for (LoopContent *LC : N.getLoopContents()) {
    nir::LoopStructure &LS = LC->getLoopStructure();
    if (LS.getFunction()->getName() == E.FunctionName &&
        LS.getHeaderID() == E.HeaderInstID)
      return LC;
  }
  return nullptr;
}

/// The legality analysis behind one plan entry, under the planner's
/// conventions (per-tool profitability gates off — the plan already
/// encodes the profitability decision) and the entry's own worker
/// count.
Legality entryLegality(Noelle &N, const PlanEntry &E, LoopContent &LC) {
  return planner::makeTechnique(E.Kind, N, std::max(1u, E.Workers))
      ->applicable(LC);
}

} // namespace

CheckReport noelle::verify::checkPlan(nir::Module &M,
                                      const ProgramPlan &P) {
  CheckReport Rep;

  if (P.ModuleHash != 0 && P.ModuleHash != M.getContentHash()) {
    Diagnostic D;
    D.Kind = DiagKind::PlanHashMismatch;
    D.Message = "plan was computed for a different module (plan hash " +
                nir::formatArtifactHash(P.ModuleHash) + ", module hash " +
                nir::formatArtifactHash(M.getContentHash()) + ")";
    Rep.add(std::move(D));
    return Rep; // nothing below is meaningful against other code
  }

  Noelle N(M);

  std::set<uint64_t> SeenLoops;
  std::map<size_t, LoopContent *> EntryLoop;

  for (size_t I = 0; I < P.Entries.size(); ++I) {
    const PlanEntry &E = P.Entries[I];

    auto Malformed = [&](const std::string &Why) {
      Diagnostic D;
      D.Kind = DiagKind::PlanMalformed;
      D.Message = entryLabel(E, I) + ": " + Why;
      D.InFunction = E.FunctionName;
      Rep.add(std::move(D));
    };

    if (E.Workers < 1) {
      Malformed("worker count must be at least 1");
      continue;
    }
    // A static dispatch runs one pool job per worker, and the pool
    // holds at most MaxWorkers.
    if (E.Workers > nir::ThreadPool::MaxWorkers) {
      Malformed("worker count must be at most " +
                std::to_string(nir::ThreadPool::MaxWorkers));
      continue;
    }
    if (E.ChunkGrain < 1) {
      Malformed("chunk grain must be at least 1");
      continue;
    }
    if (!SeenLoops.insert(E.HeaderInstID).second) {
      Malformed("another entry already claims this loop");
      continue;
    }
    if (E.Parent >= 0) {
      if (static_cast<size_t>(E.Parent) >= P.Entries.size() ||
          static_cast<size_t>(E.Parent) == I) {
        Malformed("parent index out of range");
        continue;
      }
      const PlanEntry &Parent = P.Entries[static_cast<size_t>(E.Parent)];
      if (Parent.Kind != TechniqueKind::DSWP) {
        Malformed("parent entry is not a DSWP pipeline");
        continue;
      }
      if (Parent.Parent >= 0) {
        Malformed("parent entry is itself nested");
        continue;
      }
      if (E.Kind != TechniqueKind::DOALL) {
        Malformed("nested entries must be DOALL");
        continue;
      }
    }

    LoopContent *LC = findLoop(N, E);
    if (!LC) {
      Diagnostic D;
      D.Kind = DiagKind::PlanLoopNotFound;
      D.Message = entryLabel(E, I) +
                  ": no loop with this header instruction ID";
      D.InFunction = E.FunctionName;
      Rep.add(std::move(D));
      continue;
    }
    EntryLoop[I] = LC;

    // A nested entry's loop must really sit immediately inside its
    // parent entry's loop (pre-transform nesting mirrors the stage
    // containment apply() relies on).
    if (E.Parent >= 0) {
      auto ParentIt = EntryLoop.find(static_cast<size_t>(E.Parent));
      if (ParentIt == EntryLoop.end() ||
          LC->getLoopStructure().getParentLoop() !=
              &ParentIt->second->getLoopStructure()) {
        Malformed("nested loop is not immediately inside its parent "
                  "entry's loop");
        continue;
      }
    }

    Legality L = entryLegality(N, E, *LC);
    if (!L) {
      Diagnostic D;
      D.Kind = DiagKind::PlanIllegal;
      D.Message = entryLabel(E, I) + ": " + techniqueName(E.Kind) +
                  " is not applicable: " + L.Reason;
      D.InFunction = E.FunctionName;
      Rep.add(std::move(D));
      continue;
    }

    // Speculative entries must record exactly the premises the module's
    // embedded memory-dependence profile still supports: a premise the
    // re-derivation no longer yields means the module or its profile
    // changed under the plan, and the runtime would be validating
    // different dependences than the plan was costed on.
    if (E.Kind == TechniqueKind::SpecDOALL) {
      auto Want = E.Premises;
      auto Got = L.SpecPremises;
      std::sort(Want.begin(), Want.end());
      std::sort(Got.begin(), Got.end());
      if (Want != Got) {
        Diagnostic D;
        D.Kind = DiagKind::PlanIllegal;
        D.Message =
            entryLabel(E, I) +
            ": speculative premises do not match the profile evidence "
            "(plan records " +
            std::to_string(Want.size()) + ", re-derivation yields " +
            std::to_string(Got.size()) + ")";
        D.InFunction = E.FunctionName;
        Rep.add(std::move(D));
      }
    }
  }
  return Rep;
}
