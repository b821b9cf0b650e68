#include "xforms/Perspective.h"

#include "ir/Instructions.h"

using namespace noelle;
using nir::Instruction;

std::vector<PerspectivePlan> Perspective::planAll() {
  N.noteRequest(Abstraction::PDG);
  N.noteRequest(Abstraction::aSCCDAG);

  std::vector<PerspectivePlan> Plans;
  DOALL Doall(N);

  for (LoopContent *LC : N.getLoopContents()) {
    nir::LoopStructure &LS = LC->getLoopStructure();
    PerspectivePlan Plan;
    Plan.FunctionName = LS.getFunction()->getName();
    Plan.LoopID = LS.getID();

    if (Doall.applicable(*LC)) {
      Plan.AlreadyDOALL = true;
      Plans.push_back(std::move(Plan));
      continue;
    }

    // Inventory of the loop-carried dependences outside IV/reduction
    // cycles: each is a remedy candidate. Apparent (may) dependences can
    // be speculated; must dependences are real obstacles.
    auto &Dag = LC->getSCCDAG();
    auto &RM = LC->getReductionManager();
    auto &IVs = LC->getIVManager();
    bool AnyUnresolvable = false;
    for (auto *E : LC->getLoopDG().getEdges()) {
      if (!E->IsLoopCarried)
        continue;
      auto *From = nir::dyn_cast<Instruction>(E->From);
      auto *To = nir::dyn_cast<Instruction>(E->To);
      if (!From || !To || !LS.contains(From) || !LS.contains(To))
        continue;
      SCC *SF = Dag.sccOf(From);
      if (IVs.isIVSCC(SF) || RM.getReductionFor(SF))
        continue;

      Remedy R;
      if (E->IsMemory && !E->IsMust) {
        R.TheKind = Remedy::Kind::SpeculateApparentDep;
        R.Description = "speculate apparent " +
                        std::string(E->Kind == DataDepKind::RAW   ? "RAW"
                                    : E->Kind == DataDepKind::WAW ? "WAW"
                                                                  : "WAR") +
                        " memory dependence (" + From->getOpcodeName() +
                        " -> " + To->getOpcodeName() + ")";
      } else if (E->IsMemory && E->Kind != DataDepKind::RAW) {
        R.TheKind = Remedy::Kind::Privatize;
        R.Description = "privatize the object behind a must " +
                        std::string(E->Kind == DataDepKind::WAW ? "WAW"
                                                                : "WAR") +
                        " dependence";
      } else {
        R.TheKind = Remedy::Kind::Unresolvable;
        R.Description = "register/must RAW recurrence (" +
                        From->getOpcodeName() + " -> " +
                        To->getOpcodeName() + ")";
        AnyUnresolvable = true;
      }
      Plan.Remedies.push_back(std::move(R));
    }

    Plan.PlannableWithSpeculation =
        !Plan.Remedies.empty() && !AnyUnresolvable;
    Plans.push_back(std::move(Plan));
  }
  return Plans;
}
