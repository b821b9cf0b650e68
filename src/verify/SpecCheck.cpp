#include "verify/SpecCheck.h"

#include "ir/IDs.h"
#include "ir/Instructions.h"
#include "noelle/MemDepProfiler.h"
#include "noelle/Noelle.h"

#include <map>
#include <set>
#include <string>

using namespace noelle;
using namespace noelle::verify;
using nir::CallInst;
using nir::Function;
using nir::Instruction;

namespace {

void report(CheckReport &Rep, DiagKind K, std::string Msg,
            const Instruction *Site, const std::string &InFn) {
  Diagnostic D;
  D.Kind = K;
  D.Message = std::move(Msg);
  if (Site)
    D.First = describe(Site);
  D.InFunction = InFn;
  Rep.add(std::move(D));
}

/// True for the journal accessors declared by declareParallelRuntime.
bool isJournalAccessor(const std::string &Name) {
  return Name.rfind("noelle_spec_", 0) == 0;
}

/// Every memory effect of a speculative task must be a journal call:
/// raw accesses bypass validation and rollback.
void auditJournalCoverage(const TaskInfo &T, CheckReport &Rep) {
  for (const auto &BB : T.Fn->getBlocks())
    for (const auto &IPtr : BB->getInstList()) {
      Instruction *I = IPtr.get();
      if (nir::isa<nir::LoadInst>(I) || nir::isa<nir::StoreInst>(I) ||
          nir::isa<nir::VLoadInst>(I) || nir::isa<nir::VStoreInst>(I)) {
        report(Rep, DiagKind::SpecUnjournaledAccess,
               "raw memory access in a speculative task bypasses the "
               "write log: commit-time validation cannot see it and "
               "rollback cannot undo it",
               I, T.Fn->getName());
        continue;
      }
      if (const auto *Call = nir::dyn_cast<CallInst>(I)) {
        Function *Callee = Call->getCalledFunction();
        std::string Name = Callee ? Callee->getName() : std::string();
        if (Name.empty() ||
            (!isJournalAccessor(Name) && !isSpecPureExternal(Name)))
          report(Rep, DiagKind::SpecUnjournaledAccess,
                 "speculative task calls '" + Name +
                     "', which is neither a journal accessor nor a pure "
                     "math external: its effects escape the write log",
                 I, T.Fn->getName());
      }
    }
}

/// The rollback target: present, tagged, and running raw (uninstrumented)
/// accesses — it re-executes after the journal was discarded.
void auditRecoveryPath(nir::Module &M, const TaskInfo &T,
                       CheckReport &Rep) {
  std::string SeqName = T.Fn->getMetadata(TaskSpecSeqKey);
  if (SeqName.empty()) {
    report(Rep, DiagKind::SpecRecoveryMissing,
           "speculative task records no sequential fallback "
           "(noelle.task.spec.seq): misspeculation would have no "
           "recovery path",
           nullptr, T.Fn->getName());
    return;
  }
  Function *Seq = M.getFunction(SeqName);
  if (!Seq || Seq->isDeclaration()) {
    report(Rep, DiagKind::SpecRecoveryMissing,
           "sequential fallback '" + SeqName +
               "' does not exist in the module",
           nullptr, T.Fn->getName());
    return;
  }
  if (Seq->getMetadata(TaskKindKey) != "doall-spec-seq")
    report(Rep, DiagKind::SpecRecoveryMissing,
           "sequential fallback '" + SeqName +
               "' is not tagged doall-spec-seq (the runtime cannot "
               "distinguish it from a concurrent task)",
           nullptr, T.Fn->getName());
  for (const auto &BB : Seq->getBlocks())
    for (const auto &IPtr : BB->getInstList())
      if (const auto *Call = nir::dyn_cast<CallInst>(IPtr.get())) {
        Function *Callee = Call->getCalledFunction();
        if (Callee && isJournalAccessor(Callee->getName())) {
          report(Rep, DiagKind::SpecRecoveryMissing,
                 "sequential fallback '" + SeqName +
                     "' is itself instrumented: rollback re-execution "
                     "would journal into a dispatch that already "
                     "discarded its logs",
                 IPtr.get(), SeqName);
          return;
        }
      }
}

/// Premises against the evidence: the profile must have observed the
/// loop without the speculated pair manifesting, and each premise must
/// name a real loop-carried memory dependence of the snapshot PDG.
void auditPremises(const TaskInfo &T, uint64_t Origin,
                   const MemDepProfile *Profile, LoopContent *SnapLoop,
                   CheckReport &Rep) {
  auto Premises = parseSpecPremises(T.Fn);
  if (Premises.empty()) {
    report(Rep, DiagKind::SpecPremiseUnsupported,
           "speculative task records no premises: static DOALL should "
           "have applied instead, or the task was mis-tagged",
           nullptr, T.Fn->getName());
    return;
  }
  if (!Profile) {
    report(Rep, DiagKind::SpecPremiseUnsupported,
           "snapshot carries no current memory-dependence profile: the "
           "premises have no evidence base",
           nullptr, T.Fn->getName());
    return;
  }
  if (!Profile->coversLoop(Origin)) {
    report(Rep, DiagKind::SpecPremiseUnsupported,
           "the profile never observed loop " + std::to_string(Origin) +
               ": absence of dependences is not evidence here",
           nullptr, T.Fn->getName());
    return;
  }

  // Directed loop-carried memory edges of the snapshot loop, by ID.
  std::set<std::pair<uint64_t, uint64_t>> Edges;
  if (SnapLoop)
    for (auto *E : SnapLoop->getLoopDG().getEdges()) {
      if (!E->IsLoopCarried || !E->IsMemory)
        continue;
      uint64_t A = nir::instIDOf(E->From).value_or(0);
      uint64_t B = nir::instIDOf(E->To).value_or(0);
      if (A && B)
        Edges.insert({A, B});
    }

  for (const auto &[A, B] : Premises) {
    if (Profile->manifested(Origin, A, B))
      report(Rep, DiagKind::SpecPremiseUnsupported,
             "premise " + std::to_string(A) + ":" + std::to_string(B) +
                 " is contradicted by the profile: the dependence "
                 "manifested during the profiled run",
             nullptr, T.Fn->getName());
    if (SnapLoop && !Edges.count({A, B}))
      report(Rep, DiagKind::SpecPremiseUnsupported,
             "premise " + std::to_string(A) + ":" + std::to_string(B) +
                 " matches no loop-carried memory dependence of the "
                 "snapshot PDG (stale or fabricated premise)",
             nullptr, T.Fn->getName());
  }
}

} // namespace

void noelle::verify::checkSpeculation(
    nir::Module &M, Noelle &Snapshot,
    const std::vector<ParallelRegion> &Regions, CheckReport &Rep) {
  // The profile is bound to the pre-transform code, which the snapshot
  // still is.
  const MemDepProfile *Profile = Snapshot.getMemDepProfile();

  std::map<uint64_t, LoopContent *> ByOrigin;
  for (LoopContent *LC : Snapshot.getLoopContents())
    if (uint64_t Id = LC->getLoopStructure().getHeaderID().value_or(0))
      ByOrigin[Id] = LC;

  for (const ParallelRegion &R : Regions) {
    if (R.Kind != "doall-spec")
      continue;
    auto It = ByOrigin.find(R.Origin);
    LoopContent *SnapLoop = It == ByOrigin.end() ? nullptr : It->second;
    for (const TaskInfo &T : R.Tasks) {
      auditJournalCoverage(T, Rep);
      auditRecoveryPath(M, T, Rep);
      auditPremises(T, R.Origin, Profile, SnapLoop, Rep);
    }
  }
}
