//===----------------------------------------------------------------------===//
///
/// \file
/// ThreadSanitizer smoke over the speculative DOALL runtime: plan a
/// kernel with speculation enabled, apply the plan, and execute it on
/// real worker threads under -fsanitize=thread — once on the profiled
/// input (commit path: journal writes, validation, ordered commit) and
/// once with the input flipped so every dispatch conflicts (rollback
/// path: journal discard, sequential re-execution). A TSan report on
/// either path indicts the write-log/commit protocol's synchronization.
/// The kernel runs over `int data[2048]` and then `char data[2048]`,
/// whose neighbouring tasks write different bytes of one word: partial
/// bitmap words, commits by runs of bytes, and journal pages the
/// dispatching thread recycled and workers then write. The same program
/// also builds under -fsanitize=address,undefined (SpecAsanUbsanSmoke),
/// which checks the journal's page and bitmap arithmetic and its masked
/// commit.
///
//===----------------------------------------------------------------------===//

#include "frontend/MiniC.h"
#include "ir/IDs.h"
#include "noelle/MemDepProfiler.h"
#include "noelle/Noelle.h"
#include "planner/Planner.h"
#include "runtime/ParallelRuntime.h"
#include "xforms/SpecDOALL.h"

#include <cstdio>
#include <string>
#include <utility>

using namespace noelle;
using nir::Context;
using nir::ExecutionEngine;

namespace {

/// Same seeded kernel the spec-suite uses: mode == 0 keeps iteration
/// writes disjoint (the profiled configuration); mode == 1 funnels every
/// iteration through data[0], so speculation must roll back.
const char *IntSrc = R"(
  int mode;
  int data[2048];
  int main() {
    int total = 0;
    for (int r = 0; r < 8; r = r + 1) {
      for (int i = 0; i < 2048; i = i + 1) {
        int idx = i;
        if (mode > 0) idx = 0;
        data[idx] = data[idx] + i + r;
      }
      total = total + data[r];
    }
    return total % 100007;
  }
)";

int64_t runSequential(const std::string &Src, int64_t Mode) {
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  M->getGlobal("mode")->setInitWords({Mode});
  ExecutionEngine E(*M);
  return E.runMain();
}

/// Plans, applies and runs \p Src on the commit and the rollback path;
/// returns the number of loops speculated, or 0 on any failure.
unsigned checkBothPaths(const std::string &Src) {
  int64_t SeqClean = runSequential(Src, 0);
  int64_t SeqFlipped = runSequential(Src, 1);

  // Profile on mode == 0, then plan with speculation enabled. Fall back
  // to the forced transform if the cost model declines — the smoke's
  // target is the runtime protocol under TSan, not the planner's
  // profitability call.
  Context Ctx;
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  nir::assignDeterministicIDs(*M);
  profileMemDeps(*M).embed(*M);

  Noelle N(*M);
  planner::PlannerOptions PO;
  PO.MaxWorkers = 4;
  PO.EnableSpeculation = true;
  planner::Planner P(N, PO);
  planner::ProgramPlan Plan = P.plan();

  unsigned SpecApplied = 0;
  bool PlanHadSpec = false;
  for (const auto &En : Plan.Entries)
    PlanHadSpec |= En.Kind == TechniqueKind::SpecDOALL;
  if (PlanHadSpec) {
    for (const auto &D : P.apply(Plan))
      SpecApplied += D.Parallelized && D.Kind == TechniqueKind::SpecDOALL;
  } else {
    std::printf("spec-tsan: planner declined, forcing SpecDOALL\n");
    SpecDOALL Tool(N);
    for (const auto &D : Tool.run())
      SpecApplied += D.Parallelized && D.Kind == TechniqueKind::SpecDOALL;
  }
  if (SpecApplied == 0) {
    std::fprintf(stderr, "spec-tsan: no loop speculated\n");
    return 0;
  }

  // Commit path: profiled input, worker threads, journaled accesses.
  {
    ExecutionEngine E(*M);
    registerParallelRuntime(E);
    int64_t Got = E.runMain();
    if (Got != SeqClean) {
      std::fprintf(stderr,
                   "spec-tsan: commit path returned %lld, expected %lld\n",
                   (long long)Got, (long long)SeqClean);
      return 0;
    }
  }

  // Rollback path: flip the input so validation fails on every dispatch
  // and the sequential clone re-executes.
  M->getGlobal("mode")->setInitWords({1});
  {
    ExecutionEngine E(*M);
    registerParallelRuntime(E);
    int64_t Got = E.runMain();
    if (Got != SeqFlipped) {
      std::fprintf(stderr,
                   "spec-tsan: rollback path returned %lld, expected "
                   "%lld\n",
                   (long long)Got, (long long)SeqFlipped);
      return 0;
    }
  }

  return SpecApplied;
}

} // namespace

int main() {
  std::string CharSrc = IntSrc;
  CharSrc.replace(CharSrc.find("int data["), 3, "char");
  const std::pair<const char *, std::string> Variants[] = {
      {"int", IntSrc}, {"char", CharSrc}};
  for (const auto &[Name, Src] : Variants) {
    unsigned Loops = checkBothPaths(Src);
    if (Loops == 0) {
      std::fprintf(stderr, "spec-tsan: %s data failed\n", Name);
      return 1;
    }
    std::printf("spec-tsan: %s data: commit and rollback paths clean (%u "
                "loops)\n",
                Name, Loops);
  }
  return 0;
}
