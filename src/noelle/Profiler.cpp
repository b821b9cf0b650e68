#include "noelle/Profiler.h"

#include "ir/Artifact.h"
#include "ir/Instructions.h"

#include <sstream>

using namespace noelle;
using nir::Instruction;

//===----------------------------------------------------------------------===//
// Profiler (observer)
//===----------------------------------------------------------------------===//

void Profiler::onBlockExecuted(const BasicBlock *BB) {
  if (BB != LastBlock) {
    LastBlock = BB;
    LastBlockCount = &Data.BlockCounts[BB];
  }
  *LastBlockCount += 1;
  Data.TotalInstructions += BB->size();
}

void Profiler::onBranchExecuted(const BranchInst *Br, unsigned Taken) {
  if (Br != LastBranch) {
    LastBranch = Br;
    LastBranchCounts = &Data.BranchCounts[Br];
  }
  if (Taken == 0)
    ++LastBranchCounts->first;
  else
    ++LastBranchCounts->second;
}

void Profiler::onCallExecuted(const nir::CallInst *, const Function *Callee) {
  Data.FnInvocations[Callee] += 1;
}

ProfileData Profiler::takeData() {
  LastBlock = nullptr;
  LastBlockCount = nullptr;
  LastBranch = nullptr;
  LastBranchCounts = nullptr;
  return std::move(Data);
}

ProfileData Profiler::profileModule(Module &M) {
  Profiler P;
  return profileModule(M, P);
}

ProfileData Profiler::profileModule(Module &M, Profiler &P) {
  nir::ExecutionEngine Engine(M);
  Engine.setObserver(&P);
  Engine.runMain();
  Engine.setObserver(nullptr);
  ProfileData Data = P.takeData();
  if (const Function *Main = M.getFunction("main"))
    Data.FnInvocations[Main] += 1;
  return Data;
}

//===----------------------------------------------------------------------===//
// Queries
//===----------------------------------------------------------------------===//

uint64_t ProfileData::getBlockCount(const BasicBlock *BB) const {
  auto It = BlockCounts.find(BB);
  return It == BlockCounts.end() ? 0 : It->second;
}

uint64_t ProfileData::getBranchTakenCount(const BranchInst *Br,
                                          unsigned Idx) const {
  auto It = BranchCounts.find(Br);
  if (It == BranchCounts.end())
    return 0;
  return Idx == 0 ? It->second.first : It->second.second;
}

uint64_t ProfileData::getFunctionInvocations(const Function *F) const {
  auto It = FnInvocations.find(F);
  return It == FnInvocations.end() ? 0 : It->second;
}

double ProfileData::getLoopHotness(const nir::LoopStructure &L) const {
  if (!TotalInstructions)
    return 0;
  uint64_t InLoop = 0;
  for (const auto *BB : L.getBlocks())
    InLoop += getBlockCount(BB) * BB->size();
  return static_cast<double>(InLoop) /
         static_cast<double>(TotalInstructions);
}

double ProfileData::getFunctionHotness(const Function &F) const {
  if (!TotalInstructions)
    return 0;
  uint64_t InFn = 0;
  for (const auto &BB : F.getBlocks())
    InFn += getBlockCount(BB.get()) * BB->size();
  return static_cast<double>(InFn) / static_cast<double>(TotalInstructions);
}

uint64_t
ProfileData::getLoopInvocations(const nir::LoopStructure &L) const {
  uint64_t N = 0;
  for (const auto *Pred : L.getHeader()->predecessors()) {
    if (L.contains(Pred))
      continue; // Back edge, not an invocation.
    const auto *Br =
        nir::dyn_cast_or_null<BranchInst>(Pred->getTerminator());
    if (!Br)
      continue;
    if (!Br->isConditional()) {
      N += getBlockCount(Pred);
      continue;
    }
    for (unsigned S = 0; S < Br->getNumSuccessors(); ++S)
      if (Br->getSuccessor(S) == L.getHeader())
        N += getBranchTakenCount(Br, S);
  }
  return N;
}

uint64_t
ProfileData::getLoopTotalIterations(const nir::LoopStructure &L) const {
  return getBlockCount(L.getHeader());
}

double
ProfileData::getLoopAverageIterations(const nir::LoopStructure &L) const {
  uint64_t Inv = getLoopInvocations(L);
  if (!Inv)
    return 0;
  return static_cast<double>(getLoopTotalIterations(L)) /
         static_cast<double>(Inv);
}

//===----------------------------------------------------------------------===//
// Embedding (noelle-meta-prof-embed)
//===----------------------------------------------------------------------===//

// Payload of the prof artifact, every count by position in module order:
//   total <instructions>
//   fn <invocations per function>
//   bb <executions per block>
//   br <successor-0 count>:<successor-1 count> per conditional branch

namespace {

const BranchInst *conditionalBranchOf(const BasicBlock &BB) {
  const auto *Br = nir::dyn_cast_or_null<BranchInst>(BB.getTerminator());
  return Br && Br->isConditional() ? Br : nullptr;
}

} // namespace

void ProfileData::embed(Module &M) const {
  std::string Fns = "fn", Blocks = "bb", Branches = "br";
  for (const auto &F : M.getFunctions()) {
    Fns += " " + std::to_string(getFunctionInvocations(F.get()));
    for (const auto &BB : F->getBlocks()) {
      Blocks += " " + std::to_string(getBlockCount(BB.get()));
      if (const BranchInst *Br = conditionalBranchOf(*BB))
        Branches += " " + std::to_string(getBranchTakenCount(Br, 0)) + ":" +
                    std::to_string(getBranchTakenCount(Br, 1));
    }
  }
  nir::embedArtifact(M, nir::ArtifactKind::Profile,
                     "total " + std::to_string(TotalInstructions) + "\n" +
                         Fns + "\n" + Blocks + "\n" + Branches + "\n");
}

std::unique_ptr<ProfileData> ProfileData::loadEmbedded(const Module &M) {
  nir::Artifact A;
  std::string Err;
  if (!nir::readCurrentArtifact(M, nir::ArtifactKind::Profile, A, Err))
    return nullptr;
  auto P = std::make_unique<ProfileData>();
  std::istringstream In{std::string(A.Payload)};
  std::string Tag;
  auto Expect = [&](const char *Want) { return In >> Tag && Tag == Want; };
  uint64_t C = 0, C1 = 0;
  char Colon = 0;
  if (!Expect("total") || !(In >> P->TotalInstructions) || !Expect("fn"))
    return nullptr;
  for (const auto &F : M.getFunctions()) {
    if (!(In >> C))
      return nullptr;
    if (C)
      P->FnInvocations[F.get()] = C;
  }
  if (!Expect("bb"))
    return nullptr;
  for (const auto &F : M.getFunctions())
    for (const auto &BB : F->getBlocks()) {
      if (!(In >> C))
        return nullptr;
      if (C)
        P->BlockCounts[BB.get()] = C;
    }
  if (!Expect("br"))
    return nullptr;
  for (const auto &F : M.getFunctions())
    for (const auto &BB : F->getBlocks())
      if (const BranchInst *Br = conditionalBranchOf(*BB)) {
        if (!(In >> C >> Colon >> C1) || Colon != ':')
          return nullptr;
        if (C || C1)
          P->BranchCounts[Br] = {C, C1};
      }
  return P;
}
