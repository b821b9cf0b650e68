#include "noelle/Profiler.h"

#include "ir/Artifact.h"
#include "ir/Instructions.h"

#include <sstream>

using namespace noelle;
using nir::Instruction;

//===----------------------------------------------------------------------===//
// Profiler (observer)
//===----------------------------------------------------------------------===//

Profiler::Profiler(const Module &M) {
  for (const auto &F : M.getFunctions())
    for (const auto &BB : F->getBlocks()) {
      BlockIndex.insert(BB.get(), static_cast<uint32_t>(Blocks.size()));
      BlockSlot S;
      S.BB = BB.get();
      S.Size = BB->size();
      Blocks.push_back(S);
    }
}

uint32_t Profiler::countBlock(const BasicBlock *BB) {
  if (BB != LastBlock) {
    LastBlock = BB;
    LastIdx = indexOf(BB);
  }
  if (LastIdx != NoBlock) {
    BlockSlot &S = Blocks[LastIdx];
    ++S.Count;
    TotalInstructions += S.Size;
  }
  return LastIdx;
}

void Profiler::onBlockExecuted(const BasicBlock *BB) { countBlock(BB); }

void Profiler::onBranchExecuted(const BranchInst *Br, unsigned Taken) {
  const BasicBlock *BB = Br->getParent();
  const uint32_t Idx = BB == LastBlock ? LastIdx : indexOf(BB);
  if (Idx != NoBlock)
    ++Blocks[Idx].Taken[Taken != 0];
}

void Profiler::onCallExecuted(const nir::CallInst *, const Function *Callee) {
  FnInvocations[Callee] += 1;
}

ProfileData Profiler::takeData() {
  ProfileData Data;
  for (BlockSlot &S : Blocks) {
    if (S.Count)
      Data.BlockCounts[S.BB] = S.Count;
    if (S.Taken[0] || S.Taken[1])
      Data.BranchCounts[nir::cast<BranchInst>(S.BB->getTerminator())] = {
          S.Taken[0], S.Taken[1]};
    S.Count = S.Taken[0] = S.Taken[1] = 0;
  }
  Data.FnInvocations = std::move(FnInvocations);
  FnInvocations.clear();
  Data.TotalInstructions = TotalInstructions;
  TotalInstructions = 0;
  return Data;
}

ProfileData Profiler::profileModule(Module &M) {
  Profiler P(M);
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
