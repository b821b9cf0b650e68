#include "noelle/Profiler.h"

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
// Embedding (noelle-meta-prof-embed / noelle-meta-clean)
//===----------------------------------------------------------------------===//

namespace {
constexpr const char *BlockCountKey = "noelle.prof.bb";
constexpr const char *BranchCountKey = "noelle.prof.taken";
constexpr const char *FnCountKey = "noelle.prof.calls";
constexpr const char *TotalKey = "noelle.prof.total";
constexpr const char *HashKey = "noelle.prof.hash";
} // namespace

void ProfileData::embed(Module &M) const {
  for (const auto &F : M.getFunctions()) {
    uint64_t Inv = getFunctionInvocations(F.get());
    if (Inv)
      F->setMetadata(FnCountKey, std::to_string(Inv));
    for (const auto &BB : F->getBlocks()) {
      if (BB->empty())
        continue;
      uint64_t C = getBlockCount(BB.get());
      // Attach to the first instruction: block metadata does not survive
      // printing, instruction metadata does.
      BB->front()->setMetadata(BlockCountKey, std::to_string(C));
      if (const auto *Br =
              nir::dyn_cast_or_null<BranchInst>(BB->getTerminator())) {
        if (Br->isConditional()) {
          std::ostringstream OS;
          OS << getBranchTakenCount(Br, 0) << ","
             << getBranchTakenCount(Br, 1);
          const_cast<BranchInst *>(Br)->setMetadata(BranchCountKey, OS.str());
        }
      }
    }
  }
  M.setModuleMetadata(TotalKey, std::to_string(TotalInstructions));
  M.setModuleMetadata(HashKey, std::to_string(M.getContentHash()));
}

ProfileData ProfileData::fromMetadata(Module &M) {
  ProfileData Data;
  std::string Total = M.getModuleMetadata(TotalKey);
  if (!Total.empty())
    Data.TotalInstructions = std::stoull(Total);
  for (const auto &F : M.getFunctions()) {
    std::string Inv = F->getMetadata(FnCountKey);
    if (!Inv.empty())
      Data.FnInvocations[F.get()] = std::stoull(Inv);
    for (const auto &BB : F->getBlocks()) {
      if (BB->empty())
        continue;
      std::string C = BB->front()->getMetadata(BlockCountKey);
      if (!C.empty())
        Data.BlockCounts[BB.get()] = std::stoull(C);
      if (const auto *Br =
              nir::dyn_cast_or_null<BranchInst>(BB->getTerminator())) {
        std::string T = Br->getMetadata(BranchCountKey);
        auto Comma = T.find(',');
        if (Comma != std::string::npos)
          Data.BranchCounts[Br] = {std::stoull(T.substr(0, Comma)),
                                   std::stoull(T.substr(Comma + 1))};
      }
    }
  }
  return Data;
}

void ProfileData::clean(Module &M) {
  M.removeModuleMetadata(TotalKey);
  M.removeModuleMetadata(HashKey);
  for (const auto &F : M.getFunctions()) {
    F->removeMetadata(FnCountKey);
    for (const auto &BB : F->getBlocks())
      for (const auto &I : BB->getInstList()) {
        I->removeMetadata(BlockCountKey);
        I->removeMetadata(BranchCountKey);
      }
  }
}

bool ProfileData::isEmbedded(const Module &M) {
  return M.hasModuleMetadata(TotalKey);
}

bool ProfileData::isCurrent(const Module &M) {
  return isEmbedded(M) &&
         M.getModuleMetadata(HashKey) == std::to_string(M.getContentHash());
}
