#include "analysis/LoopInfo.h"

#include "analysis/CFG.h"
#include "ir/IDs.h"

#include <algorithm>
#include <functional>

using namespace nir;

uint64_t LoopStructure::getNumInstructions() const {
  uint64_t N = 0;
  for (const auto *BB : Blocks)
    N += BB->size();
  return N;
}

std::vector<Instruction *> LoopStructure::getInstructions() const {
  std::vector<Instruction *> Out;
  for (auto *BB : Blocks)
    for (const auto &I : BB->getInstList())
      Out.push_back(I.get());
  return Out;
}

std::optional<uint64_t> LoopStructure::getHeaderID() const {
  if (Header->getInstList().empty())
    return std::nullopt;
  return instIDOf(Header->getInstList().front().get());
}

bool LoopStructure::isDoWhileForm() const {
  for (auto *Latch : Latches)
    if (std::find(ExitingBlocks.begin(), ExitingBlocks.end(), Latch) !=
        ExitingBlocks.end())
      return true;
  return false;
}

bool LoopStructure::isWhileForm() const {
  return std::find(ExitingBlocks.begin(), ExitingBlocks.end(), Header) !=
         ExitingBlocks.end();
}

LoopInfo::LoopInfo(Function &F, const DominatorTree &DT) {
  // Find back edges T -> H (H dominates T) and group them per header.
  std::map<BasicBlock *, std::vector<BasicBlock *>> HeaderToLatches;
  for (BasicBlock *BB : reversePostOrder(F))
    for (BasicBlock *Succ : BB->successors())
      if (DT.dominates(Succ, BB))
        HeaderToLatches[Succ].push_back(BB);

  // Build each loop's body: reverse reachability from latches up to the
  // header.
  for (auto &[Header, Latches] : HeaderToLatches) {
    auto L = std::make_unique<LoopStructure>();
    L->Header = Header;
    L->Latches = Latches;
    L->BlockSet.insert(Header);
    std::vector<BasicBlock *> Work(Latches.begin(), Latches.end());
    while (!Work.empty()) {
      BasicBlock *BB = Work.back();
      Work.pop_back();
      if (!L->BlockSet.insert(BB).second)
        continue;
      for (BasicBlock *Pred : BB->predecessors())
        if (DT.isReachableFromEntry(Pred))
          Work.push_back(Pred);
    }
    // Ordered blocks: header first, then the rest in function order.
    L->Blocks.push_back(Header);
    for (auto &BB : F.getBlocks())
      if (BB.get() != Header && L->BlockSet.count(BB.get()))
        L->Blocks.push_back(BB.get());

    // Exits.
    for (BasicBlock *BB : L->Blocks) {
      bool Exiting = false;
      for (BasicBlock *Succ : BB->successors())
        if (!L->BlockSet.count(Succ)) {
          Exiting = true;
          if (std::find(L->ExitBlocks.begin(), L->ExitBlocks.end(), Succ) ==
              L->ExitBlocks.end())
            L->ExitBlocks.push_back(Succ);
        }
      if (Exiting)
        L->ExitingBlocks.push_back(BB);
    }

    // Preheader: unique out-of-loop predecessor with a single successor.
    BasicBlock *Candidate = nullptr;
    bool Unique = true;
    for (BasicBlock *Pred : Header->predecessors()) {
      if (L->BlockSet.count(Pred))
        continue;
      if (Candidate) {
        Unique = false;
        break;
      }
      Candidate = Pred;
    }
    if (Unique && Candidate && Candidate->successors().size() == 1)
      L->Preheader = Candidate;

    Loops.push_back(std::move(L));
  }

  // Deterministic order: sort loops by their header's position in the
  // function (std::map over block pointers is not stable across runs).
  {
    std::map<const BasicBlock *, unsigned> BlockPos;
    unsigned Pos = 0;
    for (auto &BB : F.getBlocks())
      BlockPos[BB.get()] = Pos++;
    std::sort(Loops.begin(), Loops.end(),
              [&](const std::unique_ptr<LoopStructure> &A,
                  const std::unique_ptr<LoopStructure> &B) {
                return BlockPos[A->Header] < BlockPos[B->Header];
              });
  }

  // Establish nesting: parent = smallest strictly-enclosing loop.
  for (auto &L : Loops) {
    LoopStructure *Best = nullptr;
    for (auto &Other : Loops) {
      if (Other.get() == L.get())
        continue;
      if (!Other->BlockSet.count(L->Header))
        continue;
      if (!Best || Other->Blocks.size() < Best->Blocks.size())
        Best = Other.get();
    }
    L->Parent = Best;
    if (Best)
      Best->SubLoops.push_back(L.get());
    else
      TopLoops.push_back(L.get());
  }

  // Depths and preorder IDs.
  unsigned NextID = 0;
  std::function<void(LoopStructure *, unsigned)> Assign =
      [&](LoopStructure *L, unsigned Depth) {
        L->Depth = Depth;
        L->ID = NextID++;
        for (auto *Sub : L->SubLoops)
          Assign(Sub, Depth + 1);
      };
  for (auto *Top : TopLoops)
    Assign(Top, 1);

  // Innermost-loop map.
  for (auto *L : getLoopsInPreorder())
    for (auto *BB : L->Blocks) {
      auto It = InnermostLoop.find(BB);
      if (It == InnermostLoop.end() ||
          It->second->Blocks.size() > L->Blocks.size())
        InnermostLoop[BB] = L;
    }
}

std::vector<LoopStructure *> LoopInfo::getLoopsInPreorder() const {
  std::vector<LoopStructure *> Out;
  std::function<void(LoopStructure *)> Visit = [&](LoopStructure *L) {
    Out.push_back(L);
    for (auto *Sub : L->SubLoops)
      Visit(Sub);
  };
  for (auto *Top : TopLoops)
    Visit(Top);
  return Out;
}

LoopStructure *LoopInfo::getLoopFor(const BasicBlock *BB) const {
  auto It = InnermostLoop.find(BB);
  return It == InnermostLoop.end() ? nullptr : It->second;
}
