#include "noelle/MemDepProfiler.h"

#include "analysis/Dominators.h"
#include "ir/Artifact.h"
#include "ir/IDs.h"
#include "ir/Instructions.h"
#include "support/PageMap.h"

#include <array>
#include <cinttypes>
#include <cstdio>

using namespace noelle;
using nir::BasicBlock;
using nir::Function;
using nir::Instruction;
using nir::Module;

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

namespace {

const char *kindName(ManifestedDep::Kind K) {
  switch (K) {
  case ManifestedDep::RAW:
    return "raw";
  case ManifestedDep::WAR:
    return "war";
  case ManifestedDep::WAW:
    return "waw";
  }
  return "raw";
}

bool kindFromName(const std::string &S, ManifestedDep::Kind &K) {
  if (S == "raw")
    K = ManifestedDep::RAW;
  else if (S == "war")
    K = ManifestedDep::WAR;
  else if (S == "waw")
    K = ManifestedDep::WAW;
  else
    return false;
  return true;
}

} // namespace

std::string MemDepProfile::payload() const {
  std::string Out;
  char Buf[96];
  for (const auto &[Header, S] : Loops) {
    std::snprintf(Buf, sizeof(Buf),
                  "loop header=%" PRIu64 " invocations=%" PRIu64
                  " iterations=%" PRIu64 "\n",
                  Header, S.Invocations, S.Iterations);
    Out += Buf;
  }
  for (const ManifestedDep &D : Deps) {
    std::snprintf(Buf, sizeof(Buf),
                  "dep header=%" PRIu64 " src=%" PRIu64 " dst=%" PRIu64
                  " kind=%s\n",
                  D.HeaderID, D.SrcID, D.DstID, kindName(D.K));
    Out += Buf;
  }
  return Out;
}

std::string MemDepProfile::serialize() const {
  return nir::formatArtifact(nir::ArtifactKind::MemDep, ModuleHash,
                             payload());
}

bool MemDepProfile::decode(const nir::Artifact &A, MemDepProfile &Out,
                           std::string &Err) {
  Out = MemDepProfile();
  Out.ModuleHash = A.Hash;
  auto Line = [&Out](const std::string &Word, const nir::ArtifactFields &Fs,
                     std::string &Why) {
    if (Word != "loop" && Word != "dep") {
      Why = "unknown record '" + Word + "'";
      return false;
    }
    ManifestedDep D;
    uint64_t Invocations = 0, Iterations = 0;
    bool SawHdr = false, SawSrc = false, SawDst = false, SawKind = false;
    for (const auto &[Key, Val] : Fs) {
      if (Key == "header") {
        D.HeaderID = std::stoull(Val);
        SawHdr = true;
      } else if (Key == "invocations") {
        Invocations = std::stoull(Val);
      } else if (Key == "iterations") {
        Iterations = std::stoull(Val);
      } else if (Key == "src") {
        D.SrcID = std::stoull(Val);
        SawSrc = true;
      } else if (Key == "dst") {
        D.DstID = std::stoull(Val);
        SawDst = true;
      } else if (Key == "kind") {
        if (!kindFromName(Val, D.K)) {
          Why = "unknown dep kind '" + Val + "'";
          return false;
        }
        SawKind = true;
      } else {
        Why = "unknown key '" + Key + "'";
        return false;
      }
    }
    if (!SawHdr) {
      Why = "record missing header=";
      return false;
    }
    if (Word == "loop") {
      Out.Loops[D.HeaderID].Invocations += Invocations;
      Out.Loops[D.HeaderID].Iterations += Iterations;
      return true;
    }
    if (!SawSrc || !SawDst || !SawKind) {
      Why = "dep record missing src/dst/kind";
      return false;
    }
    Out.recordDep(D);
    return true;
  };
  return nir::forEachArtifactLine(A.Payload, Line, Err);
}

bool MemDepProfile::deserialize(const std::string &Text, MemDepProfile &Out,
                                std::string &Err) {
  nir::Artifact A;
  return nir::parseArtifact(nir::ArtifactKind::MemDep, Text, A, Err) &&
         decode(A, Out, Err);
}

void MemDepProfile::embed(nir::Module &M) {
  ModuleHash = nir::embedArtifact(M, nir::ArtifactKind::MemDep, payload());
}

bool MemDepProfile::fromModule(const nir::Module &M, MemDepProfile &Out,
                               std::string &Err) {
  nir::Artifact A;
  return nir::readCurrentArtifact(M, nir::ArtifactKind::MemDep, A, Err) &&
         decode(A, Out, Err);
}

//===----------------------------------------------------------------------===//
// Observer
//===----------------------------------------------------------------------===//

struct MemDepProfiler::Impl {
  /// One natural loop of the profiled module.
  struct LoopRec {
    nir::LoopStructure *L = nullptr;
    const Function *F = nullptr;
    uint64_t HeaderID = 0;
  };

  /// A dynamic context frame: either an active loop invocation or a call
  /// marker separating caller loops from callee blocks. Returns produce
  /// no event, so frames are unwound lazily at the next block event.
  struct Frame {
    enum Tag : uint8_t { CallMarker, LoopActivation } T = CallMarker;
    const Function *Callee = nullptr; ///< CallMarker
    LoopRec *L = nullptr;             ///< LoopActivation
    uint64_t InvocStart = 0;          ///< clock at loop entry
    uint64_t IterStart = 0;           ///< clock at current iteration start
  };

  /// Shadow state of one byte of memory.
  struct ByteState {
    uint64_t WId = 0, WT = 0; ///< last writer and its clock
    uint64_t RId = 0, RT = 0; ///< last reader and its clock
  };

  /// Shadow memory in pages of ByteState, one page per 4 KiB of address
  /// space.
  static constexpr unsigned PageBits = 12;
  using ShadowPages =
      nir::PageMap<std::array<ByteState, size_t(1) << PageBits>, PageBits>;

  MemDepProfile Profile;
  std::vector<Frame> Stack;
  ShadowPages Shadow;
  uint64_t Now = 0; ///< memory-access clock (monotone)

  // Static module indexes, built once at construction.
  std::vector<std::unique_ptr<nir::DominatorTree>> DTs;
  std::vector<std::unique_ptr<nir::LoopInfo>> LIs;
  std::vector<std::unique_ptr<LoopRec>> LoopStorage;
  std::unordered_map<const BasicBlock *, const Function *> FnOf;
  std::unordered_map<const BasicBlock *, LoopRec *> HeaderOf;
  std::unordered_map<const Instruction *, uint64_t> IdCache;

  explicit Impl(Module &M) {
    for (const auto &FPtr : M.getFunctions()) {
      Function *F = FPtr.get();
      if (F->isDeclaration())
        continue;
      for (const auto &BB : F->getBlocks())
        FnOf[BB.get()] = F;
      auto DT = std::make_unique<nir::DominatorTree>(*F);
      auto LI = std::make_unique<nir::LoopInfo>(*F, *DT);
      for (nir::LoopStructure *L : LI->getLoopsInPreorder()) {
        auto Rec = std::make_unique<LoopRec>();
        Rec->L = L;
        Rec->F = F;
        Rec->HeaderID = L->getHeaderID().value_or(0);
        HeaderOf[L->getHeader()] = Rec.get();
        LoopStorage.push_back(std::move(Rec));
      }
      DTs.push_back(std::move(DT));
      LIs.push_back(std::move(LI));
    }
  }

  uint64_t idOf(const Instruction *I) {
    auto It = IdCache.find(I);
    if (It != IdCache.end())
      return It->second;
    uint64_t Id = nir::instIDOf(I).value_or(0);
    IdCache.emplace(I, Id);
    return Id;
  }

  /// Unwinds frames invalidated by control arriving at a block of \p F:
  /// loop activations whose loop no longer contains the block, and call
  /// markers of calls that have returned.
  void unwind(const BasicBlock *BB, const Function *F) {
    while (!Stack.empty()) {
      Frame &Top = Stack.back();
      if (Top.T == Frame::CallMarker) {
        if (Top.Callee == F)
          break; // still inside this call
        Stack.pop_back();
        continue;
      }
      if (Top.L->F == F) {
        if (Top.L->L->contains(const_cast<BasicBlock *>(BB)))
          break; // still iterating this loop
        Stack.pop_back();
        continue;
      }
      Stack.pop_back(); // loop of a function we returned from
    }
  }

  void onBlock(const BasicBlock *BB) {
    auto FIt = FnOf.find(BB);
    if (FIt == FnOf.end())
      return;
    const Function *F = FIt->second;
    unwind(BB, F);

    auto HIt = HeaderOf.find(BB);
    if (HIt == HeaderOf.end())
      return;
    LoopRec *L = HIt->second;
    if (!Stack.empty() && Stack.back().T == Frame::LoopActivation &&
        Stack.back().L == L) {
      // Back edge: a new iteration of the active invocation. The clock
      // pre-increments, so the iteration owns accesses from Now+1 on —
      // using Now would disown the previous iteration's final access
      // (recordCarried's SrcT < IterStart must admit it as a source).
      Stack.back().IterStart = Now + 1;
      Profile.recordLoopIteration(L->HeaderID);
      return;
    }
    Frame Fr;
    Fr.T = Frame::LoopActivation;
    Fr.L = L;
    // Same boundary convention: the invocation owns accesses from Now+1,
    // so the previous invocation's final access (clock == Now) is not
    // misattributed to this one by recordCarried's SrcT >= InvocStart.
    Fr.InvocStart = Now + 1;
    Fr.IterStart = Now + 1;
    Stack.push_back(Fr);
    Profile.recordLoopEntry(L->HeaderID);
  }

  void onCall(const Function *Callee) {
    Frame Fr;
    Fr.T = Frame::CallMarker;
    Fr.Callee = Callee;
    Stack.push_back(Fr);
  }

  /// Records a carried dependence for every active loop whose current
  /// iteration began after the earlier access (same invocation, earlier
  /// iteration). Loops below a call marker stay active: a dependence
  /// carried through a callee is still carried by the caller's loop.
  void recordCarried(uint64_t SrcId, uint64_t SrcT, uint64_t DstId,
                     ManifestedDep::Kind K) {
    if (!SrcId || !DstId)
      return;
    for (const Frame &Fr : Stack) {
      if (Fr.T != Frame::LoopActivation || !Fr.L->HeaderID)
        continue;
      if (SrcT >= Fr.InvocStart && SrcT < Fr.IterStart) {
        ManifestedDep D;
        D.HeaderID = Fr.L->HeaderID;
        D.SrcID = SrcId;
        D.DstID = DstId;
        D.K = K;
        Profile.recordDep(D);
      }
    }
  }

  ByteState &shadow(uint64_t Addr) {
    return Shadow.page(Addr)[ShadowPages::offset(Addr)];
  }

  void onLoad(const Instruction *I, uint64_t Addr, unsigned Bytes) {
    ++Now;
    const uint64_t Id = I ? idOf(I) : 0;
    for (unsigned B = 0; B != Bytes; ++B) {
      ByteState &S = shadow(Addr + B);
      if (S.WT)
        recordCarried(S.WId, S.WT, Id, ManifestedDep::RAW);
      S.RId = Id;
      S.RT = Now;
    }
  }

  void onStore(const Instruction *I, uint64_t Addr, unsigned Bytes) {
    ++Now;
    const uint64_t Id = I ? idOf(I) : 0;
    for (unsigned B = 0; B != Bytes; ++B) {
      ByteState &S = shadow(Addr + B);
      if (S.RT)
        recordCarried(S.RId, S.RT, Id, ManifestedDep::WAR);
      if (S.WT)
        recordCarried(S.WId, S.WT, Id, ManifestedDep::WAW);
      S.WId = Id;
      S.WT = Now;
    }
  }
};

MemDepProfiler::MemDepProfiler(Module &M) : P(std::make_unique<Impl>(M)) {}
MemDepProfiler::~MemDepProfiler() = default;

void MemDepProfiler::onBlockExecuted(const BasicBlock *BB) {
  Profiler::onBlockExecuted(BB);
  P->onBlock(BB);
}
void MemDepProfiler::onCallExecuted(const nir::CallInst *Call,
                                    const Function *Callee) {
  Profiler::onCallExecuted(Call, Callee);
  P->onCall(Callee);
}
void MemDepProfiler::onLoadExecuted(const Instruction *I, uint64_t Addr,
                                    unsigned Bytes) {
  P->onLoad(I, Addr, Bytes);
}
void MemDepProfiler::onStoreExecuted(const Instruction *I, uint64_t Addr,
                                     unsigned Bytes) {
  P->onStore(I, Addr, Bytes);
}

MemDepProfile MemDepProfiler::takeProfile() {
  return std::move(P->Profile);
}

MemDepProfile noelle::profileMemDeps(Module &M) {
  if (!nir::hasDeterministicIDs(M))
    nir::assignDeterministicIDs(M);
  MemDepProfiler Prof(M);
  Profiler::profileModule(M, Prof).embed(M);
  return Prof.takeProfile();
}
