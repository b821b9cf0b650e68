#include "noelle/MemDepProfiler.h"

#include "analysis/Dominators.h"
#include "ir/IDs.h"
#include "ir/Instructions.h"

#include <array>
#include <cinttypes>
#include <cstdio>
#include <sstream>

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

/// Splits "key=value"; returns false on malformed tokens.
bool splitKV(const std::string &Tok, std::string &Key, std::string &Val) {
  size_t Eq = Tok.find('=');
  if (Eq == std::string::npos || Eq == 0)
    return false;
  Key = Tok.substr(0, Eq);
  Val = Tok.substr(Eq + 1);
  return true;
}

} // namespace

std::string MemDepProfile::serialize() const {
  std::string Out = "memdep v1\n";
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "hash %016" PRIx64 "\n", ModuleHash);
  Out += Buf;
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

bool MemDepProfile::deserialize(const std::string &Text, MemDepProfile &Out,
                                std::string &Err) {
  Out = MemDepProfile();
  std::istringstream In(Text);
  std::string Line;
  unsigned LineNo = 0;
  bool SawHeader = false, SawHash = false;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    std::istringstream LS(Line);
    std::string Word;
    LS >> Word;
    if (Word == "memdep") {
      std::string Version;
      LS >> Version;
      if (Version != "v1") {
        Err = "line " + std::to_string(LineNo) +
              ": unsupported memdep version '" + Version + "'";
        return false;
      }
      SawHeader = true;
      continue;
    }
    if (Word == "hash") {
      std::string Hex;
      LS >> Hex;
      uint64_t H = 0;
      if (Hex.empty() || std::sscanf(Hex.c_str(), "%" SCNx64, &H) != 1) {
        Err = "line " + std::to_string(LineNo) + ": malformed hash";
        return false;
      }
      Out.ModuleHash = H;
      SawHash = true;
      continue;
    }
    if (Word != "loop" && Word != "dep") {
      Err = "line " + std::to_string(LineNo) + ": unknown record '" + Word +
            "'";
      return false;
    }
    uint64_t Header = 0, Src = 0, Dst = 0, Invocations = 0, Iterations = 0;
    ManifestedDep::Kind K = ManifestedDep::RAW;
    bool SawHdr = false, SawSrc = false, SawDst = false, SawKind = false;
    std::string Tok;
    while (LS >> Tok) {
      std::string Key, Val;
      if (!splitKV(Tok, Key, Val)) {
        Err = "line " + std::to_string(LineNo) + ": malformed token '" +
              Tok + "'";
        return false;
      }
      try {
        if (Key == "header") {
          Header = std::stoull(Val);
          SawHdr = true;
        } else if (Key == "invocations") {
          Invocations = std::stoull(Val);
        } else if (Key == "iterations") {
          Iterations = std::stoull(Val);
        } else if (Key == "src") {
          Src = std::stoull(Val);
          SawSrc = true;
        } else if (Key == "dst") {
          Dst = std::stoull(Val);
          SawDst = true;
        } else if (Key == "kind") {
          if (!kindFromName(Val, K)) {
            Err = "line " + std::to_string(LineNo) + ": unknown dep kind '" +
                  Val + "'";
            return false;
          }
          SawKind = true;
        } else {
          Err = "line " + std::to_string(LineNo) + ": unknown key '" + Key +
                "'";
          return false;
        }
      } catch (const std::exception &) {
        Err = "line " + std::to_string(LineNo) + ": bad number in '" + Tok +
              "'";
        return false;
      }
    }
    if (!SawHdr) {
      Err = "line " + std::to_string(LineNo) + ": record missing header=";
      return false;
    }
    if (Word == "loop") {
      Out.Loops[Header].Invocations += Invocations;
      Out.Loops[Header].Iterations += Iterations;
    } else {
      if (!SawSrc || !SawDst || !SawKind) {
        Err = "line " + std::to_string(LineNo) +
              ": dep record missing src/dst/kind";
        return false;
      }
      ManifestedDep D;
      D.HeaderID = Header;
      D.SrcID = Src;
      D.DstID = Dst;
      D.K = K;
      Out.recordDep(D);
    }
  }
  if (!SawHeader) {
    Err = "missing 'memdep v1' header";
    return false;
  }
  if (!SawHash) {
    Err = "missing 'hash' record";
    return false;
  }
  return true;
}

void MemDepProfile::embed(nir::Module &M) {
  ModuleHash = M.getContentHash();
  M.setModuleMetadata(MemDepEmbedKey, serialize());
}

bool MemDepProfile::fromModule(nir::Module &M, MemDepProfile &Out,
                               std::string &Err, bool RequireHashMatch) {
  if (!M.hasModuleMetadata(MemDepEmbedKey)) {
    Err = "module carries no embedded memory-dependence profile";
    return false;
  }
  if (!deserialize(M.getModuleMetadata(MemDepEmbedKey), Out, Err))
    return false;
  if (RequireHashMatch && Out.ModuleHash != M.getContentHash()) {
    Err = "embedded memory-dependence profile is bound to a different "
          "module (content hash mismatch)";
    return false;
  }
  return true;
}

void MemDepProfile::clean(nir::Module &M) {
  M.removeModuleMetadata(MemDepEmbedKey);
}

bool MemDepProfile::isEmbedded(const nir::Module &M) {
  return M.hasModuleMetadata(MemDepEmbedKey);
}

//===----------------------------------------------------------------------===//
// Observer
//===----------------------------------------------------------------------===//

namespace {

uint64_t instIdOf(const Instruction *I) {
  std::string S = I->getMetadata(nir::InstIDKey);
  if (S.empty())
    return 0;
  uint64_t N = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return 0;
    N = N * 10 + static_cast<uint64_t>(C - '0');
  }
  return N;
}

} // namespace

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
  /// space, allocated zeroed on first touch. Accesses cluster, so the
  /// last page used is cached in front of the page map.
  static constexpr unsigned PageBits = 12;
  using ShadowPage = std::array<ByteState, size_t(1) << PageBits>;

  MemDepProfile Profile;
  std::vector<Frame> Stack;
  std::unordered_map<uint64_t, std::unique_ptr<ShadowPage>> Shadow;
  uint64_t LastPageNo = ~uint64_t(0);
  ShadowPage *LastPage = nullptr;
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
        if (!L->getHeader()->getInstList().empty())
          Rec->HeaderID =
              instIdOf(L->getHeader()->getInstList().front().get());
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
    uint64_t Id = instIdOf(I);
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
    const uint64_t PageNo = Addr >> PageBits;
    if (PageNo != LastPageNo) {
      std::unique_ptr<ShadowPage> &Page = Shadow[PageNo];
      if (!Page)
        Page = std::make_unique<ShadowPage>();
      LastPageNo = PageNo;
      LastPage = Page.get();
    }
    return (*LastPage)[Addr & ((uint64_t(1) << PageBits) - 1)];
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
  if (nir::buildInstructionIndex(M).empty())
    nir::assignDeterministicIDs(M);
  MemDepProfiler Prof(M);
  Profiler::profileModule(M, Prof).embed(M);
  return Prof.takeProfile();
}
