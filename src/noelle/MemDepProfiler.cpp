#include "noelle/MemDepProfiler.h"

#include "analysis/Dominators.h"
#include "ir/Artifact.h"
#include "ir/IDs.h"
#include "ir/Instructions.h"
#include "support/PageMap.h"
#include "support/PointerMap.h"

#include <algorithm>
#include <array>
#include <bitset>
#include <cinttypes>
#include <cstdio>
#include <deque>
#include <unordered_set>

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
      Out.recordLoop(D.HeaderID, Invocations, Iterations);
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
    const LoopRec *Parent = nullptr; ///< enclosing loop (same function)
    uint64_t HeaderID = 0;
    /// Counts of this run, added to the profile by takeProfile.
    uint64_t Invocations = 0, Iterations = 0;
  };

  /// One block of the profiled module, at its position in the base
  /// Profiler's block table (module order).
  struct BlockRec {
    const Function *F = nullptr;
    LoopRec *Heads = nullptr;           ///< the loop this block heads
    const LoopRec *Innermost = nullptr; ///< innermost loop containing it

    /// True when \p L contains this block: natural loops nest, so the
    /// loops containing a block are its innermost loop's parent chain.
    bool within(const LoopRec *L) const {
      for (const LoopRec *R = Innermost; R; R = R->Parent)
        if (R == L)
          return true;
      return false;
    }
  };

  /// A dynamic context frame: either an active loop invocation or a call
  /// marker separating caller loops from callee blocks. Returns produce
  /// no event, so frames are unwound lazily at the next block event.
  struct Frame {
    enum Tag : uint8_t { CallMarker, LoopActivation } T = CallMarker;
    const Function *Callee = nullptr; ///< CallMarker
    const LoopRec *L = nullptr;       ///< LoopActivation
    uint64_t InvocStart = 0;          ///< clock at loop entry
    uint64_t IterStart = 0;           ///< clock at current iteration start
  };

  /// Shadow state of one byte of memory.
  struct ByteState {
    uint64_t WId = 0, WT = 0; ///< last writer and its clock
    uint64_t RId = 0, RT = 0; ///< last reader and its clock
  };

  /// Shadow memory, one page per 4 KiB of address space. A word (aligned
  /// 8 bytes) has one ByteState that stands for all eight bytes until an
  /// access covers part of it; from then on the word is split and keeps
  /// one state per byte, in the page's byte states, allocated when its
  /// first word splits. Almost every access is a whole aligned word, so
  /// it reads and writes one state, and a page that never splits takes
  /// an eighth of the memory of per-byte states.
  static constexpr unsigned PageBits = 12;
  static constexpr size_t WordsPerPage = size_t(1) << (PageBits - 3);
  using SplitWord = std::array<ByteState, 8>;
  struct ShadowPage {
    std::array<ByteState, WordsPerPage> Words;
    std::bitset<WordsPerPage> Split;
    std::unique_ptr<std::array<SplitWord, WordsPerPage>> Bytes;
  };
  using ShadowPages = nir::PageMap<ShadowPage, PageBits>;

  /// A direct-mapped cache of recently used pages in front of the page
  /// map: loops walk a few arrays at once, which defeats the page map's
  /// own one-page cache.
  struct CachedPage {
    uint64_t PageNo = ~uint64_t(0);
    ShadowPage *Page = nullptr;
  };
  static constexpr unsigned PageCacheSize = 16;

  struct DepHash {
    size_t operator()(const ManifestedDep &D) const {
      uint64_t H = D.HeaderID * 0x9E3779B97F4A7C15ull;
      H = (H ^ D.SrcID) * 0xC2B2AE3D27D4EB4Full;
      H = (H ^ D.DstID) * 0x165667B19E3779F9ull;
      return size_t(H ^ (H >> 29) ^ D.K);
    }
  };

  MemDepProfile Profile;
  /// Every dependence recorded so far, behind a direct-mapped cache of
  /// recent ones: a loop re-manifests the same few dependences every
  /// iteration, and a compare is cheaper than a probe, which is cheaper
  /// than the profile's ordered insert.
  std::unordered_set<ManifestedDep, DepHash> Recorded;
  static constexpr unsigned RecentSize = 64;
  std::array<ManifestedDep, RecentSize> Recent{}; ///< HeaderID 0 = empty
  std::vector<Frame> Stack;
  ShadowPages Shadow;
  std::array<CachedPage, PageCacheSize> PageCache;
  uint64_t Now = 0; ///< memory-access clock (monotone)

  // Static module indexes, built once at construction.
  std::deque<LoopRec> Loops;
  std::vector<BlockRec> Blocks;
  nir::PointerMap<uint64_t> Ids; ///< instruction -> deterministic ID

  explicit Impl(Module &M) {
    for (const auto &FPtr : M.getFunctions()) {
      Function *F = FPtr.get();
      if (F->isDeclaration())
        continue;
      nir::DominatorTree DT(*F);
      nir::LoopInfo LI(*F, DT);
      std::unordered_map<const nir::LoopStructure *, LoopRec *> RecOf;
      for (nir::LoopStructure *L : LI.getLoopsInPreorder()) { // outer first
        LoopRec &Rec = Loops.emplace_back();
        Rec.Parent = L->getParentLoop() ? RecOf.at(L->getParentLoop())
                                        : nullptr;
        Rec.HeaderID = L->getHeaderID().value_or(0);
        RecOf[L] = &Rec;
      }
      for (const auto &BB : F->getBlocks()) {
        BlockRec &B = Blocks.emplace_back();
        B.F = F;
        // A header's innermost loop is the one it heads.
        const nir::LoopStructure *In = LI.getLoopFor(BB.get());
        B.Innermost = In ? RecOf.at(In) : nullptr;
        B.Heads = In && In->getHeader() == BB.get() ? RecOf.at(In) : nullptr;
        for (const auto &I : BB->getInstList())
          Ids.insert(I.get(), nir::instIDOf(I.get()).value_or(0));
      }
    }
  }

  uint64_t idOf(const Instruction *I) const {
    const uint64_t *Id = I ? Ids.find(I) : nullptr;
    return Id ? *Id : 0;
  }

  /// Unwinds frames invalidated by control arriving at block \p B: loop
  /// activations whose loop does not contain it (a loop of a function
  /// we returned from never does), and call markers of calls that have
  /// returned.
  void unwind(const BlockRec &B) {
    while (!Stack.empty()) {
      const Frame &Top = Stack.back();
      if (Top.T == Frame::CallMarker ? Top.Callee == B.F : B.within(Top.L))
        break; // still inside this call, or still iterating this loop
      Stack.pop_back();
    }
  }

  void onBlock(const BlockRec &B) {
    unwind(B);
    LoopRec *L = B.Heads;
    if (!L)
      return;
    if (!Stack.empty() && Stack.back().T == Frame::LoopActivation &&
        Stack.back().L == L) {
      // Back edge: a new iteration of the active invocation. The clock
      // pre-increments, so the iteration owns accesses from Now+1 on —
      // using Now would disown the previous iteration's final access
      // (recordCarried's SrcT < IterStart must admit it as a source).
      Stack.back().IterStart = Now + 1;
      ++L->Iterations;
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
    ++L->Invocations;
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
        ManifestedDep &Slot = Recent[DepHash()(D) % RecentSize];
        if (Slot == D)
          continue;
        Slot = D;
        if (Recorded.insert(D).second)
          Profile.recordDep(D);
      }
    }
  }

  ShadowPage &page(uint64_t Addr) {
    const uint64_t PageNo = Addr >> PageBits;
    CachedPage &C = PageCache[PageNo % PageCacheSize];
    if (C.PageNo != PageNo) {
      C.PageNo = PageNo;
      C.Page = &Shadow.page(Addr);
    }
    return *C.Page;
  }

  /// Calls \p Visit on the shadow states of [Addr, Addr + Bytes): once
  /// per word the access covers whole while the word is not split, and
  /// once per byte otherwise (splitting the word first).
  template <typename VisitFn>
  void forEachState(uint64_t Addr, unsigned Bytes, VisitFn Visit) {
    const uint64_t End = Addr + Bytes;
    while (Addr != End) {
      ShadowPage &P = page(Addr);
      const size_t W = ShadowPages::offset(Addr) >> 3;
      const unsigned Lo = Addr & 7;
      const unsigned Hi =
          static_cast<unsigned>(std::min<uint64_t>(8, End - (Addr & ~7ull)));
      if (!P.Split[W] && Lo == 0 && Hi == 8) {
        Visit(P.Words[W]);
      } else {
        if (!P.Bytes)
          P.Bytes = std::make_unique<std::array<SplitWord, WordsPerPage>>();
        SplitWord &Bs = (*P.Bytes)[W];
        if (!P.Split[W]) {
          Bs.fill(P.Words[W]);
          P.Split.set(W);
        }
        for (unsigned B = Lo; B != Hi; ++B)
          Visit(Bs[B]);
      }
      Addr += Hi - Lo;
    }
  }

  // The checks below run once per run of bytes whose earlier access
  // agrees (a clock stamps one access, so equal clocks mean one access):
  // once per access when its bytes were last touched together, and once
  // per word for a whole word that is not split. recordCarried depends
  // only on the earlier access and the stack, so the recorded set is the
  // one a check per byte would record.

  /// True when clock \p T starts a new run after \p Last, the clock of
  /// the run before it, and names an access (0 = never touched).
  static bool newRun(uint64_t T, uint64_t &Last) {
    if (T == Last)
      return false;
    Last = T;
    return T != 0;
  }

  void onLoad(const Instruction *I, uint64_t Addr, unsigned Bytes) {
    ++Now;
    const uint64_t Id = idOf(I);
    uint64_t LastWT = 0;
    forEachState(Addr, Bytes, [&](ByteState &S) {
      if (newRun(S.WT, LastWT))
        recordCarried(S.WId, S.WT, Id, ManifestedDep::RAW);
      S.RId = Id;
      S.RT = Now;
    });
  }

  void onStore(const Instruction *I, uint64_t Addr, unsigned Bytes) {
    ++Now;
    const uint64_t Id = idOf(I);
    uint64_t LastRT = 0, LastWT = 0;
    forEachState(Addr, Bytes, [&](ByteState &S) {
      if (newRun(S.RT, LastRT))
        recordCarried(S.RId, S.RT, Id, ManifestedDep::WAR);
      if (newRun(S.WT, LastWT))
        recordCarried(S.WId, S.WT, Id, ManifestedDep::WAW);
      S.WId = Id;
      S.WT = Now;
    });
  }
};

MemDepProfiler::MemDepProfiler(Module &M)
    : Profiler(M), P(std::make_unique<Impl>(M)) {}
MemDepProfiler::~MemDepProfiler() = default;

void MemDepProfiler::onBlockExecuted(const BasicBlock *BB) {
  const uint32_t Idx = countBlock(BB);
  if (Idx != NoBlock)
    P->onBlock(P->Blocks[Idx]);
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
  for (Impl::LoopRec &L : P->Loops)
    if (L.Invocations) {
      P->Profile.recordLoop(L.HeaderID, L.Invocations, L.Iterations);
      L.Invocations = L.Iterations = 0;
    }
  return std::move(P->Profile);
}

MemDepProfile noelle::profileMemDeps(Module &M) {
  if (!nir::hasDeterministicIDs(M))
    nir::assignDeterministicIDs(M);
  MemDepProfiler Prof(M);
  Profiler::profileModule(M, Prof).embed(M);
  return Prof.takeProfile();
}
