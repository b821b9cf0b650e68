#include "noelle/PDG.h"

#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "ir/Artifact.h"
#include "ir/IDs.h"
#include "ir/Instructions.h"
#include "runtime/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <algorithm>
#include <sstream>

using namespace noelle;
namespace telemetry = noelle::telemetry;
using nir::AliasResult;
using nir::AllocaInst;
using nir::BasicBlock;
using nir::BranchInst;
using nir::CallInst;
using nir::CastInst;
using nir::ConstantInt;
using nir::GEPInst;
using nir::GlobalVariable;
using nir::LoadInst;
using nir::PhiInst;
using nir::PostDominatorTree;
using nir::StoreInst;

namespace {

/// External functions that never touch program-visible memory (they
/// read their value arguments only, or allocate fresh storage).
bool isMemoryInertExternal(const Function *F) {
  static const char *Names[] = {
      "print_i64", "print_f64", "print_char", "malloc",   "free",
      "sqrt",      "fabs",      "exp",        "log",      "sin",
      "cos",       "pow",       "floor",      "clock_ns", "abort_if_false"};
  for (const char *N : Names)
    if (F->getName() == N)
      return true;
  return false;
}

bool mayAccessMemory(const Instruction *I) {
  if (nir::isa<LoadInst>(I) || nir::isa<StoreInst>(I) ||
      nir::isa<nir::VLoadInst>(I) || nir::isa<nir::VStoreInst>(I))
    return true;
  if (const auto *C = nir::dyn_cast<CallInst>(I)) {
    if (C->getMetadata("noelle.pure") == "true")
      return false;
    const Function *Callee = C->getCalledFunction();
    if (Callee && Callee->isDeclaration() && isMemoryInertExternal(Callee))
      return false;
    return true;
  }
  return false;
}

} // namespace

PDGBuilder::PDGBuilder(Module &M, PDGBuildOptions Opts)
    : M(M), Opts(Opts) {}

PDGBuilder::~PDGBuilder() = default;

void PDGBuilder::ensureAA() {
  if (AA)
    return;
  std::string AAName = Opts.AliasAnalysisName;
  if (AAName == "noelle")
    AAName = "andersen";
  else if (AAName == "llvm")
    AAName = "basic";
  AA = nir::createAliasAnalysis(AAName, M);
}

void PDGBuilder::invalidate() {
  WholePDG.reset();
  Deps.clear();
  ArtifactChecked = false;
  LoadedFromEmbedded = false;
  ArtifactStats = {};
  AA.reset();
  SummaryAA.reset();
  ReadSet.clear();
  WriteSet.clear();
  TouchesUnknown.clear();
  SummariesBuilt = false;
}

//===----------------------------------------------------------------------===//
// Mod/ref summaries (interprocedural, Andersen-powered)
//===----------------------------------------------------------------------===//

void PDGBuilder::buildModRefSummaries() {
  if (SummariesBuilt)
    return;
  SummariesBuilt = true;
  if (!Opts.UseModRefSummaries)
    return;
  SummaryAA = std::make_unique<nir::AndersenAliasAnalysis>(M);

  // Direct effects.
  for (const auto &F : M.getFunctions()) {
    if (F->isDeclaration())
      continue;
    auto &Reads = ReadSet[F.get()];
    auto &Writes = WriteSet[F.get()];
    bool &Unknown = TouchesUnknown[F.get()];
    Unknown = false;
    for (const auto &BB : F->getBlocks())
      for (const auto &I : BB->getInstList()) {
        nir::MemAccess Acc;
        if (nir::memoryAccessOf(I.get(), Acc)) {
          const auto &Pts = SummaryAA->getPointsTo(Acc.Ptr);
          if (Pts.empty())
            Unknown = true;
          auto &Dst = Acc.IsWrite ? Writes : Reads;
          Dst.insert(Pts.begin(), Pts.end());
        }
      }
  }

  // Transitive closure over calls.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const auto &F : M.getFunctions()) {
      if (F->isDeclaration())
        continue;
      auto &Reads = ReadSet[F.get()];
      auto &Writes = WriteSet[F.get()];
      bool &Unknown = TouchesUnknown[F.get()];
      for (const auto &BB : F->getBlocks())
        for (const auto &I : BB->getInstList()) {
          const auto *C = nir::dyn_cast<CallInst>(I.get());
          if (!C)
            continue;
          std::vector<Function *> Callees;
          if (Function *Direct = C->getCalledFunction()) {
            Callees.push_back(Direct);
          } else {
            Callees = SummaryAA->getIndirectCallees(C);
            if (Callees.empty() && !Unknown) {
              Unknown = true;
              Changed = true;
            }
          }
          for (Function *Callee : Callees) {
            if (Callee->isDeclaration()) {
              if (!isMemoryInertExternal(Callee) && !Unknown) {
                Unknown = true;
                Changed = true;
              }
              continue;
            }
            for (const Value *O : ReadSet[Callee])
              if (Reads.insert(O).second)
                Changed = true;
            for (const Value *O : WriteSet[Callee])
              if (Writes.insert(O).second)
                Changed = true;
            if (TouchesUnknown[Callee] && !Unknown) {
              Unknown = true;
              Changed = true;
            }
          }
        }
    }
  }
}

// Const lookups used from the (possibly concurrent) dependence jobs: the
// summary maps are frozen once buildModRefSummaries returns, and these
// never insert, so concurrent readers need no locking.
const std::set<const Value *> &
PDGBuilder::readSetOf(const Function *F) const {
  auto It = ReadSet.find(F);
  return It == ReadSet.end() ? EmptyValueSet : It->second;
}

const std::set<const Value *> &
PDGBuilder::writeSetOf(const Function *F) const {
  auto It = WriteSet.find(F);
  return It == WriteSet.end() ? EmptyValueSet : It->second;
}

bool PDGBuilder::touchesUnknown(const Function *F) const {
  auto It = TouchesUnknown.find(F);
  return It == TouchesUnknown.end() ? true : It->second;
}

bool PDGBuilder::callMayTouch(const CallInst *Call, const Value *Ptr) {
  if (Call->getMetadata("noelle.pure") == "true")
    return false;

  std::vector<Function *> Callees;
  if (Function *Direct = Call->getCalledFunction())
    Callees.push_back(Direct);

  if (!Opts.UseModRefSummaries) {
    // LLVM-like conservatism: any call may touch anything, except the
    // known memory-inert externals.
    if (Callees.size() == 1 && Callees[0]->isDeclaration())
      return !isMemoryInertExternal(Callees[0]);
    return true;
  }

  buildModRefSummaries();
  if (Callees.empty())
    Callees = SummaryAA->getIndirectCallees(Call);
  if (Callees.empty())
    return true;

  const auto &PtrObjs = SummaryAA->getPointsTo(Ptr);
  for (Function *Callee : Callees) {
    if (Callee->isDeclaration()) {
      if (!isMemoryInertExternal(Callee))
        return true;
      continue;
    }
    if (touchesUnknown(Callee))
      return true;
    if (PtrObjs.empty())
      return true;
    for (const Value *O : PtrObjs)
      if (readSetOf(Callee).count(O) || writeSetOf(Callee).count(O))
        return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// Per-function dependences
//===----------------------------------------------------------------------===//

void PDGBuilder::buildFunctionDeps(Function &F, FunctionDeps &D) {
  std::vector<PDG::EdgeT> &Out = D.Edges;
  PDG::Stats &Stats = D.Stats;
  auto MemDep = [&Out](Instruction *From, Instruction *To, DataDepKind Kind,
                       bool Must) {
    Out.push_back({.From = From,
                   .To = To,
                   .Kind = Kind,
                   .IsMemory = true,
                   .IsMust = Must});
  };

  // Register dependences from SSA def-use chains. An instruction's
  // instruction operands belong to its own function.
  for (const auto &BB : F.getBlocks())
    for (const auto &I : BB->getInstList())
      for (Value *Op : I->operands())
        if (nir::isa<Instruction>(Op))
          Out.push_back({.From = Op, .To = I.get(), .IsMust = true});

  // Memory dependences among loads/stores/calls.
  std::vector<Instruction *> MemInsts;
  for (const auto &BB : F.getBlocks())
    for (const auto &I : BB->getInstList())
      if (mayAccessMemory(I.get()))
        MemInsts.push_back(I.get());

  for (size_t A = 0; A < MemInsts.size(); ++A) {
    for (size_t B = A; B < MemInsts.size(); ++B) {
      Instruction *IA = MemInsts[A];
      Instruction *IB = MemInsts[B];
      nir::MemAccess MA, MB;
      bool AMem = nir::memoryAccessOf(IA, MA);
      bool BMem = nir::memoryAccessOf(IB, MB);
      bool ALoad = AMem && !MA.IsWrite;
      bool BLoad = BMem && !MB.IsWrite;
      bool AStore = AMem && MA.IsWrite;
      bool BStore = BMem && MB.IsWrite;
      bool ACall = nir::isa<CallInst>(IA);
      bool BCall = nir::isa<CallInst>(IB);

      // Load-load pairs carry no dependence.
      if (ALoad && BLoad)
        continue;
      // A self-pair only matters for stores/calls (loop-carried WAW).
      if (A == B && ALoad)
        continue;

      if (ACall && BCall) {
        ++Stats.MemoryPairsQueried;
        // Call-call ordering matters unless summaries prove both
        // write-free over disjoint state; keep it simple and sound.
        bool Dep = true;
        if (Opts.UseModRefSummaries) {
          buildModRefSummaries();
          auto Effects = [&](CallInst *C, std::set<const Value *> &R,
                             std::set<const Value *> &W) -> bool {
            std::vector<Function *> Cs;
            if (Function *D = C->getCalledFunction())
              Cs.push_back(D);
            else
              Cs = SummaryAA->getIndirectCallees(C);
            if (Cs.empty())
              return false;
            for (Function *Callee : Cs) {
              if (Callee->isDeclaration()) {
                if (!isMemoryInertExternal(Callee))
                  return false;
                continue;
              }
              if (touchesUnknown(Callee))
                return false;
              const auto &CR = readSetOf(Callee);
              const auto &CW = writeSetOf(Callee);
              R.insert(CR.begin(), CR.end());
              W.insert(CW.begin(), CW.end());
            }
            return true;
          };
          std::set<const Value *> RA, WA, RB, WB;
          if (Effects(nir::cast<CallInst>(IA), RA, WA) &&
              Effects(nir::cast<CallInst>(IB), RB, WB)) {
            auto Intersects = [](const std::set<const Value *> &X,
                                 const std::set<const Value *> &Y) {
              for (const Value *V : X)
                if (Y.count(V))
                  return true;
              return false;
            };
            Dep = Intersects(WA, RB) || Intersects(WA, WB) ||
                  Intersects(RA, WB);
          }
        }
        if (!Dep) {
          ++Stats.MemoryPairsDisproved;
          continue;
        }
        MemDep(IA, IB, DataDepKind::WAW, /*Must=*/false);
        if (A != B)
          MemDep(IB, IA, DataDepKind::WAW, /*Must=*/false);
        continue;
      }

      if (ACall || BCall) {
        Instruction *Call = ACall ? IA : IB;
        Instruction *Mem = ACall ? IB : IA;
        const Value *Ptr = ACall ? MB.Ptr : MA.Ptr;
        ++Stats.MemoryPairsQueried;
        if (!callMayTouch(nir::cast<CallInst>(Call), Ptr)) {
          ++Stats.MemoryPairsDisproved;
          continue;
        }
        bool MemIsStore = ACall ? MB.IsWrite : MA.IsWrite;
        // Call treated as a read+write of the location.
        MemDep(Call, Mem, MemIsStore ? DataDepKind::WAW : DataDepKind::RAW,
               /*Must=*/false);
        MemDep(Mem, Call, MemIsStore ? DataDepKind::RAW : DataDepKind::WAR,
               /*Must=*/false);
        continue;
      }

      // Plain load/store pairs (scalar or vector), disambiguated with
      // their byte extents so superword accesses stay sound.
      ++Stats.MemoryPairsQueried;
      AliasResult AR = AA->alias(MA.Ptr, nir::accessGranule(MA.Size),
                                 MB.Ptr, nir::accessGranule(MB.Size));
      if (AR == AliasResult::NoAlias) {
        ++Stats.MemoryPairsDisproved;
        continue;
      }
      bool Must = AR == AliasResult::MustAlias;
      if (AStore && BStore) {
        MemDep(IA, IB, DataDepKind::WAW, Must);
        if (A != B)
          MemDep(IB, IA, DataDepKind::WAW, Must);
      } else if (AStore && BLoad) {
        MemDep(IA, IB, DataDepKind::RAW, Must);
        MemDep(IB, IA, DataDepKind::WAR, Must);
      } else if (ALoad && BStore) {
        MemDep(IA, IB, DataDepKind::WAR, Must);
        MemDep(IB, IA, DataDepKind::RAW, Must);
      }
    }
  }

  buildControlDeps(F, Out);
}

void PDGBuilder::buildControlDeps(Function &F,
                                  std::vector<PDG::EdgeT> &Edges) {
  PostDominatorTree PDT(F);
  for (const auto &BB : F.getBlocks()) {
    auto *Br = nir::dyn_cast_or_null<BranchInst>(BB->getTerminator());
    if (!Br || !Br->isConditional())
      continue;
    // Blocks control-dependent on this branch: for each successor S that
    // does not post-dominate BB, walk S's post-dominator chain up to
    // (exclusive) ipdom(BB).
    BasicBlock *Stop = PDT.getIPDom(BB.get());
    for (unsigned SI = 0; SI < Br->getNumSuccessors(); ++SI) {
      BasicBlock *S = Br->getSuccessor(SI);
      if (PDT.postDominates(S, BB.get()) && S != BB.get())
        continue;
      BasicBlock *Cur = S;
      std::set<BasicBlock *> Seen;
      while (Cur && Cur != Stop && Seen.insert(Cur).second) {
        for (const auto &I : Cur->getInstList())
          Edges.push_back({.From = Br, .To = I.get(), .IsControl = true});
        Cur = PDT.getIPDom(Cur);
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// Whole-program / function / loop graphs
//===----------------------------------------------------------------------===//

void PDGBuilder::buildDeps(const std::vector<Function *> &Fns) {
  ensureAA();
  std::vector<FunctionDeps> Slots(Fns.size());
  auto Build = [this, &Fns, &Slots](size_t I) {
    const uint64_t T0 = telemetry::metricsEnabled() ? telemetry::nowNs() : 0;
    buildFunctionDeps(*Fns[I], Slots[I]);
    if (T0) {
      const uint64_t T1 = telemetry::nowNs();
      telemetry::count(telemetry::Counter::PDGFunctionsBuilt);
      telemetry::record(telemetry::Hist::PDGFnBuildNs, T1 - T0);
      telemetry::traceSpan("pdg.build:" + Fns[I]->getName(), T0, T1);
    }
  };
  if (Opts.ParallelBuild && Fns.size() > 1) {
    // The mod/ref summaries are read-only once built, so the jobs query
    // them (and the alias analyses) without locks; each job writes only
    // its own slot.
    if (Opts.UseModRefSummaries)
      buildModRefSummaries();
    std::vector<nir::ThreadPool::Job> Jobs;
    Jobs.reserve(Fns.size());
    for (size_t I = 0; I < Fns.size(); ++I)
      Jobs.push_back([&Build, I] { Build(I); });
    nir::analysisThreadPool().runIndependent(std::move(Jobs),
                                             Opts.Parallelism);
  } else {
    for (size_t I = 0; I < Fns.size(); ++I)
      Build(I);
  }
  for (size_t I = 0; I < Fns.size(); ++I)
    Deps.emplace(Fns[I], std::move(Slots[I]));
}

const PDGBuilder::FunctionDeps &PDGBuilder::depsOf(Function &F) {
  loadArtifact();
  auto It = Deps.find(&F);
  if (It == Deps.end()) {
    buildDeps({&F});
    It = Deps.find(&F);
  }
  return It->second;
}

PDG &PDGBuilder::getPDG() {
  if (WholePDG)
    return *WholePDG;
  loadArtifact();
  std::vector<Function *> Missing;
  for (const auto &F : M.getFunctions())
    if (!F->isDeclaration() && !Deps.count(F.get()))
      Missing.push_back(F.get());
  buildDeps(Missing);

  // Module function order, each list in its build order: the edge
  // sequence does not depend on which lists were built in parallel.
  WholePDG = std::make_unique<PDG>();
  PDG &G = *WholePDG;
  PDG::Stats &S = G.getStatsMutable();
  S = ArtifactStats;
  for (const auto &F : M.getFunctions())
    for (const auto &BB : F->getBlocks())
      for (const auto &I : BB->getInstList())
        G.addNode(I.get(), /*Internal=*/true);
  for (const auto &F : M.getFunctions()) {
    if (F->isDeclaration())
      continue;
    const FunctionDeps &D = Deps.at(F.get());
    for (const PDG::EdgeT &E : D.Edges)
      G.addEdgeTrusted(E);
    S.MemoryPairsQueried += D.Stats.MemoryPairsQueried;
    S.MemoryPairsDisproved += D.Stats.MemoryPairsDisproved;
  }
  return G;
}

std::unique_ptr<PDG> PDGBuilder::assembleView(Function &F,
                                              const LoopStructure *L) {
  const FunctionDeps &D = depsOf(F);
  auto G = std::make_unique<PDG>();
  for (const auto &BB : F.getBlocks())
    for (const auto &I : BB->getInstList())
      G->addNode(I.get(), !L || L->contains(I.get()));
  for (const auto &BB : F.getBlocks())
    for (const auto &I : BB->getInstList())
      for (Value *Op : I->operands())
        if (nir::isa<nir::Argument>(Op) || nir::isa<GlobalVariable>(Op)) {
          G->addNode(Op, /*Internal=*/false);
          if (!L || L->contains(I.get()))
            G->addRegisterDep(Op, I.get(), DataDepKind::RAW);
        }
  for (const PDG::EdgeT &E : D.Edges)
    G->addEdgeTrusted(E);
  return G;
}

std::unique_ptr<PDG> PDGBuilder::getFunctionDG(Function &F) {
  return assembleView(F, nullptr);
}

std::unique_ptr<PDG> PDGBuilder::getLoopDG(LoopStructure &L) {
  auto G = assembleView(*L.getFunction(), &L);
  refineLoopCarried(L, *G);
  return G;
}

//===----------------------------------------------------------------------===//
// Embedding: the PDG as IR metadata
//===----------------------------------------------------------------------===//

// Payload of the pdg artifact: "<pairs queried>,<pairs disproved>\n",
// then the edges
//   <from>:<to>:<bits>[:<distance>] ';' ...
// where from/to are instruction positions in module order and bits packs
// the edge attributes: bit0 control, bit1 memory, bit2 loop-carried,
// bit3 must, bits 4-5 the DataDepKind. The distance field is present
// only when known (!= -1).

void PDG::embed(Module &M) const {
  nir::assignDeterministicIDs(M);

  std::map<const Value *, uint64_t> PosOf;
  uint64_t NextPos = 0;
  for (const auto &F : M.getFunctions())
    for (const auto &BB : F->getBlocks())
      for (const auto &I : BB->getInstList())
        PosOf[I.get()] = NextPos++;

  std::ostringstream OS;
  OS << TheStats.MemoryPairsQueried << ',' << TheStats.MemoryPairsDisproved
     << '\n';
  bool First = true;
  for (const auto *E : getEdges()) {
    auto FromIt = PosOf.find(E->From);
    auto ToIt = PosOf.find(E->To);
    assert(FromIt != PosOf.end() && ToIt != PosOf.end() &&
           "embed requires a whole-program PDG over this module's "
           "instructions");
    unsigned Bits = (E->IsControl ? 1u : 0u) | (E->IsMemory ? 2u : 0u) |
                    (E->IsLoopCarried ? 4u : 0u) | (E->IsMust ? 8u : 0u) |
                    (static_cast<unsigned>(E->Kind) << 4);
    if (!First)
      OS << ';';
    First = false;
    OS << FromIt->second << ':' << ToIt->second << ':' << Bits;
    if (E->Distance != -1)
      OS << ':' << E->Distance;
  }
  nir::embedArtifact(M, nir::ArtifactKind::PDG, OS.str());
}

namespace {

/// Unsigned decimal parse without strtoull's locale machinery; the wire
/// format is machine-written, so anything non-numeric is corruption.
inline bool parseUInt(const char *&P, const char *End, uint64_t &Out) {
  const char *Start = P;
  uint64_t V = 0;
  while (P < End && *P >= '0' && *P <= '9')
    V = V * 10 + static_cast<uint64_t>(*P++ - '0');
  Out = V;
  return P != Start;
}

/// Decodes \p M's current pdg artifact into its stats and its edges, in
/// record order. False when \p M carries none, when it is stale or
/// unreadable, or when an edge does not join two instructions of one
/// function.
bool decodeArtifact(Module &M, PDG::Stats &Stats,
                    std::vector<PDG::EdgeT> &Edges) {
  nir::Artifact A;
  std::string Err;
  if (!nir::readCurrentArtifact(M, nir::ArtifactKind::PDG, A, Err))
    return false;
  const char *P = A.Payload.data();
  const char *End = P + A.Payload.size();
  PDG::Stats S;
  if (!parseUInt(P, End, S.MemoryPairsQueried) || P >= End || *P++ != ',' ||
      !parseUInt(P, End, S.MemoryPairsDisproved) || P >= End || *P++ != '\n')
    return false;

  // Edge endpoints are positions in the order embed() walked, which the
  // hash match just proved unchanged.
  std::vector<Instruction *> ByIndex;
  ByIndex.reserve(M.getNumInstructions());
  for (const auto &F : M.getFunctions())
    for (const auto &BB : F->getBlocks())
      for (const auto &I : BB->getInstList())
        ByIndex.push_back(I.get());

  while (P < End) {
    uint64_t FromID, ToID, Bits;
    if (!parseUInt(P, End, FromID) || P >= End || *P++ != ':')
      return false;
    if (!parseUInt(P, End, ToID) || P >= End || *P++ != ':')
      return false;
    if (!parseUInt(P, End, Bits))
      return false;
    int64_t Distance = -1;
    if (P < End && *P == ':') {
      ++P;
      uint64_t D;
      if (!parseUInt(P, End, D))
        return false;
      Distance = static_cast<int64_t>(D);
    }
    if (P < End && *P++ != ';')
      return false;

    if (FromID >= ByIndex.size() || ToID >= ByIndex.size() ||
        ByIndex[FromID]->getFunction() != ByIndex[ToID]->getFunction())
      return false;
    PDG::EdgeT E;
    E.From = ByIndex[FromID];
    E.To = ByIndex[ToID];
    E.IsControl = Bits & 1;
    E.IsMemory = Bits & 2;
    E.IsLoopCarried = Bits & 4;
    E.IsMust = Bits & 8;
    E.Kind = static_cast<DataDepKind>((Bits >> 4) & 3);
    E.Distance = Distance;
    Edges.push_back(E);
  }
  Stats = S;
  return true;
}

} // namespace

std::unique_ptr<PDG> PDG::loadEmbedded(Module &M) {
  auto G = std::make_unique<PDG>();
  std::vector<EdgeT> Edges;
  if (!decodeArtifact(M, G->TheStats, Edges))
    return nullptr;
  for (const auto &F : M.getFunctions())
    for (const auto &BB : F->getBlocks())
      for (const auto &I : BB->getInstList())
        G->addNode(I.get(), /*Internal=*/true);
  for (const EdgeT &E : Edges)
    G->addEdgeTrusted(E);
  return G;
}

void PDGBuilder::loadArtifact() {
  if (ArtifactChecked)
    return;
  ArtifactChecked = true;
  // The artifact holds what pdgEmbed builds; a builder at another
  // precision would adopt edges its own analyses do not compute.
  if (!Opts.UseEmbedded || Opts.AliasAnalysisName != "noelle" ||
      !Opts.UseModRefSummaries)
    return;
  std::vector<PDG::EdgeT> Edges;
  if (!decodeArtifact(M, ArtifactStats, Edges)) {
    telemetry::count(telemetry::Counter::PDGEmbeddedMiss);
    return;
  }
  telemetry::count(telemetry::Counter::PDGEmbeddedHit);
  LoadedFromEmbedded = true;
  for (const auto &F : M.getFunctions())
    if (!F->isDeclaration())
      Deps[F.get()];
  for (const PDG::EdgeT &E : Edges)
    Deps.at(nir::cast<Instruction>(E.From)->getFunction()).Edges.push_back(E);
}

//===----------------------------------------------------------------------===//
// Loop-carried refinement
//===----------------------------------------------------------------------===//

namespace {

/// True if \p V is loop-invariant w.r.t. \p L by a quick structural test
/// (constants, values defined outside the loop).
bool quickInvariant(const Value *V, const LoopStructure &L) {
  const auto *I = nir::dyn_cast<Instruction>(V);
  if (!I)
    return true; // constants, arguments, globals
  return !L.contains(I);
}

/// True if \p V is a strictly-monotonic affine induction expression of
/// loop \p L: a header phi stepped by a nonzero loop-invariant constant,
/// or such a phi plus/minus a loop-invariant value. When \p MinAbsStep is
/// given, it receives the smallest |constant step| across back edges.
bool isMonotonicAffineIV(const Value *V, const LoopStructure &L,
                         uint64_t *MinAbsStep = nullptr) {
  // Peel constant-offset adjustments.
  const Value *Cur = V;
  for (unsigned Peel = 0; Peel < 4; ++Peel) {
    if (const auto *B = nir::dyn_cast<nir::BinaryInst>(Cur)) {
      using Op = nir::BinaryInst::Op;
      if ((B->getOp() == Op::Add || B->getOp() == Op::Sub) &&
          quickInvariant(B->getRHS(), L)) {
        Cur = B->getLHS();
        continue;
      }
      if (B->getOp() == Op::Add && quickInvariant(B->getLHS(), L)) {
        Cur = B->getRHS();
        continue;
      }
    }
    break;
  }

  const auto *Phi = nir::dyn_cast<PhiInst>(Cur);
  if (!Phi || Phi->getParent() != L.getHeader())
    return false;

  // One incoming from inside must be phi +/- nonzero constant.
  for (unsigned K = 0; K < Phi->getNumIncoming(); ++K) {
    const BasicBlock *In = Phi->getIncomingBlock(K);
    if (!L.contains(In))
      continue;
    const auto *Step =
        nir::dyn_cast<nir::BinaryInst>(Phi->getIncomingValue(K));
    if (!Step)
      return false;
    using Op = nir::BinaryInst::Op;
    if (Step->getOp() != Op::Add && Step->getOp() != Op::Sub)
      return false;
    const Value *Base = Step->getLHS();
    const Value *Amount = Step->getRHS();
    if (Step->getOp() == Op::Add && Base != Phi)
      std::swap(Base, Amount);
    if (Base != Phi)
      return false;
    const auto *C = nir::dyn_cast<ConstantInt>(Amount);
    if (!C || C->isZero())
      return false;
    if (MinAbsStep) {
      const int64_t S = C->getValue();
      const uint64_t Abs = S < 0 ? static_cast<uint64_t>(-S)
                                 : static_cast<uint64_t>(S);
      *MinAbsStep = std::min(*MinAbsStep, Abs);
    }
  }
  return true;
}

/// Address characterization for the same-iteration test: base pointer +
/// index value + scale.
struct AddrKey {
  const Value *Base = nullptr;
  const Value *Index = nullptr;
  uint64_t Scale = 0;
  uint64_t AccessSize = 0;
  bool Valid = false;
};

AddrKey addrKeyOf(const Instruction *I) {
  nir::MemAccess Acc;
  if (!nir::memoryAccessOf(I, Acc))
    return {};
  const Value *Ptr = Acc.Ptr;
  AddrKey K;
  K.AccessSize = Acc.Size;
  if (const auto *G = nir::dyn_cast<GEPInst>(Ptr)) {
    K.Base = G->getBase();
    K.Index = G->getIndex();
    K.Scale = G->getScale();
    K.Valid = true;
    return K;
  }
  K.Base = Ptr;
  K.Index = nullptr;
  K.Valid = true;
  return K;
}

} // namespace

void PDGBuilder::refineAllLoopCarried() {
  PDG &G = getPDG();
  for (const auto &F : M.getFunctions()) {
    if (F->isDeclaration())
      continue;
    nir::DominatorTree DT(*F);
    nir::LoopInfo LI(*F, DT);
    // Preorder visits outer loops before inner ones; refining inner
    // loops last leaves every edge with the verdict of its innermost
    // enclosing loop.
    for (LoopStructure *L : LI.getLoopsInPreorder())
      refineLoopCarried(*L, G);
  }
}

void PDGBuilder::refineLoopCarried(LoopStructure &L, PDG &G) {
  for (auto *E : G.getEdges()) {
    auto *From = nir::dyn_cast<Instruction>(E->From);
    auto *To = nir::dyn_cast<Instruction>(E->To);
    if (!From || !To || !L.contains(From) || !L.contains(To))
      continue;

    if (E->IsControl)
      continue;

    if (!E->IsMemory) {
      // A register dependence is loop-carried iff it feeds a header phi
      // through a latch edge (the value crosses the back edge).
      auto *Phi = nir::dyn_cast<PhiInst>(To);
      if (Phi && Phi->getParent() == L.getHeader()) {
        for (unsigned K = 0; K < Phi->getNumIncoming(); ++K)
          if (Phi->getIncomingValue(K) == From &&
              L.contains(Phi->getIncomingBlock(K))) {
            E->IsLoopCarried = true;
            E->Distance = 1;
          }
      }
      continue;
    }

    // Memory dependences: conservatively loop-carried, unless both
    // accesses hit the same address every iteration through a
    // strictly-monotonic affine index (then each iteration touches a
    // distinct location, so the dependence cannot cross iterations).
    E->IsLoopCarried = true;

    // Self-dependences of a store through an injective IV address are
    // not real: each iteration writes a different location.
    AddrKey KA = addrKeyOf(From);
    AddrKey KB = addrKeyOf(To);
    if (KA.Valid && KB.Valid && KA.Base == KB.Base &&
        KA.Index == KB.Index && KA.Scale == KB.Scale) {
      uint64_t MinStep = UINT64_MAX;
      if (KA.Index && isMonotonicAffineIV(KA.Index, L, &MinStep)) {
        // Scalar accesses (one granule) advance past themselves on any
        // nonzero step; a superword access additionally needs the address
        // stride per iteration to clear its full extent.
        const uint64_t MaxSize = std::max(KA.AccessSize, KB.AccessSize);
        const bool StrideClears =
            MaxSize <= 8 ||
            (MinStep != UINT64_MAX && KA.Scale != 0 &&
             MinStep <= UINT64_MAX / KA.Scale && MinStep * KA.Scale >= MaxSize);
        if (StrideClears) {
          E->IsLoopCarried = false;
          E->Distance = 0;
        }
      } else if (!KA.Index && From == To) {
        // Same scalar location every iteration: a self WAW on a fixed
        // address is genuinely loop-carried; keep it.
      }
    }
  }
}
