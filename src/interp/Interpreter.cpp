#include "interp/Interpreter.h"

#include "runtime/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>

#include <sys/mman.h>

using namespace nir;
namespace telemetry = noelle::telemetry;

namespace {

/// Tag prefix for function values stored in runtime slots. Host heap
/// addresses never carry the top byte 0xFE.
constexpr uint64_t FunctionTag = 0xFE00000000000000ull;

/// Live stack-frame memory regions, for CARAT's validity checks.
struct FrameRegistry {
  std::mutex Mutex;
  std::set<std::pair<uint64_t, uint64_t>> Regions; // (start, size)

  void add(uint64_t Start, uint64_t Size) {
    if (!Size)
      return;
    std::lock_guard<std::mutex> Lock(Mutex);
    Regions.insert({Start, Size});
  }
  void remove(uint64_t Start, uint64_t Size) {
    if (!Size)
      return;
    std::lock_guard<std::mutex> Lock(Mutex);
    Regions.erase({Start, Size});
  }
  bool contains(uint64_t Addr, uint64_t Bytes) {
    std::lock_guard<std::mutex> Lock(Mutex);
    for (const auto &[Start, Size] : Regions)
      if (Addr >= Start && Addr + Bytes <= Start + Size)
        return true;
    return false;
  }
};

FrameRegistry &frameRegistry() {
  static FrameRegistry R;
  return R;
}

thread_local uint64_t ThreadRetired = 0;

} // namespace

//===----------------------------------------------------------------------===//
// Decoded representation: flat threaded code
//===----------------------------------------------------------------------===//

namespace nir {

namespace {

enum class Opc : uint16_t {
#define NIR_OPCODE(name) name,
#include "interp/Opcodes.def"
};

inline Opc opcAdd(Opc Base, unsigned Off) {
  return static_cast<Opc>(static_cast<uint16_t>(Base) + Off);
}

/// One pooled phi-edge move: R[Dst] = R[Src].
struct Move {
  uint32_t Dst;
  uint32_t Src;
};

/// One decoded instruction. Operand fields address the unified register
/// file ([0, NumRegs) SSA slots, then one scratch slot, then the constant
/// pool); control-flow fields hold both the successor block index (for
/// the observer tier) and the resolved pc (fixed up after emission).
struct DInst {
  Opc Op;
  int32_t Dst = -1;
  uint32_t A = 0, B = 0, C = 0;
  uint32_t Scl = 0;
  int64_t Imm = 0;
  int32_t S0 = -1, S1 = -1;                    ///< branch target pcs
  uint32_t T0 = 0, T1 = 0;                     ///< successor block indices
  uint32_t M0B = 0, M0E = 0, M1B = 0, M1E = 0; ///< edge-move ranges
  uint32_t ArgsB = 0, ArgsE = 0;               ///< call args in ArgPool
  uint64_t BlockRetire = 0; ///< terminators: original block size
  uint64_t OrigSoFar = 0;   ///< calls: phis + original non-phi idx + 1
  const Instruction *Orig = nullptr;
  Function *DirectCallee = nullptr;
  std::atomic<ExecutionEngine::DecodedFunction *> *CalleeSlot = nullptr;
  int32_t ExternalId = -1;
};

} // namespace

struct ExecutionEngine::DecodedFunction {
  Function *F = nullptr;
  std::vector<DInst> Code;
  std::vector<Move> Moves;          ///< pooled phi-edge moves
  std::vector<uint32_t> ArgPool;    ///< pooled call-argument registers
  std::vector<RuntimeValue> Consts; ///< decode-time constant pool
  std::vector<const BasicBlock *> BlockBB; ///< block index -> IR block
  std::vector<uint32_t> BlockPc;           ///< block index -> first pc
  /// Fused superinstructions emitted into each block. The observed tier
  /// charges this to the telemetry fire counter on block entry (the fast
  /// tiers never read it, so their code is untouched).
  std::vector<uint32_t> BlockFused;
  uint32_t NumRegs = 0;  ///< args + value-producing instructions
  uint32_t FileSize = 0; ///< NumRegs + 1 scratch + constant pool
  uint64_t FrameBytes = 0;
  /// True when edge moves were sequentialized at decode time (apply in
  /// order); false applies simultaneous-assignment semantics at runtime.
  bool SeqMoves = false;
};

//===----------------------------------------------------------------------===//
// Decode-time arithmetic: these replicate the execution handlers exactly,
// so a folded result is bit-identical to the value the loop would compute.
//===----------------------------------------------------------------------===//

namespace {

uint8_t memSizeOf(const Type *Ty) {
  switch (Ty->getKind()) {
  case Type::Kind::Int1:
  case Type::Kind::Int8:
    return 1;
  case Type::Kind::Int32:
    return 4;
  default:
    return 8;
  }
}

inline double immF(int64_t Bits) {
  double D;
  std::memcpy(&D, &Bits, 8);
  return D;
}

inline uint64_t bitsOfF(double D) {
  uint64_t B;
  std::memcpy(&B, &D, 8);
  return B;
}

/// Signed division with the divide-by-zero -> 0 convention; INT64_MIN/-1
/// wraps (two's complement) instead of trapping.
inline int64_t sdivW(int64_t L, int64_t R) {
  if (R == 0)
    return 0;
  if (R == -1)
    return static_cast<int64_t>(0 - static_cast<uint64_t>(L));
  return L / R;
}

inline int64_t sremW(int64_t L, int64_t R) {
  if (R == 0 || R == -1)
    return 0;
  return L % R;
}

uint64_t foldBinary(BinaryInst::Op Op, uint64_t LB, uint64_t RB) {
  const int64_t L = static_cast<int64_t>(LB), R = static_cast<int64_t>(RB);
  switch (Op) {
  case BinaryInst::Op::Add:
    return LB + RB;
  case BinaryInst::Op::Sub:
    return LB - RB;
  case BinaryInst::Op::Mul:
    return LB * RB;
  case BinaryInst::Op::SDiv:
    return static_cast<uint64_t>(sdivW(L, R));
  case BinaryInst::Op::SRem:
    return static_cast<uint64_t>(sremW(L, R));
  case BinaryInst::Op::And:
    return LB & RB;
  case BinaryInst::Op::Or:
    return LB | RB;
  case BinaryInst::Op::Xor:
    return LB ^ RB;
  case BinaryInst::Op::Shl:
    return LB << (R & 63);
  case BinaryInst::Op::AShr:
    return static_cast<uint64_t>(L >> (R & 63));
  case BinaryInst::Op::FAdd:
    return bitsOfF(immF(L) + immF(R));
  case BinaryInst::Op::FSub:
    return bitsOfF(immF(L) - immF(R));
  case BinaryInst::Op::FMul:
    return bitsOfF(immF(L) * immF(R));
  case BinaryInst::Op::FDiv:
    return bitsOfF(immF(L) / immF(R));
  }
  return 0;
}

uint64_t foldCmp(CmpInst::Pred P, uint64_t LB, uint64_t RB) {
  const int64_t L = static_cast<int64_t>(LB), R = static_cast<int64_t>(RB);
  const double LF = immF(L), RF = immF(R);
  bool B = false;
  switch (P) {
  case CmpInst::Pred::EQ:
    B = L == R;
    break;
  case CmpInst::Pred::NE:
    B = L != R;
    break;
  case CmpInst::Pred::SLT:
    B = L < R;
    break;
  case CmpInst::Pred::SLE:
    B = L <= R;
    break;
  case CmpInst::Pred::SGT:
    B = L > R;
    break;
  case CmpInst::Pred::SGE:
    B = L >= R;
    break;
  case CmpInst::Pred::FEQ:
    B = LF == RF;
    break;
  case CmpInst::Pred::FNE:
    B = LF != RF;
    break;
  case CmpInst::Pred::FLT:
    B = LF < RF;
    break;
  case CmpInst::Pred::FLE:
    B = LF <= RF;
    break;
  case CmpInst::Pred::FGT:
    B = LF > RF;
    break;
  case CmpInst::Pred::FGE:
    B = LF >= RF;
    break;
  }
  return B ? 1 : 0;
}

uint64_t foldCast(CastInst::Op Op, Type::Kind SrcK, uint8_t DstSize,
                  uint64_t VB) {
  const int64_t V = static_cast<int64_t>(VB);
  switch (Op) {
  case CastInst::Op::SExt:
    // Canonical i8/i1 are zero-extended; re-sign-extend from width.
    if (SrcK == Type::Kind::Int8)
      return static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int8_t>(V)));
    if (SrcK == Type::Kind::Int1)
      return (V & 1) ? ~uint64_t(0) : 0;
    return VB; // i32 held sign-extended already
  case CastInst::Op::ZExt:
    if (SrcK == Type::Kind::Int32)
      return static_cast<uint32_t>(V);
    return VB; // i8/i1 canonical form is zero-extended
  case CastInst::Op::Trunc:
    if (DstSize == 4)
      return static_cast<uint64_t>(
          static_cast<int64_t>(static_cast<int32_t>(V)));
    if (DstSize == 1)
      return VB & 0xFF;
    return VB;
  case CastInst::Op::SIToFP:
    return bitsOfF(static_cast<double>(V));
  case CastInst::Op::FPToSI:
    return static_cast<uint64_t>(static_cast<int64_t>(immF(V)));
  case CastInst::Op::PtrToInt:
  case CastInst::Op::IntToPtr:
  case CastInst::Op::Bitcast:
    return VB;
  }
  return VB;
}

/// Orders a parallel copy (unique destinations) into a sequential move
/// list, routing cycles through the scratch register.
void sequentializeMoves(std::vector<Move> &Mv, uint32_t Scratch) {
  if (Mv.size() < 2)
    return;
  std::vector<Move> Out;
  Out.reserve(Mv.size() + 2);
  std::vector<Move> Pend = std::move(Mv);
  while (!Pend.empty()) {
    bool Progress = false;
    for (size_t I = 0; I < Pend.size();) {
      bool DstIsPendingSrc = false;
      for (size_t J = 0; J < Pend.size(); ++J)
        if (J != I && Pend[J].Src == Pend[I].Dst) {
          DstIsPendingSrc = true;
          break;
        }
      if (!DstIsPendingSrc) {
        Out.push_back(Pend[I]);
        Pend.erase(Pend.begin() + I);
        Progress = true;
      } else {
        ++I;
      }
    }
    if (!Progress && !Pend.empty()) {
      // Every pending destination is still a pending source: a cycle.
      // Save the first move's about-to-be-clobbered destination and
      // redirect its readers to the scratch slot.
      const uint32_t Clobbered = Pend.front().Dst;
      Out.push_back({Scratch, Clobbered});
      for (auto &P : Pend)
        if (P.Src == Clobbered)
          P.Src = Scratch;
    }
  }
  Mv = std::move(Out);
}

/// Applies one edge's move range. Sequentialized lists run in order;
/// reference lists use read-all-then-write simultaneous semantics.
inline void applyEdgeMoves(RuntimeValue *R, const Move *Mv, uint32_t B,
                           uint32_t E, bool Seq) {
  if (Seq) {
    for (uint32_t I = B; I != E; ++I)
      R[Mv[I].Dst] = R[Mv[I].Src];
    return;
  }
  RuntimeValue Tmp[64];
  std::vector<RuntimeValue> Ov;
  RuntimeValue *T = Tmp;
  const uint32_t N = E - B;
  if (N > 64) {
    Ov.resize(N);
    T = Ov.data();
  }
  for (uint32_t I = 0; I != N; ++I)
    T[I] = R[Mv[B + I].Src];
  for (uint32_t I = 0; I != N; ++I)
    R[Mv[B + I].Dst] = T[I];
}

} // namespace

//===----------------------------------------------------------------------===//
// Decoding
//===----------------------------------------------------------------------===//

ExecutionEngine::DecodedFunction &ExecutionEngine::getDecoded(Function *F) {
  // Lock-free fast path: functions registered at construction have a
  // dense id whose cache slot is published (release) once decoding
  // finishes, so concurrent tasks re-entering a hot function never touch
  // the decode mutex.
  std::atomic<DecodedFunction *> *Slot = nullptr;
  {
    auto IdIt = FunctionIds.find(F); // map is immutable after construction
    if (IdIt != FunctionIds.end()) {
      Slot = &DecodedById[IdIt->second];
      if (DecodedFunction *Hit = Slot->load(std::memory_order_acquire)) {
        telemetry::count(telemetry::Counter::DecodeHit);
        return *Hit;
      }
    }
  }

  std::lock_guard<std::mutex> Lock(DecodeMutex);
  if (Slot) {
    if (DecodedFunction *Hit = Slot->load(std::memory_order_relaxed)) {
      telemetry::count(telemetry::Counter::DecodeHit);
      return *Hit;
    }
  } else {
    // Function created after engine construction: fall back to a map.
    auto It = DecodedOverflow.find(F);
    if (It != DecodedOverflow.end()) {
      telemetry::count(telemetry::Counter::DecodeHit);
      return *It->second;
    }
  }

  const uint64_t DecodeT0 =
      telemetry::metricsEnabled() ? telemetry::nowNs() : 0;
  auto DF = std::make_unique<DecodedFunction>();
  DF->F = F;
  const bool Opt = Opts.DecodeOpt;
  DF->SeqMoves = Opt;

  // Register numbering: arguments first, then value-producing
  // instructions. Every SSA value keeps a slot even when folding or
  // fusion ends up never writing it; numbering stays independent of the
  // optimization decisions.
  std::map<const Value *, uint32_t> RegOf;
  uint32_t NextReg = 0;
  for (unsigned I = 0; I < F->getNumArgs(); ++I)
    RegOf[F->getArg(I)] = NextReg++;
  for (const auto &BB : F->getBlocks())
    for (const auto &Inst : BB->getInstList())
      if (!Inst->getType()->isVoid()) {
        RegOf[Inst.get()] = NextReg;
        // A vector value owns one slot per lane; its base register is
        // the SSA slot and lanes live at base .. base+lanes.
        NextReg += Inst->getType()->isVector()
                       ? static_cast<uint32_t>(
                             Inst->getType()->getVectorNumLanes())
                       : 1;
      }
  DF->NumRegs = NextReg;
  const uint32_t ScratchReg = NextReg; // constant pool starts after it

  // Phi result registers are rewritten on every edge; they are the one
  // class of register that is not single-assignment, so copy propagation
  // and cross-block flattening must never read through them.
  std::set<uint32_t> PhiRegs;
  for (const auto &BB : F->getBlocks())
    for (const auto &Inst : BB->getInstList())
      if (isa<PhiInst>(Inst.get()))
        PhiRegs.insert(RegOf.at(Inst.get()));

  // Block numbering, in layout order (entry first).
  std::map<const BasicBlock *, uint32_t> BlockIdx;
  for (const auto &BB : F->getBlocks()) {
    BlockIdx[BB.get()] = static_cast<uint32_t>(DF->BlockBB.size());
    DF->BlockBB.push_back(BB.get());
  }

  // Constant pool, deduplicated by bit pattern. Slots live after the
  // scratch register in the frame's register file.
  std::map<uint64_t, uint32_t> ConstSlot;
  auto InternBits = [&](uint64_t Bits) -> uint32_t {
    auto It = ConstSlot.find(Bits);
    if (It != ConstSlot.end())
      return ScratchReg + 1 + It->second;
    uint32_t SlotIdx = static_cast<uint32_t>(DF->Consts.size());
    ConstSlot.emplace(Bits, SlotIdx);
    DF->Consts.push_back(RuntimeValue::ofPtr(Bits));
    return ScratchReg + 1 + SlotIdx;
  };

  // Decode-time value facts, filled by the optimization pre-pass.
  std::map<const Value *, uint64_t> KnownBits; // results folded to consts
  std::map<const Value *, uint32_t> AliasReg;  // copy-propagated results
  std::set<const Instruction *> Elided;        // fused producers: no code
  std::map<const Instruction *, const GEPInst *> FusedAddr; // ld/st -> gep
  std::map<const BranchInst *, const CmpInst *> FusedCmp;
  std::map<const BinaryInst *, const BinaryInst *> FusedMul; // add -> mul

  auto ConstBits = [&](const Value *V, uint64_t &Bits) -> bool {
    if (const auto *CI = dyn_cast<ConstantInt>(V)) {
      Bits = static_cast<uint64_t>(CI->getValue());
      return true;
    }
    if (const auto *CF = dyn_cast<ConstantFP>(V)) {
      Bits = bitsOfF(CF->getValue());
      return true;
    }
    if (isa<UndefValue>(V)) {
      Bits = 0;
      return true;
    }
    if (const auto *G = dyn_cast<GlobalVariable>(V)) {
      Bits = getGlobalAddress(G);
      return true;
    }
    if (const auto *Fn = dyn_cast<Function>(V)) {
      Bits = encodeFunction(Fn);
      return true;
    }
    auto It = KnownBits.find(V);
    if (It != KnownBits.end()) {
      Bits = It->second;
      return true;
    }
    return false;
  };

  auto ResolveReg = [&](const Value *V) -> uint32_t {
    auto It = AliasReg.find(V);
    if (It != AliasReg.end())
      return It->second;
    return RegOf.at(V);
  };

  auto OperandReg = [&](const Value *V) -> uint32_t {
    uint64_t Bits;
    if (ConstBits(V, Bits))
      return InternBits(Bits);
    return ResolveReg(V);
  };

  // Walks constant-index gep chains upward, accumulating the byte
  // displacement, so nested indexing collapses into one address op.
  // Reading the inner base at the consumer is safe only when it is a
  // constant or a single-assignment (non-phi) register.
  auto FlattenBase = [&](const Value *Base, uint64_t &Disp) -> const Value * {
    if (!Opt)
      return Base;
    while (const auto *G = dyn_cast<GEPInst>(Base)) {
      uint64_t Whole, IdxB;
      if (ConstBits(G, Whole)) // whole gep folded: caller interns it
        break;
      if (!ConstBits(G->getIndex(), IdxB))
        break;
      uint64_t BaseB;
      if (!ConstBits(G->getBase(), BaseB) &&
          PhiRegs.count(ResolveReg(G->getBase())))
        break;
      Disp += IdxB * G->getScale();
      Base = G->getBase();
    }
    return Base;
  };

  //=== Optimization pre-pass ===============================================
  // Runs over reachable blocks in reverse post-order, so every operand's
  // fold/alias fact is final before any use is examined (RPO places
  // dominators first, and SSA defs dominate their uses). Unreachable
  // blocks are skipped: their instructions decode unoptimized, and the
  // same-block requirement on fusion keeps the maps consistent.
  if (Opt && !F->getBlocks().empty()) {
    std::vector<const BasicBlock *> Post;
    std::set<const BasicBlock *> Visited;
    std::vector<std::pair<const BasicBlock *, unsigned>> Stack;
    const BasicBlock *Entry = F->getBlocks().front().get();
    Visited.insert(Entry);
    Stack.push_back({Entry, 0});
    auto SuccOf = [](const BasicBlock *BB, unsigned I) -> const BasicBlock * {
      const auto *Term =
          dyn_cast<BranchInst>(BB->getInstList().back().get());
      if (!Term)
        return nullptr;
      unsigned N = Term->isConditional() ? 2 : 1;
      return I < N ? Term->getSuccessor(I) : nullptr;
    };
    while (!Stack.empty()) {
      auto &[BB, NextSucc] = Stack.back();
      if (const BasicBlock *S = SuccOf(BB, NextSucc)) {
        ++NextSucc;
        if (Visited.insert(S).second)
          Stack.push_back({S, 0});
        continue;
      }
      Post.push_back(BB);
      Stack.pop_back();
    }

    for (auto It = Post.rbegin(); It != Post.rend(); ++It) {
      const BasicBlock *BB = *It;
      for (const auto &InstPtr : BB->getInstList()) {
        const Instruction *I = InstPtr.get();
        if (isa<PhiInst>(I))
          continue;
        switch (I->getKind()) {
        case Value::Kind::Binary: {
          const auto *B = cast<BinaryInst>(I);
          uint64_t LB, RB;
          if (ConstBits(B->getLHS(), LB) && ConstBits(B->getRHS(), RB)) {
            KnownBits[I] = foldBinary(B->getOp(), LB, RB);
            break;
          }
          // Induction-update fusion: an integer add consuming a
          // single-use mul from the same block becomes one MulAdd.
          if (B->getOp() == BinaryInst::Op::Add) {
            for (const Value *OpV : {B->getLHS(), B->getRHS()}) {
              const auto *Mul = dyn_cast<BinaryInst>(OpV);
              if (Mul && Mul->getOp() == BinaryInst::Op::Mul &&
                  Mul->getParent() == BB && Mul->getNumUses() == 1 &&
                  !KnownBits.count(Mul) && !Elided.count(Mul)) {
                FusedMul[B] = Mul;
                Elided.insert(Mul);
                break;
              }
            }
          }
          break;
        }
        case Value::Kind::Cmp: {
          const auto *C = cast<CmpInst>(I);
          uint64_t LB, RB;
          if (ConstBits(C->getLHS(), LB) && ConstBits(C->getRHS(), RB)) {
            KnownBits[I] = foldCmp(C->getPred(), LB, RB);
            break;
          }
          // cmp+br fusion: the compare's only use is the same block's
          // conditional branch.
          if (C->getNumUses() == 1) {
            const auto *Br = dyn_cast<BranchInst>(C->uses()[0].TheUser);
            if (Br && Br->isConditional() && Br->getCondition() == C &&
                Br->getParent() == BB) {
              FusedCmp[Br] = C;
              Elided.insert(C);
            }
          }
          break;
        }
        case Value::Kind::Cast: {
          const auto *C = cast<CastInst>(I);
          const Value *V = C->getValueOperand();
          const Type::Kind SrcK = V->getType()->getKind();
          uint64_t VB;
          if (ConstBits(V, VB)) {
            KnownBits[I] =
                foldCast(C->getOp(), SrcK, memSizeOf(C->getType()), VB);
            break;
          }
          bool NoOp = false;
          switch (C->getOp()) {
          case CastInst::Op::SExt:
            NoOp = SrcK != Type::Kind::Int8 && SrcK != Type::Kind::Int1;
            break;
          case CastInst::Op::ZExt:
            NoOp = SrcK != Type::Kind::Int32;
            break;
          case CastInst::Op::Trunc:
            NoOp = memSizeOf(C->getType()) == 8;
            break;
          case CastInst::Op::PtrToInt:
          case CastInst::Op::IntToPtr:
          case CastInst::Op::Bitcast:
            NoOp = true;
            break;
          default:
            break;
          }
          if (NoOp) {
            uint32_t SrcReg = ResolveReg(V);
            if (!PhiRegs.count(SrcReg))
              AliasReg[I] = SrcReg;
          }
          break;
        }
        case Value::Kind::Select: {
          const auto *S = cast<SelectInst>(I);
          uint64_t CB;
          if (ConstBits(S->getCondition(), CB)) {
            const Value *Chosen =
                (CB & 1) ? S->getTrueValue() : S->getFalseValue();
            uint64_t VB;
            if (ConstBits(Chosen, VB)) {
              KnownBits[I] = VB;
              break;
            }
            uint32_t SrcReg = ResolveReg(Chosen);
            if (!PhiRegs.count(SrcReg))
              AliasReg[I] = SrcReg;
            // else: emitted as a Mov from the phi register
          }
          break;
        }
        case Value::Kind::GEP: {
          const auto *G = cast<GEPInst>(I);
          uint64_t BaseB, IdxB;
          if (ConstBits(G->getBase(), BaseB) &&
              ConstBits(G->getIndex(), IdxB)) {
            KnownBits[I] = BaseB + IdxB * G->getScale();
            break;
          }
          // gep+load / gep+store fusion: the address computation's only
          // use is a same-block memory access through it.
          if (G->getNumUses() == 1) {
            const User *U = G->uses()[0].TheUser;
            if (const auto *L = dyn_cast<LoadInst>(U)) {
              if (L->getParent() == BB && L->getPointerOperand() == G) {
                FusedAddr[L] = G;
                Elided.insert(G);
              }
            } else if (const auto *St = dyn_cast<StoreInst>(U)) {
              if (St->getParent() == BB && St->getPointerOperand() == G &&
                  St->getValueOperand() != G) {
                FusedAddr[St] = G;
                Elided.insert(G);
              }
            }
          }
          break;
        }
        default:
          break;
        }
      }
    }
  }

  //=== Emission ===========================================================

  // Shared by standalone compares and fused compare-branches.
  auto FillCmp = [&](DInst &D, const CmpInst *C, Opc RRBase, Opc RIBase) {
    uint64_t LB = 0, RB = 0;
    const Value *L = C->getLHS(), *R = C->getRHS();
    const bool LC = ConstBits(L, LB), RC = ConstBits(R, RB);
    CmpInst::Pred P = C->getPred();
    if (RC) {
      D.Op = opcAdd(RIBase, static_cast<unsigned>(P));
      D.A = OperandReg(L);
      D.Imm = static_cast<int64_t>(RB);
    } else if (LC) {
      P = CmpInst::getSwappedPred(P);
      D.Op = opcAdd(RIBase, static_cast<unsigned>(P));
      D.A = OperandReg(R);
      D.Imm = static_cast<int64_t>(LB);
    } else {
      D.Op = opcAdd(RRBase, static_cast<unsigned>(P));
      D.A = OperandReg(L);
      D.B = OperandReg(R);
    }
  };

  // Collects the phi moves for one CFG edge and returns the pooled range.
  auto EdgeMoves = [&](const BasicBlock *Pred,
                       const BasicBlock *Succ) -> std::pair<uint32_t, uint32_t> {
    std::vector<Move> Mv;
    for (const auto &PI : Succ->getInstList()) {
      const auto *Phi = dyn_cast<PhiInst>(PI.get());
      if (!Phi)
        continue;
      const Value *In = nullptr;
      for (unsigned K = 0, E = Phi->getNumIncoming(); K != E; ++K)
        if (Phi->getIncomingBlock(K) == Pred) {
          In = Phi->getIncomingValue(K);
          break;
        }
      assert(In && "phi has no incoming value for the executed edge");
      const uint32_t DstR = RegOf.at(Phi);
      const uint32_t SrcR = OperandReg(In);
      if (DstR != SrcR)
        Mv.push_back({DstR, SrcR});
    }
    if (Opt)
      sequentializeMoves(Mv, ScratchReg);
    const uint32_t Begin = static_cast<uint32_t>(DF->Moves.size());
    DF->Moves.insert(DF->Moves.end(), Mv.begin(), Mv.end());
    return {Begin, static_cast<uint32_t>(DF->Moves.size())};
  };

  for (const auto &BBPtr : F->getBlocks()) {
    const BasicBlock *BB = BBPtr.get();
    DF->BlockPc.push_back(static_cast<uint32_t>(DF->Code.size()));
    uint64_t NumPhis = 0;
    for (const auto &InstPtr : BB->getInstList())
      if (isa<PhiInst>(InstPtr.get()))
        ++NumPhis;

    uint32_t OrigIdx = 0; // non-phi position in the original block
    for (const auto &InstPtr : BB->getInstList()) {
      const Instruction *I = InstPtr.get();
      if (isa<PhiInst>(I))
        continue;
      const uint32_t MyIdx = OrigIdx++;
      if (Elided.count(I) || KnownBits.count(I) || AliasReg.count(I))
        continue;

      DInst D{};
      D.Op = Opc::Unreachable;
      D.Orig = I;
      if (!I->getType()->isVoid())
        D.Dst = static_cast<int32_t>(RegOf.at(I));

      switch (I->getKind()) {
      case Value::Kind::Alloca: {
        const auto *A = cast<AllocaInst>(I);
        // 8-byte align each allocation within the frame.
        DF->FrameBytes = (DF->FrameBytes + 7) & ~uint64_t(7);
        D.Op = Opc::Alloca;
        D.Imm = static_cast<int64_t>(DF->FrameBytes);
        DF->FrameBytes += A->getAllocationSize();
        break;
      }
      case Value::Kind::Load: {
        const auto *L = cast<LoadInst>(I);
        const uint8_t Sz = memSizeOf(L->getType());
        const unsigned SzOff = Sz == 8 ? 0 : Sz == 4 ? 1 : 2;
        auto FIt = FusedAddr.find(I);
        if (FIt != FusedAddr.end()) {
          const GEPInst *G = FIt->second;
          uint64_t Disp = 0;
          const Value *Base = FlattenBase(G->getBase(), Disp);
          uint64_t IdxB;
          if (ConstBits(G->getIndex(), IdxB)) {
            Disp += IdxB * G->getScale();
            D.A = OperandReg(Base);
            D.Imm = static_cast<int64_t>(Disp);
            D.Op = opcAdd(Disp ? Opc::LdOff8 : Opc::Ld8, SzOff);
          } else {
            D.Op = opcAdd(Opc::LdIdx8, SzOff);
            D.A = OperandReg(Base);
            D.B = OperandReg(G->getIndex());
            D.Scl = static_cast<uint32_t>(G->getScale());
            D.Imm = static_cast<int64_t>(Disp);
          }
        } else {
          D.Op = opcAdd(Opc::Ld8, SzOff);
          D.A = OperandReg(L->getPointerOperand());
        }
        break;
      }
      case Value::Kind::Store: {
        const auto *S = cast<StoreInst>(I);
        const uint8_t Sz = memSizeOf(S->getValueOperand()->getType());
        const unsigned SzOff = Sz == 8 ? 0 : Sz == 4 ? 1 : 2;
        D.A = OperandReg(S->getValueOperand());
        auto FIt = FusedAddr.find(I);
        if (FIt != FusedAddr.end()) {
          const GEPInst *G = FIt->second;
          uint64_t Disp = 0;
          const Value *Base = FlattenBase(G->getBase(), Disp);
          uint64_t IdxB;
          if (ConstBits(G->getIndex(), IdxB)) {
            Disp += IdxB * G->getScale();
            D.B = OperandReg(Base);
            D.Imm = static_cast<int64_t>(Disp);
            D.Op = opcAdd(Disp ? Opc::StOff8 : Opc::St8, SzOff);
          } else {
            D.Op = opcAdd(Opc::StIdx8, SzOff);
            D.B = OperandReg(Base);
            D.C = OperandReg(G->getIndex());
            D.Scl = static_cast<uint32_t>(G->getScale());
            D.Imm = static_cast<int64_t>(Disp);
          }
        } else {
          D.Op = opcAdd(Opc::St8, SzOff);
          D.B = OperandReg(S->getPointerOperand());
        }
        break;
      }
      case Value::Kind::GEP: {
        const auto *G = cast<GEPInst>(I);
        uint64_t Disp = 0;
        const Value *Base = FlattenBase(G->getBase(), Disp);
        uint64_t IdxB;
        if (Opt && ConstBits(G->getIndex(), IdxB)) {
          Disp += IdxB * G->getScale();
          D.Op = Opc::GepOff;
          D.A = OperandReg(Base);
          D.Imm = static_cast<int64_t>(Disp);
        } else {
          D.Op = Opc::GepRR;
          D.A = OperandReg(Base);
          D.B = OperandReg(G->getIndex());
          D.Scl = static_cast<uint32_t>(G->getScale());
          D.Imm = static_cast<int64_t>(Disp);
        }
        break;
      }
      case Value::Kind::Binary: {
        const auto *B = cast<BinaryInst>(I);
        auto MIt = FusedMul.find(B);
        if (MIt != FusedMul.end()) {
          const BinaryInst *Mul = MIt->second;
          const Value *Other =
              (B->getLHS() == Mul) ? B->getRHS() : B->getLHS();
          const Value *ML = Mul->getLHS(), *MR = Mul->getRHS();
          uint64_t MLB, MRB;
          const bool MLC = ConstBits(ML, MLB), MRC = ConstBits(MR, MRB);
          if (MRC) {
            D.Op = Opc::MulAddRI;
            D.A = OperandReg(ML);
            D.Imm = static_cast<int64_t>(MRB);
            D.B = OperandReg(Other);
          } else if (MLC) {
            D.Op = Opc::MulAddRI;
            D.A = OperandReg(MR);
            D.Imm = static_cast<int64_t>(MLB);
            D.B = OperandReg(Other);
          } else {
            D.Op = Opc::MulAddRR;
            D.A = OperandReg(ML);
            D.B = OperandReg(MR);
            D.C = OperandReg(Other);
          }
          break;
        }
        const Value *L = B->getLHS(), *R = B->getRHS();
        uint64_t LB, RB;
        const bool LC = ConstBits(L, LB), RC = ConstBits(R, RB);
        const auto Op = B->getOp();
        const unsigned OpIdx = static_cast<unsigned>(Op);
        const bool FP = B->isFloatingPoint();
        const Opc RRBase = FP ? opcAdd(Opc::FAddRR, OpIdx - 10)
                              : opcAdd(Opc::AddRR, OpIdx);
        const Opc RIBase = FP ? opcAdd(Opc::FAddRI, OpIdx - 10)
                              : opcAdd(Opc::AddRI, OpIdx);
        if (RC) {
          D.Op = RIBase;
          D.A = OperandReg(L);
          D.Imm = static_cast<int64_t>(RB);
        } else if (LC) {
          if (B->isCommutative()) {
            D.Op = RIBase;
          } else {
            switch (Op) {
            case BinaryInst::Op::Sub:
              D.Op = Opc::SubIR;
              break;
            case BinaryInst::Op::SDiv:
              D.Op = Opc::SDivIR;
              break;
            case BinaryInst::Op::SRem:
              D.Op = Opc::SRemIR;
              break;
            case BinaryInst::Op::Shl:
              D.Op = Opc::ShlIR;
              break;
            case BinaryInst::Op::AShr:
              D.Op = Opc::AShrIR;
              break;
            case BinaryInst::Op::FSub:
              D.Op = Opc::FSubIR;
              break;
            case BinaryInst::Op::FDiv:
              D.Op = Opc::FDivIR;
              break;
            default:
              assert(false && "non-commutative op expected");
            }
          }
          D.A = OperandReg(R);
          D.Imm = static_cast<int64_t>(LB);
        } else {
          D.Op = RRBase;
          D.A = OperandReg(L);
          D.B = OperandReg(R);
        }
        break;
      }
      case Value::Kind::Cmp:
        FillCmp(D, cast<CmpInst>(I), Opc::CmpEQRR, Opc::CmpEQRI);
        break;
      case Value::Kind::Cast: {
        const auto *C = cast<CastInst>(I);
        const Type::Kind SrcK = C->getValueOperand()->getType()->getKind();
        D.A = OperandReg(C->getValueOperand());
        switch (C->getOp()) {
        case CastInst::Op::SExt:
          D.Op = SrcK == Type::Kind::Int8   ? Opc::SExt8
                 : SrcK == Type::Kind::Int1 ? Opc::SExt1
                                            : Opc::Mov;
          break;
        case CastInst::Op::ZExt:
          D.Op = SrcK == Type::Kind::Int32 ? Opc::ZExt32 : Opc::Mov;
          break;
        case CastInst::Op::Trunc: {
          const uint8_t DS = memSizeOf(C->getType());
          D.Op = DS == 4 ? Opc::Trunc32 : DS == 1 ? Opc::Trunc8 : Opc::Mov;
          break;
        }
        case CastInst::Op::SIToFP:
          D.Op = Opc::SIToFP;
          break;
        case CastInst::Op::FPToSI:
          D.Op = Opc::FPToSI;
          break;
        case CastInst::Op::PtrToInt:
        case CastInst::Op::IntToPtr:
        case CastInst::Op::Bitcast:
          D.Op = Opc::Mov;
          break;
        }
        break;
      }
      case Value::Kind::Select: {
        const auto *S = cast<SelectInst>(I);
        uint64_t CB;
        if (Opt && ConstBits(S->getCondition(), CB)) {
          // The chosen value resolved to a phi register (anything else
          // was folded or aliased in the pre-pass): emit a copy.
          const Value *Chosen =
              (CB & 1) ? S->getTrueValue() : S->getFalseValue();
          D.Op = Opc::Mov;
          D.A = OperandReg(Chosen);
        } else {
          D.Op = Opc::Sel;
          D.A = OperandReg(S->getCondition());
          D.B = OperandReg(S->getTrueValue());
          D.C = OperandReg(S->getFalseValue());
        }
        break;
      }
      case Value::Kind::Branch: {
        const auto *Br = cast<BranchInst>(I);
        D.BlockRetire = BB->size();
        if (Br->isConditional()) {
          const BasicBlock *SB0 = Br->getSuccessor(0);
          const BasicBlock *SB1 = Br->getSuccessor(1);
          auto [M0B, M0E] = EdgeMoves(BB, SB0);
          auto [M1B, M1E] = EdgeMoves(BB, SB1);
          D.M0B = M0B;
          D.M0E = M0E;
          D.M1B = M1B;
          D.M1E = M1E;
          D.T0 = BlockIdx.at(SB0);
          D.T1 = BlockIdx.at(SB1);
          auto CIt = FusedCmp.find(Br);
          if (CIt != FusedCmp.end()) {
            FillCmp(D, CIt->second, Opc::BrEQRR, Opc::BrEQRI);
          } else {
            D.Op = Opc::Br;
            D.A = OperandReg(Br->getCondition());
          }
          D.Orig = Br; // observers see the branch, not the fused compare
        } else {
          D.Op = Opc::Jmp;
          const BasicBlock *SB0 = Br->getSuccessor(0);
          auto [M0B, M0E] = EdgeMoves(BB, SB0);
          D.M0B = M0B;
          D.M0E = M0E;
          D.T0 = BlockIdx.at(SB0);
        }
        break;
      }
      case Value::Kind::Call: {
        const auto *CI = cast<CallInst>(I);
        D.OrigSoFar = NumPhis + MyIdx + 1;
        D.ArgsB = static_cast<uint32_t>(DF->ArgPool.size());
        for (unsigned A = 0, E = CI->getNumArgs(); A != E; ++A)
          DF->ArgPool.push_back(OperandReg(CI->getArg(A)));
        D.ArgsE = static_cast<uint32_t>(DF->ArgPool.size());
        Function *Callee = CI->getCalledFunction();
        if (!Callee) {
          D.Op = Opc::CallIndirect;
          D.A = OperandReg(CI->getCalleeOperand());
        } else if (Callee->isDeclaration()) {
          // Pre-resolve the external to its dense slot (assigned now if
          // the implementation registers later).
          D.Op = Opc::CallExternal;
          D.DirectCallee = Callee;
          D.ExternalId =
              static_cast<int32_t>(externalIdFor(Callee->getName()));
        } else {
          D.Op = Opc::CallDirect;
          D.DirectCallee = Callee;
          auto IdIt = FunctionIds.find(Callee);
          if (IdIt != FunctionIds.end())
            D.CalleeSlot = &DecodedById[IdIt->second];
        }
        break;
      }
      case Value::Kind::Ret: {
        const auto *Rt = cast<RetInst>(I);
        D.BlockRetire = BB->size();
        if (Rt->hasReturnValue()) {
          D.Op = Opc::Ret;
          D.A = OperandReg(Rt->getReturnValue());
        } else {
          D.Op = Opc::RetVoid;
        }
        break;
      }
      case Value::Kind::Unreachable:
        D.Op = Opc::Unreachable;
        break;
      case Value::Kind::VLoad: {
        const auto *VL = cast<VLoadInst>(I);
        Type *VecTy = VL->getType();
        D.Op = memSizeOf(VecTy->getVectorElementType()) == 8 ? Opc::VLd8
                                                             : Opc::VLd4;
        D.A = OperandReg(VL->getPointerOperand());
        D.Scl = static_cast<uint32_t>(VecTy->getVectorNumLanes());
        break;
      }
      case Value::Kind::VStore: {
        const auto *VS = cast<VStoreInst>(I);
        Type *VecTy = VS->getValueOperand()->getType();
        D.Op = memSizeOf(VecTy->getVectorElementType()) == 8 ? Opc::VSt8
                                                             : Opc::VSt4;
        D.A = static_cast<int32_t>(RegOf.at(VS->getValueOperand()));
        D.B = OperandReg(VS->getPointerOperand());
        D.Scl = static_cast<uint32_t>(VecTy->getVectorNumLanes());
        break;
      }
      case Value::Kind::VBinary: {
        // VAdd..VFDiv mirror BinaryInst::Op order, including the FP tail.
        const auto *VB = cast<VBinaryInst>(I);
        D.Op = opcAdd(Opc::VAdd, static_cast<unsigned>(VB->getOp()));
        D.A = static_cast<int32_t>(RegOf.at(VB->getLHS()));
        D.B = static_cast<int32_t>(RegOf.at(VB->getRHS()));
        D.Scl = static_cast<uint32_t>(I->getType()->getVectorNumLanes());
        break;
      }
      case Value::Kind::VExtract: {
        // A lane is just a register: extract decodes to a plain copy.
        const auto *VE = cast<VExtractInst>(I);
        D.Op = Opc::Mov;
        D.A = static_cast<int32_t>(RegOf.at(VE->getVectorOperand()) +
                                   VE->getLane());
        break;
      }
      case Value::Kind::VPack: {
        const auto *VP = cast<VPackInst>(I);
        D.Op = Opc::VPackOp;
        D.ArgsB = static_cast<uint32_t>(DF->ArgPool.size());
        for (uint64_t L = 0, E = VP->getNumLanes(); L != E; ++L)
          DF->ArgPool.push_back(OperandReg(VP->getLaneOperand(L)));
        D.ArgsE = static_cast<uint32_t>(DF->ArgPool.size());
        D.Scl = static_cast<uint32_t>(VP->getNumLanes());
        break;
      }
      default:
        assert(false && "unhandled instruction kind while decoding");
      }
      DF->Code.push_back(D);
    }
  }

  // Resolve branch targets from block indices to pcs.
  for (DInst &D : DF->Code) {
    if (D.Op == Opc::Jmp) {
      D.S0 = static_cast<int32_t>(DF->BlockPc[D.T0]);
    } else if (D.Op == Opc::Br ||
               (D.Op >= Opc::BrEQRR && D.Op <= Opc::BrFGERI)) {
      D.S0 = static_cast<int32_t>(DF->BlockPc[D.T0]);
      D.S1 = static_cast<int32_t>(DF->BlockPc[D.T1]);
    }
  }

  DF->FileSize = ScratchReg + 1 + static_cast<uint32_t>(DF->Consts.size());

  // Per-block fused-superinstruction counts for the observed tier's fire
  // accounting (each fused consumer executes once per block entry).
  DF->BlockFused.assign(DF->BlockBB.size(), 0);
  auto ChargeFused = [&](const Instruction *Consumer) {
    auto BIt = BlockIdx.find(Consumer->getParent());
    if (BIt != BlockIdx.end())
      ++DF->BlockFused[BIt->second];
  };
  for (const auto &[Consumer, Gep] : FusedAddr)
    ChargeFused(Consumer);
  for (const auto &[Br, Cmp] : FusedCmp)
    ChargeFused(Br);
  for (const auto &[Add, Mul] : FusedMul)
    ChargeFused(Add);

  if (DecodeT0) {
    telemetry::count(telemetry::Counter::DecodeMiss);
    telemetry::record(telemetry::Hist::DecodeNs,
                      telemetry::nowNs() - DecodeT0);
    telemetry::count(telemetry::Counter::FuseSiteCmpBr, FusedCmp.size());
    telemetry::count(telemetry::Counter::FuseSiteGepMem, FusedAddr.size());
    telemetry::count(telemetry::Counter::FuseSiteMulAdd, FusedMul.size());
    telemetry::count(telemetry::Counter::FuseSiteElided, Elided.size());
  }

  auto &Ref = *DF;
  DecodedStore.push_back(std::move(DF));
  if (Slot)
    Slot->store(&Ref, std::memory_order_release);
  else
    DecodedOverflow[F] = &Ref;
  return Ref;
}

//===----------------------------------------------------------------------===//
// Engine lifecycle
//===----------------------------------------------------------------------===//

ExecutionEngine::ExecutionEngine(Module &M, Options Opts)
    : M(M), Opts(Opts) {
  // Lay out globals.
  uint64_t Total = 0;
  for (const auto &G : M.getGlobals()) {
    Total = (Total + 7) & ~uint64_t(7);
    Total += std::max<uint64_t>(G->getStoreSize(), 8);
  }
  GlobalStorage.resize(Total + 8, 0);
  uint64_t Offset = 0;
  for (const auto &G : M.getGlobals()) {
    Offset = (Offset + 7) & ~uint64_t(7);
    uint64_t Addr = reinterpret_cast<uint64_t>(GlobalStorage.data()) + Offset;
    GlobalAddr[G.get()] = Addr;
    const auto &Init = G->getInitWords();
    for (size_t W = 0; W < Init.size() && W * 8 < G->getStoreSize(); ++W)
      std::memcpy(GlobalStorage.data() + Offset + W * 8, &Init[W], 8);
    Offset += std::max<uint64_t>(G->getStoreSize(), 8);
  }

  if (Opts.HeapBytes) {
    void *Arena = mmap(nullptr, Opts.HeapBytes, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (Arena == MAP_FAILED) {
      std::fprintf(stderr, "interpreter heap reservation failed\n");
      std::abort();
    }
    HeapBase = static_cast<uint8_t *>(Arena);
  }

  // Function id table for function-pointer encoding and the dense
  // decoded-function cache.
  uint64_t Id = 0;
  for (const auto &F : M.getFunctions()) {
    FunctionIds[F.get()] = Id++;
    FunctionById.push_back(F.get());
  }
  DecodedById =
      std::make_unique<std::atomic<DecodedFunction *>[]>(FunctionById.size());
  for (size_t I = 0; I < FunctionById.size(); ++I)
    DecodedById[I].store(nullptr, std::memory_order_relaxed);

  installDefaultLibrary();
}

ExecutionEngine::~ExecutionEngine() {
  if (HeapBase)
    munmap(HeapBase, Opts.HeapBytes);
}

bool ExecutionEngine::hasThreadedDispatch() {
#ifdef NOELLE_INTERP_HAVE_CGOTO
  return true;
#else
  return false;
#endif
}

uint64_t ExecutionEngine::heapAlloc(uint64_t Bytes) {
  uint64_t Aligned = (Bytes + 15) & ~uint64_t(15);
  // CAS loop: the bump must not be committed before the bounds check, or
  // a losing racer could hand out an overlapping region to a thread
  // whose own check passed against the already-bumped top.
  uint64_t Old = HeapTop.load(std::memory_order_relaxed);
  do {
    if (Aligned < Bytes || Aligned > Opts.HeapBytes ||
        Old > Opts.HeapBytes - Aligned) {
      std::fprintf(stderr, "interpreter heap exhausted\n");
      std::abort();
    }
  } while (!HeapTop.compare_exchange_weak(Old, Old + Aligned,
                                          std::memory_order_relaxed));
  return reinterpret_cast<uint64_t>(HeapBase) + Old;
}

ThreadPool &ExecutionEngine::getThreadPool() {
  std::lock_guard<std::mutex> Lock(RuntimeStateMutex);
  if (!Pool)
    Pool = std::make_unique<ThreadPool>();
  return *Pool;
}

QueueRegistry &ExecutionEngine::getQueueRegistry() {
  std::lock_guard<std::mutex> Lock(RuntimeStateMutex);
  if (!Queues)
    Queues = std::make_unique<QueueRegistry>();
  return *Queues;
}

uint64_t
ExecutionEngine::getGlobalAddress(const GlobalVariable *G) const {
  auto It = GlobalAddr.find(G);
  assert(It != GlobalAddr.end() && "global not laid out");
  return It->second;
}

bool ExecutionEngine::isValidAddress(uint64_t Addr, uint64_t Bytes) const {
  uint64_t GBase = reinterpret_cast<uint64_t>(GlobalStorage.data());
  if (Addr >= GBase && Addr + Bytes <= GBase + GlobalStorage.size())
    return true;
  uint64_t HBase = reinterpret_cast<uint64_t>(HeapBase);
  if (Addr >= HBase && Addr + Bytes <= HBase + HeapTop.load())
    return true;
  return frameRegistry().contains(Addr, Bytes);
}

uint64_t ExecutionEngine::encodeFunction(const Function *F) const {
  auto It = FunctionIds.find(F);
  assert(It != FunctionIds.end() && "function not registered");
  return FunctionTag | It->second;
}

Function *ExecutionEngine::decodeFunction(uint64_t Encoded) const {
  if ((Encoded & 0xFF00000000000000ull) != FunctionTag)
    return nullptr;
  uint64_t Id = Encoded & ~FunctionTag;
  return Id < FunctionById.size() ? FunctionById[Id] : nullptr;
}

uint32_t ExecutionEngine::externalIdFor(const std::string &Name) {
  auto It = ExternalIdByName.find(Name);
  if (It != ExternalIdByName.end())
    return It->second;
  uint32_t Id = static_cast<uint32_t>(ExternalTable.size());
  ExternalIdByName.emplace(Name, Id);
  ExternalTable.emplace_back();
  return Id;
}

void ExecutionEngine::registerExternal(const std::string &Name,
                                       ExternalFn Fn) {
  std::lock_guard<std::mutex> Lock(DecodeMutex);
  ExternalTable[externalIdFor(Name)] = std::move(Fn);
}

void ExecutionEngine::appendOutput(const std::string &S) {
  std::lock_guard<std::mutex> Lock(OutputMutex);
  Output += S;
}

void ExecutionEngine::resetThreadRetired() { ThreadRetired = 0; }

uint64_t ExecutionEngine::readThreadRetired() { return ThreadRetired; }

void ExecutionEngine::recordDispatch(const DispatchRecord &R) {
  std::lock_guard<std::mutex> Lock(DispatchMutex);
  Dispatches.push_back(R);
}

std::vector<DispatchRecord> ExecutionEngine::getDispatchRecords() const {
  std::lock_guard<std::mutex> Lock(DispatchMutex);
  return Dispatches;
}

void ExecutionEngine::clearDispatchRecords() {
  std::lock_guard<std::mutex> Lock(DispatchMutex);
  Dispatches.clear();
}

//===----------------------------------------------------------------------===//
// Execution tiers: one handler set (ExecuteLoop.inc), three loops.
//===----------------------------------------------------------------------===//

#ifdef NOELLE_INTERP_HAVE_CGOTO
#define NIR_EXEC_NAME execThreaded
#define NIR_EXEC_CGOTO 1
#define NIR_EXEC_OBSERVED 0
#include "interp/ExecuteLoop.inc"
#endif

#define NIR_EXEC_NAME execSwitch
#define NIR_EXEC_CGOTO 0
#define NIR_EXEC_OBSERVED 0
#include "interp/ExecuteLoop.inc"

#define NIR_EXEC_NAME execObserved
#define NIR_EXEC_CGOTO 0
#define NIR_EXEC_OBSERVED 1
#include "interp/ExecuteLoop.inc"

RuntimeValue
ExecutionEngine::execute(DecodedFunction &DF,
                         const std::vector<RuntimeValue> &Args,
                         unsigned Depth) {
  // An installed observer routes through the unbatched tier so
  // onBlockExecuted/onBranchExecuted fire in program order. Tier entries
  // are counted here (top-level entries only: recursion stays inside one
  // tier's loop), so transitions between tiers show up in the metrics.
  if (Observer) {
    telemetry::count(telemetry::Counter::TierObserved);
    return execObserved(DF, Args, Depth);
  }
#ifdef NOELLE_INTERP_HAVE_CGOTO
  if (Opts.Dispatch != DispatchMode::Switch) {
    telemetry::count(telemetry::Counter::TierThreaded);
    return execThreaded(DF, Args, Depth);
  }
#endif
  telemetry::count(telemetry::Counter::TierSwitch);
  return execSwitch(DF, Args, Depth);
}

RuntimeValue
ExecutionEngine::runFunction(Function *F,
                             const std::vector<RuntimeValue> &Args) {
  assert(!F->isDeclaration() && "cannot run a declaration directly");
  return execute(getDecoded(F), Args, 0);
}

ExecutionEngine::PreparedFunction ExecutionEngine::prepare(Function *F) {
  assert(!F->isDeclaration() && "cannot prepare a declaration");
  return &getDecoded(F);
}

RuntimeValue
ExecutionEngine::runPrepared(PreparedFunction P,
                             const std::vector<RuntimeValue> &Args) {
  return execute(*P, Args, 0);
}

int64_t ExecutionEngine::runMain() {
  Function *Main = M.getFunction("main");
  assert(Main && "module has no @main");
  return runFunction(Main, {}).I;
}

//===----------------------------------------------------------------------===//
// External library
//===----------------------------------------------------------------------===//

RuntimeValue
ExecutionEngine::callExternal(Function *F, const CallInst *Call,
                              const std::vector<RuntimeValue> &Args) {
  // Slow by-name path for indirect calls to externals; direct external
  // calls resolve a dense slot at decode time and never come here.
  const ExternalFn *Fn = nullptr;
  {
    std::lock_guard<std::mutex> Lock(DecodeMutex);
    auto It = ExternalIdByName.find(F->getName());
    if (It != ExternalIdByName.end())
      Fn = &ExternalTable[It->second];
  }
  if (!Fn || !*Fn) {
    std::fprintf(stderr, "interpreter: no implementation for external @%s\n",
                 F->getName().c_str());
    std::abort();
  }
  // Deque slots are stable; call without the lock so externals may
  // re-enter the engine (dispatch, decode, nested calls).
  return (*Fn)(*this, Call, Args);
}

void ExecutionEngine::installDefaultLibrary() {
  auto Simple = [this](const std::string &Name,
                       std::function<RuntimeValue(
                           ExecutionEngine &, const std::vector<RuntimeValue> &)>
                           Fn) {
    registerExternal(Name, [Fn](ExecutionEngine &E, const CallInst *,
                                const std::vector<RuntimeValue> &A) {
      return Fn(E, A);
    });
  };

  Simple("print_i64",
         [](ExecutionEngine &E, const std::vector<RuntimeValue> &A) {
           E.appendOutput(std::to_string(A[0].I) + "\n");
           return RuntimeValue();
         });
  Simple("print_f64",
         [](ExecutionEngine &E, const std::vector<RuntimeValue> &A) {
           char Buf[64];
           std::snprintf(Buf, sizeof(Buf), "%.6f\n", A[0].F);
           E.appendOutput(Buf);
           return RuntimeValue();
         });
  Simple("print_char",
         [](ExecutionEngine &E, const std::vector<RuntimeValue> &A) {
           E.appendOutput(std::string(1, static_cast<char>(A[0].I)));
           return RuntimeValue();
         });
  Simple("malloc", [](ExecutionEngine &E, const std::vector<RuntimeValue> &A) {
    return RuntimeValue::ofPtr(E.heapAlloc(static_cast<uint64_t>(A[0].I)));
  });
  Simple("free", [](ExecutionEngine &, const std::vector<RuntimeValue> &) {
    return RuntimeValue(); // Bump allocator: free is a no-op.
  });
  Simple("sqrt", [](ExecutionEngine &, const std::vector<RuntimeValue> &A) {
    return RuntimeValue::ofFloat(std::sqrt(A[0].F));
  });
  Simple("fabs", [](ExecutionEngine &, const std::vector<RuntimeValue> &A) {
    return RuntimeValue::ofFloat(std::fabs(A[0].F));
  });
  Simple("exp", [](ExecutionEngine &, const std::vector<RuntimeValue> &A) {
    return RuntimeValue::ofFloat(std::exp(A[0].F));
  });
  Simple("log", [](ExecutionEngine &, const std::vector<RuntimeValue> &A) {
    return RuntimeValue::ofFloat(std::log(A[0].F));
  });
  Simple("sin", [](ExecutionEngine &, const std::vector<RuntimeValue> &A) {
    return RuntimeValue::ofFloat(std::sin(A[0].F));
  });
  Simple("cos", [](ExecutionEngine &, const std::vector<RuntimeValue> &A) {
    return RuntimeValue::ofFloat(std::cos(A[0].F));
  });
  Simple("pow", [](ExecutionEngine &, const std::vector<RuntimeValue> &A) {
    return RuntimeValue::ofFloat(std::pow(A[0].F, A[1].F));
  });
  Simple("floor", [](ExecutionEngine &, const std::vector<RuntimeValue> &A) {
    return RuntimeValue::ofFloat(std::floor(A[0].F));
  });
  Simple("clock_ns", [](ExecutionEngine &, const std::vector<RuntimeValue> &) {
    auto Now = std::chrono::steady_clock::now().time_since_epoch();
    return RuntimeValue::ofInt(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Now).count());
  });
  Simple("abort_if_false",
         [](ExecutionEngine &, const std::vector<RuntimeValue> &A) {
           if (!(A[0].I & 1)) {
             std::fprintf(stderr, "abort_if_false: assertion failed\n");
             std::abort();
           }
           return RuntimeValue();
         });
}

} // namespace nir
