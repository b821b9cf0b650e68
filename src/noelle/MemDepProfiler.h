//===----------------------------------------------------------------------===//
///
/// \file
/// LAMP-style memory-dependence + loop-trip profiler. An interpreter
/// observer shadows every byte of memory with its last reader/writer and
/// a global access clock; a dependence that crosses an iteration
/// boundary of an active loop is recorded as a *manifested* loop-carried
/// dependence of that loop, keyed entirely by deterministic instruction
/// IDs (ir/IDs.h) so the record survives printing and parsing.
///
/// The resulting MemDepProfile is the evidence base for speculative
/// DOALL: a PDG loop-carried memory edge whose endpoint pair was never
/// observed to manifest for the loop may be speculated away, with the
/// runtime write-log/commit protocol (runtime/ParallelRuntime.h) as the
/// safety net. Profiles travel with the module text as its memdep
/// artifact (ir/Artifact.h), next to the embedded PDG.
///
/// Wire format (the artifact record; deterministic, so it round trips
/// byte-identically):
///
///   memdep v1
///   hash <16 hex digits>
///   loop header=<id> invocations=<n> iterations=<n>
///   dep header=<id> src=<id> dst=<id> kind=<raw|war|waw>
///
//===----------------------------------------------------------------------===//

#ifndef NOELLE_MEMDEPPROFILER_H
#define NOELLE_MEMDEPPROFILER_H

#include "analysis/LoopInfo.h"
#include "interp/Interpreter.h"
#include "ir/Artifact.h"
#include "ir/Module.h"
#include "noelle/Profiler.h"

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

namespace noelle {

/// A manifested loop-carried memory dependence: during one invocation of
/// the loop identified by \p HeaderID, the access \p DstID touched a
/// byte last touched (conflictingly) by \p SrcID in an earlier
/// iteration.
struct ManifestedDep {
  uint64_t HeaderID = 0; ///< ID of the loop header's first instruction
  uint64_t SrcID = 0;    ///< earlier access
  uint64_t DstID = 0;    ///< later access
  enum Kind : uint8_t { RAW = 0, WAR = 1, WAW = 2 } K = RAW;

  bool operator<(const ManifestedDep &O) const {
    return std::tie(HeaderID, SrcID, DstID, K) <
           std::tie(O.HeaderID, O.SrcID, O.DstID, O.K);
  }
  bool operator==(const ManifestedDep &O) const {
    return HeaderID == O.HeaderID && SrcID == O.SrcID && DstID == O.DstID &&
           K == O.K;
  }
};

/// The collected profile: which loops ran (trip statistics) and which
/// loop-carried memory dependences ever manifested.
class MemDepProfile {
public:
  /// True when loop \p HeaderID was entered at least once in the
  /// profiled run — the planner's evidence gate: loops the profile never
  /// observed carry no "absence of dependences" evidence at all.
  bool coversLoop(uint64_t HeaderID) const {
    auto It = Loops.find(HeaderID);
    return It != Loops.end() && It->second.Invocations > 0;
  }

  uint64_t loopInvocations(uint64_t HeaderID) const {
    auto It = Loops.find(HeaderID);
    return It == Loops.end() ? 0 : It->second.Invocations;
  }
  uint64_t loopIterations(uint64_t HeaderID) const {
    auto It = Loops.find(HeaderID);
    return It == Loops.end() ? 0 : It->second.Iterations;
  }

  /// True when any carried dependence between the unordered instruction
  /// pair {A, B} manifested for loop \p HeaderID (any direction, any
  /// kind). The speculation legality query: an edge whose pair is absent
  /// never manifested.
  bool manifested(uint64_t HeaderID, uint64_t A, uint64_t B) const {
    return Pairs.count(key(HeaderID, A, B)) != 0;
  }

  const std::set<ManifestedDep> &deps() const { return Deps; }
  bool empty() const { return Loops.empty() && Deps.empty(); }

  /// Hash of the module the profile is bound to (0 = unbound).
  uint64_t moduleHash() const { return ModuleHash; }

  /// The artifact record text, bound to moduleHash().
  std::string serialize() const;
  static bool deserialize(const std::string &Text, MemDepProfile &Out,
                          std::string &Err);

  /// Stores the profile as \p M's memdep artifact, stamped with \p M's
  /// content hash. The hash is metadata-agnostic, so embedding neither
  /// invalidates the PDG cache nor the profile's own binding. Profiles
  /// are keyed by instruction IDs, so a profile collected on one module
  /// may be embedded into any module with identical structure (equal
  /// content hash modulo metadata — e.g. a re-parsed copy).
  void embed(nir::Module &M);

  /// Loads \p M's memdep artifact; fails when it is absent, stale
  /// (bound to other code) or unreadable. Noelle::getMemDepProfile is
  /// the cached form transforms use.
  static bool fromModule(const nir::Module &M, MemDepProfile &Out,
                         std::string &Err);

  /// Adds \p Invocations entries and \p Iterations back edges of loop
  /// \p HeaderID.
  void recordLoop(uint64_t HeaderID, uint64_t Invocations,
                  uint64_t Iterations) {
    LoopStats &S = Loops[HeaderID];
    S.Invocations += Invocations;
    S.Iterations += Iterations;
  }
  void recordDep(const ManifestedDep &D) {
    if (Deps.insert(D).second)
      Pairs.insert(key(D.HeaderID, D.SrcID, D.DstID));
  }

private:
  std::string payload() const;
  static bool decode(const nir::Artifact &A, MemDepProfile &Out,
                     std::string &Err);

  static std::tuple<uint64_t, uint64_t, uint64_t>
  key(uint64_t H, uint64_t A, uint64_t B) {
    return A <= B ? std::make_tuple(H, A, B) : std::make_tuple(H, B, A);
  }

  struct LoopStats {
    uint64_t Invocations = 0;
    uint64_t Iterations = 0;
  };
  std::map<uint64_t, LoopStats> Loops;
  std::set<ManifestedDep> Deps;
  std::set<std::tuple<uint64_t, uint64_t, uint64_t>> Pairs;
  uint64_t ModuleHash = 0;
};

/// The observer. A Profiler whose block, branch and call events also
/// feed the block profile through the base class, so one observed run
/// yields both profiles. On top, it installs byte-granular shadow memory
/// (last reader and writer with access timestamps, one state per 8-byte
/// word until the word's bytes diverge) and a dynamic loop-activation
/// stack maintained from block events, so each access can be tested
/// against the iteration windows of every active loop. An access makes
/// one dependence check per run of its bytes that one earlier access
/// last touched, not one per byte, and records the same dependences a
/// check per byte would.
/// Single-threaded by design: profiling runs happen before
/// parallelization.
class MemDepProfiler : public Profiler {
public:
  /// \p M must carry deterministic instruction IDs (ir/IDs.h).
  explicit MemDepProfiler(nir::Module &M);
  ~MemDepProfiler() override;

  void onBlockExecuted(const nir::BasicBlock *BB) override;
  void onCallExecuted(const nir::CallInst *Call,
                      const nir::Function *Callee) override;
  void onLoadExecuted(const nir::Instruction *I, uint64_t Addr,
                      unsigned Bytes) override;
  void onStoreExecuted(const nir::Instruction *I, uint64_t Addr,
                       unsigned Bytes) override;

  MemDepProfile takeProfile();

private:
  struct Impl;
  std::unique_ptr<Impl> P;
};

/// Runs @main of \p M under the observer and returns the profile. The
/// block/branch/call profile of the same run is embedded into \p M,
/// bound to its content hash, so Noelle::getProfiles loads it instead
/// of running @main again. Assigns deterministic IDs first when the
/// module carries none (the same assignment captureForCheck/pdgEmbed
/// would produce).
MemDepProfile profileMemDeps(nir::Module &M);

} // namespace noelle

#endif // NOELLE_MEMDEPPROFILER_H
