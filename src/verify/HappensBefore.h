//===----------------------------------------------------------------------===//
///
/// \file
/// Region-wide happens-before engine for the static race detector. Models
/// the synchronization the parallelizing transforms emit — queue push/pop
/// (DSWP), sequential-segment gates `noelle_ss_wait`/`noelle_ss_signal`
/// (HELIX), and the dispatch entry/exit fences bounding every region — as
/// per-task event sets, and answers "can these two anchors ever run
/// concurrently?" with the discharge rule that proves they cannot.
///
/// The engine runs a flow-sensitive all-paths dataflow (on the shared
/// DataFlowEngine) computing, at each program point, the set of sync
/// events guaranteed to have completed on every path from task entry.
/// On top of that fact base it implements:
///
///  - QueueHB: release/acquire ordering through a single queue
///    (producer-side anchor precedes every push; a pop guaranteed
///    complete before the consumer-side anchor).
///  - MultiQueueJoin: the transitive closure of QueueHB through queue
///    chains and multi-producer joins — a queue is "covered" once every
///    push site region-wide is known ordered after the anchor, and
///    covered queues extend the fact base through their pops.
///  - LoopPhase: k-th-push/k-th-pop matching for queue ops sitting in
///    lockstep loops (keyed by the re-based IVs TaskModel tracks), which
///    orders per-iteration accesses across pipelined DSWP stages.
///  - SegmentOrder / CrossSegment: flow-sensitive HELIX gate protection,
///    same-segment mutual exclusion and cross-segment partial orders,
///    gated by a segment-protocol leak check (a segment whose wait is not
///    matched by a signal on every cyclic path protects nothing).
///
//===----------------------------------------------------------------------===//

#ifndef VERIFY_HAPPENSBEFORE_H
#define VERIFY_HAPPENSBEFORE_H

#include "verify/TaskModel.h"

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

namespace noelle {
namespace verify {

/// Memory-dependence summary recovered from the pre-transform snapshot's
/// embedded PDG: unordered pairs of original instruction IDs with a
/// memory dependence between them (and the loop-carried subset). Pairs
/// are stored symmetrically; membership is direction-free.
struct PDGDependenceSummary {
  std::set<std::pair<uint64_t, uint64_t>> MemDeps;
  std::set<std::pair<uint64_t, uint64_t>> LoopCarriedMemDeps;
};

/// The discharge rule that proved a pair of accesses ordered (or
/// mutually excluded). Recorded per pair for diagnostics and stats.
enum class HBRule {
  None,           ///< no ordering established
  QueueHB,        ///< single-queue release/acquire ordering
  MultiQueueJoin, ///< ordering through queue chains / multi-producer joins
  LoopPhase,      ///< k-th push matched with k-th pop in lockstep loops
  SegmentOrder,   ///< same HELIX segment held at both anchors
  CrossSegment,   ///< distinct segments, conflicts intra-iteration only
};

/// Stable kebab-case name for stats keys and diagnostics.
const char *hbRuleName(HBRule R);

struct RaceRuleStats;

/// Tuning knobs for detectRaces and the happens-before engine it drives.
/// Defaults enable every rule; tests and the `--race-rules` CLI flag
/// disable individual rules to pin which one discharged a pair.
struct RaceDetectorOptions {
  /// Queue release/acquire ordering (push completion ⟶ pop return).
  bool UseQueueHB = true;
  /// Transitive ordering through queue chains and multi-producer joins.
  bool UseMultiQueueJoin = true;
  /// k-th push / k-th pop matching for queue ops in lockstep loops.
  bool UseLoopPhase = true;
  /// Same-segment HELIX gate protection.
  bool UseSegmentOrder = true;
  /// Cross-segment partial orders for intra-iteration-only conflicts.
  bool UseCrossSegment = true;
  /// When set, per-rule counters are accumulated here.
  RaceRuleStats *Stats = nullptr;
};

/// Per-region happens-before engine. Owns per-task dominator trees, loop
/// info, completed-event dataflows, and gate dataflows; all built lazily
/// and cached for the lifetime of the engine (one region scan).
class HappensBeforeEngine {
public:
  HappensBeforeEngine(const ParallelRegion &R,
                      const PDGDependenceSummary *Deps,
                      const RaceDetectorOptions &Opts);
  ~HappensBeforeEngine();

  HappensBeforeEngine(const HappensBeforeEngine &) = delete;
  HappensBeforeEngine &operator=(const HappensBeforeEngine &) = delete;

  /// Cross-task ordering (DSWP): the rule proving anchor \p A in \p TA
  /// and anchor \p B in \p TB can never overlap in time, in either
  /// direction, or HBRule::None. Tasks must be distinct members of the
  /// region and not self-concurrent.
  HBRule orderedCrossTask(const nir::Instruction *A, const TaskInfo &TA,
                          const nir::Instruction *B, const TaskInfo &TB);

  /// HELIX gate protection for two anchors of the self-concurrent task
  /// \p T: SegmentOrder when a common segment is guaranteed held at both
  /// anchors, CrossSegment when each anchor holds some (distinct)
  /// segment and the snapshot PDG shows the pair's conflicts are
  /// intra-iteration only. A segment whose protocol leaks protects
  /// nothing.
  HBRule segmentOrdered(const nir::Instruction *A, const nir::Instruction *B,
                        const TaskInfo &T);

private:
  struct TaskState;
  struct QueueSites;

  TaskState &stateFor(const TaskInfo &T);
  const std::map<unsigned, QueueSites> &queueSites();

  /// True if \p Later may execute after (or concurrently re-execute with)
  /// \p Earlier: CFG reachability from Earlier's block, or same-block
  /// order, or a shared cycle.
  bool mayFollow(const nir::Instruction *Earlier,
                 const nir::Instruction *Later, TaskState &TS);

  /// True if sync event \p Ev has completed on every path from task
  /// entry to \p At.
  bool completedBefore(const nir::Instruction *Ev, const nir::Instruction *At,
                       TaskState &TS);

  HBRule queueOrdered(const nir::Instruction *Pre, const TaskInfo &PreT,
                      const nir::Instruction *Post, const TaskInfo &PostT);
  bool loopPhaseOrdered(const nir::Instruction *Pre, const TaskInfo &PreT,
                        const nir::Instruction *Post, const TaskInfo &PostT);

  const ParallelRegion &R;
  const PDGDependenceSummary *Deps;
  RaceDetectorOptions Opts;

  std::map<const TaskInfo *, std::unique_ptr<TaskState>> States;
  std::unique_ptr<std::map<unsigned, QueueSites>> Queues;
  /// Raw noelle_queue_push/pop calls without queue provenance metadata
  /// exist in the region: queue reasoning is unsound, disable it.
  bool UnknownQueueOps = false;
};

} // namespace verify
} // namespace noelle

#endif // VERIFY_HAPPENSBEFORE_H
