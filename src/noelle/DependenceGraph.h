//===----------------------------------------------------------------------===//
///
/// \file
/// NOELLE's templated dependence graph: a directed multigraph of
/// dependences between nodes of any type (the PDG instantiates it with
/// IR values; the call graph uses functions). Nodes are split into
/// internal (belonging to the code region under analysis) and external
/// (live-ins/live-outs of that region), as described in Section 2.2 of
/// the paper.
///
//===----------------------------------------------------------------------===//

#ifndef NOELLE_DEPENDENCEGRAPH_H
#define NOELLE_DEPENDENCEGRAPH_H

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <set>
#include <span>
#include <unordered_map>
#include <vector>

namespace noelle {

/// Kind of a data dependence.
enum class DataDepKind {
  RAW, ///< read-after-write (true/flow)
  WAW, ///< write-after-write (output)
  WAR, ///< write-after-read (anti)
};

/// One dependence edge with the attributes the paper lists: control vs
/// data, RAW/WAW/WAR, loop-carried flag, distance, memory vs register,
/// and apparent (may) vs actual (must).
template <typename NodeT> struct DependenceEdge {
  NodeT *From = nullptr;
  NodeT *To = nullptr;
  bool IsControl = false;
  DataDepKind Kind = DataDepKind::RAW;
  bool IsMemory = false;
  bool IsLoopCarried = false;
  bool IsMust = false; ///< actual dependence; false = apparent (may)
  /// Dependence distance in iterations when known; -1 = unknown.
  int64_t Distance = -1;
};

/// A directed multigraph of dependences between NodeT values.
template <typename NodeT> class DependenceGraph {
public:
  using EdgeT = DependenceEdge<NodeT>;

  /// Registers \p N. Internal nodes belong to the analyzed region;
  /// external nodes represent its live-ins/live-outs.
  void addNode(NodeT *N, bool Internal) {
    if (Nodes.insert(N).second) {
      (Internal ? Internals : Externals).insert(N);
      return;
    }
    // Upgrading an external node to internal is allowed (e.g. when a
    // region grows); the reverse is not.
    if (Internal && Externals.erase(N))
      Internals.insert(N);
  }

  bool hasNode(NodeT *N) const { return Nodes.count(N) != 0; }
  bool isInternal(NodeT *N) const { return Internals.count(N) != 0; }
  bool isExternal(NodeT *N) const { return Externals.count(N) != 0; }

  const std::set<NodeT *> &getNodes() const { return Nodes; }
  const std::set<NodeT *> &getInternalNodes() const { return Internals; }
  const std::set<NodeT *> &getExternalNodes() const { return Externals; }

  /// Adds an edge; both endpoints must already be nodes.
  EdgeT *addEdge(const EdgeT &E) {
    assert(hasNode(E.From) && hasNode(E.To) &&
           "edge endpoints must be graph nodes");
    return addEdgeTrusted(E);
  }

  /// addEdge without the endpoint-membership check, for bulk paths that
  /// guarantee it structurally — the PDG builder's graph assembly and
  /// the pdg artifact loader, which both register every endpoint as a
  /// node up front. The membership check walks two node sets per edge,
  /// which dominates bulk insertion cost.
  EdgeT *addEdgeTrusted(const EdgeT &E) {
    Edges.push_back({E, false});
    EdgeT *Raw = &Edges.back().E;
    OutEdges[E.From].push_back(Raw);
    InEdges[E.To].push_back(Raw);
    ++LiveEdges;
    return Raw;
  }

  /// Convenience: register data dependence From -> To.
  EdgeT *addRegisterDep(NodeT *From, NodeT *To, DataDepKind Kind) {
    EdgeT E;
    E.From = From;
    E.To = To;
    E.Kind = Kind;
    E.IsMust = true;
    return addEdge(E);
  }

  /// Edges leaving \p N. The view is invalidated by any graph mutation
  /// (like iterators).
  std::span<EdgeT *const> getOutEdges(NodeT *N) const {
    auto It = OutEdges.find(N);
    if (It == OutEdges.end())
      return {};
    return std::span<EdgeT *const>(It->second);
  }

  /// Edges entering \p N; same invalidation rule as getOutEdges.
  std::span<EdgeT *const> getInEdges(NodeT *N) const {
    auto It = InEdges.find(N);
    if (It == InEdges.end())
      return {};
    return std::span<EdgeT *const>(It->second);
  }

  /// All live edges, in insertion order.
  std::vector<EdgeT *> getEdges() const {
    std::vector<EdgeT *> Out;
    Out.reserve(LiveEdges);
    for (const auto &S : Edges)
      if (!S.Dead)
        Out.push_back(const_cast<EdgeT *>(&S.E));
    return Out;
  }

  uint64_t getNumEdges() const { return LiveEdges; }
  uint64_t getNumNodes() const { return Nodes.size(); }

  /// Removes all edges between \p From and \p To (both directions when
  /// \p BothDirections). Removed edges are unlinked from the adjacency
  /// lists and tombstoned in the edge store (their memory stays owned by
  /// the graph, so stale EdgeT* held by callers never dangle).
  void removeEdgesBetween(NodeT *From, NodeT *To, bool BothDirections) {
    auto Match = [&](const EdgeT *E) {
      if (E->From == From && E->To == To)
        return true;
      return BothDirections && E->From == To && E->To == From;
    };
    auto Scrub = [&](std::vector<EdgeT *> &L) {
      L.erase(std::remove_if(L.begin(), L.end(), Match), L.end());
    };
    Scrub(OutEdges[From]);
    Scrub(InEdges[To]);
    if (BothDirections) {
      Scrub(OutEdges[To]);
      Scrub(InEdges[From]);
    }
    for (auto &S : Edges)
      if (!S.Dead && Match(&S.E)) {
        S.Dead = true;
        --LiveEdges;
      }
  }

  /// Connected components over the undirected view of this graph
  /// restricted to internal nodes — NOELLE's "Islands" abstraction.
  std::vector<std::set<NodeT *>> getIslands() const {
    std::vector<std::set<NodeT *>> Out;
    std::set<NodeT *> Visited;
    for (NodeT *Seed : getInternalNodes()) {
      if (Visited.count(Seed))
        continue;
      std::set<NodeT *> Island;
      std::vector<NodeT *> Work = {Seed};
      while (!Work.empty()) {
        NodeT *N = Work.back();
        Work.pop_back();
        if (!isInternal(N) || !Island.insert(N).second)
          continue;
        Visited.insert(N);
        for (const EdgeT *E : getOutEdges(N))
          Work.push_back(E->To);
        for (const EdgeT *E : getInEdges(N))
          Work.push_back(E->From);
      }
      Out.push_back(std::move(Island));
    }
    return Out;
  }

private:
  /// One stored edge plus its tombstone flag (see removeEdgesBetween).
  struct StoredEdge {
    EdgeT E;
    bool Dead;
  };

  /// Node sets stay ordered (std::set): several consumers iterate them
  /// (SCC seeding, islands) and their order must not depend on a hash
  /// function. The adjacency tables below are only ever accessed by
  /// key, so they use hashing; the edge store is a deque for stable
  /// element addresses without one heap allocation per edge.
  std::set<NodeT *> Nodes;
  std::set<NodeT *> Internals;
  std::set<NodeT *> Externals;
  std::deque<StoredEdge> Edges;
  uint64_t LiveEdges = 0;
  std::unordered_map<NodeT *, std::vector<EdgeT *>> OutEdges;
  std::unordered_map<NodeT *, std::vector<EdgeT *>> InEdges;
};

} // namespace noelle

#endif // NOELLE_DEPENDENCEGRAPH_H
