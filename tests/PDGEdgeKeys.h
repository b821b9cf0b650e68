//===----------------------------------------------------------------------===//
///
/// \file
/// PDG edges flattened to deterministic-ID coordinates, so graphs over
/// different Module instances — a cold build and a reloaded pdg artifact
/// — compare edge for edge.
///
//===----------------------------------------------------------------------===//

#ifndef TESTS_PDGEDGEKEYS_H
#define TESTS_PDGEDGEKEYS_H

#include "ir/IDs.h"
#include "noelle/PDG.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

namespace testutil {

/// An edge endpoint: an instruction's deterministic ID, or the name of
/// an argument or global (the external nodes of function and loop
/// graphs).
inline std::string endpointOf(const nir::Value *V) {
  if (nir::isa<nir::Instruction>(V))
    return std::to_string(nir::instIDOf(V).value());
  return "@" + V->getName();
}

using EdgeKey = std::tuple<std::string, std::string, bool, int, bool, bool,
                           bool, int64_t>;

inline EdgeKey keyOf(const noelle::DependenceEdge<nir::Value> *E) {
  return {endpointOf(E->From),
          endpointOf(E->To),
          E->IsControl,
          static_cast<int>(E->Kind),
          E->IsMemory,
          E->IsLoopCarried,
          E->IsMust,
          E->Distance};
}

inline std::vector<EdgeKey> edgeKeysOf(const noelle::PDG &G) {
  std::vector<EdgeKey> Keys;
  for (const auto *E : G.getEdges())
    Keys.push_back(keyOf(E));
  return Keys;
}

/// Options for a cold serial build that ignores any pdg artifact.
inline noelle::PDGBuildOptions coldSerialOpts() {
  noelle::PDGBuildOptions O;
  O.ParallelBuild = false;
  O.UseEmbedded = false;
  return O;
}

/// Expects \p Loaded (a reloaded pdg artifact of \p M) to equal a cold
/// build of \p M: the same edges in the same order, and the same stats.
inline void expectEqualsColdBuild(nir::Module &M, const noelle::PDG &Loaded) {
  noelle::PDGBuilder Cold(M, coldSerialOpts());
  const noelle::PDG &G = Cold.getPDG();
  EXPECT_EQ(edgeKeysOf(Loaded), edgeKeysOf(G));
  EXPECT_EQ(Loaded.getStats().MemoryPairsQueried,
            G.getStats().MemoryPairsQueried);
  EXPECT_EQ(Loaded.getStats().MemoryPairsDisproved,
            G.getStats().MemoryPairsDisproved);
}

} // namespace testutil

#endif // TESTS_PDGEDGEKEYS_H
