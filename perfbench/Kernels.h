//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's inputs: the 21 suite kernels as MiniC sources, scaled
/// copies of a few of them, and the seeded kernel order every workload
/// runs in.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_KERNELS_H
#define PERFBENCH_KERNELS_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Kernel {
  std::string Name;   ///< suite name; scaled copies are "<name>.x<factor>"
  std::string Source; ///< MiniC text handed to the frontend
};

/// The suite kernels, unchanged, in suite order.
std::vector<Kernel> suiteKernels();

/// Scaled copies of suite kernels: each copy rewrites the kernel's
/// problem-size literals (array extents and the loop bounds over them)
/// so that one sequential run takes milliseconds instead of
/// microseconds. At least one kernel per technique the planner picks.
std::vector<Kernel> scaledKernels();

/// One pass over \p NumKernels kernels: a permutation of 0..NumKernels-1
/// fixed by \p Seed and \p Pass, so every kernel appears once per pass.
std::vector<size_t> passOrder(size_t NumKernels, uint64_t Seed,
                              uint64_t Pass);

} // namespace perfbench

#endif // PERFBENCH_KERNELS_H
