//===----------------------------------------------------------------------===//
///
/// \file
/// Shared helpers for the table/figure reproduction harnesses: LoC
/// counting over the source tree, table formatting, where BENCH_*.json
/// files go, and the Figure-5 modeled time of a run (DESIGN.md §6b).
///
//===----------------------------------------------------------------------===//

#ifndef BENCH_BENCHUTILS_H
#define BENCH_BENCHUTILS_H

#include "interp/Interpreter.h"
#include "xforms/ParallelizationTechnique.h"

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

namespace benchutil {

/// Counts non-empty, non-comment-only lines of the given files.
inline uint64_t countLoCFile(const std::filesystem::path &P) {
  std::ifstream In(P);
  uint64_t N = 0;
  std::string Line;
  while (std::getline(In, Line)) {
    size_t First = Line.find_first_not_of(" \t");
    if (First == std::string::npos)
      continue;
    if (Line.compare(First, 2, "//") == 0)
      continue;
    ++N;
  }
  return N;
}

/// LoC of every .h/.cpp file directly inside (or matching a prefix in)
/// a directory under the source tree.
inline uint64_t countLoC(const std::string &RelDir,
                         const std::string &Prefix = "") {
  namespace fs = std::filesystem;
  fs::path Root = fs::path(NOELLE_REPRO_SOURCE_DIR) / RelDir;
  uint64_t Total = 0;
  if (!fs::exists(Root))
    return 0;
  for (const auto &Entry : fs::directory_iterator(Root)) {
    if (!Entry.is_regular_file())
      continue;
    auto Ext = Entry.path().extension().string();
    if (Ext != ".h" && Ext != ".cpp")
      continue;
    if (!Prefix.empty() &&
        Entry.path().filename().string().rfind(Prefix, 0) != 0)
      continue;
    Total += countLoCFile(Entry.path());
  }
  return Total;
}

/// Where a bench writes its BENCH_*.json: the build tree's bench/
/// directory.
inline std::string outputPath(const std::string &Name) {
  return std::string(NOELLE_BENCH_OUTPUT_DIR) + "/" + Name;
}

/// Simple fixed-width table printing.
inline void printRow(const std::vector<std::string> &Cells,
                     const std::vector<int> &Widths) {
  std::string Line;
  for (size_t I = 0; I < Cells.size(); ++I) {
    std::string C = Cells[I];
    int W = I < Widths.size() ? Widths[I] : 16;
    if (static_cast<int>(C.size()) < W)
      C += std::string(W - C.size(), ' ');
    Line += C + "  ";
  }
  std::printf("%s\n", Line.c_str());
}

inline void printSeparator(const std::vector<int> &Widths) {
  std::string Line;
  for (int W : Widths)
    Line += std::string(W, '-') + "  ";
  std::printf("%s\n", Line.c_str());
}

/// Modeled execution time (in instruction units) of a program run under
/// the Figure-5 performance model (noelle::perfmodel).
inline uint64_t simulatedTime(const nir::ExecutionEngine &E) {
  return noelle::perfmodel::runTime(E.getInstructionsExecuted(),
                                    E.getDispatchRecords());
}

} // namespace benchutil

#endif // BENCH_BENCHUTILS_H
