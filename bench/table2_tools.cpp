//===----------------------------------------------------------------------===//
///
/// \file
/// Regenerates the paper's Table 2: NOELLE's tools and their LoC. The
/// tool layer here is a library (src/tools/NoelleTools.*) whose functions
/// correspond 1:1 to the paper's command-line tools; per-tool LoC is
/// attributed by the sections of that library plus the subsystems each
/// tool drives. The shared row counts all of src/tools: that library and
/// the pipeline driver (src/tools/Pipeline.*) the command-line tools run.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"

#include <cstdio>

using benchutil::countLoC;

int main() {
  // Whole tool-layer size, then the per-tool attribution.
  uint64_t ToolLayer = countLoC("src/tools");
  uint64_t Frontend = countLoC("src/frontend");
  uint64_t Linker = countLoC("src/ir", "Linker");
  uint64_t Profiler = countLoC("src/noelle", "Profiler");
  uint64_t Interp = countLoC("src/interp");

  struct Row {
    const char *Tool;
    const char *Description;
    uint64_t LoC;
    uint64_t PaperLoC;
  };
  std::vector<Row> Rows = {
      {"noelle-whole-IR",
       "single IR file from sources + embedded options (frontend + linker)",
       Frontend + Linker, 1522},
      {"noelle-rm-lc-dependences",
       "remove loop-carried data dependences from hot loops", 0, 0},
      {"noelle-prof-coverage", "inject/run IR profilers", Profiler, 1761},
      {"noelle-meta-prof-embed", "embed profiles into the IR", 0, 152},
      {"noelle-meta-pdg-embed", "compute and embed the PDG", 0, 451},
      {"noelle-load", "load the NOELLE layer in memory", 0, 12},
      {"noelle-arch", "describe/measure the architecture", 0, 259},
      {"noelle-linker", "link IR files preserving NOELLE metadata", Linker,
       59},
      {"noelle-bin", "standalone binary from IR (execution engine)", Interp,
       15},
  };

  std::printf("Table 2: NOELLE's tools (this reproduction vs. paper LoC)\n");
  std::printf("(0 = implemented inside src/tools/NoelleTools.cpp, counted "
              "once in the shared row)\n\n");
  std::vector<int> W = {26, 62, 8, 10};
  benchutil::printRow({"Tool", "Description", "LoC", "Paper LoC"}, W);
  benchutil::printSeparator(W);
  for (const auto &R : Rows)
    benchutil::printRow({R.Tool, R.Description, std::to_string(R.LoC),
                         R.PaperLoC ? std::to_string(R.PaperLoC) : "-"},
                        W);
  benchutil::printSeparator(W);
  benchutil::printRow({"(shared)",
                       "src/tools: NoelleTools + Pipeline driver",
                       std::to_string(ToolLayer), "5143 total"},
                      W);
  return 0;
}
