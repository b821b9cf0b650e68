//===----------------------------------------------------------------------===//
///
/// \file
/// noelle-opt: command-line driver for the NIR optimizer pipeline.
///
/// Usage:
///   noelle-opt [options] <kernel-name | minic-file | nir-file>
///
/// The input is compiled (a benchmark-suite kernel by name, a MiniC
/// source file, or parsed NIR text for files ending in .nir), the
/// pipeline runs, and the optimized module prints to stdout (or runs,
/// with --run).
///
/// Options:
///   --no-inline --no-gvn --no-dce --no-licm --no-unroll --no-slp
///                         disable one pass
///   --run                 execute main() after optimizing; print the
///                         program output and return value
///   --stats               print pass statistics and per-pass
///                         abstraction requests to stderr as one JSON
///                         object (the metrics-snapshot shape)
///   --metrics=<path>      enable the telemetry registry and write its
///                         JSON snapshot to <path> on exit
///   --no-print            suppress printing the optimized module
///   --list                list benchmark kernels and exit
///
/// Exit status: 0 on success, 2 on usage/compile errors.
///
//===----------------------------------------------------------------------===//

#include "ToolDriver.h"

#include "interp/Interpreter.h"
#include "ir/Verifier.h"
#include "opt/Passes.h"
#include "tools/Pipeline.h"

#include <cstdio>
#include <iostream>
#include <string>

using namespace noelle;

int main(int argc, char **argv) {
  opt::PipelineOptions Opts;
  bool Run = false, Stats = false, Print = true;
  std::string Input, MetricsPath;

  for (int I = 1; I < argc; ++I) {
    const std::string A = argv[I];
    if (A == "--no-inline")
      Opts.EnableInline = false;
    else if (A == "--no-gvn")
      Opts.EnableGVN = false;
    else if (A == "--no-dce")
      Opts.EnableDCE = false;
    else if (A == "--no-licm")
      Opts.EnableLICM = false;
    else if (A == "--no-unroll")
      Opts.EnableUnroll = false;
    else if (A == "--no-slp")
      Opts.EnableSLP = false;
    else if (A == "--run")
      Run = true;
    else if (A == "--stats")
      Stats = true;
    else if (A == "--no-print")
      Print = false;
    else if (tooldriver::parseMetricsOpt(A, MetricsPath))
      ;
    else if (A == "--list") {
      tooldriver::listKernels();
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "noelle-opt: unknown option '%s'\n", A.c_str());
      return 2;
    } else {
      Input = A;
    }
  }
  if (Input.empty()) {
    std::fprintf(stderr,
                 "usage: noelle-opt [options] <kernel|file.minic|file.nir>\n");
    return 2;
  }

  nir::Context Ctx;
  std::string Err;
  auto M = tools::loadInputModule(Ctx, Input, Err);
  if (!M) {
    std::fprintf(stderr, "noelle-opt: %s\n", Err.c_str());
    return 2;
  }
  if (!nir::moduleVerifies(*M)) {
    std::fprintf(stderr, "noelle-opt: input module does not verify\n");
    return 2;
  }

  const opt::PipelineStats S = opt::runPipeline(*M, Opts);

  if (Stats) {
    // Machine-readable, mirroring the metrics-snapshot shape: pipeline
    // counters under "counters", per-pass abstraction requests under
    // "passes".
    namespace telemetry = noelle::telemetry;
    telemetry::JsonObject Counters;
    Counters.add("opt.inlined", S.CallsInlined)
        .add("opt.gvn", S.GVNReplaced)
        .add("opt.dce", S.DCERemoved)
        .add("opt.hoisted", S.InstructionsHoisted)
        .add("opt.unrolled", S.LoopsUnrolled)
        .add("opt.vector_insts", S.VectorInstsEmitted)
        .add("opt.stores_packed", S.StoresVectorized);
    telemetry::JsonObject Passes;
    for (const auto &[Pass, Set] : S.PassAbstractions) {
      std::string Names;
      for (const auto &Name : Set.names())
        Names += (Names.empty() ? "" : ",") + Name;
      Passes.add(Pass, Names);
    }
    telemetry::JsonObject Root;
    Root.add("tool", std::string("noelle-opt"))
        .addRaw("counters", Counters.str())
        .addRaw("passes", Passes.str());
    std::fprintf(stderr, "%s\n", Root.str().c_str());
  }

  if (Print)
    M->print(std::cout);
  if (Run) {
    nir::ExecutionEngine E(*M);
    const int64_t R = E.runMain();
    std::fputs(E.getOutput().c_str(), stdout);
    std::printf("main() = %lld\n", (long long)R);
  }
  if (!tooldriver::writeMetricsIfRequested("noelle-opt", MetricsPath))
    return 2;
  return 0;
}
