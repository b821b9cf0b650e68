//===----------------------------------------------------------------------===//
///
/// \file
/// Pipeline driver: runs the passes in a fixed order over one Noelle
/// facade, records which abstraction each pass requested (the ablation
/// experiment's raw data), and re-verifies the module after every pass,
/// aborting immediately on malformed IR so a broken transform cannot
/// masquerade as a miscompile downstream. In telemetry trace mode each
/// pass records an "opt.<pass>" span; otherwise no clock is read.
///
//===----------------------------------------------------------------------===//

#include "opt/Passes.h"

#include "ir/Verifier.h"
#include "telemetry/Telemetry.h"

#include <cstdio>
#include <cstdlib>

using namespace noelle;
using namespace noelle::opt;

PipelineStats noelle::opt::runPipeline(nir::Module &M,
                                       const PipelineOptions &Opts) {
  PipelineStats S;
  Noelle N(M);

  auto RunPass = [&](const char *Name, bool Enabled, auto &&Fn) {
    if (!Enabled)
      return;
    const bool Trace = telemetry::traceEnabled();
    const uint64_t T0 = Trace ? telemetry::nowNs() : 0;
    N.resetRequestTracking();
    Fn();
    S.PassAbstractions.emplace_back(Name, N.getRequestedAbstractions());
    const auto Errors = nir::verifyModule(M);
    if (!Errors.empty()) {
      std::fprintf(stderr, "pipeline pass '%s' broke the IR:\n", Name);
      for (const auto &E : Errors)
        std::fprintf(stderr, "  %s\n", E.c_str());
      std::abort();
    }
    if (Trace)
      telemetry::traceSpan(std::string("opt.") + Name, T0, telemetry::nowNs());
  };

  RunPass("inline", Opts.EnableInline,
          [&] { inlineFunctions(N, S); });
  RunPass("gvn", Opts.EnableGVN, [&] { runGVN(N, S); });
  RunPass("dce", Opts.EnableDCE, [&] { runDCE(M, S); });
  RunPass("licm", Opts.EnableLICM, [&] { runLICM(N, S); });
  RunPass("unroll", Opts.EnableUnroll, [&] { runUnroll(N, S); });
  // Unrolling exposes duplicated address math; clean it before packing.
  RunPass("gvn2", Opts.EnableGVN && Opts.EnableUnroll, [&] { runGVN(N, S); });
  RunPass("dce2", Opts.EnableDCE && Opts.EnableUnroll, [&] { runDCE(M, S); });
  RunPass("slp", Opts.EnableSLP, [&] { runSLP(N, S); });
  // The vectorizer leaves the replaced scalar chains behind on purpose;
  // this sweep deletes them.
  RunPass("dce3", Opts.EnableDCE && Opts.EnableSLP, [&] { runDCE(M, S); });

  return S;
}
