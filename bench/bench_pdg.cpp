//===----------------------------------------------------------------------===//
///
/// \file
/// PDG construction benchmark over the 20-kernel suite: serial build vs
/// the parallel per-function build, and cold build vs loading the
/// IR-embedded dependence cache. Emits BENCH_pdg.json with per-kernel
/// timings plus a summary for the largest kernel, so later PRs have a
/// perf trajectory to regress against.
///
/// Besides the individual kernels, the suite is also linked into one
/// whole-program module (the paper's noelle-whole-IR workflow — the
/// form the embedded cache is designed for) and measured as the
/// "whole_suite" entry; being the largest program, it anchors the
/// cache-speedup acceptance check.
///
/// The parallel build's graphs stay bit-identical to the serial build's
/// (PDGCacheTest proves identity). The embedded-cache speedup is
/// core-count independent: loading skips the Andersen solve and the
/// O(n^2) alias queries entirely.
///
//===----------------------------------------------------------------------===//

#include "BenchUtils.h"
#include "benchmarks/Suite.h"
#include "frontend/MiniC.h"
#include "ir/Parser.h"
#include "tools/NoelleTools.h"

#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

using namespace noelle;
using nir::Context;

namespace {

double nowUs() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct KernelResult {
  std::string Name;
  uint64_t Instructions = 0;
  uint64_t Edges = 0;
  double SerialUs = 0;
  double ParallelUs = 0;
  double EmbedLoadUs = 0;
  double CacheSpeedupVsSerial = 0;
};

template <typename Fn> double bestOf(unsigned Repeats, Fn &&F) {
  double Best = 1e300;
  for (unsigned R = 0; R < Repeats; ++R) {
    double T0 = nowUs();
    F();
    Best = std::min(Best, nowUs() - T0);
  }
  return Best;
}

bool isIdentChar(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') ||
         (C >= '0' && C <= '9') || C == '_';
}

/// Prefixes every identifier in a MiniC source with \p Prefix so the
/// suite kernels can be linked into one module without their @main and
/// global-array names colliding. Renaming locals too is harmless, so no
/// scope tracking is needed — only keywords, literals, and comments are
/// left alone.
std::string prefixIdentifiers(const std::string &Src,
                              const std::string &Prefix) {
  // Keywords plus the runtime builtins every kernel may call — those
  // resolve to shared declarations, so they must keep their names.
  static const std::set<std::string> Keywords = {
      "break",     "char",   "continue", "do",       "double",
      "else",      "extern", "for",      "if",       "int",
      "return",    "void",   "while",    "sqrt",     "exp",
      "log",       "sin",    "cos",      "pow",      "fabs",
      "floor",     "malloc", "free",     "print_char",
      "clock_ns",  "abort_if_false"};
  std::string Out;
  Out.reserve(Src.size() + Src.size() / 4);
  size_t I = 0, N = Src.size();
  while (I < N) {
    char C = Src[I];
    if (C == '/' && I + 1 < N && (Src[I + 1] == '/' || Src[I + 1] == '*')) {
      bool Line = Src[I + 1] == '/';
      size_t End = Line ? Src.find('\n', I) : Src.find("*/", I + 2);
      End = End == std::string::npos ? N : End + (Line ? 1 : 2);
      Out.append(Src, I, End - I);
      I = End;
    } else if (C == '"' || C == '\'') {
      size_t End = I + 1;
      while (End < N && Src[End] != C)
        End += Src[End] == '\\' ? 2 : 1;
      End = End < N ? End + 1 : N;
      Out.append(Src, I, End - I);
      I = End;
    } else if (isIdentChar(C) && !(C >= '0' && C <= '9')) {
      size_t End = I;
      while (End < N && isIdentChar(Src[End]))
        ++End;
      std::string Ident = Src.substr(I, End - I);
      if (!Keywords.count(Ident))
        Out += Prefix;
      Out += Ident;
      I = End;
    } else if (C >= '0' && C <= '9') {
      size_t End = I;
      while (End < N && (isIdentChar(Src[End]) || Src[End] == '.'))
        ++End;
      Out.append(Src, I, End - I);
      I = End;
    } else {
      Out += C;
      ++I;
    }
  }
  return Out;
}

} // namespace

int main() {
  constexpr unsigned Repeats = 5;
  std::vector<KernelResult> Results;

  std::printf("PDG construction: serial vs parallel build, cold vs "
              "embedded-cache load (best of %u)\n\n",
              Repeats);
  std::printf("%-14s %6s %6s %12s %12s %12s %9s\n", "kernel", "insts",
              "edges", "serial(us)", "parallel(us)", "cached(us)",
              "cache-x");

  auto measure = [&](const std::string &Name, nir::Module &M) {
    KernelResult R;
    R.Name = Name;
    R.Instructions = M.getNumInstructions();

    PDGBuildOptions Serial;
    Serial.ParallelBuild = false;
    Serial.UseEmbedded = false;
    R.SerialUs = bestOf(Repeats, [&] {
      PDGBuilder Builder(M, Serial);
      R.Edges = Builder.getPDG().getEdges().size();
    });

    PDGBuildOptions Parallel;
    Parallel.ParallelBuild = true;
    Parallel.UseEmbedded = false;
    R.ParallelUs = bestOf(Repeats, [&] {
      PDGBuilder Builder(M, Parallel);
      Builder.getPDG();
    });

    // Embed once, then measure the cache-hit path (hash check + edge
    // decode; no alias analysis, no pair queries).
    tools::pdgEmbed(M);
    R.EmbedLoadUs = bestOf(Repeats, [&] {
      PDGBuilder Builder(M);
      Builder.getPDG();
      if (!Builder.wasPDGLoadedFromEmbedded()) {
        std::fprintf(stderr, "%s: embedded cache unexpectedly missed\n",
                     Name.c_str());
        std::exit(1);
      }
    });
    R.CacheSpeedupVsSerial =
        R.EmbedLoadUs > 0 ? R.SerialUs / R.EmbedLoadUs : 0;

    std::printf("%-14s %6llu %6llu %12.1f %12.1f %12.1f %8.1fx\n",
                R.Name.c_str(),
                static_cast<unsigned long long>(R.Instructions),
                static_cast<unsigned long long>(R.Edges), R.SerialUs,
                R.ParallelUs, R.EmbedLoadUs, R.CacheSpeedupVsSerial);
    Results.push_back(R);
  };

  for (const auto &B : bench::getBenchmarkSuite()) {
    Context Ctx;
    auto M = minic::compileMiniCOrDie(Ctx, B.Source);
    measure(B.Name, *M);
  }

  // The whole suite linked as one program (noelle-whole-IR), each
  // kernel's symbols prefixed to avoid collisions. This is the module
  // the paper's pipeline embeds the PDG into, and the largest program
  // measured here.
  {
    Context Ctx;
    std::vector<std::string> Sources;
    for (const auto &B : bench::getBenchmarkSuite())
      Sources.push_back(
          prefixIdentifiers(B.Source, "k" + std::to_string(Sources.size()) +
                                          "_"));
    std::string Error;
    auto M = tools::wholeIR(Ctx, Sources, Error);
    if (!M) {
      std::fprintf(stderr, "whole-suite link failed: %s\n", Error.c_str());
      return 1;
    }
    measure("whole_suite", *M);
  }

  // Largest kernel (by instruction count) anchors the acceptance check:
  // embedded-cache load must beat the cold serial build by >= 5x.
  const KernelResult *Largest = &Results.front();
  for (const auto &R : Results)
    if (R.Instructions > Largest->Instructions)
      Largest = &R;

  bool Pass = Largest->CacheSpeedupVsSerial >= 5.0;
  std::printf("\nlargest kernel: %s (%llu instructions) — embedded load "
              "%.1fx faster than cold serial build: %s\n",
              Largest->Name.c_str(),
              static_cast<unsigned long long>(Largest->Instructions),
              Largest->CacheSpeedupVsSerial, Pass ? "pass (>=5x)" : "FAIL");

  const std::string JsonPath = benchutil::outputPath("BENCH_pdg.json");
  if (FILE *F = std::fopen(JsonPath.c_str(), "w")) {
    std::fprintf(F, "{\n  \"kernels\": [\n");
    for (size_t I = 0; I < Results.size(); ++I) {
      const auto &R = Results[I];
      std::fprintf(F,
                   "    {\"name\": \"%s\", \"instructions\": %llu, "
                   "\"edges\": %llu, \"serial_us\": %.1f, "
                   "\"parallel_us\": %.1f, \"cached_load_us\": %.1f, "
                   "\"cache_speedup_vs_serial\": %.2f}%s\n",
                   R.Name.c_str(),
                   static_cast<unsigned long long>(R.Instructions),
                   static_cast<unsigned long long>(R.Edges), R.SerialUs,
                   R.ParallelUs, R.EmbedLoadUs, R.CacheSpeedupVsSerial,
                   I + 1 == Results.size() ? "" : ",");
    }
    std::fprintf(F,
                 "  ],\n"
                 "  \"largest_kernel\": \"%s\",\n"
                 "  \"largest_kernel_cache_speedup\": %.2f,\n"
                 "  \"largest_kernel_pass_5x\": %s\n"
                 "}\n",
                 Largest->Name.c_str(), Largest->CacheSpeedupVsSerial,
                 Pass ? "true" : "false");
    std::fclose(F);
    std::printf("wrote %s\n", JsonPath.c_str());
  }
  return Pass ? 0 : 1;
}
