#include "Kernels.h"

#include "benchmarks/Suite.h"

#include <cctype>
#include <stdexcept>
#include <utility>

namespace perfbench {
namespace {

using Rewrite = std::pair<const char *, const char *>;

/// One scaled copy: the suite kernel, its scale factor (for the name),
/// and the integer literals to rewrite.
struct ScaledSpec {
  const char *Kernel;
  unsigned Factor;
  std::vector<Rewrite> Literals;
};

/// Chosen so every technique the planner picks on the suite runs on a
/// workload where one sequential run takes 5-50 ms on the interpreter:
/// there the cost of a parallel dispatch is amortized, and interpreter
/// throughput and parallel scaling decide the result. The planner picks
/// only DOALL and speculative DOALL on the suite with 4 workers; canneal
/// and ferret, the HELIX and DSWP candidates, stay sequential there, and
/// would show a change when the planner starts taking them.
const std::vector<ScaledSpec> &scaledSpecs() {
  static const std::vector<ScaledSpec> Specs = {
      // DOALL, private inner recurrence.
      {"swaptions", 32, {{"256", "8192"}}},
      // DOALL, double math.
      {"basicmath", 64, {{"512", "32768"}}},
      // DOALL, heavy trig inner loop.
      {"fft", 4, {{"128", "512"}}},
      // DOALL with a sum reduction.
      {"stringsearch", 32, {{"4096", "131072"}, {"4090", "131066"}}},
      // HELIX candidate: a sequential RNG segment beside independent work.
      {"canneal", 256, {{"384", "98304"}}},
      // DSWP candidate: two chained stages.
      {"ferret", 64, {{"256", "16384"}}},
      // Speculative DOALL: the block-offset table stays a permutation
      // because 37 is coprime to every power of two.
      {"x264", 4, {{"256", "1024"}, {"4096", "16384"}}},
  };
  return Specs;
}

/// Replaces every integer-literal token of \p Src that equals a key of
/// \p Literals. Digits that belong to identifiers or to floating-point
/// literals are left alone.
std::string rewriteLiterals(const std::string &Src,
                            const std::vector<Rewrite> &Literals) {
  auto IsWordChar = [](char C) {
    return std::isalnum(static_cast<unsigned char>(C)) || C == '_' ||
           C == '.';
  };
  std::string Out;
  size_t I = 0;
  while (I < Src.size()) {
    if (!std::isdigit(static_cast<unsigned char>(Src[I])) ||
        (I > 0 && IsWordChar(Src[I - 1]))) {
      Out += Src[I++];
      continue;
    }
    size_t End = I;
    while (End < Src.size() &&
           std::isdigit(static_cast<unsigned char>(Src[End])))
      ++End;
    std::string Token = Src.substr(I, End - I);
    if (End == Src.size() || !IsWordChar(Src[End]))
      for (const Rewrite &R : Literals)
        if (Token == R.first) {
          Token = R.second;
          break;
        }
    Out += Token;
    I = End;
  }
  return Out;
}

/// splitmix64: a small, fully specified generator, so a seed gives the
/// same order with every standard library.
uint64_t splitmix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
  return Z ^ (Z >> 31);
}

} // namespace

std::vector<Kernel> suiteKernels() {
  std::vector<Kernel> Out;
  for (const bench::Benchmark &B : bench::getBenchmarkSuite())
    Out.push_back({B.Name, B.Source});
  return Out;
}

std::vector<Kernel> scaledKernels() {
  std::vector<Kernel> Out;
  for (const ScaledSpec &S : scaledSpecs()) {
    const bench::Benchmark *B = bench::findBenchmark(S.Kernel);
    if (!B)
      throw std::runtime_error(std::string("no suite kernel ") + S.Kernel);
    std::string Source = rewriteLiterals(B->Source, S.Literals);
    if (Source == B->Source)
      throw std::runtime_error(std::string("scaling left ") + S.Kernel +
                               " unchanged");
    Out.push_back({std::string(S.Kernel) + ".x" + std::to_string(S.Factor),
                   std::move(Source)});
  }
  return Out;
}

std::vector<size_t> passOrder(size_t NumKernels, uint64_t Seed,
                              uint64_t Pass) {
  std::vector<size_t> Order(NumKernels);
  for (size_t I = 0; I < NumKernels; ++I)
    Order[I] = I;
  uint64_t State = Seed * 0x100000001b3ull + Pass;
  for (size_t I = NumKernels; I > 1; --I)
    std::swap(Order[I - 1], Order[splitmix(State) % I]);
  return Order;
}

} // namespace perfbench
