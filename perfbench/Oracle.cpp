#include "Oracle.h"

#include "frontend/MiniC.h"
#include "interp/Interpreter.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

void fnv(uint64_t &H, const void *Data, size_t Bytes) {
  const auto *P = static_cast<const uint8_t *>(Data);
  for (size_t I = 0; I < Bytes; ++I) {
    H ^= P[I];
    H *= 0x100000001b3ull;
  }
}

std::string quote(const std::string &S) {
  std::string Out = "\"";
  for (unsigned char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += static_cast<char>(C);
    } else if (C == '\n') {
      Out += "\\n";
    } else if (C < 0x20 || C >= 0x7f) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\x%02x", C);
      Out += Buf;
    } else {
      Out += static_cast<char>(C);
    }
  }
  return Out + "\"";
}

bool unquote(const std::string &S, std::string &Out) {
  if (S.size() < 2 || S.front() != '"' || S.back() != '"')
    return false;
  Out.clear();
  for (size_t I = 1; I + 1 < S.size(); ++I) {
    if (S[I] != '\\') {
      Out += S[I];
      continue;
    }
    if (++I + 1 >= S.size())
      return false;
    if (S[I] == 'n') {
      Out += '\n';
    } else if (S[I] == 'x') {
      if (I + 3 >= S.size())
        return false;
      Out += static_cast<char>(std::stoi(S.substr(I + 1, 2), nullptr, 16));
      I += 2;
    } else {
      Out += S[I];
    }
  }
  return true;
}

} // namespace

std::vector<std::string> globalNames(const nir::Module &M) {
  std::vector<std::string> Names;
  for (const auto &G : M.getGlobals())
    Names.push_back(G->getName());
  return Names;
}

Outcome observe(const nir::ExecutionEngine &E, int64_t Main,
                const std::vector<std::string> &Globals) {
  Outcome O;
  O.Main = Main;
  O.Output = E.getOutput();
  uint64_t H = 0xcbf29ce484222325ull;
  for (const std::string &Name : Globals) {
    fnv(H, Name.data(), Name.size());
    const nir::GlobalVariable *G = E.getModule().getGlobal(Name);
    if (!G) {
      fnv(H, "<missing>", 9);
      continue;
    }
    fnv(H, reinterpret_cast<const void *>(E.getGlobalAddress(G)),
        G->getStoreSize());
  }
  O.GlobalsDigest = H;
  return O;
}

std::string describeMismatch(const Outcome &Want, const Outcome &Got) {
  std::string Why;
  if (Want.Main != Got.Main)
    Why += "main() = " + std::to_string(Got.Main) + ", expected " +
           std::to_string(Want.Main);
  if (Want.GlobalsDigest != Got.GlobalsDigest)
    Why += std::string(Why.empty() ? "" : "; ") + "globals differ";
  if (Want.Output != Got.Output)
    Why += std::string(Why.empty() ? "" : "; ") + "output differs";
  return Why;
}

bool referenceOutcome(const Kernel &K, Outcome &Out, std::string &Err) {
  nir::Context Ctx;
  auto M = minic::compileMiniC(Ctx, K.Source, Err);
  if (!M)
    return false;
  nir::ExecutionEngine E(*M);
  const int64_t Main = E.runMain();
  Out = observe(E, Main, globalNames(*M));
  return true;
}

bool loadExpected(const std::string &Path, ExpectedResults &Out,
                  std::string &Err) {
  std::ifstream In(Path);
  if (!In) {
    Err = "cannot open expected results '" + Path + "'";
    return false;
  }
  std::string Line;
  unsigned LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream SS(Line);
    std::string Name, Digest, Rest;
    Outcome O;
    if (!(SS >> Name >> O.Main >> Digest) || !std::getline(SS >> std::ws, Rest) ||
        !unquote(Rest, O.Output)) {
      Err = Path + ":" + std::to_string(LineNo) + ": malformed line";
      return false;
    }
    O.GlobalsDigest = std::stoull(Digest, nullptr, 16);
    Out[Name] = O;
  }
  return true;
}

bool saveExpected(const std::string &Path, const ExpectedResults &R) {
  std::ofstream Out(Path);
  Out << "# Expected results of every benchmark kernel, recorded from the\n"
         "# unoptimized sequential run of the untransformed module.\n"
         "# Regenerate: python3 perfbench/run.py --record-expected "
         "perfbench/expected.txt\n"
         "# kernel  main()  fnv1a64-of-globals  printed-output\n";
  for (const auto &[Name, O] : R) {
    char Digest[32];
    std::snprintf(Digest, sizeof(Digest), "%016" PRIx64, O.GlobalsDigest);
    Out << Name << ' ' << O.Main << ' ' << Digest << ' ' << quote(O.Output)
        << '\n';
  }
  return static_cast<bool>(Out);
}

} // namespace perfbench
