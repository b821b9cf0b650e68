#include "planner/Plan.h"

#include <cinttypes>
#include <cstdio>

using namespace noelle;
using namespace noelle::planner;

std::string ProgramPlan::payload() const {
  std::string Out;
  char Buf[64];
  for (const PlanEntry &E : Entries) {
    Out += "loop fn=" + E.FunctionName;
    std::snprintf(Buf, sizeof(Buf), " header=%" PRIu64, E.HeaderInstID);
    Out += Buf;
    Out += " loop=" + std::to_string(E.LoopID);
    Out += std::string(" kind=") + techniqueName(E.Kind);
    Out += " workers=" + std::to_string(E.Workers);
    Out += " chunk=" + std::to_string(E.ChunkGrain);
    Out += " parent=" + std::to_string(E.Parent);
    Out += " speedup=" + std::to_string(E.SpeedupMilli);
    if (E.MeasuredMilli != 0)
      Out += " measured=" + std::to_string(E.MeasuredMilli);
    if (E.MisspecMilli != 0)
      Out += " misspec=" + std::to_string(E.MisspecMilli);
    if (!E.Premises.empty()) {
      Out += " premises=";
      for (size_t I = 0; I < E.Premises.size(); ++I) {
        if (I)
          Out += ",";
        Out += std::to_string(E.Premises[I].first) + ":" +
               std::to_string(E.Premises[I].second);
      }
    }
    Out += "\n";
  }
  return Out;
}

std::string ProgramPlan::serialize() const {
  return nir::formatArtifact(nir::ArtifactKind::Plan, ModuleHash, payload());
}

bool ProgramPlan::decode(const nir::Artifact &A, ProgramPlan &Out,
                         std::string &Err) {
  Out = ProgramPlan();
  Out.ModuleHash = A.Hash;
  auto Line = [&Out](const std::string &Word, const nir::ArtifactFields &Fs,
                     std::string &Why) {
    if (Word != "loop") {
      Why = "unknown record '" + Word + "'";
      return false;
    }
    PlanEntry E;
    bool SawFn = false, SawHdr = false, SawKind = false;
    for (const auto &[Key, Val] : Fs) {
      if (Key == "fn") {
        E.FunctionName = Val;
        SawFn = true;
      } else if (Key == "header") {
        E.HeaderInstID = std::stoull(Val);
        SawHdr = true;
      } else if (Key == "loop") {
        E.LoopID = static_cast<unsigned>(std::stoul(Val));
      } else if (Key == "kind") {
        if (!techniqueFromName(Val, E.Kind)) {
          Why = "unknown technique '" + Val + "'";
          return false;
        }
        SawKind = true;
      } else if (Key == "workers") {
        E.Workers = static_cast<unsigned>(std::stoul(Val));
      } else if (Key == "chunk") {
        E.ChunkGrain = static_cast<unsigned>(std::stoul(Val));
      } else if (Key == "parent") {
        E.Parent = std::stoi(Val);
      } else if (Key == "speedup") {
        E.SpeedupMilli = std::stoll(Val);
      } else if (Key == "measured") {
        E.MeasuredMilli = std::stoll(Val);
      } else if (Key == "misspec") {
        E.MisspecMilli = std::stoll(Val);
      } else if (Key == "premises") {
        size_t Pos = 0;
        while (Pos < Val.size()) {
          size_t Comma = Val.find(',', Pos);
          std::string Pair = Val.substr(
              Pos, Comma == std::string::npos ? Comma : Comma - Pos);
          size_t Colon = Pair.find(':');
          if (Colon == std::string::npos || Colon == 0 ||
              Colon + 1 == Pair.size()) {
            Why = "malformed premise '" + Pair + "'";
            return false;
          }
          E.Premises.push_back({std::stoull(Pair.substr(0, Colon)),
                                std::stoull(Pair.substr(Colon + 1))});
          Pos = Comma == std::string::npos ? Val.size() : Comma + 1;
        }
      } else {
        Why = "unknown key '" + Key + "'";
        return false;
      }
    }
    if (!SawFn || !SawHdr || !SawKind) {
      Why = "loop record missing fn/header/kind";
      return false;
    }
    Out.Entries.push_back(std::move(E));
    return true;
  };
  return nir::forEachArtifactLine(A.Payload, Line, Err);
}

bool ProgramPlan::deserialize(const std::string &Text, ProgramPlan &Out,
                              std::string &Err) {
  nir::Artifact A;
  return nir::parseArtifact(nir::ArtifactKind::Plan, Text, A, Err) &&
         decode(A, Out, Err);
}

void ProgramPlan::embed(nir::Module &M) const {
  nir::embedArtifact(M, nir::ArtifactKind::Plan, ModuleHash, payload());
}

bool ProgramPlan::fromModule(const nir::Module &M, ProgramPlan &Out,
                             std::string &Err) {
  nir::Artifact A;
  return nir::readArtifact(M, nir::ArtifactKind::Plan, A, Err) &&
         decode(A, Out, Err);
}
