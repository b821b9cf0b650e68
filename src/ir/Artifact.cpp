#include "ir/Artifact.h"

#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <sstream>

using namespace nir;

namespace {

struct KindInfo {
  const char *Name;
  const char *Key;
  unsigned Version;
};

/// One entry per ArtifactKind, in enum order. Bump a kind's version
/// whenever its payload codec changes: records of the old version then
/// read as unreadable instead of being misdecoded.
constexpr KindInfo Kinds[] = {{"pdg", "noelle.pdg", 1},
                              {"prof", "noelle.prof", 1},
                              {"memdep", "noelle.memdep", 1},
                              {"plan", "noelle.plan", 1}};

const KindInfo &info(ArtifactKind K) {
  return Kinds[static_cast<size_t>(K)];
}

std::string headerOf(ArtifactKind K) {
  return std::string(info(K).Name) + " v" + std::to_string(info(K).Version);
}

/// Splits the first line off \p Text.
std::string_view takeLine(std::string_view &Text) {
  size_t NL = Text.find('\n');
  std::string_view Line = Text.substr(0, NL);
  Text = NL == std::string_view::npos ? std::string_view()
                                      : Text.substr(NL + 1);
  return Line;
}

} // namespace

std::string nir::formatArtifactHash(uint64_t Hash) {
  char Buf[17];
  std::snprintf(Buf, sizeof(Buf), "%016" PRIx64, Hash);
  return Buf;
}

std::string nir::formatArtifact(ArtifactKind K, uint64_t Hash,
                                std::string_view Payload) {
  std::string Out = headerOf(K) + "\nhash " + formatArtifactHash(Hash) + "\n";
  Out += Payload;
  return Out;
}

bool nir::parseArtifact(ArtifactKind K, std::string_view Text, Artifact &Out,
                        std::string &Err) {
  const std::string Want = headerOf(K);
  const std::string Prefix = std::string(info(K).Name) + " ";
  std::string_view Header = takeLine(Text);
  if (Header != Want) {
    Err = Header.starts_with(Prefix)
              ? "line 1: unsupported " + std::string(info(K).Name) +
                    " version '" +
                    std::string(Header.substr(Prefix.size())) + "'"
              : "missing '" + Want + "' header";
    return false;
  }
  std::string_view HashLine = takeLine(Text);
  if (!HashLine.starts_with("hash ")) {
    Err = "missing 'hash' record";
    return false;
  }
  std::string_view Hex = HashLine.substr(5);
  auto [End, Ec] =
      std::from_chars(Hex.data(), Hex.data() + Hex.size(), Out.Hash, 16);
  if (Hex.empty() || Ec != std::errc() || End != Hex.data() + Hex.size()) {
    Err = "line 2: malformed hash";
    return false;
  }
  Out.Payload = Text;
  return true;
}

uint64_t nir::embedArtifact(Module &M, ArtifactKind K,
                            std::string_view Payload) {
  const uint64_t Hash = M.getContentHash();
  embedArtifact(M, K, Hash, Payload);
  return Hash;
}

void nir::embedArtifact(Module &M, ArtifactKind K, uint64_t Hash,
                        std::string_view Payload) {
  M.setModuleMetadata(info(K).Key, formatArtifact(K, Hash, Payload));
}

bool nir::readArtifact(const Module &M, ArtifactKind K, Artifact &Out,
                       std::string &Err) {
  const auto &MD = M.getAllModuleMetadata();
  auto It = MD.find(info(K).Key);
  if (It == MD.end()) {
    Err = std::string("module carries no ") + info(K).Name + " record";
    return false;
  }
  return parseArtifact(K, It->second, Out, Err);
}

bool nir::readCurrentArtifact(const Module &M, ArtifactKind K, Artifact &Out,
                              std::string &Err) {
  if (!readArtifact(M, K, Out, Err))
    return false;
  const uint64_t Hash = M.getContentHash();
  if (Out.Hash != Hash) {
    Err = std::string(info(K).Name) + " record was computed for another " +
          "module (record hash " + formatArtifactHash(Out.Hash) +
          ", module hash " + formatArtifactHash(Hash) + ")";
    return false;
  }
  return true;
}

void nir::eraseArtifact(Module &M, ArtifactKind K) {
  M.removeModuleMetadata(info(K).Key);
}

void nir::eraseArtifacts(Module &M) {
  for (const KindInfo &I : Kinds)
    M.removeModuleMetadata(I.Key);
}

bool nir::forEachArtifactLine(
    std::string_view Payload,
    const std::function<bool(const std::string &, const ArtifactFields &,
                             std::string &)> &Fn,
    std::string &Err) {
  // The payload starts on the record's third line.
  for (unsigned LineNo = 3; !Payload.empty(); ++LineNo) {
    auto Fail = [&](const std::string &Why) {
      Err = "line " + std::to_string(LineNo) + ": " + Why;
      return false;
    };
    std::istringstream LS{std::string(takeLine(Payload))};
    std::string Word, Tok;
    if (!(LS >> Word))
      continue;
    ArtifactFields Fields;
    while (LS >> Tok) {
      size_t Eq = Tok.find('=');
      if (Eq == std::string::npos || Eq == 0)
        return Fail("malformed token '" + Tok + "'");
      Fields.emplace_back(Tok.substr(0, Eq), Tok.substr(Eq + 1));
    }
    std::string Why;
    try {
      if (!Fn(Word, Fields, Why))
        return Fail(Why);
    } catch (const std::exception &) {
      return Fail("bad number in a '" + Word + "' record");
    }
  }
  return true;
}
