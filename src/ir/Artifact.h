//===----------------------------------------------------------------------===//
///
/// \file
/// The artifact store: how an analysis result travels with its module
/// (the paper's noelle-meta-*-embed / noelle-meta-clean flow). Each kind
/// of result is one module metadata record under the key "noelle.<kind>":
///
///   <kind> v<N>
///   hash <16 hex digits>
///   <payload>
///
/// The hash is the content hash of the module the payload was computed
/// for. Module::getContentHash ignores metadata, so embedding, printing
/// and parsing keep the binding, and any code edit breaks it. The store
/// owns the keys, the version check, the hash encoding and the staleness
/// rule; each kind owns only its payload codec:
///
///   pdg     PDG::embed / PDG::loadEmbedded          (noelle/PDG.h)
///   prof    ProfileData::embed / loadEmbedded       (noelle/Profiler.h)
///   memdep  MemDepProfile::embed / fromModule       (noelle/MemDepProfiler.h)
///   plan    ProgramPlan::embed / fromModule         (planner/Plan.h)
///
/// A record of another version reads as unreadable, so a module written
/// by an older tool simply carries no artifacts and its results are
/// recomputed.
///
//===----------------------------------------------------------------------===//

#ifndef IR_ARTIFACT_H
#define IR_ARTIFACT_H

#include "ir/Module.h"

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace nir {

enum class ArtifactKind : uint8_t { PDG, Profile, MemDep, Plan };

/// A parsed record. Payload views the text it was parsed from.
struct Artifact {
  uint64_t Hash = 0; ///< content hash the payload was computed for
  std::string_view Payload;
};

/// A hash as records write it: 16 lowercase hex digits.
std::string formatArtifactHash(uint64_t Hash);

/// The record text of a \p K payload bound to \p Hash.
std::string formatArtifact(ArtifactKind K, uint64_t Hash,
                           std::string_view Payload);

/// Parses record text of kind \p K. Fails with \p Err when the header
/// names another kind or version, or the hash line is malformed.
bool parseArtifact(ArtifactKind K, std::string_view Text, Artifact &Out,
                   std::string &Err);

/// Stores \p Payload as \p M's \p K record, bound to \p M's current
/// content hash, which it returns.
uint64_t embedArtifact(Module &M, ArtifactKind K, std::string_view Payload);

/// Stores \p Payload as \p M's \p K record, bound to \p Hash (a plan
/// records the hash of the module it was computed for).
void embedArtifact(Module &M, ArtifactKind K, uint64_t Hash,
                   std::string_view Payload);

/// Reads \p M's \p K record whatever hash it carries. Fails with \p Err
/// when the record is absent or unreadable. Out.Payload views \p M's
/// metadata and stays valid until that changes.
bool readArtifact(const Module &M, ArtifactKind K, Artifact &Out,
                  std::string &Err);

/// The staleness rule: as readArtifact, and also fails when the record
/// is bound to a content hash other than \p M's.
bool readCurrentArtifact(const Module &M, ArtifactKind K, Artifact &Out,
                         std::string &Err);

/// Removes \p M's \p K record.
void eraseArtifact(Module &M, ArtifactKind K);

/// Removes every artifact record of \p M (noelle-meta-clean).
void eraseArtifacts(Module &M);

/// The fields of one `<word> key=value ...` payload line, the shape the
/// memdep and plan payloads use.
using ArtifactFields = std::vector<std::pair<std::string, std::string>>;

/// Calls \p Fn(word, fields, err) for every non-empty line of \p Payload
/// and stops at the first failure: a token that is not key=value, \p Fn
/// returning false, or \p Fn throwing on a number it cannot convert.
/// \p Err then names the line, counted from the record's first line.
bool forEachArtifactLine(
    std::string_view Payload,
    const std::function<bool(const std::string &, const ArtifactFields &,
                             std::string &)> &Fn,
    std::string &Err);

} // namespace nir

#endif // IR_ARTIFACT_H
