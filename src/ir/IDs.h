//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic IDs for instructions, basic blocks, and functions —
/// NOELLE's "IDs" abstraction. IDs are stored as metadata so they survive
/// printing, parsing, and linking, letting every artifact (ir/Artifact.h)
/// and every plan reference instructions across pipeline stages.
///
//===----------------------------------------------------------------------===//

#ifndef IR_IDS_H
#define IR_IDS_H

#include "ir/Module.h"

#include <cstdint>
#include <optional>

namespace nir {

/// Metadata keys used for deterministic IDs.
inline constexpr const char *InstIDKey = "noelle.inst.id";
inline constexpr const char *BlockIDKey = "noelle.bb.id";
inline constexpr const char *FunctionIDKey = "noelle.fn.id";

/// Assigns fresh deterministic IDs to every function, block, and
/// instruction of \p M in program order, replacing any existing IDs.
void assignDeterministicIDs(Module &M);

/// Removes all deterministic IDs from \p M.
void clearDeterministicIDs(Module &M);

/// The deterministic ID \p V carries, or nullopt when it has none.
std::optional<uint64_t> instIDOf(const Value *V);

/// True if any instruction of \p M carries a deterministic ID.
bool hasDeterministicIDs(const Module &M);

} // namespace nir

#endif // IR_IDS_H
