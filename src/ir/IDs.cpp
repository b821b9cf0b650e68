#include "ir/IDs.h"

#include <string>

using namespace nir;

void nir::assignDeterministicIDs(Module &M) {
  uint64_t FnID = 0, BBID = 0, InstID = 0;
  for (const auto &F : M.getFunctions()) {
    F->setMetadata(FunctionIDKey, std::to_string(FnID++));
    for (const auto &BB : F->getBlocks()) {
      BB->setMetadata(BlockIDKey, std::to_string(BBID++));
      for (const auto &I : BB->getInstList())
        I->setMetadata(InstIDKey, std::to_string(InstID++));
    }
  }
}

void nir::clearDeterministicIDs(Module &M) {
  for (const auto &F : M.getFunctions()) {
    F->removeMetadata(FunctionIDKey);
    for (const auto &BB : F->getBlocks()) {
      BB->removeMetadata(BlockIDKey);
      for (const auto &I : BB->getInstList())
        I->removeMetadata(InstIDKey);
    }
  }
}

std::optional<uint64_t> nir::instIDOf(const Value *V) {
  std::string S = V->getMetadata(InstIDKey);
  if (S.empty())
    return std::nullopt;
  uint64_t N = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return std::nullopt;
    N = N * 10 + static_cast<uint64_t>(C - '0');
  }
  return N;
}

bool nir::hasDeterministicIDs(const Module &M) {
  for (const auto &F : M.getFunctions())
    for (const auto &BB : F->getBlocks())
      for (const auto &I : BB->getInstList())
        if (I->hasMetadata(InstIDKey))
          return true;
  return false;
}
