//===----------------------------------------------------------------------===//
///
/// \file
/// The artifact store (ir/Artifact.h) over all four kinds — pdg, prof,
/// memdep and plan. Each kind round-trips through embed, print, parse
/// and load, bound to the content hash it was computed for; embedding
/// leaves that hash alone; after a code edit the hash-bound kinds read
/// as absent while a plan still loads and fails its audit; and a record
/// of an unknown version reads as absent (pdg, prof) or fails with a
/// message (memdep, plan).
///
//===----------------------------------------------------------------------===//

#include "PDGEdgeKeys.h"

#include "frontend/MiniC.h"
#include "ir/Artifact.h"
#include "ir/Parser.h"
#include "noelle/MemDepProfiler.h"
#include "planner/Planner.h"
#include "tools/NoelleTools.h"
#include "verify/PlanCheck.h"

#include <gtest/gtest.h>

#include <optional>
#include <ostream>
#include <string>

using namespace noelle;
using nir::ArtifactKind;

namespace {

/// n is every loop's trip count, so editing its initializer changes the
/// content hash and every profile. The middle loop carries a dependence
/// through a[], so the memdep profile records one.
const char *Src = R"(
  int n;
  int a[4096];
  int main() {
    for (int i = 0; i < n; i = i + 1) a[i] = (i * 7 + 3) % 97;
    for (int i = 1; i < n; i = i + 1) a[i] = a[i] + a[i - 1] % 13;
    int s = 0;
    for (int i = 0; i < n; i = i + 1) s = s + a[i] * a[i];
    return s;
  }
)";

std::unique_ptr<nir::Module> compile(nir::Context &Ctx) {
  auto M = minic::compileMiniCOrDie(Ctx, Src);
  M->getGlobal("n")->setInitWords({4096});
  return M;
}

std::string renderPDG(const PDG &G) {
  std::string Out = std::to_string(G.getStats().MemoryPairsQueried) + "," +
                    std::to_string(G.getStats().MemoryPairsDisproved);
  for (const testutil::EdgeKey &K : testutil::edgeKeysOf(G))
    std::apply(
        [&Out](const std::string &From, const std::string &To, auto... F) {
          Out += " " + From + " " + To;
          ((Out += " " + std::to_string(F)), ...);
        },
        K);
  return Out;
}

/// A block profile by module position, so profiles of different Module
/// instances compare.
std::string renderProfile(const nir::Module &M, const ProfileData &P) {
  std::string Out = std::to_string(P.getTotalInstructions());
  for (const auto &F : M.getFunctions()) {
    Out += " fn" + std::to_string(P.getFunctionInvocations(F.get()));
    for (const auto &BB : F->getBlocks()) {
      Out += " " + std::to_string(P.getBlockCount(BB.get()));
      const auto *Br =
          nir::dyn_cast_or_null<nir::BranchInst>(BB->getTerminator());
      if (Br && Br->isConditional())
        Out += ":" + std::to_string(P.getBranchTakenCount(Br, 0)) + "/" +
               std::to_string(P.getBranchTakenCount(Br, 1));
    }
  }
  return Out;
}

/// One artifact kind: how to compute and embed it, and how to load it
/// back. Both render the artifact as text, so the two sides compare.
struct KindOps {
  ArtifactKind Kind;
  const char *Name;
  std::string (*Embed)(nir::Module &M);
  /// Null result: the artifact reads as absent, with \p Err set when the
  /// kind reports why.
  std::optional<std::string> (*Load)(nir::Module &M, std::string &Err);
};

void PrintTo(const KindOps &K, std::ostream *OS) { *OS << K.Name; }

const KindOps Kinds[] = {
    {ArtifactKind::PDG, "pdg",
     [](nir::Module &M) {
       tools::pdgEmbed(M);
       PDGBuilder Cold(M, testutil::coldSerialOpts());
       return renderPDG(Cold.getPDG());
     },
     [](nir::Module &M, std::string &) -> std::optional<std::string> {
       auto G = PDG::loadEmbedded(M);
       if (!G)
         return std::nullopt;
       return renderPDG(*G);
     }},
    {ArtifactKind::Profile, "prof",
     [](nir::Module &M) {
       ProfileData P = Profiler::profileModule(M);
       P.embed(M);
       return renderProfile(M, P);
     },
     [](nir::Module &M, std::string &) -> std::optional<std::string> {
       auto P = ProfileData::loadEmbedded(M);
       if (!P)
         return std::nullopt;
       return renderProfile(M, *P);
     }},
    {ArtifactKind::MemDep, "memdep",
     [](nir::Module &M) {
       MemDepProfile P = profileMemDeps(M);
       P.embed(M);
       return P.serialize();
     },
     [](nir::Module &M, std::string &Err) -> std::optional<std::string> {
       MemDepProfile P;
       if (!MemDepProfile::fromModule(M, P, Err))
         return std::nullopt;
       return P.serialize();
     }},
    {ArtifactKind::Plan, "plan",
     [](nir::Module &M) {
       Noelle N(M);
       planner::ProgramPlan P = planner::Planner(N).plan();
       P.embed(M);
       return P.serialize();
     },
     [](nir::Module &M, std::string &Err) -> std::optional<std::string> {
       planner::ProgramPlan P;
       if (!planner::ProgramPlan::fromModule(M, P, Err))
         return std::nullopt;
       return P.serialize();
     }},
};

class ArtifactRoundTrip : public ::testing::TestWithParam<KindOps> {};

TEST_P(ArtifactRoundTrip, EmbedPrintParseLoad) {
  const KindOps &K = GetParam();
  nir::Context Ctx;
  auto M = compile(Ctx);
  const uint64_t Hash = M->getContentHash();
  const std::string Embedded = K.Embed(*M);
  EXPECT_EQ(M->getContentHash(), Hash) << "embedding edited the code";

  auto M2 = nir::parseModuleOrDie(Ctx, M->str());
  EXPECT_EQ(M2->getContentHash(), Hash);
  std::string Err;
  nir::Artifact A;
  ASSERT_TRUE(nir::readCurrentArtifact(*M2, K.Kind, A, Err)) << Err;
  EXPECT_EQ(A.Hash, Hash);
  std::optional<std::string> Loaded = K.Load(*M2, Err);
  ASSERT_TRUE(Loaded) << Err;
  EXPECT_EQ(*Loaded, Embedded);

  nir::eraseArtifact(*M2, K.Kind);
  EXPECT_FALSE(K.Load(*M2, Err));
}

TEST_P(ArtifactRoundTrip, CodeEditLeavesOnlyThePlan) {
  const KindOps &K = GetParam();
  nir::Context Ctx;
  auto M = compile(Ctx);
  const std::string Embedded = K.Embed(*M);
  M->getGlobal("n")->setInitWords({2048});

  std::string Err;
  if (K.Kind != ArtifactKind::Plan) {
    EXPECT_FALSE(K.Load(*M, Err)) << "stale " << K.Name << " record loaded";
  } else {
    planner::ProgramPlan P;
    ASSERT_TRUE(planner::ProgramPlan::fromModule(*M, P, Err)) << Err;
    EXPECT_EQ(P.serialize(), Embedded);
    verify::CheckReport Rep = verify::checkPlan(*M, P);
    EXPECT_EQ(Rep.count(verify::DiagKind::PlanHashMismatch), 1u) << Rep.str();
    EXPECT_NE(Rep.str().find(nir::formatArtifactHash(P.ModuleHash)),
              std::string::npos)
        << Rep.str();
  }

  if (K.Kind == ArtifactKind::Profile) {
    // The facade ignores the stale profile and collects a fresh one.
    Noelle N(*M);
    EXPECT_EQ(N.getProfiles(false), nullptr);
    ProfileData *Fresh = N.getProfiles(true);
    ASSERT_NE(Fresh, nullptr);
    EXPECT_EQ(renderProfile(*M, *Fresh),
              renderProfile(*M, Profiler::profileModule(*M)));
    EXPECT_NE(renderProfile(*M, *Fresh), Embedded);
  }
}

TEST_P(ArtifactRoundTrip, UnknownVersionIsRejected) {
  const KindOps &K = GetParam();
  nir::Context Ctx;
  auto M = compile(Ctx);
  K.Embed(*M);

  const std::string Key = std::string("noelle.") + K.Name;
  const std::string Header = std::string(K.Name) + " v1\n";
  std::string Record = M->getModuleMetadata(Key);
  ASSERT_EQ(Record.rfind(Header, 0), 0u) << Record;
  M->setModuleMetadata(Key, std::string(K.Name) + " v9\n" +
                                Record.substr(Header.size()));

  std::string Err;
  EXPECT_FALSE(K.Load(*M, Err));
  if (K.Kind == ArtifactKind::MemDep || K.Kind == ArtifactKind::Plan) {
    EXPECT_NE(Err.find("version 'v9'"), std::string::npos) << Err;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, ArtifactRoundTrip, ::testing::ValuesIn(Kinds),
                         [](const ::testing::TestParamInfo<KindOps> &I) {
                           return std::string(I.param.Name);
                         });

} // namespace
