//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for the NIR substrate: types, values, use lists, building,
/// printing, parsing round-trips, the verifier, and the linker.
///
//===----------------------------------------------------------------------===//

#include "ir/IDs.h"
#include "ir/IRBuilder.h"
#include "ir/Linker.h"
#include "ir/Parser.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace nir;

namespace {

TEST(TypeTest, PrimitiveSizesAndNames) {
  Context Ctx;
  EXPECT_EQ(Ctx.getInt64Ty()->getStoreSize(), 8u);
  EXPECT_EQ(Ctx.getInt32Ty()->getStoreSize(), 4u);
  EXPECT_EQ(Ctx.getInt8Ty()->getStoreSize(), 1u);
  EXPECT_EQ(Ctx.getDoubleTy()->getStoreSize(), 8u);
  EXPECT_EQ(Ctx.getPtrTy()->getStoreSize(), 8u);
  EXPECT_EQ(Ctx.getInt64Ty()->str(), "i64");
  EXPECT_EQ(Ctx.getPtrTy()->str(), "ptr");
}

TEST(TypeTest, ArrayTypesAreUniqued) {
  Context Ctx;
  Type *A = Ctx.getArrayTy(Ctx.getInt64Ty(), 10);
  Type *B = Ctx.getArrayTy(Ctx.getInt64Ty(), 10);
  Type *C = Ctx.getArrayTy(Ctx.getInt64Ty(), 11);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_EQ(A->getStoreSize(), 80u);
  EXPECT_EQ(A->str(), "[10 x i64]");
}

TEST(TypeTest, FunctionTypesAreUniqued) {
  Context Ctx;
  std::vector<Type *> P = {Ctx.getInt64Ty(), Ctx.getPtrTy()};
  Type *A = Ctx.getFunctionTy(Ctx.getVoidTy(), P);
  Type *B = Ctx.getFunctionTy(Ctx.getVoidTy(), P);
  EXPECT_EQ(A, B);
  EXPECT_EQ(A->getNumParams(), 2u);
}

TEST(ConstantTest, IntsAreInterned) {
  Context Ctx;
  EXPECT_EQ(Ctx.getInt64(42), Ctx.getInt64(42));
  EXPECT_NE(Ctx.getInt64(42), Ctx.getInt64(43));
  EXPECT_NE(static_cast<Value *>(Ctx.getInt64(1)),
            static_cast<Value *>(Ctx.getInt32(1)));
  EXPECT_EQ(Ctx.getInt64(-7)->getValue(), -7);
}

/// Builds: func @f(%n: i64) -> i64 { entry: %x = add %n, 1; ret %x }
std::unique_ptr<Module> buildSimpleModule(Context &Ctx) {
  auto M = std::make_unique<Module>(Ctx, "m");
  Type *FnTy = Ctx.getFunctionTy(Ctx.getInt64Ty(), {Ctx.getInt64Ty()});
  Function *F = M->createFunction(FnTy, "f");
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(Ctx, BB);
  Value *X = B.createAdd(F->getArg(0), B.getInt64(1), "x");
  B.createRet(X);
  return M;
}

TEST(ValueTest, UseListsTrackOperands) {
  Context Ctx;
  auto M = buildSimpleModule(Ctx);
  Function *F = M->getFunction("f");
  Argument *N = F->getArg(0);
  EXPECT_EQ(N->getNumUses(), 1u);
  Instruction *Add = F->getEntryBlock().front();
  EXPECT_EQ(Add->getOperand(0), N);
  EXPECT_EQ(N->users().size(), 1u);
  EXPECT_EQ(N->users()[0], Add);
}

TEST(ValueTest, ReplaceAllUsesWith) {
  Context Ctx;
  auto M = buildSimpleModule(Ctx);
  Function *F = M->getFunction("f");
  Argument *N = F->getArg(0);
  Value *C = Ctx.getInt64(100);
  N->replaceAllUsesWith(C);
  EXPECT_EQ(N->getNumUses(), 0u);
  Instruction *Add = F->getEntryBlock().front();
  EXPECT_EQ(Add->getOperand(0), C);
}

TEST(ValueTest, EraseInstruction) {
  Context Ctx;
  auto M = buildSimpleModule(Ctx);
  Function *F = M->getFunction("f");
  Instruction *Add = F->getEntryBlock().front();
  Instruction *Ret = F->getEntryBlock().back();
  Ret->eraseFromParent();
  Add->replaceAllUsesWith(Ctx.getUndef(Add->getType()));
  Add->eraseFromParent();
  EXPECT_EQ(F->getEntryBlock().size(), 0u);
}

TEST(InstructionTest, CloneCopiesOperandsAndMetadata) {
  Context Ctx;
  auto M = buildSimpleModule(Ctx);
  Function *F = M->getFunction("f");
  Instruction *Add = F->getEntryBlock().front();
  Add->setMetadata("k", "v");
  Instruction *C = Add->clone();
  EXPECT_EQ(C->getOperand(0), Add->getOperand(0));
  EXPECT_EQ(C->getMetadata("k"), "v");
  EXPECT_EQ(C->getParent(), nullptr);
  C->replaceUsesOfWith(Add->getOperand(0), Ctx.getInt64(5));
  EXPECT_EQ(C->getOperand(0), Ctx.getInt64(5));
  delete C;
}

TEST(InstructionTest, MoveBefore) {
  Context Ctx;
  auto M = std::make_unique<Module>(Ctx, "m");
  Function *F =
      M->createFunction(Ctx.getFunctionTy(Ctx.getInt64Ty(), {}), "f");
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(Ctx, BB);
  Value *A = B.createAdd(B.getInt64(1), B.getInt64(2), "a");
  Value *C = B.createMul(B.getInt64(3), B.getInt64(4), "c");
  B.createRet(C);
  // Move mul before add.
  cast<Instruction>(C)->moveBefore(cast<Instruction>(A));
  EXPECT_EQ(BB->front(), C);
}

TEST(BasicBlockTest, SuccessorsAndPredecessors) {
  Context Ctx;
  auto M = std::make_unique<Module>(Ctx, "m");
  Function *F =
      M->createFunction(Ctx.getFunctionTy(Ctx.getVoidTy(), {}), "f");
  BasicBlock *Entry = F->createBlock("entry");
  BasicBlock *Then = F->createBlock("then");
  BasicBlock *Else = F->createBlock("else");
  IRBuilder B(Ctx, Entry);
  B.createCondBr(Ctx.getTrue(), Then, Else);
  B.setInsertPoint(Then);
  B.createRetVoid();
  B.setInsertPoint(Else);
  B.createRetVoid();

  auto Succs = Entry->successors();
  ASSERT_EQ(Succs.size(), 2u);
  EXPECT_EQ(Succs[0], Then);
  EXPECT_EQ(Succs[1], Else);
  ASSERT_EQ(Then->predecessors().size(), 1u);
  EXPECT_EQ(Then->predecessors()[0], Entry);
}

TEST(BasicBlockTest, SplitBefore) {
  Context Ctx;
  auto M = std::make_unique<Module>(Ctx, "m");
  Function *F =
      M->createFunction(Ctx.getFunctionTy(Ctx.getInt64Ty(), {}), "f");
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(Ctx, BB);
  Value *A = B.createAdd(B.getInt64(1), B.getInt64(2), "a");
  Instruction *MulI = B.createMul(B.getInt64(3), B.getInt64(4), "c");
  B.createRet(A);

  BasicBlock *Tail = BB->splitBefore(MulI, "tail");
  EXPECT_EQ(F->getNumBlocks(), 2u);
  EXPECT_EQ(BB->size(), 2u); // add + br
  EXPECT_EQ(Tail->size(), 2u); // mul + ret
  EXPECT_EQ(MulI->getParent(), Tail);
  ASSERT_EQ(BB->successors().size(), 1u);
  EXPECT_EQ(BB->successors()[0], Tail);
  EXPECT_TRUE(moduleVerifies(*M));
}

TEST(PhiTest, IncomingManagement) {
  Context Ctx;
  auto M = std::make_unique<Module>(Ctx, "m");
  Function *F =
      M->createFunction(Ctx.getFunctionTy(Ctx.getVoidTy(), {}), "f");
  BasicBlock *A = F->createBlock("a");
  BasicBlock *C = F->createBlock("c");
  IRBuilder B(Ctx, C);
  PhiInst *P = B.createPhi(Ctx.getInt64Ty(), "p");
  P->addIncoming(Ctx.getInt64(1), A);
  P->addIncoming(Ctx.getInt64(2), C);
  EXPECT_EQ(P->getNumIncoming(), 2u);
  EXPECT_EQ(P->getIncomingValueForBlock(A), Ctx.getInt64(1));
  EXPECT_EQ(P->getBlockIndex(C), 1);
  P->removeIncoming(0);
  EXPECT_EQ(P->getNumIncoming(), 1u);
  EXPECT_EQ(P->getIncomingValue(0), Ctx.getInt64(2));
  EXPECT_EQ(P->getIncomingBlock(0), C);
}

TEST(PrinterParserTest, RoundTripSimple) {
  Context Ctx;
  auto M = buildSimpleModule(Ctx);
  std::string Text = M->str();
  std::string Error;
  auto M2 = parseModule(Ctx, Text, Error);
  ASSERT_NE(M2, nullptr) << Error;
  EXPECT_EQ(M2->str(), Text);
}

TEST(PrinterParserTest, ParseRichProgram) {
  Context Ctx;
  const char *Text = R"(
module "rich"
meta "opt" = "O3"
global @data : [8 x i64] = [1, 2, 3, 4, 5, 6, 7, 8]
declare @print_i64(i64) -> void

func @sum(%n: i64) -> i64 {
entry:
  br label loop
loop:
  %i = phi i64 [0, entry], [%i.next, loop]
  %acc = phi i64 [0, entry], [%acc.next, loop]
  %p = gep @data, i64 %i, scale 8
  %v = load i64, %p
  %acc.next = add i64 %acc, %v
  %i.next = add i64 %i, 1
  %cond = cmp slt i64 %i.next, %n
  br %cond, label loop, label exit
exit:
  call void @print_i64(i64 %acc.next)
  ret i64 %acc.next
}
)";
  std::string Error;
  auto M = parseModule(Ctx, Text, Error);
  ASSERT_NE(M, nullptr) << Error;
  EXPECT_TRUE(moduleVerifies(*M));
  EXPECT_EQ(M->getName(), "rich");
  EXPECT_EQ(M->getModuleMetadata("opt"), "O3");
  ASSERT_NE(M->getGlobal("data"), nullptr);
  EXPECT_EQ(M->getGlobal("data")->getInitWords().size(), 8u);
  Function *Sum = M->getFunction("sum");
  ASSERT_NE(Sum, nullptr);
  EXPECT_EQ(Sum->getNumBlocks(), 3u);

  // Round-trip again.
  std::string Text2 = M->str();
  auto M2 = parseModule(Ctx, Text2, Error);
  ASSERT_NE(M2, nullptr) << Error;
  EXPECT_EQ(M2->str(), Text2);
}

TEST(PrinterParserTest, MetadataRoundTrips) {
  Context Ctx;
  auto M = buildSimpleModule(Ctx);
  Function *F = M->getFunction("f");
  F->getEntryBlock().front()->setMetadata("noelle.id", "7");
  F->setMetadata("hot", "yes");
  std::string Error;
  auto M2 = parseModule(Ctx, M->str(), Error);
  ASSERT_NE(M2, nullptr) << Error;
  Function *F2 = M2->getFunction("f");
  EXPECT_EQ(F2->getMetadata("hot"), "yes");
  EXPECT_EQ(F2->getEntryBlock().front()->getMetadata("noelle.id"), "7");
}

TEST(PrinterParserTest, ErrorsAreReported) {
  Context Ctx;
  std::string Error;
  EXPECT_EQ(parseModule(Ctx, "func @f() -> i64 {\nentry:\n  ret i64 %nope\n}",
                        Error),
            nullptr);
  EXPECT_NE(Error.find("nope"), std::string::npos);

  Error.clear();
  EXPECT_EQ(parseModule(Ctx, "garbage top level", Error), nullptr);
  EXPECT_FALSE(Error.empty());
}

TEST(PrinterParserTest, NegativeAndFloatConstants) {
  Context Ctx;
  const char *Text = R"(
func @f() -> double {
entry:
  %x = fadd double -1.5, 2.25
  %y = add i64 -42, 1
  %z = sitofp i64 %y to double
  %w = fmul double %x, %z
  ret double %w
}
)";
  std::string Error;
  auto M = parseModule(Ctx, Text, Error);
  ASSERT_NE(M, nullptr) << Error;
  auto M2 = parseModule(Ctx, M->str(), Error);
  ASSERT_NE(M2, nullptr) << Error;
  EXPECT_EQ(M->str(), M2->str());
}

TEST(VerifierTest, CatchesMissingTerminator) {
  Context Ctx;
  auto M = std::make_unique<Module>(Ctx, "m");
  Function *F =
      M->createFunction(Ctx.getFunctionTy(Ctx.getVoidTy(), {}), "f");
  BasicBlock *BB = F->createBlock("entry");
  IRBuilder B(Ctx, BB);
  B.createAdd(B.getInt64(1), B.getInt64(2));
  auto Errors = verifyModule(*M);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("terminator"), std::string::npos);
}

TEST(VerifierTest, CatchesPhiMissingPredecessor) {
  Context Ctx;
  const char *Text = R"(
func @f(%c: i1) -> i64 {
entry:
  br %c, label a, label b
a:
  br label merge
b:
  br label merge
merge:
  %x = phi i64 [1, a]
  ret i64 %x
}
)";
  std::string Error;
  auto M = parseModule(Ctx, Text, Error);
  ASSERT_NE(M, nullptr) << Error;
  auto Errors = verifyModule(*M);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("missing an incoming value"), std::string::npos);
}

TEST(LinkerTest, LinksDeclarationToDefinition) {
  Context Ctx;
  std::string Error;
  auto A = parseModule(Ctx, R"(
declare @g(i64) -> i64
func @f(%x: i64) -> i64 {
entry:
  %r = call i64 @g(i64 %x)
  ret i64 %r
}
)",
                       Error);
  ASSERT_NE(A, nullptr) << Error;
  auto B = parseModule(Ctx, R"(
func @g(%x: i64) -> i64 {
entry:
  %r = mul i64 %x, 2
  ret i64 %r
}
)",
                       Error);
  ASSERT_NE(B, nullptr) << Error;

  auto Linked = linkModules(Ctx, {A.get(), B.get()}, Error);
  ASSERT_NE(Linked, nullptr) << Error;
  Function *G = Linked->getFunction("g");
  ASSERT_NE(G, nullptr);
  EXPECT_FALSE(G->isDeclaration());
  EXPECT_TRUE(moduleVerifies(*Linked));
}

TEST(LinkerTest, RejectsDuplicateDefinitions) {
  Context Ctx;
  std::string Error;
  const char *Text = R"(
func @f() -> i64 {
entry:
  ret i64 1
}
)";
  auto A = parseModule(Ctx, Text, Error);
  auto B = parseModule(Ctx, Text, Error);
  auto Linked = linkModules(Ctx, {A.get(), B.get()}, Error);
  EXPECT_EQ(Linked, nullptr);
  EXPECT_NE(Error.find("duplicate"), std::string::npos);
}

TEST(IDsTest, AssignAndIndex) {
  Context Ctx;
  auto M = buildSimpleModule(Ctx);
  BasicBlock &Entry = M->getFunction("f")->getEntryBlock();
  EXPECT_FALSE(hasDeterministicIDs(*M));
  assignDeterministicIDs(*M);
  EXPECT_TRUE(hasDeterministicIDs(*M));
  EXPECT_EQ(instIDOf(Entry.front()), 0u); // add
  EXPECT_EQ(instIDOf(Entry.getTerminator()), 1u); // ret
  EXPECT_EQ(instIDOf(M->getFunction("f")->getArg(0)), std::nullopt);
  clearDeterministicIDs(*M);
  EXPECT_FALSE(hasDeterministicIDs(*M));
  EXPECT_EQ(instIDOf(Entry.front()), std::nullopt);
}

TEST(IDsTest, IDsSurviveRoundTrip) {
  Context Ctx;
  auto M = buildSimpleModule(Ctx);
  assignDeterministicIDs(*M);
  std::string Error;
  auto M2 = parseModule(Ctx, M->str(), Error);
  ASSERT_NE(M2, nullptr) << Error;
  BasicBlock &Entry = M2->getFunction("f")->getEntryBlock();
  EXPECT_EQ(instIDOf(Entry.front()), 0u);
  EXPECT_EQ(instIDOf(Entry.getTerminator()), 1u);
}

} // namespace
