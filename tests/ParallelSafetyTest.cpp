//===- ParallelSafetyTest.cpp - Race detection & classification tests --------===//
///
/// \file
/// Exercises the parallel-safety analyzer: known-racy kernels must produce a
/// located witness, known-safe kernels (including transformed ones) must be
/// proven safe, reductions must be recognized for all four operators, and
/// the classification must be stable under an unparse/reparse round trip.
/// Also covers the applyOmpFor race gate, the snippet-file gate, pragma
/// idempotency, the simulator's refusal to model unproven speedup, and the
/// native emitter's clause annotation.
///
//===----------------------------------------------------------------------===//

#include "src/analysis/ParallelSafety.h"
#include "src/cir/AstUtils.h"
#include "src/cir/Parser.h"
#include "src/cir/PathIndex.h"
#include "src/cir/Printer.h"
#include "src/eval/Evaluator.h"
#include "src/eval/NativeEvaluator.h"
#include "src/transform/AltdescPragmas.h"
#include "src/transform/Interchange.h"
#include "src/transform/Tiling.h"

#include "tests/TestUtil.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

namespace locus {
namespace {

using namespace cir;
using namespace analysis;

std::unique_ptr<Program> parseOrDie(const std::string &Src) {
  auto P = parseProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

/// The first (outermost) loop of region \p Name.
const ForStmt *outerLoop(const Program &P, const std::string &Name) {
  auto Regions = P.findRegions(Name);
  EXPECT_FALSE(Regions.empty());
  if (Regions.empty())
    return nullptr;
  for (const StmtPtr &S : Regions[0]->Stmts)
    if (const auto *For = dyn_cast<ForStmt>(S.get()))
      return For;
  ADD_FAILURE() << "region has no loop";
  return nullptr;
}

const VarInfo *findVar(const ParallelSafetyReport &Rep, const std::string &N) {
  for (const VarInfo &V : Rep.Vars)
    if (V.Name == N)
      return &V;
  return nullptr;
}

//===----------------------------------------------------------------------===//
// Known-racy kernels
//===----------------------------------------------------------------------===//

TEST(ParallelSafety, LoopCarriedFlowIsRacyWithWitness) {
  auto P = parseOrDie(R"(
#define N 32
double V[N];
int main() {
  int i;
#pragma @Locus loop=scan
  for (i = 1; i < N; i++)
    V[i] = V[i - 1] + 1.0;
}
)");
  ParallelSafetyReport Rep = analyzeParallelLoop(*outerLoop(*P, "scan"));
  EXPECT_EQ(Rep.Verdict, ParallelVerdict::Racy);
  ASSERT_FALSE(Rep.Witnesses.empty());
  const RaceWitness &W = Rep.Witnesses.front();
  EXPECT_EQ(W.Var, "V");
  EXPECT_EQ(W.Kind, DepKind::Flow);
  EXPECT_TRUE(W.SrcLoc.valid());
  EXPECT_NE(W.render().find("line"), std::string::npos);
  const VarInfo *V = findVar(Rep, "V");
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->Class, VarClass::Racy);
}

TEST(ParallelSafety, SeidelStencilBothDimsRacy) {
  // Gauss-Seidel in-place update: flow dependences carried by both i and j.
  auto P = parseOrDie(R"(
#define N 16
double A[N][N];
int main() {
  int i, j;
#pragma @Locus loop=seidel
  for (i = 1; i < N - 1; i++)
    for (j = 1; j < N - 1; j++)
      A[i][j] = (A[i - 1][j] + A[i + 1][j] + A[i][j - 1] + A[i][j + 1]) * 0.25;
}
)");
  const ForStmt *I = outerLoop(*P, "seidel");
  ParallelSafetyReport RepI = analyzeParallelLoop(*I);
  EXPECT_EQ(RepI.Verdict, ParallelVerdict::Racy);
  EXPECT_FALSE(RepI.Witnesses.empty());
  const auto *J = dyn_cast<ForStmt>(I->Body->Stmts[0].get());
  ASSERT_NE(J, nullptr);
  ParallelSafetyReport RepJ = analyzeParallelLoop(*J);
  EXPECT_EQ(RepJ.Verdict, ParallelVerdict::Racy);
}

TEST(ParallelSafety, SharedScalarWithoutReductionFormIsRacy) {
  // `s = 2.0 * s + A[i]` reads the shared accumulator before writing it,
  // but the update is not an `s = s + e` chain (s carries a coefficient),
  // so no reduction clause can fix it: two iterations conflict on s.
  auto P = parseOrDie(R"(
#define N 32
double A[N];
double s;
int main() {
  int i;
#pragma @Locus loop=horner
  for (i = 0; i < N; i++)
    s = 2.0 * s + A[i];
}
)");
  ParallelSafetyReport Rep = analyzeParallelLoop(*outerLoop(*P, "horner"));
  EXPECT_EQ(Rep.Verdict, ParallelVerdict::Racy);
  const VarInfo *S = findVar(Rep, "s");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Class, VarClass::Racy);
  ASSERT_FALSE(Rep.Witnesses.empty());
  EXPECT_TRUE(Rep.Witnesses.front().IsScalar);
}

TEST(ParallelSafety, NonChainScalarUpdateIsRacy) {
  // s = s - s * A[i]: s appears twice on the RHS, not a reduction chain.
  auto P = parseOrDie(R"(
#define N 32
double A[N];
double s;
int main() {
  int i;
#pragma @Locus loop=upd
  for (i = 0; i < N; i++)
    s = s - s * A[i];
}
)");
  ParallelSafetyReport Rep = analyzeParallelLoop(*outerLoop(*P, "upd"));
  EXPECT_EQ(Rep.Verdict, ParallelVerdict::Racy);
  const VarInfo *S = findVar(Rep, "s");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Class, VarClass::Racy);
}

//===----------------------------------------------------------------------===//
// Known-safe kernels
//===----------------------------------------------------------------------===//

const char *MatmulSrc = R"(
#define N 16
double A[N][N];
double B[N][N];
double C[N][N];
int main() {
  int i, j, k;
#pragma @Locus loop=mm
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      for (k = 0; k < N; k++)
        C[i][j] = C[i][j] + A[i][k] * B[k][j];
}
)";

TEST(ParallelSafety, MatmulOuterLoopIsSafe) {
  auto P = parseOrDie(MatmulSrc);
  ParallelSafetyReport Rep = analyzeParallelLoop(*outerLoop(*P, "mm"));
  EXPECT_EQ(Rep.Verdict, ParallelVerdict::Safe);
  EXPECT_TRUE(Rep.Witnesses.empty());
  const VarInfo *A = findVar(Rep, "A");
  const VarInfo *C = findVar(Rep, "C");
  const VarInfo *K = findVar(Rep, "k");
  ASSERT_NE(A, nullptr);
  ASSERT_NE(C, nullptr);
  ASSERT_NE(K, nullptr);
  EXPECT_EQ(A->Class, VarClass::SharedReadOnly);
  EXPECT_EQ(C->Class, VarClass::Shared);
  EXPECT_EQ(K->Class, VarClass::Private);
  // Inner indices must appear in the clause string; the parallel index
  // must not (OpenMP privatizes it).
  std::string Clauses = Rep.clauses();
  EXPECT_NE(Clauses.find("private("), std::string::npos);
  EXPECT_NE(Clauses.find("j"), std::string::npos);
  EXPECT_NE(Clauses.find("k"), std::string::npos);
}

TEST(ParallelSafety, PrivatizableTemporaryIsSafe) {
  // `t` is written before read every iteration; privatization removes the
  // apparent conflict.
  auto P = parseOrDie(R"(
#define N 32
double A[N];
double B[N];
double t;
int main() {
  int i;
#pragma @Locus loop=tmp
  for (i = 0; i < N; i++) {
    t = A[i] * 2.0;
    B[i] = t + 1.0;
  }
}
)");
  ParallelSafetyReport Rep = analyzeParallelLoop(*outerLoop(*P, "tmp"));
  EXPECT_EQ(Rep.Verdict, ParallelVerdict::Safe);
  const VarInfo *T = findVar(Rep, "t");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Class, VarClass::Private);
  EXPECT_NE(Rep.clauses().find("private("), std::string::npos);
}

TEST(ParallelSafety, ReadOnlyScalarIsFirstPrivate) {
  auto P = parseOrDie(R"(
#define N 32
double A[N];
double alpha;
int main() {
  int i;
#pragma @Locus loop=scale
  for (i = 0; i < N; i++)
    A[i] = A[i] * alpha;
}
)");
  ParallelSafetyReport Rep = analyzeParallelLoop(*outerLoop(*P, "scale"));
  EXPECT_EQ(Rep.Verdict, ParallelVerdict::Safe);
  const VarInfo *Al = findVar(Rep, "alpha");
  ASSERT_NE(Al, nullptr);
  EXPECT_EQ(Al->Class, VarClass::FirstPrivate);
  EXPECT_NE(Rep.clauses().find("firstprivate(alpha)"), std::string::npos);
}

TEST(ParallelSafety, TiledMatmulTileLoopIsSafe) {
  // Tiling introduces tile-index variables that appear in no subscript; the
  // analyzer must refine the resulting '*' directions through the tile
  // window instead of reporting a spurious race.
  auto P = parseOrDie(MatmulSrc);
  Block *Region = P->findRegions("mm")[0];
  transform::TransformContext Ctx;
  transform::InterchangeArgs Inter;
  Inter.Order = {0, 2, 1};
  ASSERT_TRUE(transform::applyInterchange(*Region, Inter, Ctx).succeeded());
  transform::TilingArgs T;
  T.Factors = {4, 4, 4};
  ASSERT_TRUE(transform::applyTiling(*Region, T, Ctx).succeeded());
  const ForStmt *Tile = outerLoop(*P, "mm");
  ParallelSafetyReport Rep = analyzeParallelLoop(*Tile);
  EXPECT_EQ(Rep.Verdict, ParallelVerdict::Safe) << Rep.summary();
}

//===----------------------------------------------------------------------===//
// Reduction recognition
//===----------------------------------------------------------------------===//

ParallelVerdict classifyReduction(const std::string &Body, RedOp Expect,
                                  const char *Decl = "double s;") {
  std::string Src = std::string("#define N 32\ndouble A[N];\n") + Decl +
                    R"(
int main() {
  int i;
#pragma @Locus loop=r
  for (i = 0; i < N; i++)
    )" + Body + "\n}\n";
  auto P = parseOrDie(Src);
  if (!P)
    return ParallelVerdict::Unknown;
  ParallelSafetyReport Rep = analyzeParallelLoop(*outerLoop(*P, "r"));
  const VarInfo *S = findVar(Rep, "s");
  EXPECT_NE(S, nullptr) << Body;
  if (S) {
    EXPECT_EQ(S->Class, VarClass::Reduction) << Body << ": " << S->Why;
    if (S->Class == VarClass::Reduction) {
      EXPECT_TRUE(S->Reduction.has_value());
      if (S->Reduction) {
        EXPECT_EQ(*S->Reduction, Expect) << Body;
      }
    }
  }
  return Rep.Verdict;
}

TEST(ParallelSafety, RecognizesAddReduction) {
  EXPECT_EQ(classifyReduction("s += A[i];", RedOp::Add), ParallelVerdict::Safe);
  EXPECT_EQ(classifyReduction("s = s + A[i];", RedOp::Add),
            ParallelVerdict::Safe);
  EXPECT_EQ(classifyReduction("s = A[i] + s;", RedOp::Add),
            ParallelVerdict::Safe);
  EXPECT_EQ(classifyReduction("s = s - A[i];", RedOp::Add),
            ParallelVerdict::Safe);
}

TEST(ParallelSafety, RecognizesMulReduction) {
  EXPECT_EQ(classifyReduction("s *= A[i];", RedOp::Mul), ParallelVerdict::Safe);
  EXPECT_EQ(classifyReduction("s = s * A[i];", RedOp::Mul),
            ParallelVerdict::Safe);
}

TEST(ParallelSafety, RecognizesMinMaxReduction) {
  EXPECT_EQ(classifyReduction("s = min(s, A[i]);", RedOp::Min),
            ParallelVerdict::Safe);
  EXPECT_EQ(classifyReduction("s = max(s, A[i]);", RedOp::Max),
            ParallelVerdict::Safe);
  EXPECT_EQ(classifyReduction("s = max(max(s, A[i]), 0.0);", RedOp::Max),
            ParallelVerdict::Safe);
}

TEST(ParallelSafety, ReductionClauseEmitted) {
  auto P = parseOrDie(R"(
#define N 32
double A[N];
double s;
int main() {
  int i;
#pragma @Locus loop=dot
  for (i = 0; i < N; i++)
    s = s + A[i] * A[i];
}
)");
  ParallelSafetyReport Rep = analyzeParallelLoop(*outerLoop(*P, "dot"));
  EXPECT_EQ(Rep.Verdict, ParallelVerdict::Safe);
  EXPECT_NE(Rep.clauses().find("reduction(+:s)"), std::string::npos);
}

TEST(ParallelSafety, MixedOperatorsAreNotAReduction) {
  // One += and one *= on the same scalar: no single combining operator.
  auto P = parseOrDie(R"(
#define N 32
double A[N];
double s;
int main() {
  int i;
#pragma @Locus loop=mix
  for (i = 0; i < N; i++) {
    s = s + A[i];
    s = s * 2.0;
  }
}
)");
  ParallelSafetyReport Rep = analyzeParallelLoop(*outerLoop(*P, "mix"));
  EXPECT_EQ(Rep.Verdict, ParallelVerdict::Racy);
}

TEST(ParallelSafety, ReductionReadElsewhereDisqualifies) {
  // Reading the accumulator outside its update chain exposes the partial
  // value, so the reduction transformation is not applicable.
  auto P = parseOrDie(R"(
#define N 32
double A[N];
double B[N];
double s;
int main() {
  int i;
#pragma @Locus loop=leak
  for (i = 0; i < N; i++) {
    s = s + A[i];
    B[i] = s;
  }
}
)");
  ParallelSafetyReport Rep = analyzeParallelLoop(*outerLoop(*P, "leak"));
  EXPECT_EQ(Rep.Verdict, ParallelVerdict::Racy);
}

//===----------------------------------------------------------------------===//
// Unknown verdicts
//===----------------------------------------------------------------------===//

TEST(ParallelSafety, NonAffineSubscriptIsUnknownNotSafe) {
  auto P = parseOrDie(R"(
#define N 32
double A[N];
int IDX[N];
int main() {
  int i;
#pragma @Locus loop=gather
  for (i = 0; i < N; i++)
    A[IDX[i]] = 1.0;
}
)");
  ParallelSafetyReport Rep = analyzeParallelLoop(*outerLoop(*P, "gather"));
  EXPECT_EQ(Rep.Verdict, ParallelVerdict::Unknown);
  EXPECT_FALSE(Rep.WhyUnknown.empty());
}

//===----------------------------------------------------------------------===//
// Round-trip stability (property)
//===----------------------------------------------------------------------===//

TEST(ParallelSafety, ClassificationStableUnderRoundTrip) {
  const char *Kernels[] = {
      MatmulSrc,
      R"(
#define N 32
double V[N];
int main() {
  int i;
#pragma @Locus loop=scan
  for (i = 1; i < N; i++)
    V[i] = V[i - 1] + 1.0;
}
)",
      R"(
#define N 32
double A[N];
double s;
int main() {
  int i;
#pragma @Locus loop=dot
  for (i = 0; i < N; i++)
    s = s + A[i] * A[i];
}
)"};
  for (const char *Src : Kernels) {
    auto P1 = parseOrDie(Src);
    auto P2 = parseOrDie(printProgram(*P1));
    const std::string Region = P1->regionNames()[0];
    ParallelSafetyReport R1 = analyzeParallelLoop(*outerLoop(*P1, Region));
    ParallelSafetyReport R2 = analyzeParallelLoop(*outerLoop(*P2, Region));
    // Source locations legitimately shift across an unparse/reparse cycle;
    // everything else must be bit-identical.
    EXPECT_EQ(R1.Verdict, R2.Verdict) << Src;
    EXPECT_EQ(R1.clauses(), R2.clauses()) << Src;
    ASSERT_EQ(R1.Vars.size(), R2.Vars.size()) << Src;
    for (size_t I = 0; I < R1.Vars.size(); ++I) {
      EXPECT_EQ(R1.Vars[I].Name, R2.Vars[I].Name);
      EXPECT_EQ(R1.Vars[I].Class, R2.Vars[I].Class);
      EXPECT_EQ(R1.Vars[I].Reduction, R2.Vars[I].Reduction);
    }
    ASSERT_EQ(R1.Witnesses.size(), R2.Witnesses.size()) << Src;
    for (size_t I = 0; I < R1.Witnesses.size(); ++I) {
      EXPECT_EQ(R1.Witnesses[I].Var, R2.Witnesses[I].Var);
      EXPECT_EQ(R1.Witnesses[I].Kind, R2.Witnesses[I].Kind);
      EXPECT_EQ(R1.Witnesses[I].Dirs, R2.Witnesses[I].Dirs);
    }
  }
}

//===----------------------------------------------------------------------===//
// The applyOmpFor race gate
//===----------------------------------------------------------------------===//

const char *ScanSrc = R"(
#define N 32
double V[N];
int main() {
  int i;
#pragma @Locus loop=scan
  for (i = 1; i < N; i++)
    V[i] = V[i - 1] + 1.0;
}
)";

TEST(OmpForGate, RejectsRacyLoopWithWitness) {
  auto P = parseOrDie(ScanSrc);
  Block *Region = P->findRegions("scan")[0];
  transform::TransformContext Ctx;
  transform::OmpForArgs Omp;
  Omp.LoopPath = "0";
  transform::TransformResult R = transform::applyOmpFor(*Region, Omp, Ctx);
  EXPECT_EQ(R.Status, transform::TransformStatus::Illegal);
  EXPECT_NE(R.Message.find("racy"), std::string::npos);
  EXPECT_NE(R.Message.find("V"), std::string::npos);
  EXPECT_TRUE(R.Loc.valid());
  // The pragma was not attached.
  auto Loop = cir::resolveLoopPath(*Region, "0");
  ASSERT_TRUE(Loop.ok());
  EXPECT_TRUE((*Loop)->Pragmas.empty());
}

TEST(OmpForGate, TrustParallelOverridesTheGate) {
  auto P = parseOrDie(ScanSrc);
  Block *Region = P->findRegions("scan")[0];
  transform::TransformContext Ctx;
  Ctx.TrustParallel = true;
  transform::OmpForArgs Omp;
  Omp.LoopPath = "0";
  EXPECT_TRUE(transform::applyOmpFor(*Region, Omp, Ctx).succeeded());
}

TEST(OmpForGate, UnknownRequiresDepsOnlyWhenAsked) {
  const char *Src = R"(
#define N 32
double A[N];
int IDX[N];
int main() {
  int i;
#pragma @Locus loop=gather
  for (i = 0; i < N; i++)
    A[IDX[i]] = 1.0;
}
)";
  {
    auto P = parseOrDie(Src);
    Block *Region = P->findRegions("gather")[0];
    transform::TransformContext Ctx;
    transform::OmpForArgs Omp;
    Omp.LoopPath = "0";
    EXPECT_TRUE(transform::applyOmpFor(*Region, Omp, Ctx).succeeded());
  }
  {
    auto P = parseOrDie(Src);
    Block *Region = P->findRegions("gather")[0];
    transform::TransformContext Ctx;
    Ctx.RequireDeps = true;
    transform::OmpForArgs Omp;
    Omp.LoopPath = "0";
    transform::TransformResult R = transform::applyOmpFor(*Region, Omp, Ctx);
    EXPECT_EQ(R.Status, transform::TransformStatus::Illegal);
    EXPECT_NE(R.Message.find("cannot prove"), std::string::npos);
  }
}

TEST(OmpForGate, SafeLoopStillParallelizes) {
  auto P = parseOrDie(MatmulSrc);
  Block *Region = P->findRegions("mm")[0];
  transform::TransformContext Ctx;
  transform::OmpForArgs Omp;
  Omp.LoopPath = "0";
  EXPECT_TRUE(transform::applyOmpFor(*Region, Omp, Ctx).succeeded());
}

//===----------------------------------------------------------------------===//
// Pragma idempotency (satellite: dedup had no dedicated test)
//===----------------------------------------------------------------------===//

TEST(OmpForGate, ReapplyingIsANoOp) {
  auto P = parseOrDie(MatmulSrc);
  Block *Region = P->findRegions("mm")[0];
  transform::TransformContext Ctx;
  transform::OmpForArgs Omp;
  Omp.LoopPath = "0";
  ASSERT_TRUE(transform::applyOmpFor(*Region, Omp, Ctx).succeeded());
  EXPECT_EQ(transform::applyOmpFor(*Region, Omp, Ctx).Status,
            transform::TransformStatus::NoOp);
  auto Loop = cir::resolveLoopPath(*Region, "0");
  ASSERT_TRUE(Loop.ok());
  EXPECT_EQ((*Loop)->Pragmas.size(), 1u);
}

TEST(Pragmas, ReapplyingPragmaIsANoOp) {
  auto P = parseOrDie(MatmulSrc);
  Block *Region = P->findRegions("mm")[0];
  transform::TransformContext Ctx;
  transform::PragmaArgs Args;
  Args.LoopPath = "0.0.0";
  Args.Text = "ivdep";
  ASSERT_TRUE(transform::applyPragma(*Region, Args, Ctx).succeeded());
  EXPECT_EQ(transform::applyPragma(*Region, Args, Ctx).Status,
            transform::TransformStatus::NoOp);
  EXPECT_EQ(transform::applyPragma(*Region, Args, Ctx).Status,
            transform::TransformStatus::NoOp);
  auto Loop = cir::resolveLoopPath(*Region, "0.0.0");
  ASSERT_TRUE(Loop.ok());
  ASSERT_EQ((*Loop)->Pragmas.size(), 1u);
  EXPECT_EQ((*Loop)->Pragmas[0], "ivdep");
}

//===----------------------------------------------------------------------===//
// Snippet-file gate (satellite)
//===----------------------------------------------------------------------===//

TEST(Altdesc, SnippetFileRequiresOptIn) {
  // A snippet argument that names a real file: without AllowSnippetFiles
  // the text is treated as inline source; with it, the file is read.
  testutil::TempFile Snippet("snippet_test.txt");
  const std::string &Path = Snippet.Path;
  {
    std::ofstream Out(Path);
    Out << "A[i] = 7.0;";
  }
  const char *Src = R"(
#define N 8
double A[N];
int main() {
  int i;
#pragma @Locus block=r
  for (i = 0; i < N; i++)
    A[i] = 1.0;
#pragma @Locus endblock
}
)";
  {
    auto P = parseOrDie(Src);
    Block *Region = P->findRegions("r")[0];
    transform::TransformContext Ctx; // AllowSnippetFiles defaults to false
    transform::AltdescArgs Args;
    Args.StmtPath = "0";
    Args.Source = Path;
    transform::TransformResult R = transform::applyAltdesc(*Region, Args, Ctx);
    // The path string is not parseable C, so the replacement fails — but it
    // must fail by parsing the text, not by reading the file.
    EXPECT_FALSE(R.succeeded());
    EXPECT_EQ(printStmt(*Region).find("7.0"), std::string::npos);
  }
  {
    auto P = parseOrDie(Src);
    Block *Region = P->findRegions("r")[0];
    transform::TransformContext Ctx;
    Ctx.AllowSnippetFiles = true;
    transform::AltdescArgs Args;
    Args.StmtPath = "0";
    Args.Source = Path;
    transform::TransformResult R = transform::applyAltdesc(*Region, Args, Ctx);
    ASSERT_TRUE(R.succeeded()) << R.Message;
    EXPECT_NE(printStmt(*Region).find("7.0"), std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Simulator gate: unproven parallel loops are not sped up
//===----------------------------------------------------------------------===//

TEST(SimGate, UnprovenParallelLoopGetsNoSpeedupAndAWarning) {
  const char *Seq = R"(
#define N 64
double V[N];
int main() {
  int i;
  for (i = 1; i < N; i++)
    V[i] = V[i - 1] + 1.0;
}
)";
  const char *Par = R"(
#define N 64
double V[N];
int main() {
  int i;
#pragma omp parallel for
  for (i = 1; i < N; i++)
    V[i] = V[i - 1] + 1.0;
}
)";
  auto PSeq = parseOrDie(Seq);
  auto PPar = parseOrDie(Par);
  eval::EvalOptions Opts;
  Opts.Machine = machine::MachineConfig::tiny();
  eval::RunResult RSeq = eval::evaluateProgram(*PSeq, Opts);
  eval::RunResult RPar = eval::evaluateProgram(*PPar, Opts);
  ASSERT_TRUE(RSeq.Ok) << RSeq.Error;
  ASSERT_TRUE(RPar.Ok) << RPar.Error;
  // Racy pragma: costed sequentially — identical cycles, identical
  // checksum, and a warning explaining the refusal.
  EXPECT_DOUBLE_EQ(RPar.Cycles, RSeq.Cycles);
  EXPECT_DOUBLE_EQ(RPar.Checksum, RSeq.Checksum);
  ASSERT_FALSE(RPar.Warnings.empty());
  EXPECT_NE(RPar.Warnings.front().find("not modeling parallel speedup"),
            std::string::npos);

  // TrustParallel restores the old behavior: the model applies a speedup.
  Opts.TrustParallel = true;
  eval::RunResult RTrust = eval::evaluateProgram(*PPar, Opts);
  ASSERT_TRUE(RTrust.Ok) << RTrust.Error;
  EXPECT_LT(RTrust.Cycles, RSeq.Cycles);
  EXPECT_TRUE(RTrust.Warnings.empty());
  // The simulator executes sequentially either way, so the (racy) result is
  // still deterministic and the checksum matches.
  EXPECT_DOUBLE_EQ(RTrust.Checksum, RSeq.Checksum);
}

TEST(SimGate, ProvenSafeParallelLoopStillSpeedsUp) {
  const char *Seq = R"(
#define N 64
double A[N];
double B[N];
int main() {
  int i;
  for (i = 0; i < N; i++)
    B[i] = A[i] * 2.0;
}
)";
  const char *Par = R"(
#define N 64
double A[N];
double B[N];
int main() {
  int i;
#pragma omp parallel for
  for (i = 0; i < N; i++)
    B[i] = A[i] * 2.0;
}
)";
  auto PSeq = parseOrDie(Seq);
  auto PPar = parseOrDie(Par);
  eval::EvalOptions Opts;
  Opts.Machine = machine::MachineConfig::tiny();
  eval::RunResult RSeq = eval::evaluateProgram(*PSeq, Opts);
  eval::RunResult RPar = eval::evaluateProgram(*PPar, Opts);
  ASSERT_TRUE(RSeq.Ok && RPar.Ok);
  EXPECT_LT(RPar.Cycles, RSeq.Cycles);
  EXPECT_TRUE(RPar.Warnings.empty());
}

//===----------------------------------------------------------------------===//
// Native clause annotation
//===----------------------------------------------------------------------===//

TEST(NativeClauses, AnnotateOmpClausesAddsDataSharing) {
  auto P = parseOrDie(R"(
#define N 16
double A[N][N];
double B[N][N];
double C[N][N];
double s;
int main() {
  int i, j, k;
#pragma omp parallel for
  for (i = 0; i < N; i++)
    for (j = 0; j < N; j++)
      for (k = 0; k < N; k++)
        C[i][j] = C[i][j] + A[i][k] * B[k][j];
#pragma omp parallel for
  for (i = 0; i < N; i++)
    s = s + C[i][0];
}
)");
  int Annotated = annotateOmpClauses(*P);
  EXPECT_EQ(Annotated, 2);
  std::string Printed = printProgram(*P);
  EXPECT_NE(Printed.find("private(j,k)"), std::string::npos)
      << Printed;
  EXPECT_NE(Printed.find("reduction(+:s)"), std::string::npos) << Printed;
  // Idempotent: re-annotating changes nothing.
  EXPECT_EQ(annotateOmpClauses(*P), 0);
  EXPECT_EQ(printProgram(*P), Printed);
}

TEST(NativeClauses, EmittedCContainsClauses) {
  auto P = parseOrDie(R"(
#define N 16
double A[N];
double s;
int main() {
  int i;
#pragma omp parallel for
  for (i = 0; i < N; i++)
    s = s + A[i];
}
)");
  std::string C = eval::emitNativeC(*P);
  EXPECT_NE(C.find("#pragma omp parallel for"), std::string::npos) << C;
  EXPECT_NE(C.find("reduction(+:s)"), std::string::npos) << C;
}

} // namespace
} // namespace locus
