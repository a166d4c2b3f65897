//===- EvaluatorGoldenTest.cpp - Bit-exact evaluator observables -------------===//
//
// Every observable of ProgramEvaluator::run — cycles and checksum as hexfloat,
// the op/read/write/iteration counters, per-level cache hits and misses and
// the warning count — for a fixed set of programs on two machines, with the
// cost model on and off, plus the exact first-failure text of failing
// programs. Several programs make more than 64 Ki simulated accesses per
// run, so their cost-on runs move the cache simulation to a helper thread
// part-way through (when a core is spare); two of them fail after that.
// The expected values live in tests/golden/evaluator.golden.
//
// Cycles feed every search trajectory, so an evaluator or cache-simulator
// change that is meant to be behaviour-preserving must leave this file
// byte-identical. A deliberate model change regenerates it:
//
//   LOCUS_UPDATE_GOLDENS=1 ./build/tests/locus_tests --gtest_filter='EvaluatorGolden.*'
//
//===----------------------------------------------------------------------===//

#include "src/cir/Parser.h"
#include "src/driver/Orchestrator.h"
#include "src/eval/Evaluator.h"
#include "src/locus/LocusParser.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace locus {
namespace {

using eval::EvalOptions;
using eval::RunResult;

struct Program {
  std::string Name;
  std::unique_ptr<cir::Program> Ast;
  bool Kripke = false; ///< needs initKripkeArrays
  uint64_t MaxIterations = EvalOptions().MaxIterations;
};

std::unique_ptr<cir::Program> parseC(const std::string &Src) {
  auto P = cir::parseProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

std::string hex(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%a", V);
  return Buf;
}

std::string render(const RunResult &R) {
  std::ostringstream Out;
  if (!R.Ok)
    return "error=" + R.Error;
  Out << "cycles=" << hex(R.Cycles) << " checksum=" << hex(R.Checksum)
      << " arith=" << R.ArithOps << " reads=" << R.MemReads
      << " writes=" << R.MemWrites << " iters=" << R.LoopIterations;
  for (size_t I = 0; I < R.Cache.size(); ++I)
    Out << " L" << I + 1 << "=" << R.Cache[I].Hits << "/" << R.Cache[I].Misses;
  Out << " warnings=" << R.Warnings.size();
  return Out.str();
}

/// Materializes every point of a space the orchestrator can apply: the
/// valid points of an exhaustive (or budgeted) search, in History order.
void addVariants(std::vector<Program> &Out, const std::string &Prefix,
                 const std::string &LocusSrc, const std::string &CSrc,
                 const std::string &Searcher, int Budget) {
  auto LP = lang::parseLocusProgram(LocusSrc);
  ASSERT_TRUE(LP.ok()) << LP.message();
  auto CP = parseC(CSrc);
  ASSERT_NE(CP, nullptr);
  driver::OrchestratorOptions Opts;
  Opts.SearcherName = Searcher;
  Opts.MaxEvaluations = Budget;
  Opts.Seed = 3;
  Opts.Eval.Machine = machine::MachineConfig::tiny();
  driver::Orchestrator Orch(**LP, *CP, Opts);
  auto R = Orch.runSearch();
  ASSERT_TRUE(R.ok()) << R.message();
  int N = 0;
  for (const search::EvalRecord &Rec : R->Search.History) {
    if (!Rec.Valid)
      continue;
    auto D = Orch.runPoint(Rec.P);
    ASSERT_TRUE(D.ok()) << D.message();
    Out.push_back({Prefix + "#" + std::to_string(N++), std::move(D->Variant)});
  }
}

std::vector<Program> goldenPrograms() {
  using namespace workloads;
  std::vector<Program> Out;
  Out.push_back({"dgemm16", parseC(dgemmSource(16, 16, 16))});
  Out.push_back({"dgemm20x24x28", parseC(dgemmSource(20, 24, 28))});
  for (StencilKind K : {StencilKind::Jacobi1D, StencilKind::Jacobi2D,
                        StencilKind::Heat1D, StencilKind::Heat2D,
                        StencilKind::Seidel1D, StencilKind::Seidel2D})
    Out.push_back({std::string(stencilName(K)), parseC(stencilSource(K, 4, 20))});
  for (const std::string &Name : polybenchKernels())
    Out.push_back({"polybench-" + Name, parseC(polybenchSource(Name, 16))});
  std::vector<CorpusEntry> Corpus = loopCorpus(0.02, 11);
  for (size_t I = 0; I < Corpus.size() && I < 12; ++I)
    Out.push_back({"corpus-" + Corpus[I].Name, parseC(Corpus[I].Source)});
  // Every operator, both element types, compound assignment to scalars and
  // arrays, short-circuit logic, strided and inclusive-bound loops.
  Out.push_back({"mixed", parseC(R"(
double A[12][10];
double X[40];
int C[64];
double s;
int main() {
  int i, j, k, n;
  double t;
  t = rtclock();
  n = 7;
  for (i = 0; i <= 11; i++)
    for (j = 1; j < 10; j += 3) {
      A[i][j] += A[i][j - 1] * 0.5 - (i % 3);
      A[i][j] -= min(A[i][j], 0.25) + max(i, j);
      C[i + j] *= 2;
      C[3 * i - 2 * j + 20] += i / 2 - -j;
      if (i > 2 && (i - j) / (i - 2) > 1 || !(j != 4))
        X[i + j] = -A[i][j] / 3.0;
      else
        if (X[j] < A[i][j])
          X[i] -= 1;
    }
  for (k = 0; k < 40; k += 2) {
    s += X[k] * X[min(k + 1, 39)];
    s *= 0.99;
    n -= C[max(k - 1, 0)] % 5;
    X[(k * k) % 40] = X[k] + n;
  }
  t = rtclock() - t;
}
)")});
  // Subscripts over scalars the loop body writes (the loop variable too),
  // strided and negative-coefficient subscripts, nested OpenMP loops and a
  // vectorized inner loop.
  Out.push_back({"loop-writes", parseC(R"(
double A[40][12];
double B[64];
int main() {
  int i, j, k;
  for (i = 0; i < 20; i++) {
    A[i][3] = A[i][3] + 1.0;
    i = i + 1;
    A[i][4] = A[i][4] * 2.0;
  }
  for (i = 0; i < 12; i++) {
    k = 11 - i;
    for (j = 0; j < 12; j += 5) {
      A[2 * k + 7][j] += A[39 - 3 * i][11 - j] - B[k + j + 4];
      k = k - 1 + (j - j);
      B[3 * i - j + 20] = A[k + 4][j];
    }
  }
}
)")});
  Out.push_back({"omp-nested", parseC(R"(
double A[32][16];
double B[32][16];
int main() {
  int i, j;
#pragma omp parallel for
  for (i = 0; i < 32; i++)
#pragma omp parallel for schedule(dynamic, 2)
    for (j = 0; j < 16; j++)
      A[i][j] = A[i][j] * 0.5 + B[i][j];
#pragma omp parallel for schedule(static, 3)
  for (i = 0; i < 32; i++)
#pragma ivdep
    for (j = 1; j < 16; j++)
      B[i][j] = B[i][j - 1] + A[i][j];
}
)")});
  // Long runs: more than 64 Ki accesses each. dgemm at the benchmark's
  // order; OpenMP loops under static, dynamic and default schedules (the
  // first region spans the point where the simulation can leave the
  // interpreter's thread; the last re-enters its region every outer
  // iteration); SIMD loops at both vector scales; and two programs that
  // fail late.
  Out.push_back({"dgemm96", parseC(dgemmSource(96, 96, 96))});
  Out.push_back({"omp-static-large", parseC(R"(
double A[256][256];
double B[256][256];
int main() {
  int i, j;
#pragma omp parallel for schedule(static)
  for (i = 0; i < 256; i++)
    for (j = 0; j < 256; j++)
      A[i][j] = A[i][j] * 0.5 + B[j][i];
#pragma omp parallel for schedule(static, 5)
  for (i = 0; i < 256; i++)
    for (j = 0; j < 256; j++)
      B[i][j] = B[i][j] - A[i][j] * 0.25;
}
)")});
  Out.push_back({"omp-dynamic-large", parseC(R"(
double A[256][256];
double B[256][256];
int main() {
  int t, i, j;
#pragma omp parallel for schedule(dynamic, 3)
  for (i = 0; i < 256; i++)
    for (j = 0; j <= i; j++)
      A[i][j] = A[i][j] + B[i][j] * B[j][i];
  for (t = 0; t < 4; t++) {
#pragma omp parallel for
    for (i = 0; i < 256; i++)
      for (j = 0; j < 64; j++)
        B[i][j] = B[i][j] * 0.5 + A[j][i];
  }
}
)")});
  Out.push_back({"simd-large", parseC(R"(
double X[256][256];
double Y[256][256];
int main() {
  int i, j;
  for (i = 0; i < 256; i++)
#pragma ivdep
    for (j = 0; j < 256; j++)
      Y[i][j] = Y[i][j] + 2.0 * X[i][j];
  for (i = 0; i < 256; i++)
#pragma ivdep
    for (j = 0; j < 256; j++)
      Y[i][j] = Y[i][j] * X[j][i];
}
)")});
  Out.push_back({"oob-late", parseC(R"(
double A[300][300];
int main() {
  int i, j;
  for (i = 0; i <= 300; i++)
    for (j = 0; j < 300; j++)
      A[i][j] = A[i][j] + 1.0;
}
)")});
  Program Budget{"budget-late", parseC(R"(
double A[1000];
int main() {
  int t, i;
  for (t = 0; t < 100; t++)
    for (i = 1; i < 999; i++)
      A[i] = (A[i - 1] + A[i] + A[i + 1]) / 3.0;
}
)")};
  Budget.MaxIterations = 50000;
  Out.push_back(std::move(Budget));
  KripkeConfig KC;
  for (const char *Layout : {"DGZ", "ZGD"})
    for (const char *Kernel : {"Scattering", "LTimes"})
      Out.push_back({std::string("kripke-") + Kernel + "-" + Layout,
                     parseC(kripkeHandOptimizedSource(KC, Kernel, Layout)),
                     /*Kripke=*/true});
  // Transformed variants: tiling with min() bounds, unrolling, interchange,
  // OpenMP schedules (modeled and unmodeled), skewed and vectorized stencils.
  addVariants(Out, "fig5-dgemm16", dgemmLocusFig5(), dgemmSource(16, 16, 16),
              "exhaustive", 100);
  addVariants(Out, "fig7-dgemm16", dgemmLocusFig7(16), dgemmSource(16, 16, 16),
              "random", 40);
  addVariants(Out, "fig9-jacobi2d", stencilLocusFig9(0, 2),
              stencilSource(StencilKind::Jacobi2D, 4, 20), "exhaustive", 40);
  addVariants(Out, "fig9-seidel1d", stencilLocusFig9(0, 2),
              stencilSource(StencilKind::Seidel1D, 6, 40), "exhaustive", 40);
  addVariants(Out, "fig5-dgemm96", dgemmLocusFig5(), dgemmSource(96, 96, 96),
              "exhaustive", 2);
  return Out;
}

std::vector<std::string> computeGoldenLines() {
  std::vector<std::string> Lines;
  std::vector<Program> Programs = goldenPrograms();
  struct Setting {
    const char *Name;
    machine::MachineConfig Machine;
  };
  const Setting Machines[] = {{"xeon", machine::MachineConfig::xeonE5v3()},
                              {"tiny", machine::MachineConfig::tiny()}};
  for (const Program &P : Programs) {
    if (!P.Ast) {
      ADD_FAILURE() << "unparsable golden program " << P.Name;
      continue;
    }
    for (const Setting &M : Machines)
      for (bool Cost : {true, false}) {
        EvalOptions Opts;
        Opts.Machine = M.Machine;
        Opts.CountCost = Cost;
        Opts.MaxIterations = P.MaxIterations;
        eval::ProgramEvaluator E(*P.Ast, Opts);
        Status S = E.prepare();
        std::string Body;
        if (!S.ok()) {
          Body = "prepare-error=" + S.message();
        } else {
          if (P.Kripke)
            workloads::initKripkeArrays(E, workloads::KripkeConfig());
          Body = render(E.run());
        }
        Lines.push_back(P.Name + " " + M.Name + (Cost ? " cost " : " nocost ") +
                        Body);
      }
  }

  // First-failure wording. Each program fails part-way through, after
  // cost has been charged, so the text pins down which check fires first.
  struct Failing {
    const char *Name;
    const char *Src;
    uint64_t MaxIterations;
  };
  const Failing Failures[] = {
      {"oob", R"(
double A[8][6];
int main() {
  int i, j;
  for (i = 0; i < 8; i++)
    for (j = 0; j < 6; j++)
      A[i][j] = A[i][j] + A[j + 2][i - j + 5] * 2.0;
}
)",
       1ull << 33},
      {"oob-order", R"(
double A[4][4];
double B[4][6];
int main() {
  int i, j;
  for (i = 0; i < 4; i++)
    for (j = 0; j < 4; j++)
      A[i][j + 2] = B[j][j + 4] + A[j + 2][j + 2] * 0.5;
}
)",
       1ull << 33},
      {"oob-target-and-rhs", R"(
double A[4][3];
double B[4][3];
int main() {
  int i, j;
  for (i = 0; i < 4; i++)
    for (j = 0; j < 4; j++)
      A[i][j] = B[i][j] * 2.0;
}
)",
       1ull << 33},
      {"divzero-target-and-rhs", R"(
double A[8][2];
double B[8][8];
int main() {
  int i, j;
  for (i = 0; i < 8; i++)
    for (j = 0; j < 8; j++)
      A[j][i] = B[i][j / (2 - i)];
}
)",
       1ull << 33},
      {"oob-last-iteration", R"(
double A[8];
int main() {
  int i;
  for (i = 0; i <= 8; i++)
    A[i] = A[i] + 1.0;
}
)",
       1ull << 33},
      {"negative-step", R"(
double A[8];
int main() {
  int i;
  for (i = 3; i < 8; i += -1)
    A[i] = 1.0;
}
)",
       1000},
      {"divzero", R"(
double A[16];
int B[16];
int main() {
  int i;
  for (i = 0; i < 16; i++)
    A[i] = A[i] + B[i / (7 - i)] * 1.5;
}
)",
       1ull << 33},
      {"budget", R"(
double A[64];
int main() {
  int t, i;
  for (t = 0; t < 100; t++)
    for (i = 1; i < 63; i++)
      A[i] = (A[i - 1] + A[i] + A[i + 1]) / 3.0;
}
)",
       1000},
  };
  for (const Failing &F : Failures) {
    auto P = parseC(F.Src);
    if (!P)
      continue;
    for (bool Cost : {true, false}) {
      EvalOptions Opts;
      Opts.CountCost = Cost;
      Opts.MaxIterations = F.MaxIterations;
      RunResult R = eval::evaluateProgram(*P, Opts);
      Lines.push_back(std::string("failure-") + F.Name +
                      (Cost ? " cost " : " nocost ") +
                      (R.Ok ? "unexpectedly-ok" : "error=" + R.Error));
    }
  }
  return Lines;
}

TEST(EvaluatorGolden, ObservablesMatchCheckedInGoldens) {
  const std::string Path = LOCUS_EVAL_GOLDEN;
  std::vector<std::string> Actual = computeGoldenLines();
  if (std::getenv("LOCUS_UPDATE_GOLDENS")) {
    std::ofstream Out(Path, std::ios::trunc);
    for (const std::string &L : Actual)
      Out << L << "\n";
    ASSERT_TRUE(Out.good()) << "cannot write " << Path;
    GTEST_SKIP() << "regenerated " << Path;
  }
  std::ifstream In(Path);
  ASSERT_TRUE(In.good()) << "missing golden file " << Path;
  std::vector<std::string> Expected;
  for (std::string L; std::getline(In, L);)
    Expected.push_back(L);
  for (size_t I = 0; I < std::min(Actual.size(), Expected.size()); ++I)
    EXPECT_EQ(Actual[I], Expected[I]) << "golden line " << I + 1;
  EXPECT_EQ(Actual.size(), Expected.size());
}

} // namespace
} // namespace locus
