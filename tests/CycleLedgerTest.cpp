//===- CycleLedgerTest.cpp - Cycle ledger and access-stream consumer ------===//
//
// The evaluator sums cycles in an integer ledger of 2^-16-cycle units and
// may move the cache simulation to a helper thread part-way through a run.
// These tests pin the ledger's rounding rule, its range, and that a run's
// observables do not depend on where its simulation ran.
//
//===----------------------------------------------------------------------===//

#include "src/cir/Parser.h"
#include "src/eval/Evaluator.h"
#include "src/support/Cores.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cmath>

namespace locus {
namespace {

using eval::EvalOptions;
using eval::RunResult;

std::unique_ptr<cir::Program> parseC(const std::string &Src) {
  auto P = cir::parseProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

double units(double Cycles) {
  return static_cast<double>(eval::ledgerUnits(Cycles));
}

/// Restores the hardware core count when a test ends.
struct CoreOverride {
  explicit CoreOverride(unsigned Cores) { overrideCoreCountForTesting(Cores); }
  ~CoreOverride() { overrideCoreCountForTesting(0); }
};

/// Runs \p P with the spare-core rule counting \p Cores cores: with one,
/// the run's own thread is busy and the run stays inline; with two, a
/// helper takes its simulation over at the threshold.
RunResult runWithCores(const cir::Program &P, const EvalOptions &Opts,
                       unsigned Cores) {
  CoreOverride Override(Cores);
  eval::ProgramEvaluator E(P, Opts);
  EXPECT_TRUE(E.prepare().ok());
  return E.run();
}

void expectSameRun(const RunResult &A, const RunResult &B,
                   const std::string &What) {
  EXPECT_EQ(A.Ok, B.Ok) << What;
  EXPECT_EQ(A.Error, B.Error) << What;
  EXPECT_EQ(A.Cycles, B.Cycles) << What;
  EXPECT_EQ(A.Checksum, B.Checksum) << What;
  EXPECT_EQ(A.ArithOps, B.ArithOps) << What;
  EXPECT_EQ(A.MemReads, B.MemReads) << What;
  EXPECT_EQ(A.MemWrites, B.MemWrites) << What;
  EXPECT_EQ(A.LoopIterations, B.LoopIterations) << What;
  ASSERT_EQ(A.Cache.size(), B.Cache.size()) << What;
  for (size_t I = 0; I < A.Cache.size(); ++I) {
    EXPECT_EQ(A.Cache[I].Hits, B.Cache[I].Hits) << What << " L" << I + 1;
    EXPECT_EQ(A.Cache[I].Misses, B.Cache[I].Misses) << What << " L" << I + 1;
  }
}

/// The same run inline and with a helper taking over at the threshold.
void expectPlacementInvariant(const cir::Program &P, const EvalOptions &Opts,
                              const std::string &What) {
  RunResult Inline = runWithCores(P, Opts, 1);
  ASSERT_GE(Inline.MemReads + Inline.MemWrites, 64u * 1024)
      << What << ": the run must be long enough to take a helper";
  RunResult Helper = runWithCores(P, Opts, 2);
  expectSameRun(Inline, Helper, What + ": inline vs a helper");
}

TEST(CycleLedger, PresetChargesAreWholeUnits) {
  std::vector<std::pair<std::string, machine::MachineConfig>> Machines = {
      {"xeon", machine::MachineConfig::xeonE5v3()},
      {"tiny", machine::MachineConfig::tiny()}};
  for (int Factor : {1, 2, 4, 8, 16, 64})
    Machines.push_back({"xeonScaled" + std::to_string(Factor),
                        machine::MachineConfig::xeonE5v3Scaled(Factor)});
  for (const auto &[Name, M] : Machines) {
    // The evaluator's scales: none, and each SIMD scale it can produce.
    // Miss latencies are integers, so whole units by construction.
    EXPECT_EQ(eval::simdScale(M, true), 0.25) << Name;
    EXPECT_EQ(eval::simdScale(M, false), 0.5) << Name;
    std::vector<double> Charges = {M.ParallelSpawnOverhead,
                                   M.DynamicChunkOverhead};
    for (double Scale : {1.0, eval::simdScale(M, true),
                         eval::simdScale(M, false)}) {
      eval::ScaledCycles C = eval::scaledCycles(M, Scale);
      Charges.insert(Charges.end(), {C.Arith, C.IntArith, C.Loop, C.L1Hit});
    }
    for (double C : Charges) {
      double Exact = std::ldexp(C, eval::LedgerFractionBits);
      EXPECT_EQ(Exact, std::floor(Exact)) << Name << ": charge " << C;
      EXPECT_EQ(units(C), Exact) << Name << ": charge " << C;
    }
  }
}

TEST(CycleLedger, RoundsToTheNearestUnitAndSaturates) {
  EXPECT_EQ(units(0.1), 6554);   // 6553.6
  EXPECT_EQ(units(0.05), 3277);  // 3276.8
  EXPECT_EQ(units(1.0 / 3), 21845);
  EXPECT_EQ(units(2.0 / 3), 43691);
  EXPECT_EQ(units(std::ldexp(1.0, -17)), 1); // a half unit rounds away
  EXPECT_EQ(units(-std::ldexp(1.0, -17)), -1);
  EXPECT_EQ(units(std::nan("")), 0);
  EXPECT_EQ(units(1e300), std::ldexp(1.0, 100));
  EXPECT_EQ(units(-1e300), -std::ldexp(1.0, 100));
}

// ArithCost 0.1 is not a whole number of units: each charge is that
// constant rounded once, so the total is a sum of integers, the same
// wherever the simulation ran.
TEST(CycleLedger, NonPresetArithCostFollowsTheRoundingRule) {
  auto P = parseC(workloads::dgemmSource(48, 48, 48));
  ASSERT_NE(P, nullptr);
  EvalOptions Opts;
  Opts.Machine = machine::MachineConfig::tiny();
  Opts.Machine.ArithCost = 0.1;
  RunResult R = runWithCores(*P, Opts, 1);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Cache.size(), 2u);
  // dgemm charges no integer operations and does not vectorize; on tiny an
  // L1 hit costs 2 cycles, an L2 hit 12 and a miss 112.
  double MemCycles = 2.0 * static_cast<double>(R.Cache[0].Hits) +
                     12.0 * static_cast<double>(R.Cache[1].Hits) +
                     112.0 * static_cast<double>(R.Cache[1].Misses);
  double Expected = static_cast<double>(R.ArithOps) * 6554 +
                    static_cast<double>(R.LoopIterations) * units(2.0) +
                    MemCycles * 65536;
  EXPECT_EQ(R.Cycles, std::ldexp(Expected, -16));
  EXPECT_NE(R.Cycles, static_cast<double>(R.ArithOps) * 0.1 +
                          static_cast<double>(R.LoopIterations) * 2.0 +
                          MemCycles);
  expectPlacementInvariant(*P, Opts, "ArithCost 0.1");
}

// VectorWidthDoubles 3 makes a unit-stride loop's scale 1/3: its
// operations, iterations and L1 hits each cost the scaled constant rounded
// to a unit; misses are not scaled.
TEST(CycleLedger, NonPresetVectorWidthFollowsTheRoundingRule) {
  auto P = parseC(R"(
double X[256][256];
double Y[256][256];
int main() {
  int i, j;
  for (i = 0; i < 256; i++)
#pragma ivdep
    for (j = 0; j < 256; j++)
      Y[i][j] = Y[i][j] + 2.0 * X[i][j];
}
)");
  ASSERT_NE(P, nullptr);
  EvalOptions Opts;
  Opts.Machine = machine::MachineConfig::tiny();
  Opts.Machine.VectorWidthDoubles = 3;
  RunResult R = runWithCores(*P, Opts, 1);
  ASSERT_TRUE(R.Ok) << R.Error;
  double Outer = 256, Inner = static_cast<double>(R.LoopIterations) - Outer;
  double Expected = Outer * units(2.0) + Inner * units(2.0 / 3) +
                    static_cast<double>(R.ArithOps) * units(1.0 / 3) +
                    static_cast<double>(R.Cache[0].Hits) * units(2.0 / 3) +
                    (12.0 * static_cast<double>(R.Cache[1].Hits) +
                     112.0 * static_cast<double>(R.Cache[1].Misses)) *
                        65536;
  EXPECT_EQ(R.Cycles, std::ldexp(Expected, -16));
  expectPlacementInvariant(*P, Opts, "VectorWidthDoubles 3");
}

// Every access of this run costs 2^30 cycles and there are 2^18 of them:
// 2^48 cycles, or 2^64 ledger units, which a 64-bit ledger could not hold.
TEST(CycleLedger, HoldsRunsBeyondSixtyFourBitsOfUnits) {
  auto P = parseC(R"(
double A[1];
int main() {
  int i;
  for (i = 0; i < 131072; i++)
    A[0] = A[0] + 1.0;
}
)");
  ASSERT_NE(P, nullptr);
  EvalOptions Opts;
  Opts.Machine.Levels.clear();
  Opts.Machine.MemLatency = 1 << 30;
  Opts.Machine.ArithCost = 0;
  Opts.Machine.LoopOverhead = 0;
  RunResult R = runWithCores(*P, Opts, 1);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.MemReads + R.MemWrites, 1u << 18);
  EXPECT_EQ(R.Cycles, std::ldexp(1.0, 48));
  expectPlacementInvariant(*P, Opts, "2^64 units");
}

TEST(CycleLedger, PlacementDoesNotChangeAnyObservable) {
  using namespace workloads;
  std::vector<std::pair<std::string, std::string>> Programs = {
      {"dgemm64", dgemmSource(64, 64, 64)},
      {"omp", R"(
double A[256][256];
double B[256][256];
int main() {
  int t, i, j;
#pragma omp parallel for schedule(dynamic, 3)
  for (i = 0; i < 256; i++)
    for (j = 0; j <= i; j++)
      A[i][j] = A[i][j] + B[i][j] * B[j][i];
  for (t = 0; t < 3; t++) {
#pragma omp parallel for schedule(static, 2)
    for (i = 0; i < 256; i++)
#pragma ivdep
      for (j = 0; j < 64; j++)
        B[i][j] = B[i][j] * 0.5 + A[i][j];
  }
}
)"},
      {"oob-late", R"(
double A[300][300];
int main() {
  int i, j;
  for (i = 0; i <= 300; i++)
    for (j = 0; j < 300; j++)
      A[i][j] = A[i][j] + 1.0;
}
)"}};
  struct Setting {
    const char *Name;
    machine::MachineConfig Machine;
  };
  const Setting Machines[] = {
      {"xeon", machine::MachineConfig::xeonE5v3()},
      {"tiny", machine::MachineConfig::tiny()},
      {"xeonScaled64", machine::MachineConfig::xeonE5v3Scaled(64)}};
  for (const auto &[Name, Src] : Programs) {
    auto P = parseC(Src);
    ASSERT_NE(P, nullptr);
    for (const Setting &M : Machines) {
      EvalOptions Opts;
      Opts.Machine = M.Machine;
      expectPlacementInvariant(*P, Opts, Name + " on " + M.Name);
    }
  }
}

TEST(CycleLedger, NoSpareCoreUnderBusyThreads) {
  CoreOverride Override(3);
  BusyScope Outer; // this thread, as a pool job
  BusyScope Nested;
  EXPECT_TRUE(reserveHelperCore());
  EXPECT_TRUE(reserveHelperCore());
  EXPECT_FALSE(reserveHelperCore());
  releaseHelperCore();
  EXPECT_TRUE(reserveHelperCore());
  releaseHelperCore();
  releaseHelperCore();
}

} // namespace
} // namespace locus
