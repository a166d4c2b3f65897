//===- EvalPoolTest.cpp - Evaluation pool, eval cache, parallel search ----===//

#include "src/search/EvalCache.h"
#include "src/search/EvalPool.h"
#include "src/search/Search.h"

#include "src/cir/Parser.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/workloads/Workloads.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <set>
#include <thread>

namespace locus {
namespace {

using namespace search;

/// Expands a small test id into a full 128-bit cache key.
CacheKey k(uint64_t V) { return CacheKey{V, ~V}; }

//===----------------------------------------------------------------------===//
// EvalPool
//===----------------------------------------------------------------------===//

TEST(EvalPool, RunsEveryIndexExactlyOnce) {
  EvalPool Pool(4);
  EXPECT_EQ(Pool.jobs(), 4);
  // Reused across several jobs of different sizes (the search loop runs one
  // job per proposal batch against a persistent pool).
  for (size_t N : {size_t(1), size_t(7), size_t(100), size_t(3)}) {
    std::vector<std::atomic<int>> Hits(N);
    Pool.run(N, [&](size_t I) { Hits[I].fetch_add(1); });
    for (size_t I = 0; I < N; ++I)
      EXPECT_EQ(Hits[I].load(), 1) << "index " << I << " of " << N;
  }
}

TEST(EvalPool, SingleJobRunsInlineOnCaller) {
  EvalPool Pool(1);
  EXPECT_EQ(Pool.jobs(), 1);
  std::thread::id Caller = std::this_thread::get_id();
  std::vector<std::thread::id> Ran(5);
  Pool.run(5, [&](size_t I) { Ran[I] = std::this_thread::get_id(); });
  for (const std::thread::id &Id : Ran)
    EXPECT_EQ(Id, Caller);
}

TEST(EvalPool, ZeroAndNegativeJobsClampToOne) {
  EXPECT_EQ(EvalPool(0).jobs(), 1);
  EXPECT_EQ(EvalPool(-3).jobs(), 1);
}

TEST(EvalPool, SleepingJobsOverlap) {
  // Four 100ms sleeps across four workers finish in ~100ms; run serially
  // they take 400ms. Sleeps overlap even on a single hardware core, so this
  // holds on any machine.
  using Clock = std::chrono::steady_clock;
  EvalPool Pool(4);
  auto Start = Clock::now();
  Pool.run(4, [](size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });
  auto Elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() - Start);
  EXPECT_LT(Elapsed.count(), 300) << "pool did not overlap sleeping jobs";
}

//===----------------------------------------------------------------------===//
// EvalCache
//===----------------------------------------------------------------------===//

TEST(EvalCache, MakeCacheKeyIsDeterministicAndContentSensitive) {
  CacheKey A = makeCacheKey("for i { a[i] = 0 }");
  EXPECT_EQ(A, makeCacheKey("for i { a[i] = 0 }"));
  EXPECT_NE(A, makeCacheKey("for i { a[i] = 1 }"));
  // The halves come from independently-seeded streams; if they ever agreed
  // the key would silently degenerate to 64 bits.
  EXPECT_NE(A.Lo, A.Hi);
  // An embedded NUL is content like any other byte (keys hash raw program
  // text, not C strings).
  EXPECT_NE(makeCacheKey(std::string_view("x", 1)),
            makeCacheKey(std::string_view("x\0", 2)));
}

TEST(EvalCache, HitMissAndDedupAccounting) {
  EvalCache Cache;
  EXPECT_FALSE(Cache.lookup(k(1), "p1").has_value());
  Cache.insert(k(1), "p1", EvalOutcome::success(10.0));

  // Same point, same variant: a hit but not a cross-point dedup save.
  auto Hit = Cache.lookup(k(1), "p1");
  ASSERT_TRUE(Hit.has_value());
  EXPECT_DOUBLE_EQ(Hit->Metric, 10.0);

  // A distinct point whose variant hashes the same: a dedup save.
  auto Dedup = Cache.lookup(k(1), "p2");
  ASSERT_TRUE(Dedup.has_value());
  EXPECT_DOUBLE_EQ(Dedup->Metric, 10.0);

  EvalCacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 2u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.DedupSaves, 1u);
  EXPECT_EQ(S.Entries, 1u);
}

TEST(EvalCache, CachesClassifiedFailures) {
  EvalCache Cache;
  Cache.insert(k(7), "p", EvalOutcome::fail(FailureKind::RuntimeTrap, "oob"));
  auto Hit = Cache.lookup(k(7), "p");
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(Hit->Failure, FailureKind::RuntimeTrap);
  EXPECT_EQ(Hit->Detail, "oob");
}

TEST(EvalCache, FirstWriterWins) {
  EvalCache Cache;
  Cache.insert(k(3), "p1", EvalOutcome::success(1.0));
  Cache.insert(k(3), "p2", EvalOutcome::success(2.0)); // racing duplicate
  auto Hit = Cache.lookup(k(3), "p3");
  ASSERT_TRUE(Hit.has_value());
  EXPECT_DOUBLE_EQ(Hit->Metric, 1.0);
  EXPECT_EQ(Cache.stats().Entries, 1u);
}

TEST(EvalCache, ConcurrentUseIsConsistent) {
  EvalCache Cache;
  EvalPool Pool(4);
  const size_t N = 400;
  Pool.run(N, [&](size_t I) {
    uint64_t Hash = I % 16;
    std::string Key = "p" + std::to_string(I);
    if (!Cache.lookup(k(Hash), Key))
      Cache.insert(k(Hash), Key, EvalOutcome::success(static_cast<double>(Hash)));
  });
  EvalCacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits + S.Misses, N);
  EXPECT_EQ(S.Entries, 16u);
  // Every served outcome is the first-written one for its hash.
  for (uint64_t H = 0; H < 16; ++H) {
    auto Hit = Cache.lookup(k(H), "check");
    ASSERT_TRUE(Hit.has_value());
    EXPECT_DOUBLE_EQ(Hit->Metric, static_cast<double>(H));
  }
}

//===----------------------------------------------------------------------===//
// Parallel search: trajectory equality and speedup
//===----------------------------------------------------------------------===//

Space mixedSpace() {
  Space S;
  ParamDef A;
  A.Id = "a";
  A.Label = "a";
  A.Kind = ParamKind::Pow2;
  A.Min = 2;
  A.Max = 64;
  S.Params.push_back(A);
  ParamDef B;
  B.Id = "b";
  B.Label = "b";
  B.Kind = ParamKind::IntRange;
  B.Min = 0;
  B.Max = 15;
  S.Params.push_back(B);
  ParamDef C;
  C.Id = "c";
  C.Label = "c";
  C.Kind = ParamKind::Enum;
  C.Options = {"x", "y", "z"};
  S.Params.push_back(C);
  return S;
}

/// Pure function of the point: safe for concurrent assessment.
double synthetic(const Point &P, bool &Valid) {
  Valid = true;
  double A = static_cast<double>(P.getInt("a"));
  double B = static_cast<double>(P.getInt("b"));
  double C = static_cast<double>(P.getInt("c"));
  return std::abs(std::log2(A) - 4.0) * 3 + std::abs(B - 7.0) +
         std::abs(C - 1.0) * 5;
}

const char *const AllSearchers[] = {"exhaustive", "random", "hillclimb",
                                    "de", "bandit", "tpe"};

TEST(ParallelSearch, TrajectoryIsIdenticalToSerial) {
  for (const char *Name : AllSearchers) {
    SearchOptions Serial;
    Serial.MaxEvaluations = 120;
    Serial.Seed = 7;
    SearchOptions Par = Serial;
    Par.Jobs = 4;

    Space S = mixedSpace();
    LambdaObjective SerialObj(synthetic, /*ThreadSafe=*/true);
    LambdaObjective ParObj(synthetic, /*ThreadSafe=*/true);
    SearchResult RS = makeSearcher(Name)->search(S, SerialObj, Serial);
    SearchResult RP = makeSearcher(Name)->search(S, ParObj, Par);

    EXPECT_EQ(RP.PoolJobs, 4) << Name;
    EXPECT_EQ(RS.Found, RP.Found) << Name;
    EXPECT_EQ(RS.Best.key(), RP.Best.key()) << Name;
    EXPECT_DOUBLE_EQ(RS.BestMetric, RP.BestMetric) << Name;
    EXPECT_EQ(RS.Evaluations, RP.Evaluations) << Name;
    EXPECT_EQ(RS.DuplicateHits, RP.DuplicateHits) << Name;
    EXPECT_EQ(RS.InvalidPoints, RP.InvalidPoints) << Name;
    // The full evaluation history — every assessed point, in order, with
    // its metric — must be bit-identical: parallel dispatch commits results
    // back in proposal order.
    ASSERT_EQ(RS.History.size(), RP.History.size()) << Name;
    for (size_t I = 0; I < RS.History.size(); ++I) {
      EXPECT_EQ(RS.History[I].P.key(), RP.History[I].P.key())
          << Name << " history entry " << I;
      EXPECT_DOUBLE_EQ(RS.History[I].Metric, RP.History[I].Metric)
          << Name << " history entry " << I;
    }
  }
}

TEST(ParallelSearch, PoolNotUsedWithoutObjectiveOptIn) {
  Space S = mixedSpace();
  // ThreadSafe defaults to false: the pool must stay serial even though the
  // caller asked for 4 jobs.
  LambdaObjective Obj(synthetic);
  SearchOptions Opts;
  Opts.MaxEvaluations = 40;
  Opts.Jobs = 4;
  SearchResult R = makeSearcher("de")->search(S, Obj, Opts);
  EXPECT_EQ(R.PoolJobs, 1);
  EXPECT_EQ(R.PooledEvaluations, 0);
}

TEST(ParallelSearch, BatchingSearchersReportPoolCounters) {
  for (const char *Name : {"exhaustive", "de", "random"}) {
    Space S = mixedSpace();
    LambdaObjective Obj(synthetic, /*ThreadSafe=*/true);
    SearchOptions Opts;
    Opts.MaxEvaluations = 64;
    Opts.Seed = 3;
    Opts.Jobs = 4;
    SearchResult R = makeSearcher(Name)->search(S, Obj, Opts);
    EXPECT_EQ(R.PoolJobs, 4) << Name;
    EXPECT_GT(R.Batches, 0) << Name;
    EXPECT_GT(R.MaxBatch, 1) << Name;
    EXPECT_GT(R.PooledEvaluations, 0) << Name;
    EXPECT_LE(R.PooledEvaluations, R.Evaluations) << Name;
  }
}

TEST(ParallelSearch, SleepyObjectiveSpeedsUpAtLeastTwofold) {
  // The acceptance check for the pool: with 4 workers, a batching searcher
  // over a slow objective must cut wall-clock by >= 2x with an identical
  // result. The objective sleeps instead of computing, so the speedup holds
  // even on single-core CI machines (sleeping threads overlap).
  using Clock = std::chrono::steady_clock;
  for (const char *Name : {"exhaustive", "de"}) {
    Space S = mixedSpace();
    auto Sleepy = [](const Point &P, bool &Valid) {
      std::this_thread::sleep_for(std::chrono::milliseconds(3));
      return synthetic(P, Valid);
    };
    SearchOptions Serial;
    Serial.MaxEvaluations = 64;
    Serial.Seed = 11;
    SearchOptions Par = Serial;
    Par.Jobs = 4;

    LambdaObjective SerialObj(Sleepy, /*ThreadSafe=*/true);
    auto T0 = Clock::now();
    SearchResult RS = makeSearcher(Name)->search(S, SerialObj, Serial);
    auto SerialMs = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - T0);

    LambdaObjective ParObj(Sleepy, /*ThreadSafe=*/true);
    auto T1 = Clock::now();
    SearchResult RP = makeSearcher(Name)->search(S, ParObj, Par);
    auto ParMs = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - T1);

    EXPECT_EQ(RS.Best.key(), RP.Best.key()) << Name;
    EXPECT_DOUBLE_EQ(RS.BestMetric, RP.BestMetric) << Name;
    EXPECT_EQ(RS.Evaluations, RP.Evaluations) << Name;
    EXPECT_GE(SerialMs.count(), 2 * ParMs.count())
        << Name << ": serial " << SerialMs.count() << "ms vs parallel "
        << ParMs.count() << "ms";
  }
}

TEST(ParallelSearch, DuplicateProposalsServedFromMemo) {
  // A two-point space forces the random searcher into duplicate streaks;
  // every duplicate must be served from the memo (counted in DuplicateHits)
  // rather than burning objective calls or budget.
  Space S;
  ParamDef D;
  D.Id = "d";
  D.Label = "d";
  D.Kind = ParamKind::Bool;
  S.Params.push_back(D);

  std::atomic<int> Calls{0};
  LambdaObjective Obj(
      [&Calls](const Point &P, bool &Valid) {
        Calls.fetch_add(1);
        Valid = true;
        return static_cast<double>(P.getInt("d"));
      },
      /*ThreadSafe=*/true);
  SearchOptions Opts;
  Opts.MaxEvaluations = 50;
  Opts.Seed = 1;
  Opts.Jobs = 4;
  SearchResult R = makeSearcher("random")->search(S, Obj, Opts);
  EXPECT_EQ(R.Evaluations, 2);
  EXPECT_EQ(Calls.load(), 2);
  EXPECT_GT(R.DuplicateHits, 0);
  EXPECT_EQ(R.DuplicateHits, R.DuplicatesSkipped);
  EXPECT_TRUE(R.Found);
  EXPECT_DOUBLE_EQ(R.BestMetric, 0.0);
}

//===----------------------------------------------------------------------===//
// Orchestrator: --jobs and the content-addressed cache over real variants
//===----------------------------------------------------------------------===//

struct MatmulFixture {
  std::unique_ptr<lang::LocusProgram> LP;
  std::unique_ptr<cir::Program> CP;
  MatmulFixture() {
    auto L = lang::parseLocusProgram(workloads::dgemmLocusFig5());
    EXPECT_TRUE(L.ok()) << L.message();
    LP = std::move(*L);
    auto C = cir::parseProgram(workloads::dgemmSource(24, 24, 24));
    EXPECT_TRUE(C.ok()) << C.message();
    CP = std::move(*C);
  }
  driver::OrchestratorOptions options(const std::string &Searcher) const {
    driver::OrchestratorOptions Opts;
    Opts.Eval.Machine = machine::MachineConfig::tiny();
    Opts.SearcherName = Searcher;
    Opts.MaxEvaluations = 24;
    Opts.Seed = 5;
    return Opts;
  }
};

TEST(DriverPool, ParallelMatmulSearchMatchesSerial) {
  MatmulFixture F;
  for (const char *Name : {"de", "exhaustive"}) {
    driver::OrchestratorOptions Serial = F.options(Name);
    driver::OrchestratorOptions Par = F.options(Name);
    Par.Jobs = 4;

    using Clock = std::chrono::steady_clock;
    driver::Orchestrator SOrch(*F.LP, *F.CP, Serial);
    auto T0 = Clock::now();
    auto RS = SOrch.runSearch();
    auto SerialMs = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - T0);
    ASSERT_TRUE(RS.ok()) << RS.message();

    driver::Orchestrator POrch(*F.LP, *F.CP, Par);
    auto T1 = Clock::now();
    auto RP = POrch.runSearch();
    auto ParMs = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::now() - T1);
    ASSERT_TRUE(RP.ok()) << RP.message();

    // Identical best point and metric, always.
    EXPECT_EQ(RP->Search.PoolJobs, 4) << Name;
    EXPECT_EQ(RS->Search.Best.key(), RP->Search.Best.key()) << Name;
    EXPECT_DOUBLE_EQ(RS->BestCycles, RP->BestCycles) << Name;
    EXPECT_EQ(RS->Search.Evaluations, RP->Search.Evaluations) << Name;
    EXPECT_EQ(RS->BaselineChosen, RP->BaselineChosen) << Name;

    // Wall-clock speedup needs real cores; CI containers with one core
    // cannot show a CPU-bound speedup, so gate the timing assertion.
    if (std::thread::hardware_concurrency() >= 4 && SerialMs.count() >= 200) {
      EXPECT_GE(SerialMs.count(), 2 * ParMs.count())
          << Name << ": serial " << SerialMs.count() << "ms vs parallel "
          << ParMs.count() << "ms";
    }
  }
}

// dgemm 48 makes about 442 K simulated accesses per run, past the point
// where a run's cache simulation may move to a helper thread; with Jobs = 1
// each run takes a helper when a core is spare, with Jobs = 4 on four cores
// they stay inline. Either way the trajectory must not change.
TEST(DriverPool, ParallelSearchAboveHelperThresholdMatchesSerial) {
  MatmulFixture F;
  auto C = cir::parseProgram(workloads::dgemmSource(48, 48, 48));
  ASSERT_TRUE(C.ok()) << C.message();
  F.CP = std::move(*C);
  driver::OrchestratorOptions Serial = F.options("exhaustive");
  Serial.MaxEvaluations = 10;
  driver::OrchestratorOptions Par = Serial;
  Par.Jobs = 4;
  driver::Orchestrator SOrch(*F.LP, *F.CP, Serial);
  auto RS = SOrch.runSearch();
  ASSERT_TRUE(RS.ok()) << RS.message();
  driver::Orchestrator POrch(*F.LP, *F.CP, Par);
  auto RP = POrch.runSearch();
  ASSERT_TRUE(RP.ok()) << RP.message();

  EXPECT_EQ(RP->Search.PoolJobs, 4);
  EXPECT_EQ(RS->Search.Best.key(), RP->Search.Best.key());
  EXPECT_EQ(RS->BestCycles, RP->BestCycles);
  ASSERT_EQ(RS->Search.History.size(), RP->Search.History.size());
  for (size_t I = 0; I < RS->Search.History.size(); ++I) {
    const search::EvalRecord &A = RS->Search.History[I];
    const search::EvalRecord &B = RP->Search.History[I];
    EXPECT_EQ(A.P.key(), B.P.key()) << "record " << I;
    EXPECT_EQ(A.Metric, B.Metric) << "record " << I;
    EXPECT_EQ(A.Failure, B.Failure) << "record " << I;
  }
}

TEST(DriverPool, EvalCacheDoesNotChangeResults) {
  MatmulFixture F;
  driver::OrchestratorOptions With = F.options("bandit");
  driver::OrchestratorOptions Without = F.options("bandit");
  Without.UseEvalCache = false;

  driver::Orchestrator WOrch(*F.LP, *F.CP, With);
  auto RW = WOrch.runSearch();
  ASSERT_TRUE(RW.ok()) << RW.message();
  driver::Orchestrator NOrch(*F.LP, *F.CP, Without);
  auto RN = NOrch.runSearch();
  ASSERT_TRUE(RN.ok()) << RN.message();

  EXPECT_EQ(RW->Search.Best.key(), RN->Search.Best.key());
  EXPECT_DOUBLE_EQ(RW->BestCycles, RN->BestCycles);
  EXPECT_EQ(RW->Search.Evaluations, RN->Search.Evaluations);

  // The cache saw every materialized variant; the uncached run reports
  // nothing.
  EXPECT_GT(RW->Search.CacheMisses, 0u);
  EXPECT_EQ(RN->Search.CacheHits + RN->Search.CacheMisses, 0u);
}

TEST(DriverPool, CacheCountsCrossPointDedupSaves) {
  // Tile sizes larger than the 24-iteration loops clamp to the same
  // materialized variant, so a searcher that proposes several of them gets
  // cross-point dedup saves.
  MatmulFixture F;
  driver::OrchestratorOptions Opts = F.options("random");
  Opts.MaxEvaluations = 40;
  driver::Orchestrator Orch(*F.LP, *F.CP, Opts);
  auto R = Orch.runSearch();
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_GT(R->Search.CacheMisses, 0u);
  EXPECT_GT(R->Search.CacheDedupSaves, 0u)
      << "expected distinct points to materialize to shared variants";
}

} // namespace
} // namespace locus
