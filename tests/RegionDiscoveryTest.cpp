//===- RegionDiscoveryTest.cpp - Pragma-free region discovery tests -----------===//
///
/// \file
/// Exercises the discovery pipeline end to end: structural identification of
/// candidate nests on the unannotated PolyBench kernels, located rejection
/// and demotion reasons for every bail-out path, the hotness ranking and its
/// footprint refinement, annotation round-trips through the unparser/parser
/// pair — and the determinism anchor: tuning an auto-discovered region
/// replays to the bit-identical trajectory (same history, best point, metric
/// and journal bytes) as tuning the hand-annotated original, per searcher.
///
//===----------------------------------------------------------------------===//

#include "src/analysis/RegionDiscovery.h"
#include "src/cir/AstUtils.h"
#include "src/cir/Parser.h"
#include "src/cir/Printer.h"
#include "src/driver/Orchestrator.h"
#include "src/locus/LocusParser.h"
#include "src/workloads/Workloads.h"

#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "tests/TestUtil.h"

#include <gtest/gtest.h>

namespace locus {
namespace {

using testutil::TempFile;
using testutil::slurp;

using analysis::CandidateVerdict;
using analysis::DiscoveryReport;
using analysis::NestCandidate;
using driver::Orchestrator;
using driver::OrchestratorOptions;

std::unique_ptr<lang::LocusProgram> parseLocusOrDie(const std::string &Src) {
  auto P = lang::parseLocusProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

std::unique_ptr<cir::Program> parseCOrDie(const std::string &Src) {
  auto P = cir::parseProgram(Src);
  EXPECT_TRUE(P.ok()) << P.message();
  return P.ok() ? std::move(*P) : nullptr;
}

OrchestratorOptions tinyOptions() {
  OrchestratorOptions Opts;
  Opts.Eval.Machine = machine::MachineConfig::tiny();
  Opts.MaxEvaluations = 15;
  Opts.Seed = 5;
  return Opts;
}

int countVerdict(const DiscoveryReport &R, CandidateVerdict V) {
  int N = 0;
  for (const NestCandidate &C : R.Candidates)
    N += C.Verdict == V;
  return N;
}

//===----------------------------------------------------------------------===//
// PolyBench identification and ranking
//===----------------------------------------------------------------------===//

/// Discovery finds the expected nest count in every unannotated PolyBench
/// kernel, every nest is annotatable, and names follow the rank order.
TEST(RegionDiscovery, FindsPolybenchNests) {
  const std::map<std::string, int> ExpectedNests = {
      {"gemver", 4}, {"atax", 2},    {"bicg", 2}, {"mvt", 2},
      {"syrk", 2},   {"gesummv", 1}, {"trmm", 1}, {"2mm", 2}};
  for (const std::string &Kernel : workloads::polybenchKernels()) {
    auto P = parseCOrDie(workloads::polybenchSource(Kernel, 40));
    DiscoveryReport R = analysis::discoverRegions(*P);
    EXPECT_EQ(R.NumScanned, ExpectedNests.at(Kernel)) << Kernel;
    EXPECT_EQ(countVerdict(R, CandidateVerdict::Rejected), 0) << Kernel;
    EXPECT_EQ(countVerdict(R, CandidateVerdict::Selected), R.NumScanned)
        << Kernel << ": every PolyBench nest is affine and dep-analyzable";
    ASSERT_FALSE(R.Candidates.empty());
    for (size_t I = 0; I < R.Candidates.size(); ++I) {
      EXPECT_EQ(R.Candidates[I].Name, "scop" + std::to_string(I)) << Kernel;
      EXPECT_TRUE(R.Candidates[I].Loc.valid()) << Kernel;
      // trmm's triangular inner bound (k < i) gives a range-refined trip
      // *estimate*; every other kernel has compile-time-exact trips.
      EXPECT_EQ(R.Candidates[I].TripExact, Kernel != "trmm") << Kernel;
    }
    // Ranked report renders every candidate.
    std::string Text = R.render();
    for (const NestCandidate &C : R.Candidates)
      EXPECT_NE(Text.find(C.Name), std::string::npos) << Kernel;
  }
}

/// The hotness model orders by modeled work: syrk's depth-3 accumulation
/// outranks its depth-2 scaling; atax's imperfect nest outranks the depth-1
/// init loop.
TEST(RegionDiscovery, HotnessOrdersByWork) {
  auto Syrk = parseCOrDie(workloads::polybenchSource("syrk", 40));
  DiscoveryReport R = analysis::discoverRegions(*Syrk);
  ASSERT_EQ(R.Candidates.size(), 2u);
  EXPECT_EQ(R.Candidates[0].Depth, 3);
  EXPECT_EQ(R.Candidates[1].Depth, 2);
  EXPECT_GT(R.Candidates[0].Hotness, R.Candidates[1].Hotness);
  EXPECT_EQ(R.Candidates[0].TripProduct, 40u * 40u * 40u);

  auto Atax = parseCOrDie(workloads::polybenchSource("atax", 40));
  DiscoveryReport RA = analysis::discoverRegions(*Atax);
  ASSERT_EQ(RA.Candidates.size(), 2u);
  EXPECT_EQ(RA.Candidates[0].Depth, 2);
  EXPECT_FALSE(RA.Candidates[0].Perfect)
      << "atax's hot nest has interleaved statements";
}

/// Footprint refinement: two nests with identical depth and trip counts,
/// one streaming a 32 KB array and one reusing a 512 B array. On the tiny
/// machine the large working set spills past L2 (latency 100 vs 2), so the
/// big-array nest ranks hotter.
TEST(RegionDiscovery, FootprintRefinesHotness) {
  auto P = parseCOrDie(R"(
double A[64][64];
double B[8][8];
int main() {
  int i, j;
  for (i = 0; i < 64; i++)
    for (j = 0; j < 64; j++)
      A[i][j] = A[i][j] + 1.0;
  for (i = 0; i < 64; i++)
    for (j = 0; j < 64; j++)
      B[i % 8][j % 8] = B[i % 8][j % 8] + 1.0;
  return 0;
}
)");
  analysis::DiscoveryOptions Opts;
  Opts.Machine = machine::MachineConfig::tiny();
  DiscoveryReport R = analysis::discoverRegions(*P, Opts);
  ASSERT_EQ(R.Candidates.size(), 2u);
  // Same depth and trips; only the footprint separates them.
  EXPECT_EQ(R.Candidates[0].TripProduct, R.Candidates[1].TripProduct);
  EXPECT_EQ(R.Candidates[0].FootprintBytes, 64u * 64u * 8u);
  EXPECT_EQ(R.Candidates[1].FootprintBytes, 8u * 8u * 8u)
      << "non-affine subscripts fall back to the declared array size";
  EXPECT_GT(R.Candidates[0].Hotness, R.Candidates[1].Hotness);
  EXPECT_EQ(R.Candidates[0].Name, "scop0");
}

//===----------------------------------------------------------------------===//
// Bail-out paths: located reasons, never silence, never crashes
//===----------------------------------------------------------------------===//

TEST(RegionDiscovery, UnknownCallRejectsWithLocation) {
  auto P = parseCOrDie(R"(
double A[16];
int main() {
  int i;
  for (i = 0; i < 16; i++) {
    init_array();
    A[i] = 1.0;
  }
  return 0;
}
)");
  DiscoveryReport R = analysis::discoverRegions(*P);
  ASSERT_EQ(R.Candidates.size(), 1u);
  const NestCandidate &C = R.Candidates[0];
  EXPECT_EQ(C.Verdict, CandidateVerdict::Rejected);
  EXPECT_TRUE(C.Name.empty());
  EXPECT_NE(C.Why.Message.find("init_array"), std::string::npos);
  EXPECT_TRUE(C.Why.Loc.valid()) << "rejection must be located";
  EXPECT_NE(R.render().find("init_array"), std::string::npos);
}

TEST(RegionDiscovery, NonAffineBoundRejectsWithLocation) {
  auto P = parseCOrDie(R"(
double A[256];
int main() {
  int i, n;
  n = 4;
  for (i = 0; i < n * n; i++)
    A[i] = 1.0;
  return 0;
}
)");
  DiscoveryReport R = analysis::discoverRegions(*P);
  ASSERT_EQ(R.Candidates.size(), 1u);
  const NestCandidate &C = R.Candidates[0];
  EXPECT_EQ(C.Verdict, CandidateVerdict::Rejected);
  EXPECT_NE(C.Why.Message.find("non-affine"), std::string::npos);
  EXPECT_NE(C.Why.Message.find("n * n"), std::string::npos);
  EXPECT_TRUE(C.Why.Loc.valid());
}

/// Min/max intrinsics are pure: they must not reject a nest (they appear in
/// every tiled variant's bounds).
TEST(RegionDiscovery, IntrinsicCallsDoNotReject) {
  auto P = parseCOrDie(R"(
double A[16][16];
int main() {
  int i, j;
  for (i = 0; i < 16; i++)
    for (j = 0; j < min(16, i + 8); j++)
      A[i][j] = 1.0;
  return 0;
}
)");
  DiscoveryReport R = analysis::discoverRegions(*P);
  ASSERT_EQ(R.Candidates.size(), 1u);
  EXPECT_NE(R.Candidates[0].Verdict, CandidateVerdict::Rejected);
}

/// Indirect subscripts defeat dependence analysis but not annotation: the
/// nest demotes with a located reason and keeps a region name.
TEST(RegionDiscovery, IndirectSubscriptDemotesWithLocation) {
  auto P = parseCOrDie(R"(
double A[16];
double B[16];
int main() {
  int i;
  for (i = 0; i < 16; i++)
    A[B[i]] = 1.0;
  return 0;
}
)");
  DiscoveryReport R = analysis::discoverRegions(*P);
  ASSERT_EQ(R.Candidates.size(), 1u);
  const NestCandidate &C = R.Candidates[0];
  EXPECT_EQ(C.Verdict, CandidateVerdict::Demoted);
  EXPECT_FALSE(C.DepAvailable);
  EXPECT_EQ(C.Name, "scop0") << "demoted nests stay annotatable";
  EXPECT_FALSE(C.Why.Message.empty());
  EXPECT_TRUE(C.Why.Loc.valid());
}

/// A conditional inside the nest demotes (dependence analysis bails) with a
/// located reason.
TEST(RegionDiscovery, ConditionalInNestDemotesWithLocation) {
  auto P = parseCOrDie(R"(
double A[16][16];
int main() {
  int i, j;
  for (i = 0; i < 16; i++)
    for (j = 0; j < 16; j++)
      if (j > i)
        A[i][j] = 1.0;
  return 0;
}
)");
  DiscoveryReport R = analysis::discoverRegions(*P);
  ASSERT_EQ(R.Candidates.size(), 1u);
  EXPECT_EQ(R.Candidates[0].Verdict, CandidateVerdict::Demoted);
  EXPECT_FALSE(R.Candidates[0].Why.Message.empty());
  EXPECT_TRUE(R.Candidates[0].Why.Loc.valid());
}

/// An imperfect nest whose interleaved statement writes a scalar that later
/// subscripts read: dependence analysis reports unavailability with a
/// located reason and discovery demotes instead of skipping silently.
TEST(RegionDiscovery, InterleavedScalarSubscriptDemotesWithLocation) {
  auto P = parseCOrDie(R"(
double A[32][16];
double B[16];
int main() {
  int i, j, k;
  for (i = 0; i < 16; i++) {
    k = i + i;
    for (j = 0; j < 16; j++)
      A[k][j] = B[j];
  }
  return 0;
}
)");
  DiscoveryReport R = analysis::discoverRegions(*P);
  ASSERT_EQ(R.Candidates.size(), 1u);
  EXPECT_EQ(R.Candidates[0].Verdict, CandidateVerdict::Demoted);
  EXPECT_FALSE(R.Candidates[0].Perfect);
  EXPECT_FALSE(R.Candidates[0].Why.Message.empty());
  EXPECT_TRUE(R.Candidates[0].Why.Loc.valid());
}

/// Pointer declarations are outside MiniC: the parser reports a located
/// error instead of crashing, which is the front-end's bail-out path for
/// pointer-typed arrays.
TEST(RegionDiscovery, PointerTypedArrayIsALocatedParseError) {
  auto P = cir::parseProgram(R"(
double *A;
int main() {
  int i;
  for (i = 0; i < 10; i++)
    A[i] = 0.0;
  return 0;
}
)");
  ASSERT_FALSE(P.ok());
  EXPECT_NE(P.message().find("line"), std::string::npos)
      << "parse failure must carry a location: " << P.message();
}

/// Loops already inside @Locus regions are skipped with a note, not
/// re-discovered.
TEST(RegionDiscovery, AnnotatedLoopsAreSkippedWithNote) {
  auto P = parseCOrDie(workloads::dgemmSource(8, 8, 8));
  DiscoveryReport R = analysis::discoverRegions(*P);
  EXPECT_EQ(R.NumScanned, 0);
  EXPECT_EQ(R.NumAlreadyAnnotated, 1);
  ASSERT_FALSE(R.Notes.empty());
  bool SawSkip = false, SawEmpty = false;
  for (const support::Diag &N : R.Notes) {
    SawSkip |= N.Message.find("already annotated") != std::string::npos;
    SawEmpty |= N.Message.find("nothing to discover") != std::string::npos;
  }
  EXPECT_TRUE(SawSkip);
  EXPECT_TRUE(SawEmpty);
}

/// The Kripke proxy kernels call address_calc(): discovery rejects their
/// nests with a located reason instead of crashing on the unknown call.
TEST(RegionDiscovery, KripkeUnknownCallRejectsWithLocation) {
  workloads::KripkeConfig Config;
  auto P = parseCOrDie(analysis::stripLocusRegionPragmas(
      workloads::kripkeKernelSource(Config, workloads::kripkeKernels()[0])));
  DiscoveryReport R = analysis::discoverRegions(*P);
  ASSERT_GT(R.NumScanned, 0);
  for (const NestCandidate &C : R.Candidates) {
    if (C.Verdict != CandidateVerdict::Rejected)
      continue;
    EXPECT_FALSE(C.Why.Message.empty());
    EXPECT_TRUE(C.Why.Loc.valid());
  }
  EXPECT_GT(countVerdict(R, CandidateVerdict::Rejected), 0);
}

//===----------------------------------------------------------------------===//
// Empty input and the orchestrator's empty-region path
//===----------------------------------------------------------------------===//

TEST(RegionDiscovery, EmptyInputYieldsAdvisoryNote) {
  auto P = parseCOrDie(R"(
double x;
int main() {
  x = 1.0;
  return 0;
}
)");
  DiscoveryReport R = analysis::discoverRegions(*P);
  EXPECT_TRUE(R.Candidates.empty());
  EXPECT_EQ(R.NumScanned, 0);
  ASSERT_FALSE(R.Notes.empty());
  EXPECT_NE(R.Notes.front().Message.find("no loop nests"), std::string::npos);
  EXPECT_TRUE(R.Notes.front().Loc.valid())
      << "advisory note is located at the first statement";
  EXPECT_TRUE(analysis::annotateRegions(*P, R).ok());
}

/// A pragma-free translation unit flows through the whole orchestrator
/// without surprises: findRegions returns empty, the interpreter logs an
/// advisory warning, the space is empty, and the baseline is kept.
TEST(RegionDiscovery, OrchestratorHandlesUnannotatedInputGracefully) {
  std::string Stripped =
      analysis::stripLocusRegionPragmas(workloads::dgemmSource(8, 8, 8));
  auto CP = parseCOrDie(Stripped);
  EXPECT_TRUE(CP->findRegions("matmul").empty());
  EXPECT_TRUE(CP->regionNames().empty());

  // Search workflow: empty space, baseline chosen, no crash.
  auto LP = parseLocusOrDie(analysis::genericLocusProgram("matmul"));
  Orchestrator Orch(*LP, *CP, tinyOptions());
  auto R = Orch.runSearch();
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_TRUE(R->BaselineChosen);
  EXPECT_EQ(R->Space.Params.size(), 0u);

  // Direct workflow: the interpreter's advisory warning names the region.
  auto Direct = parseLocusOrDie(R"(
Search {
  buildcmd = "make";
  runcmd = "./matmul";
}

CodeReg matmul {
  RoseLocus.Unroll(loop="0", factor=2);
}
)");
  Orchestrator DOrch(*Direct, *CP, tinyOptions());
  auto DR = DOrch.runDirect();
  ASSERT_TRUE(DR.ok()) << DR.message();
  bool SawWarning = false;
  for (const std::string &Line : DR->Exec.Log)
    SawWarning |= Line.find("no code region named 'matmul'") !=
                  std::string::npos;
  EXPECT_TRUE(SawWarning);
}

//===----------------------------------------------------------------------===//
// Annotation synthesis
//===----------------------------------------------------------------------===//

/// Injected regions round-trip: the unparser emits `#pragma @Locus` markers
/// for them and reparsing reproduces the annotated tree.
TEST(RegionDiscovery, AnnotateRoundTripsThroughPrinter) {
  auto P = parseCOrDie(workloads::polybenchSource("mvt", 16));
  DiscoveryReport R = analysis::discoverRegions(*P);
  auto Injected = analysis::annotateRegions(*P, R);
  ASSERT_TRUE(Injected.ok()) << Injected.message();
  EXPECT_EQ(*Injected, 2);
  ASSERT_EQ(P->findRegions("scop0").size(), 1u);
  ASSERT_EQ(P->findRegions("scop1").size(), 1u);

  std::string Text = cir::printProgram(*P);
  EXPECT_NE(Text.find("#pragma @Locus loop=scop0"), std::string::npos);
  EXPECT_NE(Text.find("#pragma @Locus loop=scop1"), std::string::npos);
  auto Reparsed = parseCOrDie(Text);
  EXPECT_TRUE(cir::programEquals(*P, *Reparsed));
}

/// --discover-top truncation: only the hottest candidate is annotated.
TEST(RegionDiscovery, AnnotateTopNTruncates) {
  auto P = parseCOrDie(workloads::polybenchSource("gemver", 16));
  DiscoveryReport R = analysis::discoverRegions(*P);
  EXPECT_EQ(R.annotatable().size(), 4u);
  EXPECT_EQ(R.annotatable(2).size(), 2u);
  auto Injected = analysis::annotateRegions(*P, R, 1);
  ASSERT_TRUE(Injected.ok()) << Injected.message();
  EXPECT_EQ(*Injected, 1);
  EXPECT_EQ(P->regionNames(), std::vector<std::string>{"scop0"});
}

/// Stripping the hand annotation, rediscovering, renaming the candidate to
/// the hand label and annotating reproduces the hand-annotated program
/// exactly (structural equality) — the foundation of the determinism anchor.
TEST(RegionDiscovery, AnnotatedMatchesHandAnnotation) {
  std::string Hand = workloads::dgemmSource(16, 16, 16);
  auto HandP = parseCOrDie(Hand);

  auto StrippedP = parseCOrDie(analysis::stripLocusRegionPragmas(Hand));
  DiscoveryReport R = analysis::discoverRegions(*StrippedP);
  ASSERT_EQ(R.annotatable().size(), 1u);
  for (NestCandidate &C : R.Candidates)
    if (C.Verdict != CandidateVerdict::Rejected)
      C.Name = "matmul";
  auto Injected = analysis::annotateRegions(*StrippedP, R);
  ASSERT_TRUE(Injected.ok()) << Injected.message();
  EXPECT_TRUE(cir::programEquals(*HandP, *StrippedP));
}

/// Non-Locus pragmas survive stripping.
TEST(RegionDiscovery, StripKeepsForeignPragmas) {
  std::string Src = "#pragma omp parallel for\n"
                    "#pragma @Locus loop=x\n"
                    "  #pragma @Locus endblock\n"
                    "double A[4];\n";
  std::string Out = analysis::stripLocusRegionPragmas(Src);
  EXPECT_NE(Out.find("#pragma omp parallel for"), std::string::npos);
  EXPECT_EQ(Out.find("@Locus"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The determinism anchor
//===----------------------------------------------------------------------===//

struct TuneResult {
  driver::SearchWorkflowResult R;
  std::string JournalBytes;
};

TuneResult tuneProgram(std::unique_ptr<cir::Program> CP,
                       const std::string &RegionName,
                       const std::string &Searcher, int Budget,
                       const std::string &JournalName) {
  TempFile Journal(JournalName);
  auto LP = parseLocusOrDie(analysis::genericLocusProgram(RegionName));
  OrchestratorOptions Opts = tinyOptions();
  Opts.SearcherName = Searcher;
  Opts.MaxEvaluations = Budget;
  Opts.JournalPath = Journal.Path;
  Orchestrator Orch(*LP, *CP, Opts);
  auto R = Orch.runSearch();
  EXPECT_TRUE(R.ok()) << R.message();
  return TuneResult{std::move(*R), slurp(Journal.Path)};
}

/// Tunes the hand-annotated source as-is.
TuneResult tuneHand(const std::string &Src, const std::string &RegionName,
                    const std::string &Searcher, int Budget) {
  return tuneProgram(parseCOrDie(Src), RegionName, Searcher, Budget,
                     "discovery_hand.rlog");
}

/// Strips the annotations, rediscovers the nest, renames it to the hand
/// label, annotates, and tunes the result.
TuneResult tuneDiscovered(const std::string &Src,
                          const std::string &RegionName,
                          const std::string &Searcher, int Budget) {
  auto CP = parseCOrDie(analysis::stripLocusRegionPragmas(Src));
  DiscoveryReport R = analysis::discoverRegions(*CP);
  EXPECT_EQ(R.annotatable().size(), 1u);
  for (NestCandidate &C : R.Candidates)
    if (C.Verdict != CandidateVerdict::Rejected)
      C.Name = RegionName;
  auto Injected = analysis::annotateRegions(*CP, R);
  EXPECT_TRUE(Injected.ok()) << Injected.message();
  return tuneProgram(std::move(CP), RegionName, Searcher, Budget,
                     "discovery_auto.rlog");
}

void expectIdenticalTrajectories(const TuneResult &Hand,
                                 const TuneResult &Auto,
                                 const std::string &Tag) {
  const search::SearchResult &H = Hand.R.Search, &A = Auto.R.Search;
  EXPECT_EQ(H.Evaluations, A.Evaluations) << Tag;
  ASSERT_EQ(H.History.size(), A.History.size()) << Tag;
  for (size_t I = 0; I < H.History.size(); ++I) {
    EXPECT_EQ(H.History[I].P.key(), A.History[I].P.key())
        << Tag << ": trajectory diverged at step " << I;
    EXPECT_EQ(H.History[I].Valid, A.History[I].Valid) << Tag;
    EXPECT_EQ(H.History[I].Failure, A.History[I].Failure) << Tag;
    EXPECT_EQ(H.History[I].Detail, A.History[I].Detail) << Tag;
    if (H.History[I].Valid)
      EXPECT_DOUBLE_EQ(H.History[I].Metric, A.History[I].Metric) << Tag;
  }
  EXPECT_EQ(driver::serializePoint(H.Best), driver::serializePoint(A.Best))
      << Tag;
  EXPECT_DOUBLE_EQ(H.BestMetric, A.BestMetric) << Tag;
  EXPECT_DOUBLE_EQ(Hand.R.BestCycles, Auto.R.BestCycles) << Tag;
  EXPECT_FALSE(Hand.JournalBytes.empty()) << Tag;
  EXPECT_EQ(Hand.JournalBytes, Auto.JournalBytes)
      << Tag << ": journal record sequences must be byte-identical";
}

/// Per searcher: tuning the auto-discovered DGEMM region replays to the
/// bit-identical trajectory of tuning the hand-annotated one — same point
/// sequence, metrics, best point and journal bytes.
TEST(RegionDiscovery, TrajectoryMatchesHandAnnotatedPerSearcher) {
  const std::string Src = workloads::dgemmSource(16, 16, 16);
  for (const std::string &Searcher :
       {"bandit", "tpe", "random", "hillclimb", "de"}) {
    TuneResult Hand = tuneHand(Src, "matmul", Searcher, 12);
    TuneResult Auto = tuneDiscovered(Src, "matmul", Searcher, 12);
    expectIdenticalTrajectories(Hand, Auto, "searcher=" + Searcher);
  }
}

/// Per seed workload: every hand-annotated kernel (DGEMM plus all six
/// stencils — whose modulo buffer-flip subscripts demote their candidate,
/// exercising the Demoted tuning path) anchors to the identical trajectory.
TEST(RegionDiscovery, TrajectoryMatchesHandAnnotatedPerWorkload) {
  std::vector<std::pair<std::string, std::string>> Workloads;
  Workloads.emplace_back(workloads::dgemmSource(16, 16, 16), "matmul");
  for (workloads::StencilKind K :
       {workloads::StencilKind::Jacobi1D, workloads::StencilKind::Heat1D,
        workloads::StencilKind::Seidel1D, workloads::StencilKind::Jacobi2D,
        workloads::StencilKind::Heat2D, workloads::StencilKind::Seidel2D}) {
    Workloads.emplace_back(workloads::stencilSource(K, 4, 12), "stencil");
  }
  for (size_t I = 0; I < Workloads.size(); ++I) {
    const auto &[Src, Region] = Workloads[I];
    TuneResult Hand = tuneHand(Src, Region, "bandit", 8);
    TuneResult Auto = tuneDiscovered(Src, Region, "bandit", 8);
    expectIdenticalTrajectories(Hand, Auto, "workload #" + std::to_string(I));
  }
}

} // namespace
} // namespace locus
