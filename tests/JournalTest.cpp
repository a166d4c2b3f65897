//===- JournalTest.cpp - Point codec and crash-safe journal tests --------===//

#include "src/driver/Orchestrator.h"
#include "src/search/EvalPool.h"
#include "src/search/Journal.h"
#include "src/search/PointCodec.h"
#include "src/search/Search.h"
#include "src/support/RecordLog.h"
#include "src/workloads/Workloads.h"

#include "src/cir/Parser.h"
#include "src/locus/LocusParser.h"

#include "tests/TestUtil.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>

namespace locus {
namespace {

using testutil::TempFile;

using namespace search;

Space smallSpace() {
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
  return S;
}

double synthetic(const Point &P, bool &Valid) {
  Valid = true;
  double A = static_cast<double>(P.getInt("a"));
  double B = static_cast<double>(P.getInt("b"));
  return std::abs(std::log2(A) - 4.0) * 3 + std::abs(B - 7.0);
}

//===----------------------------------------------------------------------===//
// Point codec
//===----------------------------------------------------------------------===//

TEST(PointCodec, RoundTripAllValueKinds) {
  Point P;
  P.Values["int"] = int64_t(-42);
  P.Values["big"] = int64_t(1) << 40;
  P.Values["float"] = 0.125;
  P.Values["name"] = std::string("ZGD");
  P.Values["perm"] = std::vector<int>{2, 0, 1};
  std::string Text = serializePoint(P);
  Space Empty;
  auto Back = deserializePoint(Text, Empty);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_EQ(Back->key(), P.key());
  EXPECT_EQ(Back->getInt("int"), -42);
  EXPECT_EQ(Back->getInt("big"), int64_t(1) << 40);
  EXPECT_DOUBLE_EQ(Back->getFloat("float"), 0.125);
  EXPECT_EQ(Back->getString("name"), "ZGD");
  EXPECT_EQ(Back->getPerm("perm"), (std::vector<int>{2, 0, 1}));
}

TEST(PointCodec, DriverForwardersAgree) {
  Point P;
  P.Values["a"] = int64_t(16);
  EXPECT_EQ(driver::serializePoint(P), serializePoint(P));
  Space Empty;
  auto Back = driver::deserializePoint(serializePoint(P), Empty);
  ASSERT_TRUE(Back.ok());
  EXPECT_EQ(Back->key(), P.key());
}

TEST(PointCodec, MalformedInputsAreErrorsNotCrashes) {
  Space Empty;
  // No " = " separator.
  EXPECT_FALSE(deserializePoint("a i:4\n", Empty).ok());
  // Missing tag separator.
  EXPECT_FALSE(deserializePoint("a = 4\n", Empty).ok());
  // Unknown tag.
  EXPECT_FALSE(deserializePoint("a = q:4\n", Empty).ok());
  // Non-numeric integer body (stoll would have thrown here).
  EXPECT_FALSE(deserializePoint("a = i:abc\n", Empty).ok());
  // Trailing garbage after the number.
  EXPECT_FALSE(deserializePoint("a = i:12x\n", Empty).ok());
  // Empty integer body.
  EXPECT_FALSE(deserializePoint("a = i:\n", Empty).ok());
  // Malformed float.
  EXPECT_FALSE(deserializePoint("a = f:1.2.3\n", Empty).ok());
  // Garbage permutation entry (atoi would have yielded 0 here).
  EXPECT_FALSE(deserializePoint("a = p:1,x,2\n", Empty).ok());
  // Huge integer that overflows int64.
  EXPECT_FALSE(deserializePoint("a = i:99999999999999999999999\n", Empty).ok());
}

TEST(PointCodec, UnpinnedParameterIsAnError) {
  Space S = smallSpace();
  auto R = deserializePoint("a = i:16\n", S); // "b" missing
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("does not pin b"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Journal encode/decode and load
//===----------------------------------------------------------------------===//

EvalRecord makeRecord(int64_t A, int64_t B, double Metric, FailureKind K,
                      const std::string &Detail = "") {
  EvalRecord R;
  R.P.Values["a"] = A;
  R.P.Values["b"] = B;
  R.Failure = K;
  R.Valid = K == FailureKind::None;
  R.Metric = R.Valid ? Metric : std::numeric_limits<double>::infinity();
  R.Detail = Detail;
  return R;
}

TEST(Journal, LineRoundTripIncludingEscapes) {
  Space S = smallSpace();
  EvalRecord R = makeRecord(16, 7, 123.5, FailureKind::None,
                            "detail with \"quotes\",\nnewline\tand \\slash");
  std::string Line = SearchJournal::encodeLine(R);
  EXPECT_EQ(Line.find('\n'), std::string::npos) << "journal lines are single";
  auto Back = SearchJournal::decodeLine(Line, S);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_EQ(Back->P.key(), R.P.key());
  EXPECT_DOUBLE_EQ(Back->Metric, R.Metric);
  EXPECT_EQ(Back->Failure, FailureKind::None);
  EXPECT_TRUE(Back->Valid);
  EXPECT_EQ(Back->Detail, R.Detail);
}

TEST(Journal, FailedRecordRoundTripsKindAndInfiniteMetric) {
  Space S = smallSpace();
  EvalRecord R = makeRecord(8, 3, 0, FailureKind::ChecksumMismatch, "boom");
  auto Back = SearchJournal::decodeLine(SearchJournal::encodeLine(R), S);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_EQ(Back->Failure, FailureKind::ChecksumMismatch);
  EXPECT_FALSE(Back->Valid);
  EXPECT_TRUE(std::isinf(Back->Metric));
}

TEST(Journal, AppendThenLoad) {
  Space S = smallSpace();
  TempFile F("journal_append.jsonl");
  {
    auto J = SearchJournal::open(F.Path);
    ASSERT_TRUE(J.ok()) << J.message();
    ASSERT_TRUE(J->append(makeRecord(16, 7, 10, FailureKind::None)).ok());
    ASSERT_TRUE(
        J->append(makeRecord(2, 0, 0, FailureKind::RuntimeTrap, "trap")).ok());
    ASSERT_TRUE(J->append(makeRecord(32, 9, 20, FailureKind::None)).ok());
  }
  auto Loaded = SearchJournal::load(F.Path, S);
  ASSERT_TRUE(Loaded.ok()) << Loaded.message();
  EXPECT_EQ(Loaded->DroppedTailLines, 0);
  ASSERT_EQ(Loaded->Records.size(), 3u);
  EXPECT_TRUE(Loaded->Records[0].Valid);
  EXPECT_EQ(Loaded->Records[1].Failure, FailureKind::RuntimeTrap);
  EXPECT_EQ(Loaded->Records[1].Detail, "trap");
  EXPECT_EQ(Loaded->Records[2].P.key(), makeRecord(32, 9, 0, FailureKind::None).P.key());
}

TEST(Journal, AllSyncModesAppendAndLoad) {
  // The durability policy changes when bytes reach stable storage, never
  // what a clean close leaves on disk.
  Space S = smallSpace();
  for (JournalSync Mode :
       {JournalSync::None, JournalSync::Flush, JournalSync::Full}) {
    TempFile F("journal_sync.jsonl");
    {
      auto J = SearchJournal::open(F.Path, Mode);
      ASSERT_TRUE(J.ok()) << J.message();
      ASSERT_TRUE(J->append(makeRecord(16, 7, 10, FailureKind::None)).ok());
      ASSERT_TRUE(J->append(makeRecord(32, 9, 20, FailureKind::None)).ok());
    }
    auto Loaded = SearchJournal::load(F.Path, S);
    ASSERT_TRUE(Loaded.ok()) << Loaded.message();
    EXPECT_EQ(Loaded->Records.size(), 2u)
        << "sync mode " << static_cast<int>(Mode);
  }
}

TEST(Journal, ParseJournalSyncNames) {
  bool Ok = false;
  EXPECT_EQ(parseJournalSync("none", Ok), JournalSync::None);
  EXPECT_TRUE(Ok);
  EXPECT_EQ(parseJournalSync("flush", Ok), JournalSync::Flush);
  EXPECT_TRUE(Ok);
  EXPECT_EQ(parseJournalSync("full", Ok), JournalSync::Full);
  EXPECT_TRUE(Ok);
  parseJournalSync("eventually", Ok);
  EXPECT_FALSE(Ok);
}

TEST(Journal, ConcurrentAppendsStayWholeLine) {
  // append() is internally serialized: lines from racing writers must never
  // interleave mid-record. Load back everything written by four threads and
  // check each line decodes.
  Space S = smallSpace();
  TempFile F("journal_concurrent.jsonl");
  {
    auto J = SearchJournal::open(F.Path, JournalSync::Flush);
    ASSERT_TRUE(J.ok());
    EvalPool Pool(4);
    Pool.run(64, [&](size_t I) {
      ASSERT_TRUE(J->append(makeRecord(1 << (I % 6 + 1),
                                       static_cast<int64_t>(I % 16),
                                       static_cast<double>(I),
                                       FailureKind::None))
                      .ok());
    });
  }
  auto Loaded = SearchJournal::load(F.Path, S);
  ASSERT_TRUE(Loaded.ok()) << Loaded.message();
  EXPECT_EQ(Loaded->Records.size(), 64u);
  EXPECT_EQ(Loaded->DroppedTailLines, 0);
}

TEST(Journal, EmptyAndMissingJournalsLoadAsEmpty) {
  Space S = smallSpace();
  TempFile F("journal_empty.jsonl");
  { std::ofstream(F.Path); } // create empty
  auto Loaded = SearchJournal::load(F.Path, S);
  ASSERT_TRUE(Loaded.ok());
  EXPECT_TRUE(Loaded->Records.empty());
  auto Missing = SearchJournal::load(F.Path + ".nope", S);
  ASSERT_TRUE(Missing.ok());
  EXPECT_TRUE(Missing->Records.empty());
}

TEST(Journal, TruncatedLastLineIsDropped) {
  Space S = smallSpace();
  TempFile F("journal_torn.jsonl");
  {
    auto J = SearchJournal::open(F.Path);
    ASSERT_TRUE(J.ok());
    ASSERT_TRUE(J->append(makeRecord(16, 7, 10, FailureKind::None)).ok());
    ASSERT_TRUE(J->append(makeRecord(4, 2, 30, FailureKind::None)).ok());
  }
  // Simulate a crash mid-append: a prefix of a valid frame, cut short
  // exactly as a dying writer leaves it.
  {
    std::string Frame = support::RecordLog::encodeFrame(
        SearchJournal::encodeLine(makeRecord(8, 1, 20, FailureKind::None)));
    std::ofstream Out(F.Path, std::ios::app | std::ios::binary);
    Out.write(Frame.data(), static_cast<std::streamsize>(Frame.size() / 2));
  }
  auto Loaded = SearchJournal::load(F.Path, S);
  ASSERT_TRUE(Loaded.ok()) << Loaded.message();
  EXPECT_EQ(Loaded->DroppedTailLines, 1);
  EXPECT_NE(Loaded->Warning.find("torn"), std::string::npos);
  ASSERT_EQ(Loaded->Records.size(), 2u);
}

TEST(Journal, CorruptMiddleLineIsAnError) {
  Space S = smallSpace();
  TempFile F("journal_corrupt.jsonl");
  {
    std::ofstream Out(F.Path, std::ios::binary);
    Out << SearchJournal::encodeLine(makeRecord(16, 7, 10, FailureKind::None))
        << "\n";
    Out << "not json at all\n";
    Out << SearchJournal::encodeLine(makeRecord(4, 2, 30, FailureKind::None))
        << "\n";
  }
  auto Loaded = SearchJournal::load(F.Path, S);
  EXPECT_FALSE(Loaded.ok());
}

TEST(Journal, JournalFromDifferentSpaceIsAnError) {
  Space Other;
  ParamDef X;
  X.Id = "x";
  X.Label = "x";
  X.Kind = ParamKind::IntRange;
  X.Min = 0;
  X.Max = 3;
  Other.Params.push_back(X);

  TempFile F("journal_space.jsonl");
  {
    auto J = SearchJournal::open(F.Path);
    ASSERT_TRUE(J.ok());
    // Records written against smallSpace (params a, b).
    ASSERT_TRUE(J->append(makeRecord(16, 7, 10, FailureKind::None)).ok());
  }
  auto Loaded = SearchJournal::load(F.Path, Other);
  ASSERT_FALSE(Loaded.ok());
  EXPECT_NE(Loaded.message().find("does not match space"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// v2 header: fingerprints, located diagnostics, legacy migration
//===----------------------------------------------------------------------===//

TEST(Journal, HeaderRoundTrip) {
  JournalHeader H;
  H.SpaceFingerprint = 0x0123456789abcdefULL;
  H.ConfigDigest = 0xfedcba9876543210ULL;
  JournalHeader Back;
  ASSERT_TRUE(SearchJournal::parseHeader(SearchJournal::encodeHeader(H), Back));
  EXPECT_TRUE(Back == H);
  EXPECT_FALSE(SearchJournal::parseHeader("locus-journal v1\n", Back));
  EXPECT_FALSE(SearchJournal::parseHeader("", Back));
}

TEST(Journal, SpaceFingerprintIsStableAndStructureSensitive) {
  Space S = smallSpace();
  EXPECT_EQ(S.fingerprint(), smallSpace().fingerprint());
  Space Widened = smallSpace();
  Widened.Params[1].Max = 31; // b: 0..15 -> 0..31
  EXPECT_NE(S.fingerprint(), Widened.fingerprint());
  Space Renamed = smallSpace();
  Renamed.Params[0].Id = "a2";
  EXPECT_NE(S.fingerprint(), Renamed.fingerprint());
}

TEST(Journal, MismatchedSpaceFingerprintIsRefusedWithLocation) {
  Space S = smallSpace();
  TempFile F("journal_hdr_space.rlog");
  JournalHeader Written;
  Written.SpaceFingerprint = S.fingerprint();
  Written.ConfigDigest = journalConfigDigest("bandit", 42);
  {
    auto J = SearchJournal::open(F.Path, JournalSync::Full, Written);
    ASSERT_TRUE(J.ok()) << J.message();
    ASSERT_TRUE(J->append(makeRecord(16, 7, 10, FailureKind::None)).ok());
  }
  JournalHeader Expect = Written;
  Expect.SpaceFingerprint ^= 1;
  auto Loaded = SearchJournal::load(F.Path, S, &Expect);
  ASSERT_FALSE(Loaded.ok());
  EXPECT_NE(Loaded.message().find("different search space"), std::string::npos)
      << Loaded.message();
  EXPECT_NE(Loaded.message().find("byte 16"), std::string::npos)
      << Loaded.message();
  // Reopening for append is refused the same way.
  auto Reopen = SearchJournal::open(F.Path, JournalSync::Full, Expect);
  ASSERT_FALSE(Reopen.ok());
  EXPECT_NE(Reopen.message().find("different search space"),
            std::string::npos);
}

TEST(Journal, MismatchedConfigDigestIsRefused) {
  Space S = smallSpace();
  TempFile F("journal_hdr_config.rlog");
  JournalHeader Written;
  Written.SpaceFingerprint = S.fingerprint();
  Written.ConfigDigest = journalConfigDigest("bandit", 42);
  {
    auto J = SearchJournal::open(F.Path, JournalSync::Full, Written);
    ASSERT_TRUE(J.ok()) << J.message();
  }
  JournalHeader Expect = Written;
  Expect.ConfigDigest = journalConfigDigest("tpe", 42);
  ASSERT_NE(Expect.ConfigDigest, Written.ConfigDigest);
  auto Loaded = SearchJournal::load(F.Path, S, &Expect);
  ASSERT_FALSE(Loaded.ok());
  EXPECT_NE(Loaded.message().find("different search configuration"),
            std::string::npos)
      << Loaded.message();
  // A matching header loads fine.
  auto Ok = SearchJournal::load(F.Path, S, &Written);
  EXPECT_TRUE(Ok.ok()) << Ok.message();
}

TEST(Journal, ConfigDigestSeparatesSearcherAndSeed) {
  uint64_t D = journalConfigDigest("bandit", 42);
  EXPECT_EQ(D, journalConfigDigest("bandit", 42));
  EXPECT_NE(D, journalConfigDigest("bandit", 43));
  EXPECT_NE(D, journalConfigDigest("random", 42));
}

TEST(Journal, FlippedByteBeforeTailIsALocatedError) {
  Space S = smallSpace();
  TempFile F("journal_bitrot.rlog");
  {
    auto J = SearchJournal::open(F.Path);
    ASSERT_TRUE(J.ok());
    ASSERT_TRUE(J->append(makeRecord(16, 7, 10, FailureKind::None)).ok());
    ASSERT_TRUE(J->append(makeRecord(8, 3, 20, FailureKind::None)).ok());
    ASSERT_TRUE(J->append(makeRecord(4, 1, 30, FailureKind::None)).ok());
  }
  // Flip one payload byte in the middle record.
  auto Scan = support::RecordLog::scan(F.Path);
  ASSERT_TRUE(Scan.ok());
  std::string Image = support::RecordLog::encodeHeaderBlock(Scan->Header);
  uint64_t FlipAt = 0;
  for (size_t I = 0; I < Scan->Records.size(); ++I) {
    if (I == 1)
      FlipAt = Image.size(); // offset of the frame we damage
    Image += support::RecordLog::encodeFrame(Scan->Records[I]);
  }
  Image[FlipAt + 8 + 2] ^= 0x40; // a payload byte of record 2
  {
    std::ofstream Out(F.Path, std::ios::trunc | std::ios::binary);
    Out << Image;
  }
  auto Loaded = SearchJournal::load(F.Path, S);
  ASSERT_FALSE(Loaded.ok());
  EXPECT_NE(Loaded.message().find("CRC mismatch at byte " +
                                  std::to_string(FlipAt)),
            std::string::npos)
      << Loaded.message();
  EXPECT_NE(Loaded.message().find("remove the journal"), std::string::npos);
}

TEST(Journal, LegacyJsonlLoadsAndOpenMigratesToV2) {
  Space S = smallSpace();
  TempFile F("journal_legacy.jsonl");
  {
    // A v1 journal: plain JSONL, no header, no checksums.
    std::ofstream Out(F.Path, std::ios::binary);
    Out << SearchJournal::encodeLine(makeRecord(16, 7, 10, FailureKind::None))
        << "\n";
    Out << SearchJournal::encodeLine(makeRecord(8, 3, 20, FailureKind::None))
        << "\n";
  }
  JournalHeader H;
  H.SpaceFingerprint = S.fingerprint();

  // Opening for append without the loaded records is refused (appending v2
  // frames to a JSONL file would corrupt both formats)...
  auto Refused = SearchJournal::open(F.Path, JournalSync::Full, H);
  ASSERT_FALSE(Refused.ok());
  EXPECT_NE(Refused.message().find("legacy"), std::string::npos);

  // ...but load() understands v1 and open() migrates with its records.
  auto Loaded = SearchJournal::load(F.Path, S, &H);
  ASSERT_TRUE(Loaded.ok()) << Loaded.message();
  EXPECT_TRUE(Loaded->Legacy);
  ASSERT_EQ(Loaded->Records.size(), 2u);
  {
    auto J = SearchJournal::open(F.Path, JournalSync::Full, H,
                                 &Loaded->Records);
    ASSERT_TRUE(J.ok()) << J.message();
    ASSERT_TRUE(J->append(makeRecord(4, 1, 30, FailureKind::None)).ok());
  }
  auto Migrated = SearchJournal::load(F.Path, S, &H);
  ASSERT_TRUE(Migrated.ok()) << Migrated.message();
  EXPECT_FALSE(Migrated->Legacy);
  EXPECT_EQ(Migrated->Header.SpaceFingerprint, S.fingerprint());
  ASSERT_EQ(Migrated->Records.size(), 3u);
  EXPECT_EQ(Migrated->Records[0].P.key(),
            makeRecord(16, 7, 0, FailureKind::None).P.key());
  EXPECT_EQ(Migrated->Records[2].P.key(),
            makeRecord(4, 1, 0, FailureKind::None).P.key());
}

TEST(Journal, GarbageFileIsABadMagicError) {
  Space S = smallSpace();
  TempFile F("journal_garbage.rlog");
  {
    std::ofstream Out(F.Path, std::ios::binary);
    Out << "PNG\x89 definitely not a journal";
  }
  auto Loaded = SearchJournal::load(F.Path, S);
  ASSERT_FALSE(Loaded.ok());
  EXPECT_NE(Loaded.message().find("bad magic at byte 0"), std::string::npos)
      << Loaded.message();
}

//===----------------------------------------------------------------------===//
// Kill-and-resume at the search layer
//===----------------------------------------------------------------------===//

class KillAndResume : public ::testing::TestWithParam<const char *> {};

TEST_P(KillAndResume, ResumedRunMatchesUninterruptedRun) {
  Space S = smallSpace();
  const int FullBudget = 60;
  const size_t KillAfter = 23;

  SearchOptions Base;
  Base.MaxEvaluations = FullBudget;
  Base.Seed = 99;

  // Uninterrupted reference run, journaled as it goes.
  TempFile F(std::string("journal_resume_") + GetParam() + ".jsonl");
  SearchResult Ref;
  {
    auto J = SearchJournal::open(F.Path);
    ASSERT_TRUE(J.ok());
    LambdaObjective RefObj(synthetic);
    SearchOptions Opts = Base;
    Opts.OnFreshEval = [&](const EvalRecord &R) {
      ASSERT_TRUE(J->append(R).ok());
    };
    Ref = makeSearcher(GetParam())->search(S, RefObj, Opts);
  }

  // Simulate the kill: a crashed process leaves a prefix of the history in
  // its journal, plus the torn frame it died inside. Rebuild the file with
  // the first KillAfter records and half of the next frame.
  {
    auto Scan = support::RecordLog::scan(F.Path);
    ASSERT_TRUE(Scan.ok()) << Scan.message();
    ASSERT_GT(Scan->Records.size(), KillAfter)
        << "reference run journaled too few records";
    std::string Image = support::RecordLog::encodeHeaderBlock(Scan->Header);
    for (size_t I = 0; I < KillAfter; ++I)
      Image += support::RecordLog::encodeFrame(Scan->Records[I]);
    std::string Torn =
        support::RecordLog::encodeFrame(Scan->Records[KillAfter]);
    Image.append(Torn.data(), Torn.size() / 2);
    std::ofstream Out(F.Path, std::ios::trunc | std::ios::binary);
    Out << Image;
  }

  // Resume: replay the journal (recovering the torn tail), finish the
  // budget.
  auto Loaded = SearchJournal::load(F.Path, S);
  ASSERT_TRUE(Loaded.ok()) << Loaded.message();
  ASSERT_EQ(Loaded->Records.size(), KillAfter);
  EXPECT_EQ(Loaded->DroppedTailLines, 1);

  int FreshCalls = 0;
  LambdaObjective CountedObj(
      LambdaObjective::OutcomeFn([&FreshCalls](const Point &P) {
        ++FreshCalls;
        bool Valid = true;
        return EvalOutcome::success(synthetic(P, Valid));
      }));
  SearchOptions Resume = Base;
  Resume.Replay = std::move(Loaded->Records);
  SearchResult Resumed = makeSearcher(GetParam())->search(S, CountedObj, Resume);

  // Same trajectory: same best point, same distinct-evaluation count, and
  // the objective only ran for the un-journaled remainder.
  EXPECT_EQ(Resumed.Best.key(), Ref.Best.key());
  EXPECT_EQ(Resumed.BestMetric, Ref.BestMetric);
  EXPECT_EQ(Resumed.Evaluations, Ref.Evaluations);
  EXPECT_EQ(Resumed.ReplayedEvaluations, static_cast<int>(KillAfter));
  EXPECT_EQ(FreshCalls, Ref.Evaluations - Resumed.ReplayedEvaluations);
}

INSTANTIATE_TEST_SUITE_P(Searchers, KillAndResume,
                         ::testing::Values("random", "hillclimb", "de",
                                           "bandit", "tpe", "exhaustive"),
                         [](const ::testing::TestParamInfo<const char *> &I) {
                           return std::string(I.param);
                         });

//===----------------------------------------------------------------------===//
// Kill-and-resume through the Orchestrator
//===----------------------------------------------------------------------===//

TEST(Journal, OrchestratorResumesInterruptedSearch) {
  auto LP = lang::parseLocusProgram(workloads::dgemmLocusFig5());
  ASSERT_TRUE(LP.ok()) << LP.message();
  auto CP = cir::parseProgram(workloads::dgemmSource(24, 24, 24));
  ASSERT_TRUE(CP.ok()) << CP.message();

  driver::OrchestratorOptions Opts;
  Opts.Eval.Machine = machine::MachineConfig::tiny();
  Opts.Seed = 5;
  Opts.SearcherName = "bandit";
  Opts.MaxEvaluations = 24;

  // Uninterrupted reference.
  driver::Orchestrator Ref(**LP, **CP, Opts);
  auto RefR = Ref.runSearch();
  ASSERT_TRUE(RefR.ok()) << RefR.message();

  // Interrupted at 9 evaluations, journaled.
  TempFile F("orch_resume.jsonl");
  {
    driver::OrchestratorOptions Part = Opts;
    Part.MaxEvaluations = 9;
    Part.JournalPath = F.Path;
    driver::Orchestrator Orch(**LP, **CP, Part);
    auto R = Orch.runSearch();
    ASSERT_TRUE(R.ok()) << R.message();
    EXPECT_LE(R->Search.Evaluations, 9);
  }

  // Resumed with the full budget.
  driver::OrchestratorOptions Res = Opts;
  Res.JournalPath = F.Path;
  Res.ResumeFromJournal = true;
  driver::Orchestrator Orch(**LP, **CP, Res);
  auto R = Orch.runSearch();
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(R->Search.ReplayedEvaluations, 9);
  EXPECT_EQ(R->Search.Evaluations, RefR->Search.Evaluations);
  EXPECT_EQ(R->Search.Best.key(), RefR->Search.Best.key());
  EXPECT_DOUBLE_EQ(R->BestCycles, RefR->BestCycles);
  EXPECT_EQ(R->BaselineChosen, RefR->BaselineChosen);

  // The journal now holds the full history and resuming again replays all
  // of it without fresh evaluations.
  driver::Orchestrator Again(**LP, **CP, Res);
  auto R2 = Again.runSearch();
  ASSERT_TRUE(R2.ok()) << R2.message();
  EXPECT_EQ(R2->Search.ReplayedEvaluations, R2->Search.Evaluations);
  EXPECT_EQ(R2->Search.Best.key(), RefR->Search.Best.key());
}

TEST(Journal, OrchestratorRejectsForeignJournal) {
  auto LP = lang::parseLocusProgram(workloads::dgemmLocusFig5());
  ASSERT_TRUE(LP.ok());
  auto CP = cir::parseProgram(workloads::dgemmSource(24, 24, 24));
  ASSERT_TRUE(CP.ok());

  TempFile F("orch_foreign.jsonl");
  {
    auto J = SearchJournal::open(F.Path);
    ASSERT_TRUE(J.ok());
    ASSERT_TRUE(J->append(makeRecord(16, 7, 10, FailureKind::None)).ok());
  }
  driver::OrchestratorOptions Opts;
  Opts.Eval.Machine = machine::MachineConfig::tiny();
  Opts.MaxEvaluations = 6;
  Opts.JournalPath = F.Path;
  Opts.ResumeFromJournal = true;
  driver::Orchestrator Orch(**LP, **CP, Opts);
  auto R = Orch.runSearch();
  ASSERT_FALSE(R.ok());
  EXPECT_NE(R.message().find("cannot resume"), std::string::npos);
}

} // namespace
} // namespace locus
