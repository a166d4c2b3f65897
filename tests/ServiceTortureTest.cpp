//===- ServiceTortureTest.cpp - Crash-torture for the tuning service ----------===//
//
// The service-level durability proof, the sibling of CrashTortureTest: real
// coordinator and worker *processes* (tests/helpers/search_crash_victim.cpp)
// are SIGKILLed at injected points and the service must converge on exactly
// the result of the run nobody interrupted.
//
//  - Coordinator SIGKILLed mid-append at three different injection points,
//    then resumed on the same queue dir + journal: identical BEST, METRIC
//    and journal trajectory; finished-but-unjournaled worker results are
//    recovered, never re-evaluated, never double-committed.
//  - A worker SIGKILLed mid-evaluation loses its lease, the task is
//    reassigned, and the trajectory still matches the local reference.
//  - A poison task that kills every worker that claims it is quarantined
//    after K distinct deaths and surfaces as a classified failure — the
//    search finishes instead of hanging.
//  - A fleet that dies on arrival degrades the coordinator to in-process
//    evaluation and the search still matches the local reference.
//  - SIGTERM mid-search: the cooperative stop flag flushes the journal,
//    reports partial results, and exits 0 (graceful shutdown satellite).
//
//===----------------------------------------------------------------------===//

#include "src/support/RecordLog.h"
#include "src/support/Subprocess.h"

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

namespace locus {
namespace {

using support::RecordLog;
using support::SubprocessOptions;
using support::SubprocessResult;

SubprocessResult runVictim(std::vector<std::string> Args) {
  SubprocessOptions Opts;
  Opts.Argv.push_back(LOCUS_SEARCH_VICTIM);
  for (std::string &A : Args)
    Opts.Argv.push_back(std::move(A));
  Opts.Limits.WallClockSeconds = 240;
  return support::runSubprocess(Opts);
}

/// The value of the "TAG ..." line of a victim's summary output.
std::string summaryLine(const std::string &Stdout, const std::string &Tag) {
  std::istringstream In(Stdout);
  std::string Line;
  while (std::getline(In, Line))
    if (Line.compare(0, Tag.size() + 1, Tag + " ") == 0)
      return Line.substr(Tag.size() + 1);
  return "";
}

/// "key=value" fields of the SERVICE summary line.
uint64_t serviceField(const std::string &ServiceLine, const std::string &Key) {
  std::istringstream In(ServiceLine);
  std::string Field;
  while (In >> Field)
    if (Field.compare(0, Key.size() + 1, Key + "=") == 0)
      return std::strtoull(Field.c_str() + Key.size() + 1, nullptr, 10);
  return ~0ull;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

TEST(ServiceTorture, CoordinatorKilledMidAppendResumesToTheExactResult) {
  support::TempDir Dir("locus-svc-torture-");
  ASSERT_TRUE(Dir.valid());

  // The reference: the same search, single process, never interrupted.
  std::string RefJournal = Dir.path() + "/ref.rlog";
  SubprocessResult Ref = runVictim({"--searcher", "de", "--budget", "12",
                                    "--seed", "5", "--journal", RefJournal});
  ASSERT_TRUE(Ref.ok()) << Ref.describe() << "\n" << Ref.Stderr;
  std::string WantBest = summaryLine(Ref.Stdout, "BEST");
  std::string WantMetric = summaryLine(Ref.Stdout, "METRIC");
  ASSERT_FALSE(WantBest.empty());

  // SIGKILL the coordinator mid-append at three injection points — the
  // counter spans the journal AND the queue log, so both torn-tail cases
  // are hit — resuming on the same queue dir + journal each time. Workers
  // die with their coordinator (parent-death signal), but every result
  // already committed to the queue survives.
  std::string Journal = Dir.path() + "/svc.rlog";
  std::string QueueDir = Dir.path() + "/q";
  const char *CrashAt[] = {"3", "8:1", "13"};
  bool First = true;
  for (const char *Spec : CrashAt) {
    std::vector<std::string> Args = {"--searcher", "de",      "--budget", "12",
                                     "--seed",     "5",       "--journal",
                                     Journal,      "--serve", "2",
                                     "--queue-dir", QueueDir,  "--crash-at",
                                     Spec,         "--lease-timeout", "2"};
    if (!First)
      Args.push_back("--resume");
    First = false;
    SubprocessResult Crashed = runVictim(Args);
    ASSERT_EQ(Crashed.Exit, support::SpawnExit::Signaled) << Crashed.describe();
    ASSERT_EQ(Crashed.Signal, SIGKILL) << Crashed.describe();
  }

  // The final resume converges: same best, same metric, and a journal whose
  // records — the full committed history — are byte-identical to the
  // uninterrupted run's. Record equality is also the no-lost-task /
  // no-double-commit proof: any dropped or repeated evaluation would shift
  // the sequence.
  SubprocessResult Final = runVictim(
      {"--searcher", "de", "--budget", "12", "--seed", "5", "--journal",
       Journal, "--serve", "2", "--queue-dir", QueueDir, "--resume",
       "--lease-timeout", "2"});
  ASSERT_TRUE(Final.ok()) << Final.describe() << "\n" << Final.Stderr;
  EXPECT_EQ(summaryLine(Final.Stdout, "BEST"), WantBest);
  EXPECT_EQ(summaryLine(Final.Stdout, "METRIC"), WantMetric);

  auto RefScan = RecordLog::scan(RefJournal);
  auto SvcScan = RecordLog::scan(Journal);
  ASSERT_TRUE(RefScan.ok()) << RefScan.message();
  ASSERT_TRUE(SvcScan.ok()) << SvcScan.message();
  EXPECT_FALSE(RefScan->Records.empty());
  EXPECT_EQ(RefScan->Records, SvcScan->Records);

  // Every task the final run submitted was served by the service: recovered
  // from the queue, evaluated by a worker, or the degraded in-process path.
  // Zero submissions is also convergence, not loss — after enough crashes
  // the journal replay plus the warm eval cache can satisfy the whole
  // budget without a single new task.
  std::string Svc = summaryLine(Final.Stdout, "SERVICE");
  ASSERT_FALSE(Svc.empty());
  if (serviceField(Svc, "submitted") > 0)
    EXPECT_GT(serviceField(Svc, "recovered") + serviceField(Svc, "worker") +
                  serviceField(Svc, "local"),
              0u);

  // The crashed runs really did commit evaluation results into the queue
  // before dying — the recovered-result store the resumes fed from is
  // visible as result records in the surviving queue log.
  EXPECT_NE(readFile(QueueDir + "/queue.rlog").find("result "),
            std::string::npos);
}

TEST(ServiceTorture, WorkerKilledMidRunIsReassignedNotLost) {
  support::TempDir Dir("locus-svc-torture-");
  ASSERT_TRUE(Dir.valid());

  std::string RefJournal = Dir.path() + "/ref.rlog";
  SubprocessResult Ref = runVictim({"--searcher", "de", "--budget", "10",
                                    "--seed", "5", "--journal", RefJournal});
  ASSERT_TRUE(Ref.ok()) << Ref.describe() << "\n" << Ref.Stderr;

  // Each slot's first incarnation SIGKILLs itself on its 5th queue append
  // (":0" = between frames: a worker process dying never tears the shared
  // log — each frame is a single write under the flock). Two workers that
  // both stay below 5 appends finish at most 4 of the 10 tasks, so at least
  // one dies. Its lease expires, the task is reassigned, and the surviving
  // or respawned workers finish the run.
  SubprocessResult Srv = runVictim(
      {"--searcher", "de", "--budget", "10", "--seed", "5", "--journal",
       Dir.path() + "/svc.rlog", "--serve", "2", "--queue-dir",
       Dir.path() + "/q", "--worker-crash-at", "5:0", "--lease-timeout", "1",
       "--backoff", "0.05"});
  ASSERT_TRUE(Srv.ok()) << Srv.describe() << "\n" << Srv.Stderr;
  EXPECT_EQ(summaryLine(Srv.Stdout, "BEST"), summaryLine(Ref.Stdout, "BEST"));
  EXPECT_EQ(summaryLine(Srv.Stdout, "METRIC"),
            summaryLine(Ref.Stdout, "METRIC"));

  auto RefScan = RecordLog::scan(RefJournal);
  auto SvcScan = RecordLog::scan(Dir.path() + "/svc.rlog");
  ASSERT_TRUE(RefScan.ok()) << RefScan.message();
  ASSERT_TRUE(SvcScan.ok()) << SvcScan.message();
  EXPECT_EQ(RefScan->Records, SvcScan->Records);

  std::string Svc = summaryLine(Srv.Stdout, "SERVICE");
  ASSERT_FALSE(Svc.empty());
  EXPECT_GE(serviceField(Svc, "deaths"), 1u) << Svc;
  EXPECT_GE(serviceField(Svc, "spawned"), 2u) << Svc;
}

TEST(ServiceTorture, PoisonTaskIsQuarantinedAfterDistinctWorkerDeaths) {
  support::TempDir Dir("locus-svc-torture-");
  ASSERT_TRUE(Dir.valid());

  // Task 3 kills every worker the moment it is claimed. After two distinct
  // worker deaths the coordinator must quarantine it — the task completes
  // as a classified failure and the search finishes; a hang here would trip
  // the subprocess watchdog.
  SubprocessResult Srv = runVictim(
      {"--searcher", "de", "--budget", "8", "--seed", "5", "--journal",
       Dir.path() + "/svc.rlog", "--serve", "1", "--queue-dir",
       Dir.path() + "/q", "--die-on-task", "3", "--poison-deaths", "2",
       "--lease-timeout", "2", "--backoff", "0.05", "--max-respawns", "8"});
  ASSERT_TRUE(Srv.ok()) << Srv.describe() << "\n" << Srv.Stderr;

  std::string Svc = summaryLine(Srv.Stdout, "SERVICE");
  ASSERT_FALSE(Svc.empty());
  EXPECT_EQ(serviceField(Svc, "quarantined"), 1u) << Svc;
  EXPECT_GE(serviceField(Svc, "deaths"), 2u) << Svc;
  EXPECT_FALSE(summaryLine(Srv.Stdout, "BEST").empty());

  // The quarantine survives in the queue log as part of the failure
  // taxonomy, with the distinct dead workers named.
  auto Q = RecordLog::scan(Dir.path() + "/q/queue.rlog");
  ASSERT_TRUE(Q.ok()) << Q.message();
  bool SawQuarantine = false;
  for (const std::string &R : Q->Records)
    if (R.compare(0, 11, "quarantine ") == 0) {
      SawQuarantine = true;
      EXPECT_NE(R.find("distinct workers died"), std::string::npos) << R;
    }
  EXPECT_TRUE(SawQuarantine);
}

TEST(ServiceTorture, FleetThatDiesOnArrivalDegradesAndStillMatches) {
  support::TempDir Dir("locus-svc-torture-");
  ASSERT_TRUE(Dir.valid());

  std::string RefJournal = Dir.path() + "/ref.rlog";
  SubprocessResult Ref = runVictim({"--searcher", "de", "--budget", "8",
                                    "--seed", "5", "--journal", RefJournal});
  ASSERT_TRUE(Ref.ok()) << Ref.describe() << "\n" << Ref.Stderr;

  // Every worker SIGKILLs itself before its first claim; after the respawn
  // budget both slots retire and the coordinator must degrade to in-process
  // evaluation — graceful degradation means the search completes with the
  // *identical* trajectory, since the fallback is the same deterministic
  // objective.
  SubprocessResult Srv = runVictim(
      {"--searcher", "de", "--budget", "8", "--seed", "5", "--journal",
       Dir.path() + "/svc.rlog", "--serve", "2", "--queue-dir",
       Dir.path() + "/q", "--worker-die-immediately", "--max-respawns", "1",
       "--backoff", "0.02", "--degrade-grace", "0.3"});
  ASSERT_TRUE(Srv.ok()) << Srv.describe() << "\n" << Srv.Stderr;
  EXPECT_EQ(summaryLine(Srv.Stdout, "BEST"), summaryLine(Ref.Stdout, "BEST"));
  EXPECT_EQ(summaryLine(Srv.Stdout, "METRIC"),
            summaryLine(Ref.Stdout, "METRIC"));

  auto RefScan = RecordLog::scan(RefJournal);
  auto SvcScan = RecordLog::scan(Dir.path() + "/svc.rlog");
  ASSERT_TRUE(RefScan.ok()) << RefScan.message();
  ASSERT_TRUE(SvcScan.ok()) << SvcScan.message();
  EXPECT_EQ(RefScan->Records, SvcScan->Records);

  std::string Svc = summaryLine(Srv.Stdout, "SERVICE");
  ASSERT_FALSE(Svc.empty());
  EXPECT_EQ(serviceField(Svc, "degraded"), 1u) << Svc;
  EXPECT_GT(serviceField(Svc, "local"), 0u) << Svc;
  EXPECT_GE(serviceField(Svc, "deaths"), 2u) << Svc;
}

TEST(ServiceTorture, SigtermMidSearchFlushesPartialResultsAndExitsClean) {
  support::TempDir Dir("locus-svc-torture-");
  ASSERT_TRUE(Dir.valid());

  // The signal must land inside the victim's run, whose duration we cannot
  // know in advance, so sweep the delay from "mid-search on a slow host"
  // down to "during startup on a fast one". Each attempt can miss in two
  // benign ways — the search already finished (clean exit, no INTERRUPTED
  // line) or the signal beat the handler installation (signal death) — and
  // the sweep retries; at least one attempt must demonstrate the graceful
  // path: exit code 0, partial results reported, intact journal.
  const int DelaysMs[] = {120, 60, 30, 15, 8, 4, 2, 1, 0, 200};
  bool Interrupted = false;
  for (int Attempt = 0; Attempt < 10 && !Interrupted; ++Attempt) {
    std::string Out = Dir.path() + "/sigterm-" + std::to_string(Attempt);
    support::ChildProcessOptions Opts;
    Opts.Argv = {LOCUS_SEARCH_VICTIM, "--searcher", "de", "--budget", "2000",
                 "--seed", "5", "--journal", Out + ".rlog"};
    Opts.OutputPath = Out + ".log";
    auto Child = support::ChildProcess::spawn(Opts);
    ASSERT_TRUE(Child.ok()) << Child.message();
    std::this_thread::sleep_for(std::chrono::milliseconds(DelaysMs[Attempt]));
    Child->signalGroup(SIGTERM);
    ASSERT_TRUE(Child->waitExit(120)) << "victim ignored SIGTERM";
    ASSERT_TRUE(Child->exited()) << Child->describeExit();
    if (Child->exitCode() != 0)
      continue; // signal beat the handler installation; try again
    std::string Log = readFile(Out + ".log");
    Interrupted = !summaryLine(Log, "INTERRUPTED").empty();
    if (!Interrupted)
      continue; // the search finished before the signal; try a shorter delay

    // Graceful shutdown: the handler raised the cooperative flag, the
    // searcher stopped at the next budget check, partial results were
    // reported (the best seen so far), and the journal is intact — flushed,
    // no torn tail, one record per completed evaluation.
    EXPECT_FALSE(summaryLine(Log, "BEST").empty()) << Log;
    auto Scan = RecordLog::scan(Out + ".rlog");
    ASSERT_TRUE(Scan.ok()) << Scan.message();
    EXPECT_FALSE(Scan->TornTail);
  }
  EXPECT_TRUE(Interrupted)
      << "no attempt landed SIGTERM inside a running search";
}

} // namespace
} // namespace locus
