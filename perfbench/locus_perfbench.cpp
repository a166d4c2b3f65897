//===- locus_perfbench.cpp - End-to-end tuning benchmark ------------------===//
//
// Measures whole Locus tuning runs (driver::Orchestrator::runSearch) from the
// outside, through public functions only, on one of three workloads:
//
//   fig5-eval    Fig. 3 dgemm, order 96, Fig. 5 tiling choice, xeon preset,
//                exhaustive over the whole space (the evaluator dominates)
//   fig7-search  dgemm, order 16, Fig. 7 program (MaxTile 16), tiny preset,
//                bandit with budget 2000 and a fully synced journal (most
//                points are pruned or cheap)
//   fig7-serve   the Fig. 7 space under de (budget 200) in serve mode with 2
//                worker processes that re-exec this binary
//
// Untraced mode (--trace 0) reports the end-to-end metrics: tuning runs are
// repeated for --seconds, each a closed loop in which the coordinator thread
// waits for every proposal batch. Traced mode (--trace 1) additionally
// replays the recorded points through each layer's public entry points with
// a span around every call, and reports per-layer metrics.
//
// Every run checks its outputs (see checkRuns / replay); a failed check makes
// the result "correct": false and the exit code 1. The last stdout line is
// the JSON result.
//
// Worker mode (spawned by the serve workload's coordinator):
//   locus_perfbench --service-worker QUEUE_DIR --workload W --seed N
//                   [--smoke] --worker-id ID
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "src/analysis/LegalityOracle.h"
#include "src/cir/Parser.h"
#include "src/cir/Printer.h"
#include "src/driver/Orchestrator.h"
#include "src/eval/NativeEvaluator.h"
#include "src/locus/LocusParser.h"
#include "src/locus/Optimizer.h"
#include "src/search/EvalCache.h"
#include "src/search/Journal.h"
#include "src/support/Rng.h"
#include "src/support/Subprocess.h"
#include "src/workloads/Workloads.h"

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <malloc.h>
#include <map>
#include <memory>
#include <spawn.h>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace locus;
using perfbench::median;
using perfbench::nowSeconds;
using perfbench::percentile;
using perfbench::Scope;
using perfbench::Tracer;

extern char **environ;

namespace {

//===----------------------------------------------------------------------===//
// Workloads and their seeded inputs
//===----------------------------------------------------------------------===//

struct WorkloadSpec {
  std::string Name;
  int Order = 16;
  bool Fig7 = false;
  int MaxTile = 16;
  bool Xeon = false; ///< xeon preset, else tiny
  std::string Searcher;
  int Budget = 0;
  bool Journal = false;
  int Workers = 0; ///< serve-mode worker processes; 0 runs in-process
  uint64_t SearchSeed = 42;
};

bool lookupWorkload(const std::string &Name, bool Smoke, WorkloadSpec &W) {
  W.Name = Name;
  if (Name == "fig5-eval") {
    W.Order = Smoke ? 24 : 96;
    W.Xeon = !Smoke;
    W.Searcher = "exhaustive";
    W.Budget = 1000; // more than the space: the sweep covers all 50 points
  } else if (Name == "fig7-search") {
    W.Fig7 = true;
    W.Searcher = "bandit";
    W.Budget = Smoke ? 150 : 2000;
    W.Journal = true;
  } else if (Name == "fig7-serve") {
    W.Fig7 = true;
    W.Searcher = "de";
    W.Budget = Smoke ? 30 : 200;
    W.Workers = 2;
  } else {
    return false;
  }
  return true;
}

/// Everything the program under test receives: the MiniC and Locus sources,
/// the searcher seed (fixed per workload, so every seed replays the same
/// trajectory and costs the same work) and the matrix contents, which are
/// generated from the benchmark seed.
struct Inputs {
  std::string MiniC;
  std::string Locus;
  std::vector<double> A, B, C;
  double Alpha = 1, Beta = 1;
  uint64_t SearchSeed = 0;
};

Inputs makeInputs(const WorkloadSpec &W, uint64_t Seed) {
  Inputs In;
  In.MiniC = workloads::dgemmSource(W.Order, W.Order, W.Order);
  In.Locus = W.Fig7 ? workloads::dgemmLocusFig7(W.MaxTile)
                    : workloads::dgemmLocusFig5();
  Rng R(Seed * 0x9e3779b97f4a7c15ULL + 1);
  size_t Elems = static_cast<size_t>(W.Order) * static_cast<size_t>(W.Order);
  for (std::vector<double> *M : {&In.A, &In.B, &In.C}) {
    M->resize(Elems);
    for (double &V : *M)
      V = 0.5 + R.uniform();
  }
  In.Alpha = 0.5 + R.uniform();
  In.Beta = 0.5 + 0.5 * R.uniform();
  In.SearchSeed = W.SearchSeed;
  return In;
}

struct Programs {
  std::unique_ptr<cir::Program> Baseline;
  std::unique_ptr<lang::LocusProgram> Locus;
};

Expected<Programs> parseInputs(const Inputs &In) {
  Programs P;
  auto C = cir::parseProgram(In.MiniC);
  if (!C.ok())
    return Expected<Programs>::error("MiniC parse: " + C.message());
  auto L = lang::parseLocusProgram(In.Locus);
  if (!L.ok())
    return Expected<Programs>::error("Locus parse: " + L.message());
  P.Baseline = std::move(*C);
  P.Locus = std::move(*L);
  return P;
}

/// The run-wide context shared by every tuning run of this process.
struct Bench {
  WorkloadSpec W;
  uint64_t Seed = 0;
  bool Smoke = false;
  Inputs In;
  Programs Prog;
  std::string Exe;     ///< this binary, re-executed as the worker fleet
  std::string Scratch; ///< per-process scratch dir (journals, queues)
};

void initHook(const Inputs &In, eval::ProgramEvaluator &E) {
  (void)E.setDoubleArray("A", In.A);
  (void)E.setDoubleArray("B", In.B);
  (void)E.setDoubleArray("C", In.C);
  (void)E.setScalar("alpha", In.Alpha);
  (void)E.setScalar("beta", In.Beta);
}

driver::OrchestratorOptions makeOptions(const Bench &B) {
  driver::OrchestratorOptions Opts;
  Opts.SearcherName = B.W.Searcher;
  Opts.MaxEvaluations = B.W.Budget;
  Opts.Seed = B.In.SearchSeed;
  Opts.Jobs = 1;
  Opts.Eval.Machine = B.W.Xeon ? machine::MachineConfig::xeonE5v3()
                               : machine::MachineConfig::tiny();
  const Inputs *In = &B.In;
  Opts.InitHook = [In](eval::ProgramEvaluator &E) { initHook(*In, E); };
  Opts.JournalSyncMode = search::JournalSync::Full;
  return Opts;
}

//===----------------------------------------------------------------------===//
// One tuning run
//===----------------------------------------------------------------------===//

/// Peak resident memory of this process image since the last
/// resetPeakRss(). VmHWM rather than getrusage's ru_maxrss, which keeps the
/// parent's peak across fork + exec.
double peakRssMb() {
  std::FILE *F = std::fopen("/proc/self/status", "r");
  if (!F)
    return 0;
  char Line[256];
  double KiB = 0;
  while (std::fgets(Line, sizeof(Line), F))
    if (std::sscanf(Line, "VmHWM: %lf kB", &KiB) == 1)
      break;
  std::fclose(F);
  return KiB / 1024.0;
}

/// Returns freed heap to the system and restarts the peak-RSS watermark
/// from the current resident size, so that each tuning run's peak does not
/// depend on how many runs came before it. False when the kernel refuses.
bool resetPeakRss() {
  malloc_trim(0);
  std::FILE *F = std::fopen("/proc/self/clear_refs", "w");
  if (!F)
    return false;
  bool Ok = std::fputs("5", F) >= 0;
  return std::fclose(F) == 0 && Ok;
}


struct TuneRun {
  bool Ok = false;
  std::string Error;
  double Seconds = 0;
  double PeakRssMb = 0; ///< peak resident memory during the run
  driver::SearchWorkflowResult R;
};

/// The command line of a worker process serving \p Queue for this run.
std::vector<std::string> workerArgv(const Bench &B, const std::string &Queue) {
  std::vector<std::string> Argv = {B.Exe, "--service-worker", Queue,
                                   "--workload", B.W.Name};
  Argv.push_back("--seed");
  Argv.push_back(std::to_string(B.Seed));
  if (B.Smoke)
    Argv.push_back("--smoke");
  return Argv;
}

/// One whole tuning run, timed from Orchestrator construction until
/// runSearch returns. Journal and queue live in \p Dir, a fresh scratch
/// subdirectory the caller removes afterwards (outside the timed region).
TuneRun tuneOnce(Bench &B, bool Serve, int Budget, const std::string &Dir,
                 bool SpawnWorkers = true) {
  TuneRun Run;
  if (Dir.empty()) {
    Run.Error = "cannot create a scratch directory under " + B.Scratch;
    return Run;
  }
  driver::OrchestratorOptions Opts = makeOptions(B);
  Opts.MaxEvaluations = Budget;
  if (B.W.Journal)
    Opts.JournalPath = Dir + "/journal.rlog";
  if (Serve) {
    std::string Queue = Dir + "/queue";
    Opts.Serve.QueueDir = Queue;
    Opts.Serve.Workers = SpawnWorkers ? B.W.Workers : 0;
    std::vector<std::string> Argv = workerArgv(B, Queue);
    Opts.Serve.WorkerArgv = [Argv](int, int) { return Argv; };
  }
  bool PerRunPeak = resetPeakRss();
  double Start = nowSeconds();
  driver::Orchestrator Orch(*B.Prog.Locus, *B.Prog.Baseline, std::move(Opts));
  auto R = Orch.runSearch();
  Run.Seconds = nowSeconds() - Start;
  Run.PeakRssMb = PerRunPeak ? peakRssMb() : 0;
  if (!R.ok()) {
    Run.Error = R.message();
    return Run;
  }
  Run.R = std::move(*R);
  Run.Ok = true;
  return Run;
}

/// Starts B.W.Workers worker processes on a queue that already holds its
/// shutdown record and waits until every one has started up (parse, space
/// extraction, baseline), read the record and exited.
Status spawnWorkersToShutdown(const Bench &B, const std::string &Queue) {
  std::vector<std::string> Args = workerArgv(B, Queue);
  std::vector<char *> Argv;
  for (std::string &A : Args)
    Argv.push_back(A.data());
  Argv.push_back(nullptr);
  std::vector<pid_t> Pids;
  Status Result = Status::success();
  for (int I = 0; I < B.W.Workers; ++I) {
    pid_t Pid = 0;
    char **Env = environ;
    if (posix_spawn(&Pid, Argv[0], nullptr, nullptr, Argv.data(), Env) != 0) {
      Result = Status::error("cannot spawn a worker process");
      break;
    }
    Pids.push_back(Pid);
  }
  for (pid_t Pid : Pids) {
    int St = 0;
    while (waitpid(Pid, &St, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(St) || WEXITSTATUS(St) != 0)
      Result = Status::error("a worker exited abnormally at set-up");
  }
  return Result;
}

/// Set-up cost of one tuning run: MiniC + Locus parsing and a zero-budget
/// runSearch (space extraction, Section IV-C optimizer, baseline evaluation,
/// oracle build). In serve mode the zero-budget run also starts the
/// coordinator, and the worker fleet is spawned on its queue until every
/// worker has started and retired; the coordinator itself spawns no worker
/// here, since with nothing to assess that would race its own shutdown.
Expected<double> setupOnce(Bench &B) {
  double Start = nowSeconds();
  auto P = parseInputs(B.In);
  if (!P.ok())
    return Expected<double>::error(P.message());
  std::swap(B.Prog, *P);
  double ParseEnd = nowSeconds();
  support::TempDir Dir("setup-", B.Scratch);
  TuneRun Run = tuneOnce(B, B.W.Workers > 0, /*Budget=*/0, Dir.path(),
                         /*SpawnWorkers=*/false);
  if (!Run.Ok)
    return Expected<double>::error(Run.Error);
  double Seconds = (ParseEnd - Start) + Run.Seconds;
  if (B.W.Workers > 0) {
    double SpawnStart = nowSeconds();
    Status S = spawnWorkersToShutdown(B, Dir.path() + "/queue");
    if (!S.ok())
      return Expected<double>::error(S.message());
    Seconds += nowSeconds() - SpawnStart;
  }
  return Seconds;
}

std::string bestKey(const TuneRun &Run) {
  return Run.R.BaselineChosen ? std::string("<baseline>")
                              : Run.R.Search.Best.key();
}

//===----------------------------------------------------------------------===//
// Traced replay
//===----------------------------------------------------------------------===//

lang::Value planArgToValue(const analysis::PlanArg &A) {
  using analysis::PlanArg;
  switch (A.K) {
  case PlanArg::Kind::Int:
    return lang::Value(A.Int);
  case PlanArg::Kind::Float:
    return lang::Value(A.Float);
  case PlanArg::Kind::Str:
    return lang::Value(A.Str);
  case PlanArg::Kind::List: {
    std::vector<lang::Value> Items;
    for (const PlanArg &I : A.List)
      Items.push_back(planArgToValue(I));
    return lang::Value::list(std::move(Items));
  }
  default:
    return lang::Value::none();
  }
}

struct ReplayResult {
  std::vector<std::string> Mismatches;
  int Points = 0;
  int Classified = 0, Pruned = 0;
  int Lookups = 0, Hits = 0;
  int Variants = 0; ///< distinct variants simulated
  long TransformsApplied = 0;
  uint64_t InterpIterations = 0; ///< loop iterations of the interp probe
  uint64_t Accesses = 0;         ///< simulated memory accesses (cost model)
  double PipelineSeconds = 0;    ///< the replayed tuning run, spans included
};

search::EvalOutcome runVariant(const Bench &B, const cir::Program &Variant,
                               uint64_t Deadline, double BaseChecksum,
                               Tracer &T, ReplayResult &Out) {
  using search::EvalOutcome;
  using search::FailureKind;
  eval::EvalOptions EOpts = makeOptions(B).Eval;
  if (Deadline > 0)
    EOpts.MaxIterations = std::min(EOpts.MaxIterations, Deadline);
  eval::ProgramEvaluator Eval(Variant, EOpts);
  Status Prep = [&] {
    Scope S(T, "eval", "eval.prepare");
    return Eval.prepare();
  }();
  if (!Prep.ok())
    return EvalOutcome::fail(FailureKind::PrepareFailed, Prep.message());
  initHook(B.In, Eval);
  eval::RunResult Run = [&] {
    Scope S(T, "eval", "eval.run");
    return Eval.run();
  }();
  if (!Run.Ok)
    return EvalOutcome::fail(
        Run.Error.find("iteration budget exceeded") != std::string::npos
            ? FailureKind::BudgetExceeded
            : FailureKind::RuntimeTrap,
        Run.Error);
  Out.Accesses += Run.MemReads + Run.MemWrites;
  if (!std::isfinite(Run.Cycles))
    return EvalOutcome::fail(FailureKind::MetricUnstable);
  double Tol = 1e-6 * std::max(1.0, std::abs(BaseChecksum));
  if (std::isnan(Run.Checksum) || std::abs(Run.Checksum - BaseChecksum) > Tol)
    return EvalOutcome::fail(FailureKind::ChecksumMismatch);
  return EvalOutcome::success(Run.Cycles);
}

/// Replays the points of an untraced run's History through each layer's
/// public entry point, in the order the run assessed them, with a span
/// around every call. Each replayed outcome must equal the recorded one.
ReplayResult replay(Bench &B, const TuneRun &Ref, Tracer &T) {
  using search::EvalOutcome;
  using search::FailureKind;
  ReplayResult Out;
  auto Fail = [&Out](std::string Msg) { Out.Mismatches.push_back(Msg); };

  std::unique_ptr<cir::Program> Baseline;
  std::unique_ptr<lang::LocusProgram> LProg;
  {
    Scope S(T, "cir", "cir.parse");
    auto C = cir::parseProgram(B.In.MiniC);
    if (C.ok())
      Baseline = std::move(*C);
  }
  {
    Scope S(T, "locus", "locus.parse");
    auto L = lang::parseLocusProgram(B.In.Locus);
    if (L.ok())
      LProg = std::move(*L);
  }
  if (!Baseline || !LProg) {
    Fail("replay: input parse failed");
    return Out;
  }

  double Start = nowSeconds();
  T.open("driver", "driver.replay");
  lang::ModuleRegistry Registry = lang::ModuleRegistry::standard();
  // Materialization contexts mirror the driver's (verify-each included).
  transform::TransformContext Base;
  Base.VerifyEach = makeOptions(B).VerifyEach;
  std::unique_ptr<lang::LocusProgram> Optimized;
  {
    Scope S(T, "locus", "locus.optimize");
    std::unique_ptr<cir::Program> Clone = Baseline->clone();
    transform::TransformContext TCtx;
    TCtx.Prog = Clone.get();
    Optimized = lang::optimizeLocusProgram(*LProg, *Clone, Registry, TCtx);
  }
  lang::LocusInterpreter Interp(*Optimized, Registry);
  search::Space Space;
  analysis::TransformPlan Plan;
  {
    Scope S(T, "locus", "locus.extract");
    std::unique_ptr<cir::Program> Target = Baseline->clone();
    transform::TransformContext TCtx;
    TCtx.Prog = Target.get();
    lang::ExecOutcome E = Interp.extractSpace(*Target, Space, TCtx, &Plan);
    if (!E.Ok)
      Fail("replay: space extraction failed: " + E.Error);
  }
  if (Space.fingerprint() != Ref.R.Space.fingerprint())
    Fail("replay: extracted space differs from the tuning run's");

  // Baseline reference: checksum and per-variant deadline, as the driver
  // derives them. Every program simulated in the pipeline (baseline, fresh
  // variants, re-evaluated winner) is run again without the cost model below.
  std::vector<std::unique_ptr<cir::Program>> Simulated;
  double BaseChecksum = 0;
  uint64_t Deadline = 0;
  {
    Scope S(T, "driver", "driver.baseline");
    eval::ProgramEvaluator Eval(*Baseline, makeOptions(B).Eval);
    Status Prep = [&] {
      Scope P(T, "eval", "eval.prepare");
      return Eval.prepare();
    }();
    initHook(B.In, Eval);
    eval::RunResult Run;
    if (Prep.ok()) {
      Scope P(T, "eval", "eval.run");
      Run = Eval.run();
    }
    if (!Run.Ok)
      Fail("replay: baseline evaluation failed");
    Out.Accesses += Run.MemReads + Run.MemWrites;
    BaseChecksum = Run.Checksum;
    Deadline = static_cast<uint64_t>(makeOptions(B).VariantDeadlineFactor *
                                     static_cast<double>(Run.LoopIterations));
    Simulated.push_back(Baseline->clone());
  }

  std::unique_ptr<analysis::LegalityOracle> Oracle;
  {
    Scope S(T, "analysis", "analysis.oracle_build");
    analysis::ModuleInvoker Invoker =
        [&Registry](const std::string &Module, const std::string &Member,
                    const std::map<std::string, analysis::PlanArg> &Args,
                    cir::Block &Region,
                    cir::Program &Prog) -> transform::TransformResult {
      const lang::ModuleMember *M = Registry.find(Module, Member);
      if (!M)
        return transform::TransformResult::error("unknown module member " +
                                                 Module + "." + Member);
      transform::TransformContext ReplayCtx;
      ReplayCtx.Prog = &Prog;
      lang::ModuleArgs MArgs;
      for (const auto &[Key, Arg] : Args)
        MArgs[Key] = planArgToValue(Arg);
      lang::ModuleCallContext Ctx{&Region, &Prog, &ReplayCtx};
      return M->Fn(MArgs, Ctx).Result;
    };
    Oracle = std::make_unique<analysis::LegalityOracle>(
        *Baseline, Space, std::move(Plan), std::move(Invoker));
  }

  support::TempDir JournalDir("replay-", B.Scratch);
  search::SearchJournal Journal;
  bool Journaling = false;
  if (B.W.Journal) {
    Scope S(T, "search", "search.journal_open");
    search::JournalHeader Header;
    Header.SpaceFingerprint = Space.fingerprint();
    Header.ConfigDigest =
        search::journalConfigDigest(B.W.Searcher, B.In.SearchSeed);
    auto J = search::SearchJournal::open(JournalDir.path() + "/journal.rlog",
                                         search::JournalSync::Full, Header);
    if (J.ok()) {
      Journal = std::move(*J);
      Journaling = true;
    } else {
      Fail("replay: cannot open journal: " + J.message());
    }
  }

  search::EvalCache Cache;
  const std::vector<search::EvalRecord> &History = Ref.R.Search.History;
  for (size_t I = 0; I < History.size(); ++I) {
    const search::EvalRecord &Rec = History[I];
    Scope Assess(T, "driver", "driver.assess", static_cast<int>(I));
    EvalOutcome Got;
    std::optional<EvalOutcome> Verdict;
    {
      Scope S(T, "analysis", "analysis.classify");
      Verdict = Oracle->classify(Rec.P);
    }
    ++Out.Classified;
    if (Verdict) {
      ++Out.Pruned;
      Got = *Verdict;
    } else {
      std::unique_ptr<cir::Program> Variant;
      {
        Scope S(T, "cir", "cir.clone");
        Variant = Baseline->clone();
      }
      transform::TransformContext TCtx = Base;
      TCtx.Prog = Variant.get();
      lang::ExecOutcome Exec;
      {
        Scope S(T, "locus", "locus.apply_point");
        Exec = Interp.applyPoint(*Variant, Rec.P, TCtx);
      }
      Out.TransformsApplied += Exec.TransformsApplied;
      if (!Exec.Ok) {
        Got = EvalOutcome::fail(FailureKind::TransformIllegal);
      } else if (Exec.InvalidPoint) {
        Got = EvalOutcome::fail(Exec.IllegalTransform
                                    ? FailureKind::TransformIllegal
                                    : FailureKind::InvalidPoint);
      } else {
        std::string Text;
        {
          Scope S(T, "cir", "cir.print");
          Text = cir::printProgram(*Variant);
        }
        search::CacheKey Key;
        {
          Scope S(T, "search", "search.cache_key");
          Key = search::makeCacheKey(Text);
        }
        std::optional<EvalOutcome> Hit;
        {
          Scope S(T, "search", "search.cache");
          Hit = Cache.lookup(Key, Rec.P.key());
        }
        ++Out.Lookups;
        if (Hit) {
          ++Out.Hits;
          Got = *Hit;
        } else {
          ++Out.Variants;
          Got = runVariant(B, *Variant, Deadline, BaseChecksum, T, Out);
          Cache.insert(Key, Rec.P.key(), Got);
          Simulated.push_back(std::move(Variant));
        }
      }
    }
    if (Got.Failure != Rec.Failure || (Got.ok() && Got.Metric != Rec.Metric))
      Fail("replay: point " + std::to_string(I) + " (" + Rec.P.key() +
           ") gave " + search::failureKindName(Got.Failure) + " " +
           std::to_string(Got.Metric) + ", the run recorded " +
           search::failureKindName(Rec.Failure) + " " +
           std::to_string(Rec.Metric));
    if (Journaling) {
      Scope S(T, "search", "search.journal_append");
      search::EvalRecord J = Rec;
      J.Metric = Got.ok() ? Got.Metric : J.Metric;
      if (!Journal.append(J).ok())
        Fail("replay: journal append failed");
    }
  }

  // The driver re-materializes and re-evaluates the winner at the end.
  if (!Ref.R.BaselineChosen) {
    Scope S(T, "driver", "driver.best");
    std::unique_ptr<cir::Program> Variant;
    {
      Scope C(T, "cir", "cir.clone");
      Variant = Baseline->clone();
    }
    transform::TransformContext TCtx = Base;
    TCtx.Prog = Variant.get();
    {
      Scope A(T, "locus", "locus.apply_point");
      (void)Interp.applyPoint(*Variant, Ref.R.Search.Best, TCtx);
    }
    (void)runVariant(B, *Variant, 0, BaseChecksum, T, Out);
    Simulated.push_back(std::move(Variant));
  }

  // The searcher's own proposal cost: the same search driven by a memo
  // objective that serves the recorded outcomes.
  {
    std::map<std::string, EvalOutcome> Memo;
    for (const search::EvalRecord &Rec : History)
      Memo[Rec.P.key()] = Rec.Failure == FailureKind::None
                              ? EvalOutcome::success(Rec.Metric)
                              : EvalOutcome::fail(Rec.Failure);
    int Unknown = 0;
    search::LambdaObjective Obj([&](const search::Point &P) {
      auto It = Memo.find(P.key());
      if (It != Memo.end())
        return It->second;
      ++Unknown;
      return EvalOutcome::fail(FailureKind::InvalidPoint);
    });
    search::SearchOptions SOpts;
    SOpts.MaxEvaluations = B.W.Budget;
    SOpts.Seed = B.In.SearchSeed;
    std::unique_ptr<search::Searcher> S = search::makeSearcher(B.W.Searcher);
    search::SearchResult R;
    {
      Scope Sp(T, "search", "search.searcher");
      R = S->search(Space, Obj, SOpts);
    }
    if (Unknown > 0 || R.Evaluations != Ref.R.Search.Evaluations ||
        R.Best.key() != Ref.R.Search.Best.key())
      Fail("replay: the memo-driven searcher left the recorded trajectory");
  }
  T.close();
  Out.PipelineSeconds = nowSeconds() - Start;
  Out.Points = static_cast<int>(History.size());

  // Interpretation alone: the simulated programs again with the cost model
  // off. Outside the pipeline span; eval.run - eval.interp prices the model.
  for (const auto &Variant : Simulated) {
    eval::EvalOptions EOpts = makeOptions(B).Eval;
    EOpts.CountCost = false;
    eval::ProgramEvaluator Eval(*Variant, EOpts);
    if (!Eval.prepare().ok())
      continue;
    initHook(B.In, Eval);
    Scope S(T, "eval", "eval.interp");
    eval::RunResult Run = Eval.run();
    Out.InterpIterations += Run.LoopIterations;
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Reporting
//===----------------------------------------------------------------------===//

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Prints the highest percentile of \p V that still has ten samples beyond
/// it, or says that none exists.
void printTail(const char *Name, const std::vector<double> &V) {
  std::vector<double> S = V;
  std::sort(S.begin(), S.end());
  if (S.size() < 11) {
    std::printf("%s: no percentile has ten samples beyond it (%zu samples)\n",
                Name, S.size());
    return;
  }
  size_t K = S.size() - 11;
  double Pct = 100.0 * double(K) / double(S.size() - 1);
  std::printf("%s: p%.0f %.4f s, with ten of %zu samples beyond it\n", Name,
              Pct, S[K], S.size());
}

void printHeader(const Bench &B, const std::string &SourceId) {
#ifdef __OPTIMIZE__
  bool Optimized = true;
#else
  bool Optimized = false;
#endif
  std::printf("locus perfbench: workload %s, seed %llu%s\n", B.W.Name.c_str(),
              (unsigned long long)B.Seed, B.Smoke ? " (smoke)" : "");
  std::printf("  source %s\n", SourceId.c_str());
  std::printf("  build %s, %s, compiler %s\n", LOCUS_BENCH_BUILD_TYPE,
              Optimized ? "optimized" : "NOT OPTIMIZED (numbers are not "
                                        "comparable)",
              __VERSION__);
  std::printf("  machine preset %s, dgemm order %d, %s (%s), searcher %s, "
              "budget %d, search seed %llu\n",
              B.W.Xeon ? "xeon" : "tiny", B.W.Order,
              B.W.Fig7 ? "Fig. 7 program" : "Fig. 5 program",
              B.W.Fig7 ? "MaxTile 16" : "tiling choice", B.W.Searcher.c_str(),
              B.W.Budget, (unsigned long long)B.In.SearchSeed);
  std::string Mode = "in-process";
  if (B.W.Workers > 0)
    Mode = "serve mode, " + std::to_string(B.W.Workers) + " workers";
  std::printf("  %s, jobs 1, journal %s, nproc %ld\n", Mode.c_str(),
              B.W.Journal ? "full fsync" : "off",
              sysconf(_SC_NPROCESSORS_ONLN));
  std::fflush(stdout);
}

void printResult(bool Correct, int Attempted, int Failed,
                 const std::vector<Metric> &Metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %d, \"failed\": %d, "
              "\"metrics\": {",
              Correct ? "true" : "false", Attempted, Failed);
  for (size_t I = 0; I < Metrics.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                I ? ", " : "", Metrics[I].Name.c_str(), Metrics[I].Value,
                Metrics[I].Unit.c_str());
  std::printf("}}\n");
}

//===----------------------------------------------------------------------===//
// Correctness checks shared by both modes
//===----------------------------------------------------------------------===//

/// Checks that need no replay, outside any timed region. Returns the number
/// of failed runs; every failure is also printed.
int checkRuns(Bench &B, const std::vector<TuneRun> &Runs,
              const std::vector<TuneRun> &LocalRuns) {
  int Failed = 0;
  const TuneRun &First = Runs.front();
  std::string Key = bestKey(First);
  for (size_t I = 1; I < Runs.size(); ++I)
    if (bestKey(Runs[I]) != Key || Runs[I].R.BestCycles != First.R.BestCycles) {
      std::printf("FAIL: repeat %zu found %s (%.0f cycles), repeat 0 found %s "
                  "(%.0f cycles)\n",
                  I, bestKey(Runs[I]).c_str(), Runs[I].R.BestCycles,
                  Key.c_str(), First.R.BestCycles);
      ++Failed;
    }
  for (const TuneRun &L : LocalRuns)
    if (bestKey(L) != Key || L.R.BestCycles != First.R.BestCycles) {
      std::printf("FAIL: serve mode found %s (%.0f cycles), local %s (%.0f "
                  "cycles)\n",
                  Key.c_str(), First.R.BestCycles, bestKey(L).c_str(),
                  L.R.BestCycles);
      ++Failed;
    }
  if (!LocalRuns.empty() && Failed == 0)
    std::printf("check: serve mode reached the local best point\n");

  // The best variant's simulator checksum against the baseline's.
  eval::EvalOptions EOpts = makeOptions(B).Eval;
  eval::ProgramEvaluator BaseEval(*B.Prog.Baseline, EOpts);
  eval::RunResult Base;
  if (BaseEval.prepare().ok()) {
    initHook(B.In, BaseEval);
    Base = BaseEval.run();
  }
  double Tol = 1e-6 * std::max(1.0, std::abs(Base.Checksum));
  if (!Base.Ok || std::abs(First.R.BestRun.Checksum - Base.Checksum) > Tol) {
    std::printf("FAIL: best variant checksum %.17g, baseline %.17g\n",
                First.R.BestRun.Checksum, Base.Checksum);
    ++Failed;
  } else {
    std::printf("check: best variant checksum equals the baseline's (%.17g)\n",
                Base.Checksum);
  }

  // An independent executor: compile and run both natively.
  eval::NativeOptions NOpts;
  NOpts.WorkDir = B.Scratch;
  NOpts.Repeats = 1;
  if (!eval::nativeCompilerAvailable(NOpts.Compiler)) {
    std::printf("check: native checksum SKIPPED (no '%s' on this host)\n",
                NOpts.Compiler.c_str());
  } else {
    eval::NativeResult NB = eval::evaluateNative(*B.Prog.Baseline, NOpts);
    eval::NativeResult NV = eval::evaluateNative(*First.R.BestProgram, NOpts);
    double NTol = 1e-6 * std::max(1.0, std::abs(NB.Checksum));
    if (!NB.Ok || !NV.Ok || std::abs(NB.Checksum - NV.Checksum) > NTol) {
      std::printf("FAIL: native checksum of the best variant %.17g (%s), "
                  "baseline %.17g (%s)\n",
                  NV.Checksum, NV.Ok ? "ok" : NV.Error.c_str(), NB.Checksum,
                  NB.Ok ? "ok" : NB.Error.c_str());
      ++Failed;
    } else {
      std::printf("check: native checksum of the best variant equals the "
                  "native baseline's (%.17g)\n",
                  NB.Checksum);
    }
  }
  return Failed;
}

//===----------------------------------------------------------------------===//
// Modes
//===----------------------------------------------------------------------===//

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool Smoke = false;
  std::string OutDir = ".";
  std::string ScratchBase;
  std::string SourceId = "unknown";
  std::string WorkerQueue;
  std::string WorkerId;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    auto Next = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (K == "--smoke") {
      A.Smoke = true;
      continue;
    }
    if (!(V = Next())) {
      std::fprintf(stderr, "error: %s needs a value\n", K.c_str());
      return false;
    }
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V, nullptr, 10);
    else if (K == "--seconds")
      A.Seconds = std::atof(V);
    else if (K == "--trace")
      A.Trace = std::atoi(V) != 0;
    else if (K == "--out-dir")
      A.OutDir = V;
    else if (K == "--scratch")
      A.ScratchBase = V;
    else if (K == "--source-id")
      A.SourceId = V;
    else if (K == "--service-worker")
      A.WorkerQueue = V;
    else if (K == "--worker-id")
      A.WorkerId = V;
    else {
      std::fprintf(stderr, "error: unknown option %s\n", K.c_str());
      return false;
    }
  }
  return true;
}

std::string selfExe(const char *Argv0) {
  char Buf[4096];
  ssize_t N = ::readlink("/proc/self/exe", Buf, sizeof(Buf) - 1);
  return N > 0 ? std::string(Buf, static_cast<size_t>(N)) : std::string(Argv0);
}

int runWorker(Bench &B, const Args &A) {
  driver::Orchestrator Orch(*B.Prog.Locus, *B.Prog.Baseline, makeOptions(B));
  service::WorkerOptions WOpts;
  WOpts.QueueDir = A.WorkerQueue;
  WOpts.WorkerId = A.WorkerId;
  if (WOpts.WorkerId.empty())
    WOpts.WorkerId = "perfbench-" + std::to_string(::getpid());
  auto R = Orch.runWorker(WOpts);
  if (!R.ok()) {
    std::fprintf(stderr, "worker failed: %s\n", R.message().c_str());
    return 1;
  }
  return 0;
}

void addUs(std::vector<Metric> &M, const Tracer &T, const std::string &Span,
           const std::string &Name) {
  std::vector<double> D = T.durations(Span);
  for (double &X : D)
    X *= 1e6;
  M.push_back({Name + ".p50", percentile(D, 50), "us"});
  M.push_back({Name + ".p90", percentile(D, 90), "us"});
}

/// Per-layer metrics from the traced replay (see README.md for definitions).
std::vector<Metric> layerMetrics(const Tracer &T, const ReplayResult &RR,
                                 const TuneRun &Serve, double TuneS,
                                 double LocalTuneS) {
  std::vector<Metric> M;
  auto Ms = [&](const char *Span) { return T.total(Span) * 1e3; };
  double RunMs = Ms("eval.run"), InterpMs = Ms("eval.interp");
  double CostMs = std::max(0.0, RunMs - InterpMs);
  M.push_back({"cir.parse_ms", Ms("cir.parse"), "ms"});
  addUs(M, T, "cir.clone", "cir.clone_us");
  addUs(M, T, "cir.print", "cir.print_us");
  M.push_back({"locus.parse_ms", Ms("locus.parse"), "ms"});
  M.push_back({"locus.optimize_ms", Ms("locus.optimize"), "ms"});
  M.push_back({"locus.extract_ms", Ms("locus.extract"), "ms"});
  addUs(M, T, "locus.apply_point", "locus.apply_point_us");
  M.push_back({"locus.apply_point_ms", Ms("locus.apply_point"), "ms"});
  M.push_back({"transform.applied", static_cast<double>(RR.TransformsApplied),
               "count"});
  M.push_back({"analysis.oracle_build_ms", Ms("analysis.oracle_build"), "ms"});
  addUs(M, T, "analysis.classify", "analysis.classify_us");
  M.push_back({"analysis.classify_ms", Ms("analysis.classify"), "ms"});
  M.push_back({"analysis.prune_ratio",
               RR.Classified ? double(RR.Pruned) / RR.Classified : 0, "ratio"});
  M.push_back({"search.searcher_ms", Ms("search.searcher"), "ms"});
  addUs(M, T, "search.cache_key", "search.cache_key_us");
  M.push_back({"search.cache_hit_ratio",
               RR.Lookups ? double(RR.Hits) / RR.Lookups : 0, "ratio"});
  addUs(M, T, "search.journal_append", "search.journal_append_us");
  M.push_back({"search.journal_ms", Ms("search.journal_append"), "ms"});
  addUs(M, T, "eval.prepare", "eval.prepare_us");
  M.push_back({"eval.prepare_ms", Ms("eval.prepare"), "ms"});
  M.push_back({"eval.run_ms", RunMs, "ms"});
  M.push_back({"eval.interp_ms", InterpMs, "ms"});
  M.push_back({"eval.iters_per_s",
               InterpMs > 0 ? RR.InterpIterations / (InterpMs / 1e3) : 0,
               "1/s"});
  M.push_back({"eval.variants", static_cast<double>(RR.Variants), "count"});
  M.push_back({"machine.cost_model_ms", CostMs, "ms"});
  M.push_back({"machine.accesses_per_s",
               CostMs > 0 ? RR.Accesses / (CostMs / 1e3) : 0, "1/s"});
  const service::ServiceStats &SS = Serve.R.Service;
  double Overhead = Serve.R.Served && SS.TasksSubmitted
                        ? (TuneS - LocalTuneS) * 1e3 / SS.TasksSubmitted
                        : 0;
  M.push_back({"service.overhead_ms_per_task", Overhead, "ms"});
  M.push_back({"service.tasks", double(SS.TasksSubmitted), "count"});
  M.push_back({"service.spawned", double(SS.WorkersSpawned), "count"});
  addUs(M, T, "driver.assess", "driver.assess_us");

  // Coverage: layer self time inside the replayed pipeline (the driver's
  // own glue excluded), plus the measured service overhead in serve mode,
  // over the untraced tuning time.
  std::vector<double> Self = T.selfSeconds();
  double Layers = 0;
  const std::vector<perfbench::Span> &Spans = T.spans();
  for (size_t I = 0; I < Spans.size(); ++I) {
    std::string Name = Spans[I].Name;
    if (std::strcmp(Spans[I].Layer, "driver") != 0 && Name != "eval.interp" &&
        Name != "cir.parse" && Name != "locus.parse")
      Layers += Self[I];
  }
  if (Serve.R.Served)
    Layers += std::max(0.0, TuneS - LocalTuneS);
  M.push_back({"driver.coverage", TuneS > 0 ? Layers / TuneS : 0, "ratio"});
  M.push_back({"trace.overhead",
               LocalTuneS > 0 ? RR.PipelineSeconds / LocalTuneS : 0, "ratio"});
  return M;
}

/// Per-layer self time of the traced run, printed for humans.
void printSelfTimes(const Tracer &T, double TuneS) {
  std::vector<double> Self = T.selfSeconds();
  std::map<std::string, double> ByLayer;
  std::map<std::string, double> ByName;
  const std::vector<perfbench::Span> &Spans = T.spans();
  for (size_t I = 0; I < Spans.size(); ++I) {
    ByLayer[Spans[I].Layer] += Self[I];
    ByName[Spans[I].Name] += Self[I];
  }
  std::printf("per-layer self time (traced replay; eval includes eval.interp, "
              "which is outside the pipeline):\n");
  for (const auto &[Layer, S] : ByLayer)
    std::printf("  %-10s %10.2f ms  %5.1f%% of untraced tune_s\n",
                Layer.c_str(), S * 1e3, TuneS > 0 ? 100 * S / TuneS : 0);
  std::printf("per-span self time:\n");
  for (const auto &[Name, S] : ByName)
    std::printf("  %-24s %10.2f ms\n", Name.c_str(), S * 1e3);
}

int runBenchmark(Bench &B, const Args &A) {
  printHeader(B, A.SourceId);
  double BenchStart = nowSeconds();
  bool Serve = B.W.Workers > 0;
  std::vector<Metric> Metrics;

  // Set-up samples are taken in a block up front and then between tuning
  // runs, so that their median spans the whole measured window.
  std::vector<double> Setups;
  auto TakeSetups = [&](size_t MinSamples, double MinSeconds) -> bool {
    double Start = nowSeconds();
    size_t Taken = 0;
    while (Taken < MinSamples ||
           (nowSeconds() - Start < MinSeconds && Setups.size() < 2000)) {
      ++Taken;
      Expected<double> S = setupOnce(B);
      if (!S.ok()) {
        std::printf("FAIL: set-up failed: %s\n", S.message().c_str());
        return false;
      }
      Setups.push_back(*S);
    }
    return true;
  };
  bool TakeSetup = !A.Trace;
  if (TakeSetup && !TakeSetups(A.Smoke ? 1 : 5, A.Smoke ? 0 : 0.5))
    return 1;

  // Tuning runs for the measured duration (at least two, so repeats can be
  // compared).
  std::vector<TuneRun> Runs;
  int Attempted = 0, Failed = 0;
  double LoopStart = nowSeconds();
  while (Runs.size() < 2 || nowSeconds() - LoopStart < A.Seconds) {
    if (TakeSetup && !Runs.empty() && !A.Smoke && !TakeSetups(1, 0.05))
      return 1;
    support::TempDir Dir("run-", B.Scratch);
    TuneRun Run = tuneOnce(B, Serve, B.W.Budget, Dir.path());
    ++Attempted;
    if (!Run.Ok) {
      std::printf("FAIL: tuning run %d: %s\n", Attempted, Run.Error.c_str());
      ++Failed;
      if (Failed >= 2 || A.Smoke)
        break;
      continue;
    }
    if (!Runs.empty()) {
      // Only the first run's History and winner are needed later; keeping
      // every run's would make peak memory grow with the run count.
      Run.R.Search.History = {};
      Run.R.BestProgram.reset();
    }
    Runs.push_back(std::move(Run));
  }
  if (Runs.empty()) {
    printResult(false, Attempted, Failed, {});
    return 1;
  }

  // Serve mode: the same configuration in-process, as the reference.
  std::vector<TuneRun> Local;
  if (Serve) {
    for (int I = 0; I < (A.Smoke ? 1 : 5); ++I) {
      support::TempDir Dir("run-", B.Scratch);
      TuneRun Run = tuneOnce(B, /*Serve=*/false, B.W.Budget, Dir.path());
      ++Attempted;
      if (!Run.Ok) {
        std::printf("FAIL: local reference run: %s\n", Run.Error.c_str());
        ++Failed;
        continue;
      }
      Local.push_back(std::move(Run));
    }
  }
  Failed += checkRuns(B, Runs, Local);

  std::vector<double> Tunes;
  for (const TuneRun &R : Runs)
    Tunes.push_back(R.Seconds);
  double TuneS = median(Tunes);
  std::vector<double> LocalTunes;
  for (const TuneRun &R : Local)
    LocalTunes.push_back(R.Seconds);
  double LocalTuneS = Serve ? median(LocalTunes) : TuneS;
  const TuneRun &First = Runs.front();
  std::printf("runs: %zu tuning runs in %.1f s; tune_s median %.4f s "
              "(min %.4f, max %.4f); %d evaluations, %d pruned statically, "
              "%llu cache hits\n",
              Runs.size(), nowSeconds() - LoopStart, TuneS,
              *std::min_element(Tunes.begin(), Tunes.end()),
              *std::max_element(Tunes.begin(), Tunes.end()),
              First.R.Search.Evaluations, First.R.Search.PrunedStatic,
              (unsigned long long)First.R.Search.CacheHits);
  std::printf("best: %s, %.0f -> %.0f cycles (%.4fx)%s\n",
              bestKey(First).c_str(), First.R.BaselineCycles,
              First.R.BestCycles, First.R.Speedup,
              First.R.BaselineChosen ? ", baseline kept" : "");
  if (Serve)
    std::printf("service: %llu tasks, %llu from workers, %llu local fallback, "
                "%llu lease expiries, %d spawned; local reference median "
                "%.4f s\n",
                (unsigned long long)First.R.Service.TasksSubmitted,
                (unsigned long long)First.R.Service.WorkerResults,
                (unsigned long long)First.R.Service.LocalFallbackEvals,
                (unsigned long long)First.R.Service.LeaseExpiries,
                First.R.Service.WorkersSpawned, LocalTuneS);

  if (!A.Trace) {
    std::printf("tune_s: median %.4f s over %zu samples; setup_s median "
                "%.4f s over %zu samples\n",
                TuneS, Tunes.size(), median(Setups), Setups.size());
    printTail("tune_s tail", Tunes);
    Metrics.push_back({"tune_s", TuneS, "s"});
    Metrics.push_back(
        {"points_per_s", First.R.Search.Evaluations / TuneS, "1/s"});
    Metrics.push_back({"setup_s", median(Setups), "s"});
    std::vector<double> Peaks;
    for (const TuneRun &R : Runs)
      Peaks.push_back(R.PeakRssMb);
    // Median per-run peak; the process-lifetime peak when the kernel cannot
    // reset the watermark.
    double PeakMb = median(Peaks) > 0 ? median(Peaks) : peakRssMb();
    Metrics.push_back({"peak_rss_mb", PeakMb, "MB"});
    Metrics.push_back({"best_speedup", First.R.Speedup, "x"});
  } else if (Serve && Local.empty()) {
    std::printf("FAIL: no local reference run to replay\n");
  } else {
    Tracer T;
    const TuneRun &Ref = Serve ? Local.front() : First;
    ReplayResult RR = replay(B, Ref, T);
    ++Attempted;
    for (const std::string &Msg : RR.Mismatches)
      std::printf("FAIL: %s\n", Msg.c_str());
    if (RR.Mismatches.empty())
      std::printf("check: all %d replayed points match the run's History\n",
                  RR.Points);
    else
      ++Failed;
    printSelfTimes(T, LocalTuneS);
    Metrics = layerMetrics(T, RR, First, TuneS, LocalTuneS);
    std::string TracePath = A.OutDir + "/trace-" + B.W.Name + "-seed" +
                            std::to_string(B.Seed) + ".json";
    if (T.writeChromeTrace(TracePath))
      std::printf("trace: %zu spans written to %s\n", T.spans().size(),
                  TracePath.c_str());
    for (const Metric &M : Metrics)
      if (M.Name == "driver.coverage" || M.Name == "trace.overhead")
        std::printf("%s: %.4f\n", M.Name.c_str(), M.Value);
  }

  std::printf("run_error_ratio: %d/%d = %.4f\n", Failed, Attempted,
              double(Failed) / Attempted);
  std::printf("metrics:\n");
  for (const Metric &M : Metrics)
    std::printf("  %-32s %16.6g %s\n", M.Name.c_str(), M.Value,
                M.Unit.c_str());
  std::printf("wall: %.1f s\n", nowSeconds() - BenchStart);
  printResult(Failed == 0, Attempted, Failed, Metrics);
  return Failed == 0 ? 0 : 1;
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A))
    return 2;
  Bench B;
  if (!lookupWorkload(A.Workload, A.Smoke, B.W)) {
    std::fprintf(stderr,
                 "error: unknown workload '%s' (fig5-eval, fig7-search, "
                 "fig7-serve)\n",
                 A.Workload.c_str());
    return 2;
  }
  B.Seed = A.Seed;
  B.Smoke = A.Smoke;
  B.In = makeInputs(B.W, A.Seed);
  B.Exe = selfExe(Argv[0]);
  auto P = parseInputs(B.In);
  if (!P.ok()) {
    std::fprintf(stderr, "error: %s\n", P.message().c_str());
    return 1;
  }
  B.Prog = std::move(*P);
  if (!A.WorkerQueue.empty())
    return runWorker(B, A);

  // Journals, queues and native workdirs live in one directory unique to
  // this process, removed on exit.
  std::string Base = A.ScratchBase;
  char Real[PATH_MAX];
  if (!Base.empty() && ::realpath(Base.c_str(), Real))
    Base = Real;
  support::TempDir Scratch("perfbench-", Base);
  if (!Scratch.valid()) {
    std::fprintf(stderr, "error: cannot create a scratch directory\n");
    return 1;
  }
  B.Scratch = Scratch.path();
  return runBenchmark(B, A);
}
