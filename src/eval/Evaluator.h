//===- Evaluator.h - MiniC execution and cost evaluation --------*- C++ -*-===//
///
/// \file
/// Executes a MiniC program and measures its cost on a simulated machine.
/// This replaces the paper's "buildcmd/runcmd + wall clock on a Xeon"
/// evaluation loop: the program's semantics run for real (so transformation
/// correctness is checkable via array checksums), while every array access
/// flows through the cache simulator and pragma-annotated loops go through
/// OpenMP-schedule and SIMD models. The returned cycle count is the metric
/// the search modules minimize.
///
/// prepare() type-checks the AST once and compiles it to flat bytecode over
/// a register file (scalars, constants, temporaries); run() interprets that
/// bytecode. Array references whose subscripts are affine in int scalars
/// compute their flat index in one operation, and their bounds are proved
/// once per loop entry when the loop body cannot change the subscripts.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_EVAL_EVALUATOR_H
#define LOCUS_EVAL_EVALUATOR_H

#include "src/cir/Ast.h"
#include "src/machine/CacheSim.h"
#include "src/support/Error.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace locus {
namespace eval {

/// Evaluation options.
struct EvalOptions {
  /// When false, skips all cost accounting (cache simulation, schedules);
  /// used by pure-semantics correctness tests.
  bool CountCost = true;
  machine::MachineConfig Machine = machine::MachineConfig::xeonE5v3();
  /// Abort evaluation after this many loop iterations (runaway guard).
  uint64_t MaxIterations = 1ull << 33;
  /// Model OpenMP speedup even for loops the parallel-safety analyzer
  /// cannot prove race-free. Off by default: an unproven `omp parallel for`
  /// executes (and is costed) sequentially, with a warning in
  /// RunResult::Warnings, so the search cannot be steered by a speedup the
  /// real machine would only reach through a data race.
  bool TrustParallel = false;
};

/// The outcome of one program execution.
struct RunResult {
  bool Ok = false;
  std::string Error;
  double Cycles = 0;            ///< simulated execution time
  uint64_t ArithOps = 0;        ///< floating-point operations executed
  uint64_t MemReads = 0;
  uint64_t MemWrites = 0;
  uint64_t LoopIterations = 0;
  std::vector<machine::CacheLevelStats> Cache;
  double Checksum = 0; ///< sum over all arrays; equal checksums across
                       ///< variants indicate semantic equivalence
  /// Non-fatal model notes, e.g. an `omp parallel for` whose speedup was
  /// not modeled because the loop's parallel safety is unproven.
  std::vector<std::string> Warnings;
};

namespace detail {
struct CompiledProgram;
}

/// Compiles and executes MiniC programs.
class ProgramEvaluator {
public:
  ProgramEvaluator(const cir::Program &P, EvalOptions Opts = EvalOptions());
  ~ProgramEvaluator();

  ProgramEvaluator(const ProgramEvaluator &) = delete;
  ProgramEvaluator &operator=(const ProgramEvaluator &) = delete;

  /// Compiles the program; must succeed before run().
  Status prepare();

  /// Overrides the deterministic default initialization of an array.
  /// Effective on subsequent run() calls. Must be called after prepare().
  Status setDoubleArray(const std::string &Name, std::vector<double> Values);
  Status setIntArray(const std::string &Name, std::vector<int64_t> Values);

  /// Overrides a scalar's initial value.
  Status setScalar(const std::string &Name, double Value);

  /// Executes the program from its initial state.
  RunResult run();

  /// Reads back a double array's contents after run().
  Expected<std::vector<double>> doubleArray(const std::string &Name) const;

private:
  const cir::Program &Prog;
  EvalOptions Opts;
  std::unique_ptr<detail::CompiledProgram> Compiled;
};

/// Convenience helper: evaluates a program once with default inputs.
RunResult evaluateProgram(const cir::Program &P,
                          const EvalOptions &Opts = EvalOptions());

} // namespace eval
} // namespace locus

#endif // LOCUS_EVAL_EVALUATOR_H
