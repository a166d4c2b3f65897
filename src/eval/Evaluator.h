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
/// With cost accounting on, the interpreter is the producer of an access
/// stream: it appends each access's byte address, plus SIMD-scale changes,
/// OpenMP region enter/exit and per-iteration marks, to a buffer. The
/// consumer runs the cache simulator over that stream and sums memory
/// cycles. A run drains its buffer inline until it has made a fixed number
/// of accesses; from then on, when a core is spare (support/Cores.h), the
/// consumer runs on a helper thread that the run joins before it returns.
/// Cycles are summed in an integer ledger, so the two halves add up to the
/// same total wherever they ran.
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
  /// Simulated execution time: the cycle ledger's count of
  /// 2^-LedgerFractionBits-cycle units, converted once. Equal to the
  /// in-order floating-point sum of the charges whenever every charge
  /// constant is a whole number of units (true of the preset machines) and
  /// the total is below 2^37 cycles.
  double Cycles = 0;
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

/// The cycle ledger counts cost in units of 2^-LedgerFractionBits cycles,
/// in 128 bits, so no run the iteration budget allows can overflow it.
/// Each charge constant (an operation, a loop iteration or an L1 hit at a
/// SIMD scale; a miss latency; an OpenMP region's scheduled time) converts
/// to units once, rounded to the nearest unit, ties away from zero.
constexpr int LedgerFractionBits = 16;
using LedgerUnits = __int128;

/// \p Cycles in ledger units (see LedgerFractionBits); saturates at
/// +-2^100 units, and a NaN is 0.
LedgerUnits ledgerUnits(double Cycles);

/// The cost scale of a vectorized innermost loop on \p M: 1/W for unit
/// stride, else 2/W, at most 1 (W = M.VectorWidthDoubles).
double simdScale(const machine::MachineConfig &M, bool UnitStride);

/// The charges a cost scale multiplies, in cycles. The evaluator converts
/// each to ledger units once per scale; the other charges are integer miss
/// latencies and the OpenMP spawn and dynamic-chunk overheads.
struct ScaledCycles {
  double Arith = 0;    ///< one floating-point operation
  double IntArith = 0; ///< one integer operation
  double Loop = 0;     ///< one loop iteration's overhead
  double L1Hit = 0;    ///< one access that hits L1
};

/// The charges on \p M at cost scale \p Scale: 1 outside vectorized loops,
/// simdScale() inside them.
ScaledCycles scaledCycles(const machine::MachineConfig &M, double Scale);

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
