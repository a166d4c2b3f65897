//===- Evaluator.cpp - MiniC execution and cost evaluation -------------------===//

#include "src/eval/Evaluator.h"

#include "src/analysis/Affine.h"
#include "src/analysis/Dependence.h"
#include "src/analysis/ParallelSafety.h"
#include "src/cir/AstUtils.h"
#include "src/support/Cores.h"
#include "src/support/Hashing.h"
#include "src/support/StringUtils.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <queue>
#include <system_error>
#include <thread>
#include <type_traits>

namespace locus {
namespace eval {

using namespace cir;

LedgerUnits ledgerUnits(double Cycles) {
  constexpr double Max = 0x1p100;
  double U = std::round(std::ldexp(Cycles, LedgerFractionBits));
  if (std::isnan(U))
    return 0;
  return static_cast<LedgerUnits>(std::clamp(U, -Max, Max));
}

double simdScale(const machine::MachineConfig &M, bool UnitStride) {
  double W = static_cast<double>(M.VectorWidthDoubles);
  return std::min(UnitStride ? 1.0 / W : 2.0 / W, 1.0);
}

ScaledCycles scaledCycles(const machine::MachineConfig &M, double Scale) {
  int L1 = M.Levels.empty() ? 0 : M.Levels[0].HitLatency;
  return {M.ArithCost * Scale, M.ArithCost * 0.5 * Scale,
          M.LoopOverhead * Scale, L1 * Scale};
}

namespace detail {

//===----------------------------------------------------------------------===//
// Compiled representation
//===----------------------------------------------------------------------===//

enum class EK : uint8_t {
  ConstI,
  ConstD,
  VarI,
  VarD,
  LoadI,   ///< int array element
  LoadD,   ///< double array element
  BinI,    ///< both operands int, result int
  BinD,    ///< double arithmetic/comparison (comparison yields 0/1 as double)
  CmpD,    ///< double comparison, result int
  NegI,
  NegD,
  NotI,
  CastID,  ///< int operand used in a double context
  MinI,
  MaxI,
  MinD,
  MaxD,
  Rtclock, ///< harness intrinsic; evaluates to 0.0
};

struct CE {
  EK Kind = EK::ConstI;
  BinOp Op = BinOp::Add;
  int64_t ConstInt = 0;
  double ConstDouble = 0;
  int Slot = -1; ///< scalar slot or array id
  const cir::ArrayRef *Ref = nullptr; ///< source of a load
  std::vector<CE> Kids;

  bool isDouble() const {
    switch (Kind) {
    case EK::ConstD:
    case EK::VarD:
    case EK::LoadD:
    case EK::BinD:
    case EK::NegD:
    case EK::CastID:
    case EK::MinD:
    case EK::MaxD:
    case EK::Rtclock:
      return true;
    default:
      return false;
    }
  }
};

enum class SK : uint8_t { For, If, AssignScalar, AssignArray };

/// OpenMP schedule kinds recognized on loops.
enum class Sched : uint8_t { None, Default, Static, Dynamic };

struct CS {
  SK Kind = SK::AssignScalar;

  // For
  int Slot = -1;
  CE Init;
  CE BoundExcl; ///< exclusive upper bound (Le bounds get +1 at compile time)
  int64_t Step = 1;
  std::vector<CS> Body;
  Sched Par = Sched::None;
  int Chunk = 0;
  double VecScale = 1.0; ///< <1 when a SIMD pragma applies

  // If
  CE Cond;
  std::vector<CS> Else;

  // Assign
  cir::AssignOp Op = cir::AssignOp::Set;
  bool TargetDouble = false;
  const cir::ArrayRef *Ref = nullptr; ///< source of an array target
  std::vector<CE> Indices;
  CE Rhs;
};

struct ArrayInfo {
  std::string Name;
  ElemType Elem = ElemType::Double;
  std::vector<int64_t> Dims;
  std::vector<int64_t> Strides;
  int64_t TotalElems = 0;
  uint64_t Base = 0;
};

//===----------------------------------------------------------------------===//
// Bytecode
//===----------------------------------------------------------------------===//

/// One register: an int or a double, as the static type of its producer
/// says. Registers are the scalar slots, then constants, loop state and
/// expression temporaries.
union Val {
  int64_t I;
  double D;
};

/// Opcodes. Expression code is post-order over registers; each integer or
/// double operation charges exactly what its tree node charged.
enum class Opc : uint8_t {
  Halt,
  Fail, ///< fail with Messages[Aux]
  Mov,
  CastID,
  AddI, SubI, MulI, DivI, ModI, LtI, LeI, GtI, GeI, EqI, NeI, NegI, MinI, MaxI,
  AddD, SubD, MulD, DivD, NegD, MinD, MaxD, LtD, LeD, GtD, GeD, EqD, NeD,
  AndJ, ///< R[A] == 0: R[Dst] = 0 and jump to Aux
  OrJ,  ///< R[A] != 0: R[Dst] = 1 and jump to Aux
  Bool, ///< R[Dst] = R[A] != 0
  NotI,
  Idx0,  ///< bounds-check R[A] as dim B of array Aux; R[Dst] = R[A]*stride
  IdxN,  ///< the same, accumulating into R[Dst]
  LoadD, ///< R[Dst] = array Aux [R[A]]
  LoadI,
  StoreD, ///< array Aux [R[A]] (Assign)= R[B]
  StoreI,
  AffIdx,   ///< R[Dst] = flat index of AffRefs[Aux]
  LoadAffD, ///< R[Dst] = element of AffRefs[Aux]
  LoadAffI,
  AddDM, ///< R[Dst] = R[A] + element of AffRefs[Aux]
  SubDM,
  MulDM,
  DivDM,
  Jump,       ///< to Aux
  JumpIfZero, ///< R[A] == 0: to Aux
  ForInit,    ///< Loops[Aux] from R[A] to R[B]
  ForNext,
  VecEnter,
  VecExit,
  ParEnter,
  ParExit,
};

struct Op {
  Opc Code = Opc::Halt;
  cir::AssignOp Assign = cir::AssignOp::Set;
  int32_t Dst = 0, A = 0, B = 0;
  int32_t Aux = 0;
};

struct LoopInfo {
  int32_t Var = 0; ///< the induction scalar's register
  int32_t Cur = 0; ///< the iteration value (body writes to Var do not step)
  int32_t End = 0; ///< exclusive bound, evaluated once
  int64_t Step = 1;
  int32_t Body = 0, Exit = 0;
  /// LoopRefs[FirstRef, FirstRef + NumRefs): the affine references whose
  /// bounds this loop's entry proves for all its iterations.
  uint32_t FirstRef = 0, NumRefs = 0;
  bool Parallel = false; ///< modeled as an OpenMP loop
  Sched Par = Sched::None;
  int Chunk = 0;
  int32_t ScaleId = 0; ///< its Charges entry, when vectorized
};

/// An array reference whose subscripts are all affine in at most two int
/// scalars each: dim K's index is Const + Coeff[0]*R[Reg[0]] +
/// Coeff[1]*R[Reg[1]] (an unused term reads the constant 0). Index
/// arithmetic wraps like the tree form's did in practice, without signed
/// overflow.
struct AffDim {
  int64_t Const = 0, Extent = 0, Stride = 0;
  int64_t Coeff[2] = {0, 0};
  int32_t Reg[2] = {0, 0};
};
struct AffRef {
  int32_t Array = 0;
  uint64_t Addr = 0; ///< the array's simulated byte address
  int32_t NumDims = 0;
  uint32_t FirstDim = 0;
  int32_t IntOps = 0; ///< integer operations the subscripts' trees charged
  /// When the body of the innermost enclosing loop writes none of the
  /// reference's scalars nor the loop variable, the loop's entry proves the
  /// reference (see proveBounds) and the flat index is RefState::Base +
  /// LoopStride * R[LoopVar] throughout.
  int32_t LoopVar = 0;
  uint64_t LoopStride = 0; ///< modulo 2^64, like RefState::Base
};

/// Per affine reference, set at each entry of its loop.
struct RefState {
  uint64_t Base = 0; ///< modulo 2^64; exact wherever the index is in bounds
  bool Safe = false; ///< every iteration of this loop entry is in bounds
};

//===----------------------------------------------------------------------===//
// The cycle ledger and the access stream
//===----------------------------------------------------------------------===//

using Units = LedgerUnits;

double toCycles(Units U) {
  return std::ldexp(static_cast<double>(U), -LedgerFractionBits);
}

/// The ledger units of each charge that a SIMD scale multiplies.
struct ScaledCharges {
  double Scale = 1.0;
  Units Arith = 0;    ///< one floating-point operation
  Units IntArith = 0; ///< one integer operation
  Units Loop = 0;     ///< one loop iteration's overhead
  Units L1Hit = 0;    ///< one access that hits L1
};

ScaledCharges scaledCharges(const machine::MachineConfig &M, double Scale) {
  ScaledCycles C = scaledCycles(M, Scale);
  return {Scale, ledgerUnits(C.Arith), ledgerUnits(C.IntArith),
          ledgerUnits(C.Loop), ledgerUnits(C.L1Hit)};
}

/// Models the parallel execution time of a loop from per-iteration costs.
double scheduleTime(const machine::MachineConfig &M,
                    const std::vector<double> &IterCosts, Sched Par,
                    int Chunk) {
  int Cores = std::max(1, M.Cores);
  size_t N = IterCosts.size();
  if (N == 0)
    return 0;
  if (Cores == 1) {
    double Sum = 0;
    for (double C : IterCosts)
      Sum += C;
    return Sum;
  }
  if (Par == Sched::Dynamic) {
    int C = Chunk > 0 ? Chunk : 1;
    // Greedy list scheduling: each core takes the next chunk when free.
    std::priority_queue<double, std::vector<double>, std::greater<double>>
        CoreTimes;
    for (int I = 0; I < Cores; ++I)
      CoreTimes.push(0.0);
    for (size_t Begin = 0; Begin < N; Begin += static_cast<size_t>(C)) {
      double ChunkCost = M.DynamicChunkOverhead;
      for (size_t I = Begin; I < std::min(N, Begin + static_cast<size_t>(C));
           ++I)
        ChunkCost += IterCosts[I];
      double T = CoreTimes.top();
      CoreTimes.pop();
      CoreTimes.push(T + ChunkCost);
    }
    double Max = 0;
    while (!CoreTimes.empty()) {
      Max = std::max(Max, CoreTimes.top());
      CoreTimes.pop();
    }
    return Max;
  }
  // Static: chunked round-robin; default schedule = one contiguous block
  // per core.
  size_t C = Chunk > 0 ? static_cast<size_t>(Chunk)
                       : (N + static_cast<size_t>(Cores) - 1) /
                             static_cast<size_t>(Cores);
  std::vector<double> CoreSums(static_cast<size_t>(Cores), 0.0);
  size_t Core = 0;
  for (size_t Begin = 0; Begin < N; Begin += C) {
    for (size_t I = Begin; I < std::min(N, Begin + C); ++I)
      CoreSums[Core] += IterCosts[I];
    Core = (Core + 1) % static_cast<size_t>(Cores);
  }
  double Max = 0;
  for (double T : CoreSums)
    Max = std::max(Max, T);
  return Max;
}

/// Stream words: a byte address, or an event when the top bit is set.
constexpr uint64_t EventBit = 1ull << 63;
constexpr uint64_t EventMask = EventBit | 0x7fffffffull << 32;
constexpr uint64_t EvScale = EventBit | 1ull << 32; ///< to Charges[low half]
constexpr uint64_t EvEnter = EventBit | 2ull << 32; ///< an OpenMP region
constexpr uint64_t EvMark = EventBit | 3ull << 32;  ///< one of its iterations
                                                    ///< ends
constexpr uint64_t EvExit = EventBit | 4ull << 32;  ///< the region ends

#if defined(__x86_64__) && !defined(__SANITIZE_THREAD__)
#define LOCUS_STREAMING_STORES 1
#endif
#if defined(__has_feature)
#if __has_feature(thread_sanitizer)
#undef LOCUS_STREAMING_STORES
#endif
#endif

/// Stores a stream word. Words a helper reads bypass the producer's cache:
/// the helper's last pass over the ring left each line in its own cache,
/// and an ordinary store would fetch the line back first, which made the
/// producer about 1.5x slower. (ThreadSanitizer does not see such stores,
/// so its builds use ordinary ones.)
inline void storeWord(uint64_t *P, uint64_t Word, bool Streaming) {
#ifdef LOCUS_STREAMING_STORES
  if (Streaming) {
    __builtin_ia32_movnti64(reinterpret_cast<long long *>(P),
                            static_cast<long long>(Word));
    return;
  }
#endif
  (void)Streaming;
  *P = Word;
}

/// Orders the streaming stores before the handoff that publishes them.
inline void storeFence() {
#ifdef LOCUS_STREAMING_STORES
  __builtin_ia32_sfence();
#endif
}

/// A consumer of the stream: runs the simulator over its addresses and
/// sums the memory cycles. Inside an OpenMP region it also keeps each
/// iteration's memory units, for the producer to schedule.
struct alignas(64) MemoryLedger {
  machine::CacheSim *Sim = nullptr;
  int L1Latency = 0;
  const ScaledCharges *Charges = nullptr;
  const ScaledCharges *Scale = nullptr;
  Units Total = 0, RegionStart = 0, IterStart = 0;
  std::vector<Units> IterMem;

  void consume(const uint64_t *W, const uint64_t *End) {
    // Per call at most SlotWords accesses, each below 2^47 units: the
    // partial sum fits 64 bits.
    int64_t Sum = 0;
    const ScaledCharges *Sc = Scale;
    int64_t Hit = static_cast<int64_t>(Sc->L1Hit);
    machine::CacheSim *S = Sim;
    for (; W < End; ++W) {
      uint64_t X = *W;
      if (!(X & EventBit)) [[likely]] {
        int Latency = S->access(X, /*IsWrite=*/false);
        // Vectorization hides latency only for cache-resident data.
        if (Latency == L1Latency)
          Sum += Hit;
        else if (Latency < L1Latency)
          Sum += static_cast<int64_t>(ledgerUnits(Latency * Sc->Scale));
        else
          Sum += static_cast<int64_t>(Latency) << LedgerFractionBits;
        continue;
      }
      Total += Sum;
      Sum = 0;
      switch (X & EventMask) {
      case EvScale:
        Sc = &Charges[static_cast<uint32_t>(X)];
        Hit = static_cast<int64_t>(Sc->L1Hit);
        break;
      case EvEnter:
        RegionStart = IterStart = Total;
        IterMem.clear();
        break;
      case EvMark:
        IterMem.push_back(Total - IterStart);
        IterStart = Total;
        break;
      case EvExit:
        // The producer charges the region's scheduled time instead.
        Total = RegionStart;
        break;
      }
    }
    Total += Sum;
    Scale = Sc;
  }
};

/// The producer's end of the stream. A run drains its buffer inline until
/// it has made HelperThreshold accesses; then, if a core is spare, a
/// helper thread takes the ledger and its simulator over, and helper and
/// producer trade a ring of buffers, so simulation overlaps
/// interpretation.
class AccessStream {
public:
  /// Accesses a run makes before its simulation may leave the
  /// interpreter's thread. Starting a helper and its buffers costs about
  /// 100 us, which a helper wins back after about 20 K accesses; runs of
  /// the Fig. 7 search (16 K accesses) stay inline.
  static constexpr uint64_t HelperThreshold = 64 * 1024;
  static constexpr size_t InlineWords = 256;
  static constexpr int NumSlots = 4;
  static constexpr size_t SlotWords = 4096;

  explicit AccessStream(const MemoryLedger &Ledger) : Mem(Ledger) {}
  ~AccessStream() { finish(begin()); }
  AccessStream(const AccessStream &) = delete;
  AccessStream &operator=(const AccessStream &) = delete;

  uint64_t *begin() { return Helping ? slot(Fill) : Inline; }
  /// Whether a helper reads what the producer writes (see storeWord).
  bool streaming() const { return Helping; }
  /// The producer calls flush() once its write position reaches this.
  uint64_t *limit() {
    return Helping ? slot(Fill) + SlotWords : Inline + InlineWords;
  }

  /// Drains or hands over the words before \p End; returns where the
  /// producer writes next. \p Accesses counts the run's accesses so far.
  [[gnu::noinline]] uint64_t *flush(uint64_t *End, uint64_t Accesses) {
    if (!Helping) {
      Mem.consume(Inline, End);
      if (Accesses >= NextTry) {
        NextTry = Accesses + HelperThreshold;
        startHelper();
      }
      return begin();
    }
    hand(End, /*IsLast=*/false);
    Fill = (Fill + 1) % NumSlots;
    await(Full[Fill], 0);
    return slot(Fill);
  }

  /// Consumes every word before \p End; returns where the producer writes
  /// next.
  [[gnu::noinline]] uint64_t *sync(uint64_t *End) {
    if (!Helping) {
      Mem.consume(Inline, End);
      return Inline;
    }
    hand(End, /*IsLast=*/false);
    for (int S = 0; S < NumSlots; ++S)
      await(Full[S], 0);
    Fill = (Fill + 1) % NumSlots;
    return slot(Fill);
  }

  /// Consumes the rest of the stream. No thread outlives this call.
  void finish(uint64_t *End) {
    if (Finished)
      return;
    Finished = true;
    if (!Helping) {
      Mem.consume(Inline, End);
      return;
    }
    hand(End, /*IsLast=*/true);
    Helper.join();
    releaseHelperCore();
  }

  /// After sync(): the memory units of the region's iteration \p I.
  Units iterationMemory(size_t I) const { return Mem.IterMem[I]; }
  /// After finish(): all memory units.
  Units total() const { return Mem.Total; }

private:
  uint64_t *slot(int S) { return Slots.get() + S * SlotWords; }

  /// Starts the helper if a core is spare. Else, or when the thread cannot
  /// start, the run goes on inline with its ledger as it was.
  void startHelper() {
    if (!reserveHelperCore())
      return;
    Slots = std::make_unique_for_overwrite<uint64_t[]>(NumSlots * SlotWords);
    Fill = 0;
    try {
      // The helper touches the ledger only after the first hand().
      Helper = std::thread([this] { drain(); });
      Helping = true;
    } catch (const std::system_error &) {
      Slots.reset();
      releaseHelperCore();
    }
  }

  /// Passes the filled slot to the helper.
  void hand(uint64_t *End, bool IsLast) {
    storeFence();
    Len[Fill] = static_cast<size_t>(End - slot(Fill));
    Last[Fill] = IsLast;
    post(Full[Fill], 1);
  }

  /// The helper thread: consumes the slots in turn through the last one.
  void drain() {
    for (int S = 0;; S = (S + 1) % NumSlots) {
      await(Full[S], 1);
      Mem.consume(slot(S), slot(S) + Len[S]);
      bool Done = Last[S];
      post(Full[S], 0);
      if (Done)
        return;
    }
  }

  /// Spins briefly, then blocks, until \p Flag holds \p Want. (Blocking
  /// uses a condition variable: libstdc++ 12's atomic::wait can miss a
  /// notify.)
  void await(std::atomic<uint32_t> &Flag, uint32_t Want) {
    for (int I = 0; I < 2048; ++I) {
      if (Flag.load(std::memory_order_acquire) == Want)
        return;
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
    Sleepers.fetch_add(1);
    {
      std::unique_lock<std::mutex> Lock(WakeMutex);
      Wake.wait(Lock, [&] { return Flag.load() == Want; });
    }
    Sleepers.fetch_sub(1);
  }

  /// Sets \p Flag to \p V and wakes its waiter. Both sides' sequentially
  /// consistent operations make a sleeper either see the new value or be
  /// counted here.
  void post(std::atomic<uint32_t> &Flag, uint32_t V) {
    Flag.store(V);
    if (Sleepers.load()) {
      std::lock_guard<std::mutex> Lock(WakeMutex);
      Wake.notify_all();
    }
  }

  MemoryLedger Mem; ///< the helper's, once it runs
  bool Helping = false;
  bool Finished = false;
  uint64_t NextTry = HelperThreshold;
  uint64_t Inline[InlineWords];
  // Helper mode: a ring of NumSlots slots; Full[S] is 1 while the helper
  // has slot S to consume.
  std::unique_ptr<uint64_t[]> Slots;
  size_t Len[NumSlots] = {};
  bool Last[NumSlots] = {};
  std::atomic<uint32_t> Full[NumSlots] = {};
  int Fill = 0; ///< the slot the producer writes
  std::atomic<unsigned> Sleepers{0};
  std::mutex WakeMutex;
  std::condition_variable Wake;
  std::thread Helper;
};

struct CompiledProgram {
  const cir::Program *Prog = nullptr;
  EvalOptions Opts;

  // Symbols.
  std::map<std::string, int> ScalarSlots;
  std::vector<ElemType> SlotTypes;
  std::map<std::string, int> ArrayIds;
  std::vector<ArrayInfo> Arrays;

  // Initial state.
  std::vector<std::vector<double>> InitDouble; ///< per array (doubles)
  std::vector<std::vector<int64_t>> InitInt;   ///< per array (ints)
  std::vector<double> InitScalarD;
  std::vector<int64_t> InitScalarI;

  std::string CompileError;
  /// Compile-time model notes surfaced on every RunResult (e.g. OpenMP
  /// speedup not modeled because the loop's safety is unproven).
  std::vector<std::string> Warnings;

  // Bytecode.
  std::vector<Op> Ops;
  std::vector<LoopInfo> Loops;
  std::vector<AffRef> AffRefs;
  std::vector<AffDim> AffDims;
  std::vector<int32_t> LoopRefs;
  std::vector<std::string> Messages;
  std::vector<std::pair<int32_t, Val>> ConstInit;
  int32_t NumRegs = 0;
  /// Ledger units per SIMD scale: [0] unscaled, then one per distinct
  /// scale of a vectorized loop.
  std::vector<ScaledCharges> Charges;
  // Lowering state.
  std::map<uint64_t, int32_t> ConstRegs;
  std::vector<bool> IsTemp;
  std::vector<int32_t> FreeTemps;
  int32_t CurLoop = -1;
  std::vector<std::vector<char>> LoopWrites; ///< per loop: slots its body
                                             ///< assigns
  std::vector<std::vector<int32_t>> PendingRefs; ///< per loop, while lowering

  // ---- execution state ----
  std::vector<Val> Regs;
  std::vector<std::vector<double>> DataD;
  std::vector<std::vector<int64_t>> DataI;
  std::vector<double *> PtrD;
  std::vector<int64_t *> PtrI;
  std::vector<RefState> States; ///< per AffRef
  std::unique_ptr<machine::CacheSim> Cache;
  std::vector<Units> IterArith; ///< per iteration of the current region
  std::vector<double> IterCosts;
  double Cycles = 0;
  int L1HitLatency = 4;
  uint64_t Iterations = 0;
  uint64_t ArithOps = 0, MemReads = 0, MemWrites = 0;
  bool Failed = false;
  std::string RunError;

  //===--------------------------------------------------------------------===//
  // Compilation
  //===--------------------------------------------------------------------===//

  void fail(const std::string &Message) {
    if (CompileError.empty())
      CompileError = Message;
  }

  int scalarSlot(const std::string &Name, ElemType Elem, bool Declare) {
    auto It = ScalarSlots.find(Name);
    if (It != ScalarSlots.end())
      return It->second;
    if (!Declare) {
      // Implicitly declared (e.g. a loop variable with no decl): int.
      Elem = ElemType::Int;
    }
    int Slot = static_cast<int>(SlotTypes.size());
    ScalarSlots[Name] = Slot;
    SlotTypes.push_back(Elem);
    return Slot;
  }

  void declareArray(const DeclStmt &D) {
    if (ArrayIds.count(D.Name)) {
      fail("array redeclared: " + D.Name);
      return;
    }
    ArrayInfo Info;
    Info.Name = D.Name;
    Info.Elem = D.Elem;
    Info.Dims = D.Dims;
    Info.Strides.assign(D.Dims.size(), 1);
    int64_t Total = 1;
    for (size_t I = D.Dims.size(); I-- > 0;) {
      Info.Strides[I] = Total;
      Total *= D.Dims[I];
    }
    Info.TotalElems = Total;
    int Id = static_cast<int>(Arrays.size());
    ArrayIds[D.Name] = Id;
    Arrays.push_back(std::move(Info));
  }

  /// Deterministic default contents so checksums are reproducible.
  void buildInitialData() {
    uint64_t Base = 4096;
    InitDouble.resize(Arrays.size());
    InitInt.resize(Arrays.size());
    for (size_t Id = 0; Id < Arrays.size(); ++Id) {
      ArrayInfo &A = Arrays[Id];
      A.Base = Base;
      Base += static_cast<uint64_t>(A.TotalElems) * 8 + 128;
      Base = (Base + 63) & ~63ULL;
      if (A.Elem == ElemType::Double) {
        auto &V = InitDouble[Id];
        V.resize(static_cast<size_t>(A.TotalElems));
        for (size_t I = 0; I < V.size(); ++I)
          V[I] = static_cast<double>((I * 7 + 3) % 1021) / 1021.0;
      } else {
        auto &V = InitInt[Id];
        V.resize(static_cast<size_t>(A.TotalElems));
        for (size_t I = 0; I < V.size(); ++I)
          V[I] = static_cast<int64_t>(I % 13);
      }
    }
    InitScalarD.assign(SlotTypes.size(), 0.0);
    InitScalarI.assign(SlotTypes.size(), 0);
    // Named scalars get stable, nonzero defaults derived from their names so
    // kernels multiplying by alpha/beta do not collapse to zero.
    for (const auto &[Name, Slot] : ScalarSlots) {
      uint64_t H = fnv1a(Name);
      if (SlotTypes[static_cast<size_t>(Slot)] == ElemType::Double)
        InitScalarD[static_cast<size_t>(Slot)] =
            0.5 + static_cast<double>(H % 1000) / 1000.0;
    }
  }

  CE compileExpr(const Expr &E) {
    CE Out;
    switch (E.kind()) {
    case ExprKind::IntLit:
      Out.Kind = EK::ConstI;
      Out.ConstInt = cast<IntLit>(&E)->Value;
      return Out;
    case ExprKind::FloatLit:
      Out.Kind = EK::ConstD;
      Out.ConstDouble = cast<FloatLit>(&E)->Value;
      return Out;
    case ExprKind::VarRef: {
      const std::string &Name = cast<VarRef>(&E)->Name;
      if (ArrayIds.count(Name)) {
        fail("array " + Name + " used without subscripts");
        return Out;
      }
      int Slot = scalarSlot(Name, ElemType::Int, /*Declare=*/false);
      Out.Slot = Slot;
      Out.Kind = SlotTypes[static_cast<size_t>(Slot)] == ElemType::Double
                     ? EK::VarD
                     : EK::VarI;
      return Out;
    }
    case ExprKind::ArrayRef: {
      const auto *A = cast<ArrayRef>(&E);
      auto It = ArrayIds.find(A->Name);
      if (It == ArrayIds.end()) {
        fail("unknown array: " + A->Name);
        return Out;
      }
      const ArrayInfo &Info = Arrays[static_cast<size_t>(It->second)];
      if (A->Indices.size() != Info.Dims.size()) {
        fail("array " + A->Name + " has " + std::to_string(Info.Dims.size()) +
             " dimensions but is subscripted with " +
             std::to_string(A->Indices.size()));
        return Out;
      }
      Out.Kind = Info.Elem == ElemType::Double ? EK::LoadD : EK::LoadI;
      Out.Slot = It->second;
      Out.Ref = A;
      for (const auto &I : A->Indices) {
        CE Idx = compileExpr(*I);
        if (Idx.isDouble()) {
          fail("array subscript of " + A->Name + " has floating type");
          return Out;
        }
        Out.Kids.push_back(std::move(Idx));
      }
      return Out;
    }
    case ExprKind::Unary: {
      const auto *U = cast<UnaryExpr>(&E);
      CE Operand = compileExpr(*U->Operand);
      if (U->Op == UnOp::Not) {
        if (Operand.isDouble()) {
          fail("logical not applied to a floating value");
          return Out;
        }
        Out.Kind = EK::NotI;
      } else {
        Out.Kind = Operand.isDouble() ? EK::NegD : EK::NegI;
      }
      Out.Kids.push_back(std::move(Operand));
      return Out;
    }
    case ExprKind::Binary: {
      const auto *B = cast<BinaryExpr>(&E);
      CE L = compileExpr(*B->Lhs);
      CE R = compileExpr(*B->Rhs);
      bool AnyDouble = L.isDouble() || R.isDouble();
      bool IsCompare = B->Op == BinOp::Lt || B->Op == BinOp::Le ||
                       B->Op == BinOp::Gt || B->Op == BinOp::Ge ||
                       B->Op == BinOp::Eq || B->Op == BinOp::Ne;
      bool IsLogic = B->Op == BinOp::And || B->Op == BinOp::Or;
      if (B->Op == BinOp::Mod && AnyDouble) {
        fail("modulo on floating values");
        return Out;
      }
      if (AnyDouble && !IsLogic) {
        if (!L.isDouble()) {
          CE C;
          C.Kind = EK::CastID;
          C.Kids.push_back(std::move(L));
          L = std::move(C);
        }
        if (!R.isDouble()) {
          CE C;
          C.Kind = EK::CastID;
          C.Kids.push_back(std::move(R));
          R = std::move(C);
        }
        Out.Kind = IsCompare ? EK::CmpD : EK::BinD;
      } else {
        if (IsLogic && (L.isDouble() || R.isDouble())) {
          fail("logical operator on floating values");
          return Out;
        }
        Out.Kind = EK::BinI;
      }
      Out.Op = B->Op;
      Out.Kids.push_back(std::move(L));
      Out.Kids.push_back(std::move(R));
      return Out;
    }
    case ExprKind::Call: {
      const auto *C = cast<CallExpr>(&E);
      if ((C->Callee == "min" || C->Callee == "max") && C->Args.size() == 2) {
        CE L = compileExpr(*C->Args[0]);
        CE R = compileExpr(*C->Args[1]);
        bool AnyDouble = L.isDouble() || R.isDouble();
        if (AnyDouble) {
          if (!L.isDouble()) {
            CE Cast;
            Cast.Kind = EK::CastID;
            Cast.Kids.push_back(std::move(L));
            L = std::move(Cast);
          }
          if (!R.isDouble()) {
            CE Cast;
            Cast.Kind = EK::CastID;
            Cast.Kids.push_back(std::move(R));
            R = std::move(Cast);
          }
        }
        Out.Kind = C->Callee == "min" ? (AnyDouble ? EK::MinD : EK::MinI)
                                      : (AnyDouble ? EK::MaxD : EK::MaxI);
        Out.Kids.push_back(std::move(L));
        Out.Kids.push_back(std::move(R));
        return Out;
      }
      if (C->Callee == "rtclock" && C->Args.empty()) {
        Out.Kind = EK::Rtclock;
        return Out;
      }
      fail("unknown function in expression: " + C->Callee);
      return Out;
    }
    }
    return Out;
  }

  /// Parses OpenMP / vectorization pragmas attached to a loop.
  void compileLoopPragmas(const ForStmt &For, CS &Out) {
    bool Vector = false;
    for (const std::string &P : For.Pragmas) {
      std::string_view Text = trimString(P);
      if (startsWith(Text, "omp parallel for")) {
        Out.Par = Sched::Default;
        size_t SchedPos = Text.find("schedule(");
        if (SchedPos != std::string_view::npos) {
          std::string_view Spec = Text.substr(SchedPos + 9);
          size_t Close = Spec.find(')');
          if (Close != std::string_view::npos)
            Spec = Spec.substr(0, Close);
          std::vector<std::string> Parts = splitString(std::string(Spec), ',');
          std::string Kind(trimString(Parts[0]));
          if (Kind == "dynamic")
            Out.Par = Sched::Dynamic;
          else
            Out.Par = Sched::Static;
          if (Parts.size() > 1)
            Out.Chunk = std::atoi(std::string(trimString(Parts[1])).c_str());
        }
      } else if (startsWith(Text, "ivdep") || startsWith(Text, "vector")) {
        Vector = true;
      }
    }
    if (!Opts.CountCost)
      return;
    // OpenMP schedule model gate: only loops the parallel-safety analyzer
    // proves race-free get modeled speedup. Unproven or racy loops still
    // execute (sequentially, so checksums stay exact) but are costed
    // sequentially with a warning — a racy parallelization must not be
    // rewarded by the model. TrustParallel restores the old behavior.
    if (Out.Par != Sched::None && !Opts.TrustParallel) {
      analysis::ParallelSafetyReport Rep = analysis::analyzeParallelLoop(For);
      if (Rep.Verdict != analysis::ParallelVerdict::Safe) {
        Out.Par = Sched::None;
        Out.Chunk = 0;
        Warnings.push_back("not modeling parallel speedup for loop '" +
                           For.Var + "': " + Rep.summary());
      }
    }
    // SIMD model, mirroring an optimizing compiler (the paper's ICC -O3):
    //  - only innermost loops vectorize;
    //  - a loop with a *proven* carried dependence never vectorizes, even
    //    under ivdep;
    //  - a loop whose independence is proven auto-vectorizes without any
    //    pragma;
    //  - an unanalyzable loop vectorizes only when the programmer asserts
    //    independence with ivdep / vector always.
    bool HasInnerLoop = false;
    forEachStmt(*const_cast<Block *>(For.Body.get()), [&](Stmt &S) {
      if (isa<ForStmt>(&S))
        HasInnerLoop = true;
    });
    if (HasInnerLoop)
      return;
    std::optional<analysis::DependenceInfo> Deps =
        analysis::DependenceInfo::compute(For);
    if (Deps) {
      for (const analysis::Dependence &D : Deps->deps())
        if (D.mayBeCarriedBy(0))
          return; // proven carried dependence: no SIMD
      // Proven independent: auto-vectorize.
    } else if (!Vector) {
      return; // unprovable and no ivdep: the compiler stays scalar
    }
    bool AllUnitStride = true;
    forEachStmt(*const_cast<Block *>(For.Body.get()), [&](Stmt &S) {
      forEachExpr(S, [&](ExprPtr &E) {
        const std::function<void(const Expr &)> Scan = [&](const Expr &Sub) {
          if (const auto *A = dyn_cast<ArrayRef>(&Sub)) {
            for (size_t I = 0; I < A->Indices.size(); ++I) {
              std::optional<analysis::AffineExpr> Aff =
                  analysis::toAffine(*A->Indices[I]);
              int64_t Coeff = Aff ? Aff->coeff(For.Var) : 1;
              if (!Aff && referencesVar(*A->Indices[I], For.Var))
                AllUnitStride = false;
              else if (I + 1 == A->Indices.size()) {
                if (Coeff != 0 && Coeff != 1)
                  AllUnitStride = false;
              } else if (Coeff != 0) {
                AllUnitStride = false;
              }
            }
          } else if (const auto *B = dyn_cast<BinaryExpr>(&Sub)) {
            Scan(*B->Lhs);
            Scan(*B->Rhs);
          } else if (const auto *U = dyn_cast<UnaryExpr>(&Sub)) {
            Scan(*U->Operand);
          } else if (const auto *C = dyn_cast<CallExpr>(&Sub)) {
            for (const auto &Arg : C->Args)
              Scan(*Arg);
          }
        };
        Scan(*E);
      });
    });
    Out.VecScale = simdScale(Opts.Machine, AllUnitStride);
  }

  void compileStmt(const Stmt &S, std::vector<CS> &Out) {
    switch (S.kind()) {
    case StmtKind::Block:
      for (const auto &Sub : cast<Block>(&S)->Stmts)
        compileStmt(*Sub, Out);
      return;
    case StmtKind::Decl: {
      const auto *D = cast<DeclStmt>(&S);
      if (D->isArray()) {
        declareArray(*D);
        return;
      }
      int Slot = scalarSlot(D->Name, D->Elem, /*Declare=*/true);
      if (D->Init) {
        CS A;
        A.Kind = SK::AssignScalar;
        A.Slot = Slot;
        A.Op = AssignOp::Set;
        A.TargetDouble = SlotTypes[static_cast<size_t>(Slot)] == ElemType::Double;
        A.Rhs = compileExpr(*D->Init);
        Out.push_back(std::move(A));
      }
      return;
    }
    case StmtKind::For: {
      const auto *F = cast<ForStmt>(&S);
      CS L;
      L.Kind = SK::For;
      L.Slot = scalarSlot(F->Var, ElemType::Int, /*Declare=*/false);
      if (SlotTypes[static_cast<size_t>(L.Slot)] != ElemType::Int) {
        fail("loop variable " + F->Var + " must be an int");
        return;
      }
      L.Init = compileExpr(*F->Init);
      CE Bound = compileExpr(*F->Bound);
      if (L.Init.isDouble() || Bound.isDouble()) {
        fail("loop bounds of " + F->Var + " must be integers");
        return;
      }
      if (F->Op == BoundOp::Le) {
        CE Plus;
        Plus.Kind = EK::BinI;
        Plus.Op = BinOp::Add;
        Plus.Kids.push_back(std::move(Bound));
        CE One;
        One.Kind = EK::ConstI;
        One.ConstInt = 1;
        Plus.Kids.push_back(std::move(One));
        Bound = std::move(Plus);
      }
      L.BoundExcl = std::move(Bound);
      L.Step = F->Step;
      compileLoopPragmas(*F, L);
      for (const auto &Sub : F->Body->Stmts)
        compileStmt(*Sub, L.Body);
      Out.push_back(std::move(L));
      return;
    }
    case StmtKind::If: {
      const auto *I = cast<IfStmt>(&S);
      CS C;
      C.Kind = SK::If;
      C.Cond = compileExpr(*I->Cond);
      if (C.Cond.isDouble()) {
        CE Cmp;
        Cmp.Kind = EK::CmpD;
        Cmp.Op = BinOp::Ne;
        Cmp.Kids.push_back(std::move(C.Cond));
        CE Zero;
        Zero.Kind = EK::ConstD;
        Cmp.Kids.push_back(std::move(Zero));
        C.Cond = std::move(Cmp);
      }
      for (const auto &Sub : I->Then->Stmts)
        compileStmt(*Sub, C.Body);
      if (I->Else)
        for (const auto &Sub : I->Else->Stmts)
          compileStmt(*Sub, C.Else);
      Out.push_back(std::move(C));
      return;
    }
    case StmtKind::Assign: {
      const auto *A = cast<AssignStmt>(&S);
      CS C;
      C.Op = A->Op;
      C.Rhs = compileExpr(*A->Rhs);
      if (const auto *V = dyn_cast<VarRef>(A->Lhs.get())) {
        C.Kind = SK::AssignScalar;
        // The first assignment of an undeclared scalar fixes its type from
        // the RHS (harness temporaries like t_start).
        bool Known = ScalarSlots.count(V->Name) != 0;
        C.Slot = scalarSlot(
            V->Name, C.Rhs.isDouble() ? ElemType::Double : ElemType::Int,
            /*Declare=*/!Known);
        C.TargetDouble =
            SlotTypes[static_cast<size_t>(C.Slot)] == ElemType::Double;
      } else if (const auto *Arr = dyn_cast<ArrayRef>(A->Lhs.get())) {
        auto It = ArrayIds.find(Arr->Name);
        if (It == ArrayIds.end()) {
          fail("unknown array: " + Arr->Name);
          return;
        }
        const ArrayInfo &Info = Arrays[static_cast<size_t>(It->second)];
        if (Arr->Indices.size() != Info.Dims.size()) {
          fail("array " + Arr->Name + " subscript arity mismatch");
          return;
        }
        C.Kind = SK::AssignArray;
        C.Slot = It->second;
        C.Ref = Arr;
        C.TargetDouble = Info.Elem == ElemType::Double;
        for (const auto &I : Arr->Indices) {
          CE Idx = compileExpr(*I);
          if (Idx.isDouble()) {
            fail("array subscript of " + Arr->Name + " has floating type");
            return;
          }
          C.Indices.push_back(std::move(Idx));
        }
      } else {
        fail("unsupported assignment target");
        return;
      }
      Out.push_back(std::move(C));
      return;
    }
    case StmtKind::CallStmt: {
      const auto *C = cast<CallStmt>(&S);
      const auto *Call = cast<CallExpr>(C->Call.get());
      static const char *Harness[] = {"init_array", "print_array", "printf",
                                      "rtclock", "free"};
      for (const char *H : Harness)
        if (Call->Callee == H)
          return; // no-op
      fail("unknown call statement: " + Call->Callee +
           " (was a placeholder left unexpanded?)");
      return;
    }
    }
  }

  Status compile(const cir::Program &P) {
    Prog = &P;
    std::vector<CS> GlobalInit;
    for (const auto &G : P.Globals) {
      if (G->isArray())
        declareArray(*G);
      else {
        int Slot = scalarSlot(G->Name, G->Elem, /*Declare=*/true);
        if (G->Init) {
          CS A;
          A.Kind = SK::AssignScalar;
          A.Slot = Slot;
          A.Op = AssignOp::Set;
          A.TargetDouble =
              SlotTypes[static_cast<size_t>(Slot)] == ElemType::Double;
          A.Rhs = compileExpr(*G->Init);
          GlobalInit.push_back(std::move(A));
        }
      }
    }
    std::vector<CS> MainBody;
    for (const auto &S : P.Body->Stmts)
      compileStmt(*S, MainBody);
    std::vector<CS> Tree = std::move(GlobalInit);
    for (auto &S : MainBody)
      Tree.push_back(std::move(S));
    if (!CompileError.empty())
      return Status::error(CompileError);
    buildInitialData();
    L1HitLatency =
        Opts.Machine.Levels.empty() ? 0 : Opts.Machine.Levels[0].HitLatency;
    Charges = {scaledCharges(Opts.Machine, 1.0)};
    lower(Tree);
    return Status::success();
  }

  //===--------------------------------------------------------------------===//
  // Lowering to bytecode
  //===--------------------------------------------------------------------===//

  int32_t newReg() {
    IsTemp.push_back(false);
    return NumRegs++;
  }

  int32_t temp() {
    if (!FreeTemps.empty()) {
      int32_t R = FreeTemps.back();
      FreeTemps.pop_back();
      return R;
    }
    int32_t R = newReg();
    IsTemp[static_cast<size_t>(R)] = true;
    return R;
  }

  void release(int32_t R) {
    if (R >= 0 && IsTemp[static_cast<size_t>(R)])
      FreeTemps.push_back(R);
  }

  int32_t constReg(Val V) {
    uint64_t Bits;
    std::memcpy(&Bits, &V, sizeof(Bits));
    auto [It, New] = ConstRegs.try_emplace(Bits, 0);
    if (New) {
      It->second = newReg();
      ConstInit.push_back({It->second, V});
    }
    return It->second;
  }
  int32_t intConst(int64_t X) { return constReg(Val{.I = X}); }
  int32_t dblConst(double X) { return constReg(Val{.D = X}); }

  size_t emit(Opc Code, int32_t Dst = 0, int32_t A = 0, int32_t B = 0,
              int32_t Aux = 0) {
    Ops.push_back(Op{Code, AssignOp::Set, Dst, A, B, Aux});
    return Ops.size() - 1;
  }

  int32_t pc() const { return static_cast<int32_t>(Ops.size()); }

  int32_t scaleId(double Scale) {
    for (size_t I = 0; I < Charges.size(); ++I)
      if (Charges[I].Scale == Scale)
        return static_cast<int32_t>(I);
    Charges.push_back(scaledCharges(Opts.Machine, Scale));
    return static_cast<int32_t>(Charges.size() - 1);
  }

  void emitFail(const std::string &Message) {
    emit(Opc::Fail, 0, 0, 0, static_cast<int32_t>(Messages.size()));
    Messages.push_back(Message);
  }

  /// The integer operations the tree form charges while evaluating \p E.
  static int countIntOps(const CE &E) {
    int N = 0;
    for (const CE &K : E.Kids)
      N += countIntOps(K);
    switch (E.Kind) {
    case EK::BinI:
      return N + (E.Op == BinOp::And || E.Op == BinOp::Or ? 0 : 1);
    case EK::NegI:
    case EK::MinI:
    case EK::MaxI:
      return N + 1;
    default:
      return N;
    }
  }

  /// Fuses the subscripts of \p Src into one affine reference when every
  /// subscript is affine in at most two int scalars; returns its index or
  /// -1.
  int32_t affineRef(int ArrayId, const ArrayRef &Src,
                    const std::vector<CE> &Indices) {
    const ArrayInfo &A = Arrays[static_cast<size_t>(ArrayId)];
    AffRef Ref;
    Ref.Array = ArrayId;
    Ref.Addr = A.Base;
    Ref.NumDims = static_cast<int32_t>(A.Dims.size());
    Ref.FirstDim = static_cast<uint32_t>(AffDims.size());
    std::vector<AffDim> Dims;
    for (size_t I = 0; I < Src.Indices.size(); ++I) {
      std::optional<analysis::AffineExpr> Aff = analysis::toAffine(*Src.Indices[I]);
      if (!Aff || Aff->coeffs().size() > 2)
        return -1;
      AffDim D;
      D.Const = Aff->constant();
      D.Extent = A.Dims[I];
      D.Stride = A.Strides[I];
      D.Reg[0] = D.Reg[1] = intConst(0);
      int T = 0;
      for (const auto &[Name, Coeff] : Aff->coeffs()) {
        auto It = ScalarSlots.find(Name);
        if (It == ScalarSlots.end() ||
            SlotTypes[static_cast<size_t>(It->second)] != ElemType::Int)
          return -1;
        D.Reg[T] = It->second;
        D.Coeff[T++] = Coeff;
      }
      Dims.push_back(D);
      Ref.IntOps += countIntOps(Indices[I]);
    }
    int32_t Id = static_cast<int32_t>(AffRefs.size());
    if (CurLoop >= 0) {
      const LoopInfo &L = Loops[static_cast<size_t>(CurLoop)];
      const std::vector<char> &W = LoopWrites[static_cast<size_t>(CurLoop)];
      bool Invariant = !W[static_cast<size_t>(L.Var)];
      for (const AffDim &D : Dims)
        for (int T = 0; T < 2; ++T) {
          if (D.Coeff[T] == 0)
            continue;
          if (D.Reg[T] == L.Var)
            Ref.LoopStride += static_cast<uint64_t>(D.Coeff[T]) *
                              static_cast<uint64_t>(D.Stride);
          else if (W[static_cast<size_t>(D.Reg[T])])
            Invariant = false;
        }
      if (Invariant) {
        Ref.LoopVar = L.Var;
        PendingRefs[static_cast<size_t>(CurLoop)].push_back(Id);
      }
    }
    AffDims.insert(AffDims.end(), Dims.begin(), Dims.end());
    AffRefs.push_back(Ref);
    return Id;
  }

  static void collectWrites(const std::vector<CS> &Body, std::vector<char> &W) {
    for (const CS &S : Body) {
      if (S.Kind == SK::AssignScalar || S.Kind == SK::For)
        W[static_cast<size_t>(S.Slot)] = 1;
      collectWrites(S.Body, W);
      collectWrites(S.Else, W);
    }
  }

  /// Generic addressing: each subscript's code, then its bounds check.
  int32_t lowerIndex(int ArrayId, const std::vector<CE> &Indices) {
    int32_t Flat = temp();
    for (size_t I = 0; I < Indices.size(); ++I) {
      int32_t R = lowerExpr(Indices[I]);
      emit(I == 0 ? Opc::Idx0 : Opc::IdxN, Flat, R, static_cast<int32_t>(I),
           ArrayId);
      release(R);
    }
    return Flat;
  }

  static Opc intOpcode(BinOp Op) {
    switch (Op) {
    case BinOp::Add: return Opc::AddI;
    case BinOp::Sub: return Opc::SubI;
    case BinOp::Mul: return Opc::MulI;
    case BinOp::Div: return Opc::DivI;
    case BinOp::Mod: return Opc::ModI;
    case BinOp::Lt: return Opc::LtI;
    case BinOp::Le: return Opc::LeI;
    case BinOp::Gt: return Opc::GtI;
    case BinOp::Ge: return Opc::GeI;
    case BinOp::Eq: return Opc::EqI;
    default: return Opc::NeI;
    }
  }

  static Opc dblOpcode(BinOp Op) {
    switch (Op) {
    case BinOp::Add: return Opc::AddD;
    case BinOp::Sub: return Opc::SubD;
    case BinOp::Mul: return Opc::MulD;
    case BinOp::Div: return Opc::DivD;
    case BinOp::Lt: return Opc::LtD;
    case BinOp::Le: return Opc::LeD;
    case BinOp::Gt: return Opc::GtD;
    case BinOp::Ge: return Opc::GeD;
    case BinOp::Eq: return Opc::EqD;
    default: return Opc::NeD;
    }
  }

  /// Emits \p Code over the lowered kids of \p E into \p Dst (a temp when
  /// -1); kids are evaluated left to right, as the tree form did.
  int32_t lowerOp(Opc Code, const CE &E, int32_t Dst) {
    int32_t A = lowerExpr(E.Kids[0]);
    int32_t B = E.Kids.size() > 1 ? lowerExpr(E.Kids[1]) : A;
    release(A);
    if (B != A)
      release(B);
    if (Dst < 0)
      Dst = temp();
    emit(Code, Dst, A, B);
    return Dst;
  }

  /// Lowers \p E; returns the register holding its value. A constant or a
  /// scalar needs no code. \p Dst, when set, receives the value of an
  /// operation (the caller moves it there otherwise).
  int32_t lowerExpr(const CE &E, int32_t Dst = -1) {
    switch (E.Kind) {
    case EK::ConstI:
      return intConst(E.ConstInt);
    case EK::ConstD:
      return dblConst(E.ConstDouble);
    case EK::Rtclock:
      return dblConst(0.0);
    case EK::VarI:
    case EK::VarD:
      return E.Slot;
    case EK::LoadI:
    case EK::LoadD: {
      bool D = E.Kind == EK::LoadD;
      int32_t Ref = affineRef(E.Slot, *E.Ref, E.Kids);
      if (Ref >= 0) {
        if (Dst < 0)
          Dst = temp();
        emit(D ? Opc::LoadAffD : Opc::LoadAffI, Dst, 0, 0, Ref);
        return Dst;
      }
      int32_t Flat = lowerIndex(E.Slot, E.Kids);
      release(Flat);
      if (Dst < 0)
        Dst = temp();
      emit(D ? Opc::LoadD : Opc::LoadI, Dst, Flat, 0, E.Slot);
      return Dst;
    }
    case EK::BinI:
      if (E.Op == BinOp::And || E.Op == BinOp::Or) {
        // Short circuit: the right operand runs only when the left one
        // does not decide the result.
        int32_t L = lowerExpr(E.Kids[0]);
        release(L);
        int32_t Out = temp();
        size_t Jump = emit(E.Op == BinOp::And ? Opc::AndJ : Opc::OrJ, Out, L);
        int32_t R = lowerExpr(E.Kids[1]);
        emit(Opc::Bool, Out, R);
        release(R);
        Ops[Jump].Aux = pc();
        return Out;
      }
      return lowerOp(intOpcode(E.Op), E, Dst);
    case EK::BinD:
      if (E.Kids[1].Kind == EK::LoadD) {
        // Fused load: an affine right operand is read by the operation.
        int32_t Ref = affineRef(E.Kids[1].Slot, *E.Kids[1].Ref, E.Kids[1].Kids);
        if (Ref >= 0) {
          int32_t A = lowerExpr(E.Kids[0]);
          release(A);
          if (Dst < 0)
            Dst = temp();
          Opc Code = E.Op == BinOp::Add   ? Opc::AddDM
                     : E.Op == BinOp::Sub ? Opc::SubDM
                     : E.Op == BinOp::Mul ? Opc::MulDM
                                          : Opc::DivDM;
          emit(Code, Dst, A, 0, Ref);
          return Dst;
        }
      }
      return lowerOp(dblOpcode(E.Op), E, Dst);
    case EK::CmpD:
      return lowerOp(dblOpcode(E.Op), E, Dst);
    case EK::NegI:
      return lowerOp(Opc::NegI, E, Dst);
    case EK::NegD:
      return lowerOp(Opc::NegD, E, Dst);
    case EK::NotI:
      return lowerOp(Opc::NotI, E, Dst);
    case EK::CastID:
      return lowerOp(Opc::CastID, E, Dst);
    case EK::MinI:
      return lowerOp(Opc::MinI, E, Dst);
    case EK::MaxI:
      return lowerOp(Opc::MaxI, E, Dst);
    case EK::MinD:
      return lowerOp(Opc::MinD, E, Dst);
    case EK::MaxD:
      return lowerOp(Opc::MaxD, E, Dst);
    }
    return 0;
  }

  /// Lowers \p E in a double context (an int value converts).
  int32_t lowerDouble(const CE &E, int32_t Dst = -1) {
    if (E.isDouble())
      return lowerExpr(E, Dst);
    int32_t R = lowerExpr(E);
    release(R);
    if (Dst < 0)
      Dst = temp();
    emit(Opc::CastID, Dst, R);
    return Dst;
  }

  void lowerBlock(const std::vector<CS> &Stmts, bool InParallel) {
    for (const CS &S : Stmts)
      lowerStmt(S, InParallel);
  }

  void lowerStmt(const CS &S, bool InParallel) {
    switch (S.Kind) {
    case SK::If: {
      int32_t C = lowerExpr(S.Cond);
      release(C);
      size_t ToElse = emit(Opc::JumpIfZero, 0, C);
      lowerBlock(S.Body, InParallel);
      if (S.Else.empty()) {
        Ops[ToElse].Aux = pc();
        return;
      }
      size_t ToEnd = emit(Opc::Jump);
      Ops[ToElse].Aux = pc();
      lowerBlock(S.Else, InParallel);
      Ops[ToEnd].Aux = pc();
      return;
    }
    case SK::AssignScalar: {
      bool D = S.TargetDouble;
      if (!D && S.Rhs.isDouble()) {
        emitFail("assigning a floating value to int scalar");
        return;
      }
      if (S.Op == AssignOp::Set) {
        int32_t R = D ? lowerDouble(S.Rhs, S.Slot) : lowerExpr(S.Rhs, S.Slot);
        if (R != S.Slot)
          emit(Opc::Mov, S.Slot, R);
        release(R);
        return;
      }
      // Compound: one charged operation on the slot itself.
      int32_t R = D ? lowerDouble(S.Rhs) : lowerExpr(S.Rhs);
      release(R);
      Opc Code = S.Op == AssignOp::Add ? (D ? Opc::AddD : Opc::AddI)
                 : S.Op == AssignOp::Sub ? (D ? Opc::SubD : Opc::SubI)
                                         : (D ? Opc::MulD : Opc::MulI);
      emit(Code, S.Slot, S.Slot, R);
      return;
    }
    case SK::AssignArray: {
      // The target is addressed (and bounds-checked) before the right-hand
      // side runs, as the tree form did.
      bool D = S.TargetDouble;
      int32_t Ref = affineRef(S.Slot, *S.Ref, S.Indices);
      int32_t Flat;
      if (Ref >= 0) {
        Flat = temp();
        emit(Opc::AffIdx, Flat, 0, 0, Ref);
      } else {
        Flat = lowerIndex(S.Slot, S.Indices);
      }
      if (!D && S.Rhs.isDouble()) {
        emitFail("assigning a floating value to int array");
      } else {
        int32_t R = D ? lowerDouble(S.Rhs) : lowerExpr(S.Rhs);
        size_t Store = emit(D ? Opc::StoreD : Opc::StoreI, 0, Flat, R, S.Slot);
        Ops[Store].Assign = S.Op;
        release(R);
      }
      release(Flat);
      return;
    }
    case SK::For: {
      LoopInfo L;
      L.Var = S.Slot;
      L.Cur = newReg();
      L.End = newReg();
      L.Step = S.Step;
      L.Parallel = S.Par != Sched::None && Opts.CountCost && !InParallel;
      L.Par = S.Par;
      L.Chunk = S.Chunk;
      bool Vector = S.VecScale < 1.0 && Opts.CountCost;
      if (Vector)
        L.ScaleId = scaleId(S.VecScale);
      int32_t Lo = lowerExpr(S.Init);
      int32_t Hi = lowerExpr(S.BoundExcl);
      release(Lo);
      release(Hi);
      int32_t Id = static_cast<int32_t>(Loops.size());
      Loops.push_back(L);
      LoopWrites.emplace_back(SlotTypes.size(), 0);
      collectWrites(S.Body, LoopWrites.back());
      PendingRefs.emplace_back();
      if (Vector)
        emit(Opc::VecEnter, 0, 0, 0, Id);
      if (L.Parallel)
        emit(Opc::ParEnter, 0, 0, 0, Id);
      emit(Opc::ForInit, 0, Lo, Hi, Id);
      int32_t Body = pc();
      int32_t Outer = CurLoop;
      CurLoop = Id;
      lowerBlock(S.Body, InParallel || L.Parallel);
      CurLoop = Outer;
      emit(Opc::ForNext, 0, 0, 0, Id);
      LoopInfo &Done = Loops[static_cast<size_t>(Id)];
      Done.Body = Body;
      Done.Exit = pc();
      std::vector<int32_t> &Refs = PendingRefs[static_cast<size_t>(Id)];
      Done.FirstRef = static_cast<uint32_t>(LoopRefs.size());
      Done.NumRefs = static_cast<uint32_t>(Refs.size());
      LoopRefs.insert(LoopRefs.end(), Refs.begin(), Refs.end());
      if (Vector)
        emit(Opc::VecExit, 0, 0, 0, Id);
      if (L.Parallel)
        emit(Opc::ParExit, 0, 0, 0, Id);
      return;
    }
    }
  }

  /// Lowers the compiled tree to bytecode. Registers: the scalar slots
  /// first, then constants, loop state and expression temporaries.
  void lower(const std::vector<CS> &Tree) {
    NumRegs = 0;
    for (size_t I = 0; I < SlotTypes.size(); ++I)
      newReg();
    lowerBlock(Tree, /*InParallel=*/false);
    emit(Opc::Halt);
  }

  //===--------------------------------------------------------------------===//
  // Execution
  //===--------------------------------------------------------------------===//

  static std::string boundsMessage(const ArrayInfo &A, size_t Dim, int64_t Idx) {
    return "index " + std::to_string(Idx) + " out of bounds for " + A.Name +
           " dim " + std::to_string(Dim) + " (size " +
           std::to_string(A.Dims[Dim]) + ")";
  }

  static int64_t dimIndex(const AffDim &D, const Val *R) {
    uint64_t Idx = static_cast<uint64_t>(D.Const) +
                   static_cast<uint64_t>(D.Coeff[0]) *
                       static_cast<uint64_t>(R[D.Reg[0]].I) +
                   static_cast<uint64_t>(D.Coeff[1]) *
                       static_cast<uint64_t>(R[D.Reg[1]].I);
    return static_cast<int64_t>(Idx);
  }

  /// The flat index of an affine reference; false when a subscript is out
  /// of bounds (affineError names the first such subscript).
  [[gnu::always_inline]] bool affineIndex(const AffRef &Ref, const Val *R,
                                          int64_t &Flat) const {
    const AffDim *D = &AffDims[Ref.FirstDim];
    int64_t F = 0;
    for (int32_t K = 0; K < Ref.NumDims; ++K) {
      int64_t Idx = dimIndex(D[K], R);
      if (static_cast<uint64_t>(Idx) >= static_cast<uint64_t>(D[K].Extent))
        return false;
      F += Idx * D[K].Stride; // in bounds: no overflow
    }
    Flat = F;
    return true;
  }

  /// The bounds error of the first out-of-bounds subscript of \p Ref.
  std::string affineError(const AffRef &Ref, const Val *R) const {
    const AffDim *D = &AffDims[Ref.FirstDim];
    for (int32_t K = 0; K < Ref.NumDims; ++K) {
      int64_t Idx = dimIndex(D[K], R);
      if (Idx < 0 || Idx >= D[K].Extent)
        return boundsMessage(Arrays[static_cast<size_t>(Ref.Array)],
                             static_cast<size_t>(K), Idx);
    }
    return std::string();
  }

  /// On entry to loop \p L, iterating from \p Lo below \p Hi: for each of
  /// its affine references, the flat index at LoopVar = 0 and whether every
  /// iteration stays in bounds. Each subscript is affine in the loop
  /// variable with the other scalars fixed, so checking the first and last
  /// iteration covers them all. The check runs in 128 bits, so no
  /// subscript that would overflow is taken as proven.
  void proveBounds(const LoopInfo &L, int64_t Lo, int64_t Hi) {
    using Wide = __int128;
    const Val *R = Regs.data();
    bool Finite = L.Step > 0;
    Wide Last = Finite ? Lo + (Wide(Hi) - 1 - Lo) / L.Step * L.Step : Lo;
    for (uint32_t I = L.FirstRef; I < L.FirstRef + L.NumRefs; ++I) {
      size_t Id = static_cast<size_t>(LoopRefs[I]);
      const AffRef &Ref = AffRefs[Id];
      const AffDim *D = &AffDims[Ref.FirstDim];
      uint64_t Base = 0;
      bool Safe = Finite;
      for (int32_t K = 0; K < Ref.NumDims; ++K) {
        Wide Fixed = D[K].Const, Coeff = 0;
        for (int T = 0; T < 2; ++T) {
          if (D[K].Reg[T] == L.Var)
            Coeff += D[K].Coeff[T];
          else
            Fixed += Wide(D[K].Coeff[T]) * R[D[K].Reg[T]].I;
        }
        Wide First = Fixed + Coeff * Lo, End = Fixed + Coeff * Last;
        if (First < 0 || First >= D[K].Extent || End < 0 || End >= D[K].Extent)
          Safe = false;
        Base += static_cast<uint64_t>(Fixed) * static_cast<uint64_t>(D[K].Stride);
      }
      States[Id] = RefState{Base, Safe};
    }
  }

  /// Runs the bytecode: the producer of \p Stream when cost accounting is
  /// compiled in. Every charge that is not a memory access goes to the
  /// local ledger; accesses and the events the consumer needs go to the
  /// stream. Returns the producer's share of the ledger.
  template <bool Cost> Units exec(AccessStream *Stream) {
    Val *R = Regs.data();
    const Op *Code = Ops.data();
    uint64_t Iters = 0, Arith = 0, IntOps = 0, Reads = 0, Writes = 0;
    // The hot loop only counts operations and iterations; settle() turns
    // the counts since the last settlement into units at the current
    // scale. Integer sums do not depend on grouping, so this is the sum of
    // the charges one by one.
    Units Cyc = 0;
    const ScaledCharges *Sc = Charges.data();
    uint64_t ArithAt = 0, IntOpsAt = 0, ItersAt = 0;
    auto settle = [&] {
      Cyc += static_cast<Units>(Arith - ArithAt) * Sc->Arith +
             static_cast<Units>(IntOps - IntOpsAt) * Sc->IntArith +
             static_cast<Units>(Iters - ItersAt) * Sc->Loop;
      ArithAt = Arith;
      IntOpsAt = IntOps;
      ItersAt = Iters;
    };
    Units ParStart = 0, Mark = 0;
    const uint64_t MaxIters = Opts.MaxIterations;
    uint64_t *Out = nullptr, *Limit = nullptr;
    bool Streaming = false;
    if constexpr (Cost) {
      Out = Stream->begin();
      Limit = Stream->limit();
      Streaming = Stream->streaming();
    }

    // Appends a word to the stream and passes the buffer on when it is full.
    // (A lambda here would keep Out behind its closure, in memory.)
#define LOCUS_PUSH(WORD)                                                       \
  do {                                                                         \
    storeWord(Out++, (WORD), Streaming);                                       \
    if (Out >= Limit) [[unlikely]] {                                           \
      Out = Stream->flush(Out, Reads + Writes);                                \
      Limit = Stream->limit();                                                 \
      Streaming = Stream->streaming();                                         \
    }                                                                          \
  } while (0)
    auto memory = [&](uint64_t Base, int64_t Flat,
                      bool IsWrite) __attribute__((always_inline)) {
      ++(IsWrite ? Writes : Reads);
      if constexpr (Cost)
        LOCUS_PUSH(Base + static_cast<uint64_t>(Flat) * 8);
    };
    auto base = [&](int32_t ArrayId) {
      return Arrays[static_cast<size_t>(ArrayId)].Base;
    };
    auto chargeI = [&] { ++IntOps; };
    auto chargeD = [&] { ++Arith; };
    // An affine load: its subscripts' integer operations, then the read.
    auto loadAff = [&](auto &Ptrs, const AffRef &Ref,
                       int64_t Flat) __attribute__((always_inline)) {
      IntOps += static_cast<uint64_t>(Ref.IntOps);
      memory(Ref.Addr, Flat, /*IsWrite=*/false);
      return Ptrs[static_cast<size_t>(Ref.Array)][Flat];
    };
    // Compound assignment reads the element first: one read and one
    // charged operation before the write.
    auto storeElem = [&](int32_t ArrayId, int64_t Flat, auto &Ptrs, auto V,
                         AssignOp Assign) __attribute__((always_inline)) {
      auto &Elem = Ptrs[static_cast<size_t>(ArrayId)][Flat];
      if (Assign != AssignOp::Set) {
        memory(base(ArrayId), Flat, /*IsWrite=*/false);
        if constexpr (std::is_same_v<decltype(V), double>)
          chargeD();
        else
          chargeI();
      }
      switch (Assign) {
      case AssignOp::Set:
        Elem = V;
        break;
      case AssignOp::Add:
        Elem += V;
        break;
      case AssignOp::Sub:
        Elem -= V;
        break;
      case AssignOp::Mul:
        Elem *= V;
        break;
      }
      memory(base(ArrayId), Flat, /*IsWrite=*/true);
    };

    size_t Pc = 0;
    std::string Error;
    for (;;) {
      const Op &O = Code[Pc++];
      switch (O.Code) {
      case Opc::Halt:
        goto Done;
      case Opc::Fail:
        Error = Messages[static_cast<size_t>(O.Aux)];
        goto Failure;
      case Opc::Mov:
        R[O.Dst] = R[O.A];
        break;
      case Opc::CastID:
        R[O.Dst].D = static_cast<double>(R[O.A].I);
        break;

#define LOCUS_INT_OP(NAME, EXPR)                                               \
  case Opc::NAME: {                                                            \
    int64_t L = R[O.A].I, Rv = R[O.B].I;                                       \
    (void)Rv;                                                                  \
    chargeI();                                                                 \
    R[O.Dst].I = (EXPR);                                                       \
    break;                                                                     \
  }
        LOCUS_INT_OP(AddI, L + Rv)
        LOCUS_INT_OP(SubI, L - Rv)
        LOCUS_INT_OP(MulI, L * Rv)
        LOCUS_INT_OP(LtI, L < Rv)
        LOCUS_INT_OP(LeI, L <= Rv)
        LOCUS_INT_OP(GtI, L > Rv)
        LOCUS_INT_OP(GeI, L >= Rv)
        LOCUS_INT_OP(EqI, L == Rv)
        LOCUS_INT_OP(NeI, L != Rv)
        LOCUS_INT_OP(NegI, -L)
        LOCUS_INT_OP(MinI, std::min(L, Rv))
        LOCUS_INT_OP(MaxI, std::max(L, Rv))
#undef LOCUS_INT_OP
      case Opc::DivI:
      case Opc::ModI: {
        int64_t L = R[O.A].I, Rv = R[O.B].I;
        chargeI();
        if (Rv == 0) {
          Error = O.Code == Opc::DivI ? "integer division by zero"
                                      : "integer modulo by zero";
          goto Failure;
        }
        R[O.Dst].I = O.Code == Opc::DivI ? L / Rv : L % Rv;
        break;
      }

#define LOCUS_DBL_OP(NAME, FIELD, EXPR)                                        \
  case Opc::NAME: {                                                            \
    double L = R[O.A].D, Rv = R[O.B].D;                                        \
    (void)Rv;                                                                  \
    chargeD();                                                                 \
    R[O.Dst].FIELD = (EXPR);                                                   \
    break;                                                                     \
  }
        LOCUS_DBL_OP(AddD, D, L + Rv)
        LOCUS_DBL_OP(SubD, D, L - Rv)
        LOCUS_DBL_OP(MulD, D, L * Rv)
        LOCUS_DBL_OP(DivD, D, L / Rv)
        LOCUS_DBL_OP(NegD, D, -L)
        LOCUS_DBL_OP(MinD, D, std::min(L, Rv))
        LOCUS_DBL_OP(MaxD, D, std::max(L, Rv))
        LOCUS_DBL_OP(LtD, I, L < Rv)
        LOCUS_DBL_OP(LeD, I, L <= Rv)
        LOCUS_DBL_OP(GtD, I, L > Rv)
        LOCUS_DBL_OP(GeD, I, L >= Rv)
        LOCUS_DBL_OP(EqD, I, L == Rv)
        LOCUS_DBL_OP(NeD, I, L != Rv)
#undef LOCUS_DBL_OP

      case Opc::AndJ:
        if (R[O.A].I == 0) {
          R[O.Dst].I = 0;
          Pc = static_cast<size_t>(O.Aux);
        }
        break;
      case Opc::OrJ:
        if (R[O.A].I != 0) {
          R[O.Dst].I = 1;
          Pc = static_cast<size_t>(O.Aux);
        }
        break;
      case Opc::Bool:
        R[O.Dst].I = R[O.A].I != 0;
        break;
      case Opc::NotI:
        R[O.Dst].I = R[O.A].I == 0;
        break;

      case Opc::Idx0:
      case Opc::IdxN: {
        const ArrayInfo &A = Arrays[static_cast<size_t>(O.Aux)];
        size_t Dim = static_cast<size_t>(O.B);
        int64_t Idx = R[O.A].I;
        if (Idx < 0 || Idx >= A.Dims[Dim]) {
          Error = boundsMessage(A, Dim, Idx);
          goto Failure;
        }
        int64_t Part = Idx * A.Strides[Dim];
        R[O.Dst].I = O.Code == Opc::Idx0 ? Part : R[O.Dst].I + Part;
        break;
      }
      case Opc::LoadD:
        memory(base(O.Aux), R[O.A].I, /*IsWrite=*/false);
        R[O.Dst].D = PtrD[static_cast<size_t>(O.Aux)][R[O.A].I];
        break;
      case Opc::LoadI:
        memory(base(O.Aux), R[O.A].I, /*IsWrite=*/false);
        R[O.Dst].I = PtrI[static_cast<size_t>(O.Aux)][R[O.A].I];
        break;
      case Opc::StoreD:
        storeElem(O.Aux, R[O.A].I, PtrD, R[O.B].D, O.Assign);
        break;
      case Opc::StoreI:
        storeElem(O.Aux, R[O.A].I, PtrI, R[O.B].I, O.Assign);
        break;

#define LOCUS_AFFINE_FLAT                                                      \
  const AffRef &Ref = AffRefs[static_cast<size_t>(O.Aux)];                     \
  const RefState &St = States[static_cast<size_t>(O.Aux)];                     \
  int64_t Flat;                                                                \
  if (St.Safe) {                                                               \
    Flat = static_cast<int64_t>(                                               \
        St.Base + Ref.LoopStride * static_cast<uint64_t>(R[Ref.LoopVar].I));   \
  } else if (!affineIndex(Ref, R, Flat)) {                                     \
    Error = affineError(Ref, R);                                               \
    goto Failure;                                                              \
  }
      case Opc::AffIdx: {
        LOCUS_AFFINE_FLAT
        IntOps += static_cast<uint64_t>(Ref.IntOps);
        R[O.Dst].I = Flat;
        break;
      }
      case Opc::LoadAffD: {
        LOCUS_AFFINE_FLAT
        R[O.Dst].D = loadAff(PtrD, Ref, Flat);
        break;
      }
      case Opc::LoadAffI: {
        LOCUS_AFFINE_FLAT
        R[O.Dst].I = loadAff(PtrI, Ref, Flat);
        break;
      }
#define LOCUS_DBL_MEM_OP(NAME, OP)                                             \
  case Opc::NAME: {                                                            \
    LOCUS_AFFINE_FLAT                                                          \
    double Rv = loadAff(PtrD, Ref, Flat);                                      \
    chargeD();                                                                 \
    R[O.Dst].D = R[O.A].D OP Rv;                                               \
    break;                                                                     \
  }
        LOCUS_DBL_MEM_OP(AddDM, +)
        LOCUS_DBL_MEM_OP(SubDM, -)
        LOCUS_DBL_MEM_OP(MulDM, *)
        LOCUS_DBL_MEM_OP(DivDM, /)
#undef LOCUS_DBL_MEM_OP
#undef LOCUS_AFFINE_FLAT

      case Opc::Jump:
        Pc = static_cast<size_t>(O.Aux);
        break;
      case Opc::JumpIfZero:
        if (R[O.A].I == 0)
          Pc = static_cast<size_t>(O.Aux);
        break;
      case Opc::ForInit:
      case Opc::ForNext: {
        const LoopInfo &L = Loops[static_cast<size_t>(O.Aux)];
        int64_t V;
        if (O.Code == Opc::ForInit) {
          V = R[O.A].I;
          R[L.End].I = R[O.B].I;
          if (L.NumRefs && V < R[L.End].I)
            proveBounds(L, V, R[L.End].I);
        } else {
          if constexpr (Cost) {
            if (L.Parallel) {
              settle();
              IterArith.push_back(Cyc - Mark);
              LOCUS_PUSH(EvMark);
            }
          }
          V = R[L.Cur].I + L.Step;
        }
        if (!(V < R[L.End].I)) {
          Pc = static_cast<size_t>(L.Exit);
          break;
        }
        R[L.Cur].I = V;
        R[L.Var].I = V;
        if constexpr (Cost) {
          if (L.Parallel) {
            settle();
            Mark = Cyc;
          }
        }
        if (++Iters > MaxIters) {
          // Counted, but its overhead is not charged.
          ++ItersAt;
          Error = "iteration budget exceeded";
          goto Failure;
        }
        Pc = static_cast<size_t>(L.Body);
        break;
      }
      // Vector and parallel loops exist only when cost is counted, and
      // only innermost loops vectorize, so scales never nest.
      case Opc::VecEnter:
      case Opc::VecExit:
        if constexpr (Cost) {
          int32_t Id = O.Code == Opc::VecEnter
                           ? Loops[static_cast<size_t>(O.Aux)].ScaleId
                           : 0;
          settle();
          Sc = &Charges[static_cast<size_t>(Id)];
          LOCUS_PUSH(EvScale | static_cast<uint32_t>(Id));
        }
        break;
      // A region costs what its schedule makes of its iterations: each the
      // arithmetic charged here plus the memory the consumer charged
      // between its marks.
      case Opc::ParEnter:
        if constexpr (Cost) {
          settle();
          ParStart = Cyc;
          IterArith.clear();
          LOCUS_PUSH(EvEnter);
        }
        break;
      case Opc::ParExit:
        if constexpr (Cost) {
          LOCUS_PUSH(EvExit);
          settle();
          Out = Stream->sync(Out);
          Limit = Stream->limit();
          const LoopInfo &L = Loops[static_cast<size_t>(O.Aux)];
          IterCosts.resize(IterArith.size());
          for (size_t I = 0; I < IterArith.size(); ++I)
            IterCosts[I] = toCycles(IterArith[I] + Stream->iterationMemory(I));
          Cyc = ParStart +
                ledgerUnits(scheduleTime(Opts.Machine, IterCosts, L.Par,
                                         L.Chunk) +
                            Opts.Machine.ParallelSpawnOverhead);
        }
        break;
      }
    }
#undef LOCUS_PUSH
  Failure:
    Failed = true;
    RunError = std::move(Error);
  Done:
    if constexpr (Cost) {
      settle();
      Stream->finish(Out);
    }
    Iterations = Iters;
    ArithOps = Arith;
    MemReads = Reads;
    MemWrites = Writes;
    return Cyc;
  }

  /// \p Sim, created for \p M or reset.
  static machine::CacheSim *simulator(std::unique_ptr<machine::CacheSim> &Sim,
                                      const machine::MachineConfig &M) {
    if (Sim)
      Sim->reset();
    else
      Sim = std::make_unique<machine::CacheSim>(M);
    return Sim.get();
  }

  RunResult run() {
    BusyScope Busy;
    // Reset state.
    Regs.assign(static_cast<size_t>(NumRegs), Val{.I = 0});
    for (size_t S = 0; S < SlotTypes.size(); ++S) {
      if (SlotTypes[S] == ElemType::Double)
        Regs[S].D = InitScalarD[S];
      else
        Regs[S].I = InitScalarI[S];
    }
    for (const auto &[Reg, V] : ConstInit)
      Regs[static_cast<size_t>(Reg)] = V;
    States.assign(AffRefs.size(), RefState{});
    DataD = InitDouble;
    DataI = InitInt;
    PtrD.assign(Arrays.size(), nullptr);
    PtrI.assign(Arrays.size(), nullptr);
    for (size_t Id = 0; Id < Arrays.size(); ++Id) {
      PtrD[Id] = DataD[Id].data();
      PtrI[Id] = DataI[Id].data();
    }
    Cycles = 0;
    Iterations = ArithOps = MemReads = MemWrites = 0;
    Failed = false;
    RunError.clear();
    std::vector<machine::CacheLevelStats> Stats;
    if (Opts.CountCost) {
      MemoryLedger Mem;
      Mem.Sim = simulator(Cache, Opts.Machine);
      Mem.L1Latency = L1HitLatency;
      Mem.Charges = Mem.Scale = Charges.data();
      AccessStream Stream(Mem);
      Units Producer = exec<true>(&Stream);
      Cycles = toCycles(Producer + Stream.total());
      Stats = Cache->stats();
    } else {
      exec<false>(nullptr);
    }

    RunResult R;
    R.Ok = !Failed;
    R.Error = RunError;
    R.Cycles = Cycles;
    R.ArithOps = ArithOps;
    R.MemReads = MemReads;
    R.MemWrites = MemWrites;
    R.LoopIterations = Iterations;
    R.Cache = std::move(Stats);
    double Sum = 0;
    for (const auto &V : DataD)
      for (double X : V)
        Sum += X;
    for (const auto &V : DataI)
      for (int64_t X : V)
        Sum += static_cast<double>(X);
    R.Checksum = Sum;
    R.Warnings = Warnings;
    return R;
  }
};

} // namespace detail

//===----------------------------------------------------------------------===//
// Public interface
//===----------------------------------------------------------------------===//

ProgramEvaluator::ProgramEvaluator(const cir::Program &P, EvalOptions Opts)
    : Prog(P), Opts(std::move(Opts)) {}

ProgramEvaluator::~ProgramEvaluator() = default;

Status ProgramEvaluator::prepare() {
  Compiled = std::make_unique<detail::CompiledProgram>();
  Compiled->Opts = Opts;
  return Compiled->compile(Prog);
}

Status ProgramEvaluator::setDoubleArray(const std::string &Name,
                                        std::vector<double> Values) {
  assert(Compiled && "prepare() must run first");
  auto It = Compiled->ArrayIds.find(Name);
  if (It == Compiled->ArrayIds.end())
    return Status::error("unknown array: " + Name);
  auto &Init = Compiled->InitDouble[static_cast<size_t>(It->second)];
  if (Values.size() != Init.size())
    return Status::error("size mismatch for array " + Name);
  Init = std::move(Values);
  return Status::success();
}

Status ProgramEvaluator::setIntArray(const std::string &Name,
                                     std::vector<int64_t> Values) {
  assert(Compiled && "prepare() must run first");
  auto It = Compiled->ArrayIds.find(Name);
  if (It == Compiled->ArrayIds.end())
    return Status::error("unknown array: " + Name);
  auto &Init = Compiled->InitInt[static_cast<size_t>(It->second)];
  if (Values.size() != Init.size())
    return Status::error("size mismatch for array " + Name);
  Init = std::move(Values);
  return Status::success();
}

Status ProgramEvaluator::setScalar(const std::string &Name, double Value) {
  assert(Compiled && "prepare() must run first");
  auto It = Compiled->ScalarSlots.find(Name);
  if (It == Compiled->ScalarSlots.end())
    return Status::error("unknown scalar: " + Name);
  size_t Slot = static_cast<size_t>(It->second);
  if (Compiled->SlotTypes[Slot] == cir::ElemType::Double)
    Compiled->InitScalarD[Slot] = Value;
  else
    Compiled->InitScalarI[Slot] = static_cast<int64_t>(Value);
  return Status::success();
}

RunResult ProgramEvaluator::run() {
  assert(Compiled && "prepare() must run first");
  return Compiled->run();
}

Expected<std::vector<double>>
ProgramEvaluator::doubleArray(const std::string &Name) const {
  assert(Compiled && "prepare() must run first");
  auto It = Compiled->ArrayIds.find(Name);
  if (It == Compiled->ArrayIds.end())
    return Expected<std::vector<double>>::error("unknown array: " + Name);
  size_t Id = static_cast<size_t>(It->second);
  if (Id >= Compiled->DataD.size() || Compiled->DataD[Id].empty())
    return Expected<std::vector<double>>::error(Name + " is not a double array");
  return Compiled->DataD[Id];
}

RunResult evaluateProgram(const cir::Program &P, const EvalOptions &Opts) {
  ProgramEvaluator Eval(P, Opts);
  Status S = Eval.prepare();
  if (!S.ok()) {
    RunResult R;
    R.Error = S.message();
    return R;
  }
  return Eval.run();
}

} // namespace eval
} // namespace locus
