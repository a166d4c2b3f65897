//===- CacheSim.h - Multi-level cache simulator -----------------*- C++ -*-===//
///
/// \file
/// A set-associative, LRU, multi-level cache hierarchy simulator. This is
/// the performance substrate that replaces the paper's Xeon testbed: the
/// evaluator feeds it every array access of a program variant, and the
/// returned latencies make locality transformations (tiling, interchange,
/// layout selection) measurably change a variant's cost, which is what the
/// empirical search needs.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_MACHINE_CACHESIM_H
#define LOCUS_MACHINE_CACHESIM_H

#include <cstdint>
#include <string>
#include <vector>

namespace locus {
namespace machine {

/// Configuration of one cache level.
struct CacheLevelConfig {
  std::string Name;
  uint64_t SizeBytes = 32 * 1024;
  int Assoc = 8;
  int LineBytes = 64;
  int HitLatency = 4; ///< cycles
};

/// Whole-machine description.
struct MachineConfig {
  std::vector<CacheLevelConfig> Levels;
  int MemLatency = 200;          ///< cycles for a miss in the last level
  int Cores = 10;                ///< physical cores available to OpenMP
  int VectorWidthDoubles = 4;    ///< AVX2: 4 doubles
  double ArithCost = 1.0;        ///< cycles per scalar arithmetic op
  double LoopOverhead = 2.0;     ///< cycles per loop iteration (inc+branch)
  double ParallelSpawnOverhead = 3000.0; ///< cycles to fork/join a region
  double DynamicChunkOverhead = 150.0;   ///< cycles to grab one dynamic chunk

  /// The evaluation machine of the paper: 10-core Xeon E5-2660 v3
  /// (32 KB L1d, 256 KB L2 private, 25 MB L3 shared).
  static MachineConfig xeonE5v3();

  /// The Xeon with caches scaled down by \p Factor. Benchmarks use this to
  /// run the paper's experiments on reduced problem sizes while keeping the
  /// same cache-pressure regime (working set : cache ratio).
  static MachineConfig xeonE5v3Scaled(int Factor);

  /// A small machine for fast unit tests (tiny caches so locality effects
  /// show up at tiny problem sizes).
  static MachineConfig tiny();
};

/// Per-level hit/miss counters.
struct CacheLevelStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
};

/// The cache hierarchy. Levels are checked in order; a miss in level i
/// consults level i+1; a miss everywhere costs MemLatency. All levels are
/// filled on the way back (inclusive hierarchy).
class CacheSim {
public:
  explicit CacheSim(const MachineConfig &Config);

  // The L1 fast path keeps pointers into the level arrays.
  CacheSim(const CacheSim &) = delete;
  CacheSim &operator=(const CacheSim &) = delete;

  /// Simulates one access; returns its latency in cycles. Inline: the
  /// evaluator calls it for every simulated load and store.
  [[gnu::always_inline]] int access(uint64_t Address, bool IsWrite) {
    (void)IsWrite; // write-allocate, write-back: same path as reads
    ++Clock;
    uint64_t Line = Address >> L1Shift;
    // Same L1 line as the previous access: every access leaves its line in
    // L1, so this is an L1 hit on the way that access left.
    if (Line == LastLine && HaveLast) {
      L1Stamps[LastWay] = Clock;
      ++Stats[0].Hits;
      return L1Latency;
    }
    // An L1 hit on the way its set touched last.
    if (L1Tags) {
      uint64_t Set = Line & L1SetMask;
      uint64_t Idx = Set * L1Assoc + L1Mru[Set];
      if (L1Tags[Idx] == Line + 1) {
        L1Stamps[Idx] = Clock;
        ++Stats[0].Hits;
        HaveLast = true;
        LastLine = Line;
        LastWay = Idx;
        return L1Latency;
      }
    }
    return accessLevels(Address);
  }

  /// Drops all cached lines and statistics.
  void reset();

  const std::vector<CacheLevelStats> &stats() const { return Stats; }

private:
  struct Level {
    int LineShift = 6;
    uint64_t NumSets = 1;
    int Assoc = 8;
    int HitLatency = 4;
    /// Tags, NumSets x Assoc; 0 means empty (tag values are offset by 1).
    std::vector<uint64_t> Tags;
    /// LRU stamps parallel to Tags.
    std::vector<uint64_t> Stamps;
    /// Per set, the way touched last; looked up first. Tags are unique
    /// within a set, so the search order never changes which way hits.
    std::vector<uint8_t> Mru;
  };

  /// The full lookup and fill, for accesses the L1 fast paths miss.
  int accessLevels(uint64_t Address);

  std::vector<Level> Levels;
  std::vector<CacheLevelStats> Stats;
  int MemLatency;
  uint64_t Clock = 0;

  // L1 fast-path view of Levels[0] (null tags when there are no levels).
  uint64_t *L1Tags = nullptr;
  uint64_t *L1Stamps = nullptr;
  uint8_t *L1Mru = nullptr;
  uint64_t L1SetMask = 0;
  uint64_t L1Assoc = 0;
  int L1Shift = 0;
  int L1Latency = 0;
  bool HaveLast = false;
  uint64_t LastLine = 0; ///< L1 line of the previous access
  uint64_t LastWay = 0;  ///< its index into the L1 tags
};

} // namespace machine
} // namespace locus

#endif // LOCUS_MACHINE_CACHESIM_H
