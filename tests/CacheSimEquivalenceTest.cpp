//===- CacheSimEquivalenceTest.cpp - Fast paths vs the plain LRU model -------===//
//
// CacheSim answers repeat accesses to the previous line and hits on a set's
// most recently used way without the full lookup. Both must be exact: this
// test drives CacheSim and a copy of the plain lookup-then-fill model it
// replaced with the same seeded traces and requires the same latency for
// every access and the same per-level statistics.
//
//===----------------------------------------------------------------------===//

#include "src/machine/CacheSim.h"
#include "src/support/Rng.h"

#include <gtest/gtest.h>

namespace locus {
namespace {

using machine::CacheLevelStats;
using machine::CacheLevelConfig;
using machine::MachineConfig;

/// The set-associative LRU hierarchy exactly as CacheSim implemented it
/// before the fast paths: scan every level in way order, then fill every
/// level above the hit with the first empty way or the least recently used
/// one.
class ReferenceCache {
public:
  explicit ReferenceCache(const MachineConfig &Config)
      : MemLatency(Config.MemLatency) {
    for (const CacheLevelConfig &LC : Config.Levels) {
      Level L;
      for (uint64_t X = static_cast<uint64_t>(LC.LineBytes); X > 1; X >>= 1)
        ++L.LineShift;
      uint64_t Lines = LC.SizeBytes / static_cast<uint64_t>(LC.LineBytes);
      uint64_t Sets = Lines / static_cast<uint64_t>(LC.Assoc);
      if (Sets == 0)
        Sets = 1;
      uint64_t Pow2 = 1;
      while (Pow2 * 2 <= Sets)
        Pow2 *= 2;
      L.NumSets = Pow2;
      L.Assoc = LC.Assoc;
      L.HitLatency = LC.HitLatency;
      L.Tags.assign(L.NumSets * static_cast<uint64_t>(L.Assoc), 0);
      L.Stamps.assign(L.NumSets * static_cast<uint64_t>(L.Assoc), 0);
      Levels.push_back(std::move(L));
    }
    Stats.assign(Levels.size(), CacheLevelStats{});
  }

  int access(uint64_t Address) {
    ++Clock;
    int Latency = 0;
    bool Hit = false;
    size_t HitLevel = Levels.size();
    for (size_t I = 0; I < Levels.size(); ++I) {
      Level &L = Levels[I];
      uint64_t Line = Address >> L.LineShift;
      uint64_t Set = Line & (L.NumSets - 1);
      uint64_t Tag = Line + 1;
      uint64_t BaseIdx = Set * static_cast<uint64_t>(L.Assoc);
      Latency += L.HitLatency;
      for (int W = 0; W < L.Assoc; ++W) {
        if (L.Tags[BaseIdx + static_cast<uint64_t>(W)] == Tag) {
          L.Stamps[BaseIdx + static_cast<uint64_t>(W)] = Clock;
          ++Stats[I].Hits;
          Hit = true;
          HitLevel = I;
          break;
        }
      }
      if (Hit)
        break;
      ++Stats[I].Misses;
    }
    if (!Hit)
      Latency += MemLatency;
    size_t FillUpTo = Hit ? HitLevel : Levels.size();
    for (size_t I = 0; I < FillUpTo; ++I) {
      Level &L = Levels[I];
      uint64_t Line = Address >> L.LineShift;
      uint64_t Set = Line & (L.NumSets - 1);
      uint64_t Tag = Line + 1;
      uint64_t BaseIdx = Set * static_cast<uint64_t>(L.Assoc);
      uint64_t VictimIdx = BaseIdx;
      uint64_t OldestStamp = ~0ULL;
      for (int W = 0; W < L.Assoc; ++W) {
        uint64_t Idx = BaseIdx + static_cast<uint64_t>(W);
        if (L.Tags[Idx] == 0) {
          VictimIdx = Idx;
          break;
        }
        if (L.Stamps[Idx] < OldestStamp) {
          OldestStamp = L.Stamps[Idx];
          VictimIdx = Idx;
        }
      }
      L.Tags[VictimIdx] = Tag;
      L.Stamps[VictimIdx] = Clock;
    }
    return Latency;
  }

  void reset() {
    for (Level &L : Levels) {
      std::fill(L.Tags.begin(), L.Tags.end(), 0);
      std::fill(L.Stamps.begin(), L.Stamps.end(), 0);
    }
    for (CacheLevelStats &S : Stats)
      S = CacheLevelStats{};
    Clock = 0;
  }

  const std::vector<CacheLevelStats> &stats() const { return Stats; }

private:
  struct Level {
    int LineShift = 0;
    uint64_t NumSets = 1;
    int Assoc = 8;
    int HitLatency = 4;
    std::vector<uint64_t> Tags;
    std::vector<uint64_t> Stamps;
  };
  std::vector<Level> Levels;
  std::vector<CacheLevelStats> Stats;
  int MemLatency;
  uint64_t Clock = 0;
};

/// A trace mixing the access shapes of loop nests: unit-stride runs (many
/// same-line repeats), strides that map every access to one set (conflict
/// misses and LRU eviction), interleaved streams, and random addresses
/// over a footprint larger than the last level.
std::vector<uint64_t> makeTrace(uint64_t Seed, size_t Length,
                                uint64_t Footprint) {
  Rng R(Seed);
  std::vector<uint64_t> Trace;
  Trace.reserve(Length);
  while (Trace.size() < Length) {
    uint64_t Base = 4096 + R.bounded(Footprint) * 8;
    uint64_t Count = 1 + R.bounded(200);
    switch (R.bounded(5)) {
    case 0: // unit-stride run of doubles
      for (uint64_t I = 0; I < Count; ++I)
        Trace.push_back(Base + I * 8);
      break;
    case 1: // the same element over and over
      for (uint64_t I = 0; I < Count; ++I)
        Trace.push_back(Base);
      break;
    case 2: { // set-conflict stride: a power of two at least a line
      uint64_t Stride = 64ull << R.bounded(12);
      for (uint64_t I = 0; I < Count; ++I)
        Trace.push_back(Base + (I % 40) * Stride);
      break;
    }
    case 3: { // three interleaved streams, like A[i][k], B[k][j], C[i][j]
      uint64_t B2 = 4096 + R.bounded(Footprint) * 8;
      uint64_t B3 = 4096 + R.bounded(Footprint) * 8;
      uint64_t Row = 8 * (1 + R.bounded(128));
      for (uint64_t I = 0; I < Count; ++I) {
        Trace.push_back(Base + I * 8);
        Trace.push_back(B2 + I * Row);
        Trace.push_back(B3);
      }
      break;
    }
    default: // scattered
      for (uint64_t I = 0; I < Count; ++I)
        Trace.push_back(4096 + R.bounded(Footprint) * 8);
      break;
    }
  }
  Trace.resize(Length);
  return Trace;
}

void expectEquivalent(const MachineConfig &M, uint64_t Seed,
                      uint64_t Footprint) {
  machine::CacheSim Fast(M);
  ReferenceCache Ref(M);
  std::vector<uint64_t> Trace = makeTrace(Seed, 200000, Footprint);
  Rng ResetAt(Seed ^ 0xabcdef);
  for (size_t I = 0; I < Trace.size(); ++I) {
    if (ResetAt.bounded(40000) == 0) {
      Fast.reset();
      Ref.reset();
    }
    bool IsWrite = (I & 3) == 3;
    int Got = Fast.access(Trace[I], IsWrite);
    int Want = Ref.access(Trace[I]);
    ASSERT_EQ(Got, Want) << "access " << I << " address " << Trace[I]
                         << " seed " << Seed;
  }
  ASSERT_EQ(Fast.stats().size(), Ref.stats().size());
  for (size_t L = 0; L < Ref.stats().size(); ++L) {
    EXPECT_EQ(Fast.stats()[L].Hits, Ref.stats()[L].Hits) << "level " << L;
    EXPECT_EQ(Fast.stats()[L].Misses, Ref.stats()[L].Misses) << "level " << L;
  }
}

TEST(CacheSimEquivalence, XeonMatchesReferenceModel) {
  for (uint64_t Seed : {1, 2, 3})
    expectEquivalent(MachineConfig::xeonE5v3(), Seed, 1 << 22);
}

TEST(CacheSimEquivalence, TinyMatchesReferenceModel) {
  for (uint64_t Seed : {4, 5, 6})
    expectEquivalent(MachineConfig::tiny(), Seed, 1 << 12);
}

TEST(CacheSimEquivalence, ScaledXeonMatchesReferenceModel) {
  for (uint64_t Seed : {7, 8, 9})
    expectEquivalent(MachineConfig::xeonE5v3Scaled(8), Seed, 1 << 16);
}

TEST(CacheSimEquivalence, ResetClearsTheFastPaths) {
  // After reset the previous line must not be served as an L1 hit.
  machine::CacheSim Cache(MachineConfig::tiny());
  Cache.access(0x1000, false);
  Cache.access(0x1008, false);
  Cache.reset();
  int Latency = Cache.access(0x1010, false);
  EXPECT_GT(Latency, MachineConfig::tiny().Levels[0].HitLatency);
  EXPECT_EQ(Cache.stats()[0].Hits, 0u);
  EXPECT_EQ(Cache.stats()[0].Misses, 1u);
}

} // namespace
} // namespace locus
