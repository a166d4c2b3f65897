//===- CacheSim.cpp - Multi-level cache simulator ----------------------------===//

#include "src/machine/CacheSim.h"

#include <algorithm>

#include <cassert>

namespace locus {
namespace machine {

MachineConfig MachineConfig::xeonE5v3() {
  MachineConfig M;
  M.Levels = {
      CacheLevelConfig{"L1d", 32 * 1024, 8, 64, 4},
      CacheLevelConfig{"L2", 256 * 1024, 8, 64, 12},
      CacheLevelConfig{"L3", 25 * 1024 * 1024, 20, 64, 36},
  };
  M.MemLatency = 220;
  M.Cores = 10;
  M.VectorWidthDoubles = 4;
  return M;
}

MachineConfig MachineConfig::xeonE5v3Scaled(int Factor) {
  MachineConfig M = xeonE5v3();
  for (CacheLevelConfig &L : M.Levels) {
    L.SizeBytes = std::max<uint64_t>(512, L.SizeBytes / static_cast<uint64_t>(Factor));
    L.Assoc = std::max(2, L.Assoc / 2);
  }
  return M;
}

MachineConfig MachineConfig::tiny() {
  MachineConfig M;
  M.Levels = {
      CacheLevelConfig{"L1d", 1024, 2, 64, 2},
      CacheLevelConfig{"L2", 8 * 1024, 4, 64, 10},
  };
  M.MemLatency = 100;
  M.Cores = 4;
  M.VectorWidthDoubles = 4;
  M.ParallelSpawnOverhead = 500.0;
  return M;
}

namespace {

int log2Floor(uint64_t X) {
  int L = 0;
  while (X > 1) {
    X >>= 1;
    ++L;
  }
  return L;
}

} // namespace

CacheSim::CacheSim(const MachineConfig &Config) : MemLatency(Config.MemLatency) {
  for (const CacheLevelConfig &LC : Config.Levels) {
    Level L;
    L.LineShift = log2Floor(static_cast<uint64_t>(LC.LineBytes));
    uint64_t Lines = LC.SizeBytes / static_cast<uint64_t>(LC.LineBytes);
    uint64_t Sets = Lines / static_cast<uint64_t>(LC.Assoc);
    if (Sets == 0)
      Sets = 1;
    // Round down to a power of two for cheap indexing.
    uint64_t Pow2 = 1;
    while (Pow2 * 2 <= Sets)
      Pow2 *= 2;
    L.NumSets = Pow2;
    L.Assoc = LC.Assoc;
    L.HitLatency = LC.HitLatency;
    L.Tags.assign(L.NumSets * static_cast<uint64_t>(L.Assoc), 0);
    L.Stamps.assign(L.NumSets * static_cast<uint64_t>(L.Assoc), 0);
    L.Mru.assign(L.NumSets, 0);
    Levels.push_back(std::move(L));
  }
  Stats.assign(Levels.size(), CacheLevelStats{});
  if (!Levels.empty()) {
    Level &L1 = Levels[0];
    L1Tags = L1.Tags.data();
    L1Stamps = L1.Stamps.data();
    L1Mru = L1.Mru.data();
    L1SetMask = L1.NumSets - 1;
    L1Assoc = static_cast<uint64_t>(L1.Assoc);
    L1Shift = L1.LineShift;
    L1Latency = L1.HitLatency;
  }
}

int CacheSim::accessLevels(uint64_t Address) {
  if (Levels.empty())
    return MemLatency;
  // L1: scan the set (access() found the line on neither fast path).
  uint64_t L1Line = Address >> L1Shift;
  uint64_t L1Set = L1Line & L1SetMask;
  uint64_t L1Base = L1Set * L1Assoc;
  for (uint64_t W = 0; W < L1Assoc; ++W) {
    if (L1Tags[L1Base + W] == L1Line + 1) {
      L1Stamps[L1Base + W] = Clock;
      L1Mru[L1Set] = static_cast<uint8_t>(W);
      ++Stats[0].Hits;
      HaveLast = true;
      LastLine = L1Line;
      LastWay = L1Base + W;
      return L1Latency;
    }
  }
  ++Stats[0].Misses;
  int Latency = L1Latency;
  bool Hit = false;
  size_t HitLevel = Levels.size();
  for (size_t I = 1; I < Levels.size(); ++I) {
    Level &L = Levels[I];
    uint64_t Line = Address >> L.LineShift;
    uint64_t Set = Line & (L.NumSets - 1);
    uint64_t Tag = Line + 1; // offset so 0 means empty
    uint64_t BaseIdx = Set * static_cast<uint64_t>(L.Assoc);
    Latency += L.HitLatency;
    uint64_t Idx = BaseIdx + L.Mru[Set];
    if (L.Tags[Idx] != Tag) {
      Idx = BaseIdx + static_cast<uint64_t>(L.Assoc);
      for (int W = 0; W < L.Assoc; ++W) {
        if (L.Tags[BaseIdx + static_cast<uint64_t>(W)] == Tag) {
          Idx = BaseIdx + static_cast<uint64_t>(W);
          break;
        }
      }
    }
    if (Idx < BaseIdx + static_cast<uint64_t>(L.Assoc)) {
      L.Stamps[Idx] = Clock;
      L.Mru[Set] = static_cast<uint8_t>(Idx - BaseIdx);
      ++Stats[I].Hits;
      Hit = true;
      HitLevel = I;
      break;
    }
    ++Stats[I].Misses;
  }
  if (!Hit)
    Latency += MemLatency;

  // Fill all levels above (and including) the miss point.
  size_t FillUpTo = Hit ? HitLevel : Levels.size();
  for (size_t I = 0; I < FillUpTo; ++I) {
    Level &L = Levels[I];
    uint64_t Line = Address >> L.LineShift;
    uint64_t Set = Line & (L.NumSets - 1);
    uint64_t Tag = Line + 1;
    uint64_t BaseIdx = Set * static_cast<uint64_t>(L.Assoc);
    // Find an empty way or the LRU victim.
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
    L.Mru[Set] = static_cast<uint8_t>(VictimIdx - BaseIdx);
    if (I == 0)
      LastWay = VictimIdx;
  }
  HaveLast = true;
  LastLine = L1Line;
  return Latency;
}

void CacheSim::reset() {
  for (Level &L : Levels) {
    std::fill(L.Tags.begin(), L.Tags.end(), 0);
    std::fill(L.Stamps.begin(), L.Stamps.end(), 0);
    std::fill(L.Mru.begin(), L.Mru.end(), 0);
  }
  HaveLast = false;
  for (CacheLevelStats &S : Stats)
    S = CacheLevelStats{};
  Clock = 0;
}

} // namespace machine
} // namespace locus
