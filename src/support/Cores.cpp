//===- Cores.cpp - Process-wide count of busy threads ----------------------===//

#include "src/support/Cores.h"

#include <atomic>
#include <thread>

namespace locus {

namespace {

std::atomic<unsigned> Busy{0};
std::atomic<unsigned> Helpers{0};
std::atomic<unsigned> CoreOverride{0};
thread_local unsigned Depth = 0;

unsigned cores() {
  unsigned N = CoreOverride.load(std::memory_order_relaxed);
  return N ? N : std::thread::hardware_concurrency();
}

} // namespace

BusyScope::BusyScope() {
  if (Depth++ == 0)
    Busy.fetch_add(1, std::memory_order_relaxed);
}

BusyScope::~BusyScope() {
  if (--Depth == 0)
    Busy.fetch_sub(1, std::memory_order_relaxed);
}

bool reserveHelperCore() {
  unsigned Running = Helpers.fetch_add(1, std::memory_order_relaxed) + 1;
  if (Busy.load(std::memory_order_relaxed) + Running <= cores())
    return true;
  Helpers.fetch_sub(1, std::memory_order_relaxed);
  return false;
}

void releaseHelperCore() { Helpers.fetch_sub(1, std::memory_order_relaxed); }

unsigned overrideCoreCountForTesting(unsigned Cores) {
  return CoreOverride.exchange(Cores, std::memory_order_relaxed);
}

} // namespace locus
