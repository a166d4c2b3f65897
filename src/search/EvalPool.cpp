//===- EvalPool.cpp - Worker pool for parallel point evaluation -----------===//

#include "src/search/EvalPool.h"

#include "src/support/Cores.h"

#include <algorithm>

namespace locus {
namespace search {

EvalPool::EvalPool(int Jobs) : JobCount(std::max(1, Jobs)) {
  // The caller participates in run(), so a pool of N jobs needs N-1 threads.
  for (int I = 0; I + 1 < JobCount; ++I)
    Workers.emplace_back([this](std::stop_token Stop) { workerLoop(Stop); });
}

EvalPool::~EvalPool() = default; // jthread requests stop and joins

void EvalPool::run(size_t N, const std::function<void(size_t)> &Job) {
  if (N == 0)
    return;
  BusyScope Busy; // the caller evaluates too
  if (Workers.empty()) {
    for (size_t I = 0; I < N; ++I)
      Job(I);
    return;
  }
  {
    std::unique_lock<std::mutex> L(M);
    Fn = &Job;
    JobSize = N;
    NextIndex = 0;
    Remaining = N;
  }
  WorkCv.notify_all();

  // Claim indices alongside the workers.
  for (;;) {
    size_t I;
    {
      std::unique_lock<std::mutex> L(M);
      if (NextIndex >= JobSize)
        break;
      I = NextIndex++;
    }
    Job(I);
    std::unique_lock<std::mutex> L(M);
    if (--Remaining == 0)
      DoneCv.notify_all();
  }

  std::unique_lock<std::mutex> L(M);
  DoneCv.wait(L, [&] { return Remaining == 0; });
  Fn = nullptr;
}

void EvalPool::workerLoop(std::stop_token Stop) {
  std::unique_lock<std::mutex> L(M);
  for (;;) {
    if (!WorkCv.wait(L, Stop, [&] { return Fn && NextIndex < JobSize; }))
      return; // stop requested during shutdown
    while (Fn && NextIndex < JobSize) {
      size_t I = NextIndex++;
      const std::function<void(size_t)> *Job = Fn;
      L.unlock();
      {
        BusyScope Busy;
        (*Job)(I);
      }
      L.lock();
      if (--Remaining == 0)
        DoneCv.notify_all();
    }
  }
}

} // namespace search
} // namespace locus
