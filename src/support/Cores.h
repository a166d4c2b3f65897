//===- Cores.h - Process-wide count of busy threads -------------*- C++ -*-===//
///
/// \file
/// Decides whether a core is spare for a helper thread. Threads doing
/// CPU-bound work (evaluation-pool jobs, program runs) mark themselves busy
/// with a BusyScope; a helper may start only while the busy threads plus
/// the running helpers leave a core of std::thread::hardware_concurrency()
/// free. So a `--jobs N` search with N at or above the core count never
/// starts one, and a serial search on a multicore host does.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_SUPPORT_CORES_H
#define LOCUS_SUPPORT_CORES_H

namespace locus {

/// Marks the calling thread busy while it lives. Scopes nest: a thread
/// counts once however many it holds.
class BusyScope {
public:
  BusyScope();
  ~BusyScope();
  BusyScope(const BusyScope &) = delete;
  BusyScope &operator=(const BusyScope &) = delete;
};

/// Reserves a core for a helper thread when one is spare. Every true
/// return must be paired with releaseHelperCore().
bool reserveHelperCore();
void releaseHelperCore();

/// Test seam: the spare-core rule counts \p Cores cores instead of the
/// hardware's (0 restores the hardware's). Returns the previous override.
unsigned overrideCoreCountForTesting(unsigned Cores);

} // namespace locus

#endif // LOCUS_SUPPORT_CORES_H
