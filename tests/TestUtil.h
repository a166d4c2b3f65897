//===- TestUtil.h - Shared test helpers -------------------------*- C++ -*-===//
///
/// \file
/// Scratch files for tests. Paths are unique per process, so suites that
/// ctest runs concurrently (one process per test) never share a file.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_TESTS_TESTUTIL_H
#define LOCUS_TESTS_TESTUTIL_H

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include <unistd.h>

namespace locus {
namespace testutil {

/// A scratch file under ::testing::TempDir(), named after \p Name and the
/// process id; removed, with its record-log sidecars, on construction and
/// on scope exit.
struct TempFile {
  std::string Path;
  explicit TempFile(const std::string &Name)
      : Path(std::string(::testing::TempDir()) + "locus-" +
             std::to_string(::getpid()) + "-" + Name) {
    removeAll();
  }
  ~TempFile() { removeAll(); }
  TempFile(const TempFile &) = delete;
  TempFile &operator=(const TempFile &) = delete;

private:
  void removeAll() const {
    for (const char *Suffix : {"", ".lock", ".compact-tmp"})
      std::remove((Path + Suffix).c_str());
  }
};

/// The whole contents of \p Path (empty when it cannot be read).
inline std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

} // namespace testutil
} // namespace locus

#endif // LOCUS_TESTS_TESTUTIL_H
