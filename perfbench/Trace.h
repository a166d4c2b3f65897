//===- Trace.h - In-memory span recorder for perfbench ----------*- C++ -*-===//
///
/// \file
/// Spans recorded by the benchmark around its calls into each Locus layer:
/// name, layer, start, end, parent span and point id. Spans stay in memory
/// and are written once at the end as Chrome trace-event JSON (load the file
/// in chrome://tracing or Perfetto). Self time of a span is its duration
/// minus the part covered by its direct children.
///
//===----------------------------------------------------------------------===//
#ifndef LOCUS_PERFBENCH_TRACE_H
#define LOCUS_PERFBENCH_TRACE_H

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <unistd.h>
#include <vector>

namespace perfbench {

inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char *Name = "";
  const char *Layer = "";
  double Start = 0, End = 0; ///< seconds on the steady clock
  int Parent = -1;           ///< index of the enclosing span, -1 at the root
  int Point = -1;            ///< History index of the point, -1 outside one
  double seconds() const { return End - Start; }
};

/// Single-threaded span recorder: the replay runs on one thread, so the open
/// span stack is the parent chain.
class Tracer {
public:
  Tracer() { Spans.reserve(1 << 16); }

  int open(const char *Layer, const char *Name, int Point = -1) {
    Span S;
    S.Name = Name;
    S.Layer = Layer;
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.Point = Point < 0 && S.Parent >= 0 ? Spans[S.Parent].Point : Point;
    Spans.push_back(S);
    Stack.push_back(static_cast<int>(Spans.size()) - 1);
    Spans.back().Start = nowSeconds();
    return Stack.back();
  }

  void close() {
    Spans[Stack.back()].End = nowSeconds();
    Stack.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

  /// Self time per span: duration minus the direct children's durations.
  std::vector<double> selfSeconds() const {
    std::vector<double> Self(Spans.size());
    for (size_t I = 0; I < Spans.size(); ++I)
      Self[I] = Spans[I].seconds();
    for (const Span &S : Spans)
      if (S.Parent >= 0)
        Self[S.Parent] -= S.seconds();
    return Self;
  }

  /// Durations (seconds) of every span with the given name.
  std::vector<double> durations(const std::string &Name) const {
    std::vector<double> Out;
    for (const Span &S : Spans)
      if (Name == S.Name)
        Out.push_back(S.seconds());
    return Out;
  }

  double total(const std::string &Name) const {
    double Sum = 0;
    for (double D : durations(Name))
      Sum += D;
    return Sum;
  }

  /// Writes the spans as Chrome trace-event JSON ("X" complete events, times
  /// in microseconds from the first span). The file appears atomically, so
  /// concurrent runs never leave a torn trace behind.
  bool writeChromeTrace(const std::string &Path) const {
    std::string Tmp = Path + ".tmp" + std::to_string(::getpid());
    std::FILE *F = std::fopen(Tmp.c_str(), "w");
    if (!F)
      return false;
    double T0 = Spans.empty() ? 0 : Spans.front().Start;
    std::fprintf(F, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Span &S = Spans[I];
      std::fprintf(F,
                   "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                   "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": 1, "
                   "\"args\": {\"span\": %zu, \"parent\": %d, "
                   "\"point\": %d}}%s\n",
                   S.Name, S.Layer, (S.Start - T0) * 1e6, S.seconds() * 1e6, I,
                   S.Parent, S.Point, I + 1 < Spans.size() ? "," : "");
    }
    std::fprintf(F, "]}\n");
    if (std::fclose(F) != 0 || std::rename(Tmp.c_str(), Path.c_str()) != 0) {
      std::remove(Tmp.c_str());
      return false;
    }
    return true;
  }

private:
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

/// RAII span.
class Scope {
public:
  Scope(Tracer &T, const char *Layer, const char *Name, int Point = -1)
      : T(T) {
    T.open(Layer, Name, Point);
  }
  ~Scope() { T.close(); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer &T;
};

/// Linear-interpolated percentile (P in [0, 100]) of unsorted samples.
inline double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  double Frac = Pos - static_cast<double>(Lo);
  return V[Lo] + (V[Hi] - V[Lo]) * Frac;
}

inline double median(const std::vector<double> &V) { return percentile(V, 50); }

} // namespace perfbench

#endif // LOCUS_PERFBENCH_TRACE_H
