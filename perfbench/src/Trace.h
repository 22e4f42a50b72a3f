//===- perfbench/src/Trace.h - In-memory span recorder ----------*- C++ -*-===//
//
// Part of the dsm-dist-repro project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Spans the benchmark records around each call it makes into a layer.
/// A span's parent is the innermost span still open on the same thread;
/// a root span carries the id its children inherit (a request id, or a
/// setup repetition).  Spans stay in memory and are written once, at
/// exit, as a Chrome trace and as a per-layer self-time table.  A null
/// Tracer makes every span a no-op, which is the untraced run.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "Bench.h"
#include "support/Error.h"

namespace perfbench {

struct SpanRec {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  int32_t Parent = -1;
  uint64_t Root = 0; ///< The root span's id (request id or setup id).
  uint32_t Tid = 0;
  bool Derived = false; ///< Reconstructed from a server response.
};

class Tracer {
public:
  explicit Tracer(Clock::time_point Epoch) : Epoch(Epoch) {}

  Tracer(const Tracer &) = delete;
  Tracer &operator=(const Tracer &) = delete;

  /// Opens a span at \p Start under this thread's innermost open span.
  /// \p Root names a new root; 0 inherits the parent's.
  int32_t begin(const char *Name, uint64_t Root, Clock::time_point Start);
  void end(int32_t Id, Clock::time_point End);

  /// Adds a closed child of \p Parent that the benchmark did not time
  /// itself (serve queue and run times from the response).
  void derived(const char *Name, int32_t Parent, Clock::time_point Start,
               Clock::time_point End);

  /// Summed duration in ms of the spans named \p Name, per root id.
  std::map<uint64_t, double> msByRoot(const char *Name) const;

  /// Writes the Chrome trace to \p Path.
  dsm::Error writeChrome(const std::string &Path) const;

  /// Per span name: count, total, self (total minus the time its child
  /// spans cover) and mean, in ms.
  std::string layerTable() const;

private:
  int64_t ns(Clock::time_point T) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Epoch)
        .count();
  }

  const Clock::time_point Epoch;
  mutable std::mutex Mu;
  std::vector<SpanRec> Spans;
};

/// Writes a traced run's Chrome trace and per-layer table into
/// \p A.OutDir, and the table to stderr.
void writeTraceFiles(const Tracer &T, const RunArgs &A);

/// RAII span; does nothing when the tracer is null.
class ScopedSpan {
public:
  ScopedSpan(Tracer *T, const char *Name, uint64_t Root = 0)
      : T(T), Id(T ? T->begin(Name, Root, Clock::now()) : -1) {}
  ~ScopedSpan() {
    if (T)
      T->end(Id, Clock::now());
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

  int32_t id() const { return Id; }

private:
  Tracer *T;
  int32_t Id;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
