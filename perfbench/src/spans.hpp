// Outside-in spans: the benchmark's own record of every call it makes into
// a layer of the library. Nothing inside src/ is instrumented here; a span
// wraps a public call (plan.solve, service.submit, run_gang, ...) from the
// caller's side, so its self time is the call's cost as a client sees it.
//
// Spans are kept in memory only while a recorder is installed (the traced
// run) and written out once, at the end, as Chrome trace_event JSON. With
// no recorder installed a SpanScope is a null check.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Span {
  const char* name = "";
  const char* layer = "";   ///< library layer the wrapped call enters
  std::uint64_t id = 0;
  std::uint64_t parent = 0; ///< 0 = root
  std::uint64_t request = 0;///< spans of one request share this id
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int tid = 0;
};

class SpanRecorder {
 public:
  /// Installs @p rec as the process-wide recorder (nullptr uninstalls).
  static void install(SpanRecorder* rec) noexcept;
  static SpanRecorder* current() noexcept;

  std::uint64_t next_id() noexcept;
  void add(const Span& span);
  std::vector<Span> spans() const;

  /// Per-layer self time in ms: each span's duration minus the part of its
  /// interval its child spans cover, summed by layer.
  std::map<std::string, double> self_ms_by_layer() const;

  /// Writes every span as a Chrome "complete" event (ph:"X").
  bool write_chrome_trace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// RAII span around one call into a layer. Nests per thread: the innermost
/// open span on the thread becomes the parent.
class SpanScope {
 public:
  SpanScope(const char* name, const char* layer, std::uint64_t request = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* rec_;
  Span span_;
  std::uint64_t saved_parent_ = 0;
};

}  // namespace perfbench
