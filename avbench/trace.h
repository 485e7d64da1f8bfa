// Span tracing for the benchmark's traced runs.
//
// Spans are recorded only from the benchmark's own files, around each call
// it makes into a layer of the program. A span carries its name
// ("<layer>.<what>", e.g. "index.save"), start and end on the steady clock,
// the id of the span that caused it and the id of the request it belongs
// to. Spans are appended to a per-thread buffer (no lock on the hot path),
// kept in memory and written out once, when the traced run ends.
//
// With tracing disabled a Span costs one relaxed atomic load, so the same
// code serves the untraced reference run that tracing overhead is measured
// against.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace avbench {

struct SpanRecord {
  const char* name = "";  ///< string literal, "<layer>.<what>"
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root
  uint64_t request = 0;
  uint32_t thread = 0;
};

/// Globally enables or disables recording (default: disabled).
void SetTracing(bool on);

/// Id of the innermost open span on this thread (0 if none). Capture it to
/// parent spans that a task opens on another thread.
uint64_t CurrentSpan();

/// RAII span. The parent is the innermost open span of this thread unless
/// given explicitly (cross-thread children); the request id is inherited
/// from the parent span of this thread unless given.
class Span {
 public:
  explicit Span(const char* name);
  Span(const char* name, uint64_t parent, uint64_t request);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  void Open(const char* name, uint64_t parent, uint64_t request);

  bool active_ = false;
  SpanRecord rec_;
  uint64_t saved_current_ = 0;
  uint64_t saved_request_ = 0;
};

/// All spans recorded so far, from every thread.
std::vector<SpanRecord> CollectSpans();
/// Drops every recorded span.
void ClearSpans();

/// Per-name aggregate of a span set.
struct SpanTotals {
  double total_s = 0;  ///< sum of durations
  double self_s = 0;   ///< sum of self times
  uint64_t count = 0;
};

/// Self time of a span = its duration minus the part of its interval that
/// its child spans (on any thread) cover. Aggregated by span name.
std::map<std::string, SpanTotals> SummarizeSpans(
    const std::vector<SpanRecord>& spans);

/// Writes `spans` as JSON lines (one span per line) to `path`.
bool WriteSpans(const std::vector<SpanRecord>& spans, const std::string& path);

}  // namespace avbench
