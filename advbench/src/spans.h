// Span and counter bookkeeping of the traced run. Spans are recorded
// through the program's obs::Tracer (kept in memory, written out once at the
// end); a span's parent is the innermost span enclosing it on the same
// thread, and its self time is its duration minus the time its children
// cover.

#ifndef ADVBENCH_SPANS_H_
#define ADVBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace advbench {

struct SpanTotals {
  int64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};

using SpanTable = std::map<std::string, SpanTotals>;

/// Per-name count, total and self time of `events`.
SpanTable SummarizeSpans(const std::vector<dblayout::obs::TraceEvent>& events);

/// Total and self time of the spans called `name` (0 when there are none).
double TotalMs(const SpanTable& spans, const std::string& name);
double SelfMs(const SpanTable& spans, const std::string& name);

/// Values of every registered obs counter.
using CounterSnapshot = std::map<std::string, int64_t>;
CounterSnapshot SnapshotCounters();
/// Growth of counter `name` from `before` to `after`.
int64_t CounterDelta(const CounterSnapshot& before, const CounterSnapshot& after,
                     const std::string& name);

/// Turns telemetry (metrics and tracer) on or off together.
void SetTracing(bool on);

/// Writes the tracer's spans as Chrome trace JSON to `path` (no-op when
/// empty). Returns false when the file cannot be written.
bool WriteTrace(const std::string& path);

}  // namespace advbench

#endif  // ADVBENCH_SPANS_H_
