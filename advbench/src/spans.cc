#include "spans.h"

#include <algorithm>
#include <fstream>

#include "obs/metrics.h"

namespace advbench {

using dblayout::obs::MetricInfo;
using dblayout::obs::MetricsRegistry;
using dblayout::obs::TraceEvent;
using dblayout::obs::Tracer;

SpanTable SummarizeSpans(const std::vector<TraceEvent>& events) {
  std::vector<const TraceEvent*> order;
  order.reserve(events.size());
  for (const TraceEvent& e : events) order.push_back(&e);
  std::sort(order.begin(), order.end(),
            [](const TraceEvent* a, const TraceEvent* b) {
              if (a->tid != b->tid) return a->tid < b->tid;
              if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
              return a->dur_ns > b->dur_ns;  // parents before their children
            });
  std::vector<uint64_t> child_ns(order.size(), 0);
  std::vector<size_t> open;  // indices into `order` of enclosing spans
  for (size_t i = 0; i < order.size(); ++i) {
    const TraceEvent& e = *order[i];
    while (!open.empty()) {
      const TraceEvent& top = *order[open.back()];
      if (top.tid == e.tid && top.start_ns + top.dur_ns >= e.start_ns + e.dur_ns) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += e.dur_ns;
    open.push_back(i);
  }
  SpanTable totals;
  for (size_t i = 0; i < order.size(); ++i) {
    SpanTotals& t = totals[order[i]->name];
    const uint64_t dur = order[i]->dur_ns;
    ++t.count;
    t.total_ms += static_cast<double>(dur) / 1e6;
    t.self_ms += static_cast<double>(dur - std::min(dur, child_ns[i])) / 1e6;
  }
  return totals;
}

double TotalMs(const SpanTable& spans, const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0 : it->second.total_ms;
}

double SelfMs(const SpanTable& spans, const std::string& name) {
  const auto it = spans.find(name);
  return it == spans.end() ? 0 : it->second.self_ms;
}

CounterSnapshot SnapshotCounters() {
  MetricsRegistry& registry = MetricsRegistry::Global();
  CounterSnapshot snapshot;
  for (const MetricInfo& info : registry.Metrics()) {
    if (info.kind == MetricInfo::Kind::kCounter) {
      snapshot[info.name] = registry.GetCounter(info.name)->value();
    }
  }
  return snapshot;
}

int64_t CounterDelta(const CounterSnapshot& before, const CounterSnapshot& after,
                     const std::string& name) {
  auto value = [&name](const CounterSnapshot& snapshot) {
    const auto it = snapshot.find(name);
    return it == snapshot.end() ? int64_t{0} : it->second;
  };
  return value(after) - value(before);
}

void SetTracing(bool on) {
  dblayout::obs::SetEnabled(on);
  Tracer::Global().SetEnabled(on);
}

bool WriteTrace(const std::string& path) {
  if (path.empty()) return true;
  std::ofstream out(path);
  out << Tracer::Global().ToChromeJson();
  return static_cast<bool>(out);
}

}  // namespace advbench
