// advbench: the advisor benchmark binary. Runs one workload for a time
// bound and prints its metrics, then, as the last line of standard output,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Usually
// driven through advbench/run.py, which builds it first.
//
//   advbench --workload NAME --seed N --seconds S --trace 0|1
//            [--tiny] [--gen-seed G] [--trace-out FILE]
//            [--inject-fault layout|cost]
//
// Workloads: apb800-m32, sales45-m32, serve-tpch-m8 (see NOTES.md).
// Exit codes: 0 ran (check "correct"), 2 bad arguments.

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench.h"
#include "common/strutil.h"

namespace advbench {

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

int Usage(const char* argv0, const std::string& error) {
  std::fprintf(stderr,
               "%s\nusage: %s --workload apb800-m32|sales45-m32|serve-tpch-m8 "
               "--seed N --seconds S --trace 0|1 [--tiny] [--gen-seed G] "
               "[--trace-out FILE] [--inject-fault layout|cost]\n",
               error.c_str(), argv0);
  return 2;
}

/// Prints the run's metrics (the list `trace` selects) by name with unit,
/// then the result object as the last line.
void Print(const Options& opts, Outcome& out) {
  std::printf("advbench %s seed=%llu trace=%d threads=%d\n", opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
              out.threads);
  for (const std::string& note : out.notes) std::printf("  %s\n", note.c_str());
  std::string metrics;
  auto emit = [&](const MetricSpec& spec) {
    double value = 0;
    if (const auto it = out.values.find(spec.name); it != out.values.end()) {
      value = it->second;
    }
    if (!std::isfinite(value)) {
      out.Op(dblayout::StrFormat("metric %s is not finite", spec.name));
      value = 0;
    }
    std::printf("  %-30s %16.6f %s\n", spec.name, value, spec.unit);
    if (!metrics.empty()) metrics += ',';
    metrics += dblayout::StrFormat("\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                                   spec.name, value, spec.unit);
  };
  if (opts.trace) {
    for (const MetricSpec& spec : kPerLayer) emit(spec);
  } else {
    for (const MetricSpec& spec : kEndToEnd) emit(spec);
  }
  for (const std::string& f : out.failures) std::printf("  FAILED: %s\n", f.c_str());
  std::printf("ops attempted %lld, failed %lld\n",
              static_cast<long long>(out.attempted),
              static_cast<long long>(out.failed));
  std::printf(
      "{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}\n",
      out.failed == 0 && out.attempted > 0 ? "true" : "false",
      static_cast<long long>(out.attempted), static_cast<long long>(out.failed),
      metrics.c_str());
}

}  // namespace
}  // namespace advbench

int main(int argc, char** argv) {
  using advbench::Options;
  Options opts;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--tiny") {
      opts.tiny = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return advbench::Usage(argv[0], "missing value for " + arg);
    char* end = nullptr;
    if (arg == "--workload") {
      opts.workload = v;
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(v, &end, 10);
      have_seed = *end == '\0';
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(v, &end);
      have_seconds = *end == '\0' && opts.seconds > 0;
    } else if (arg == "--trace") {
      opts.trace = std::string(v) == "1";
      have_trace = std::string(v) == "0" || opts.trace;
    } else if (arg == "--gen-seed") {
      opts.gen_seed = std::strtoll(v, &end, 10);
    } else if (arg == "--trace-out") {
      opts.trace_out = v;
    } else if (arg == "--inject-fault") {
      opts.inject_fault = v;
      if (opts.inject_fault != "layout" && opts.inject_fault != "cost") {
        return advbench::Usage(argv[0], "--inject-fault takes layout or cost");
      }
    } else {
      return advbench::Usage(argv[0], "unknown argument " + arg);
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return advbench::Usage(argv[0], "--seed, --seconds and --trace are required");
  }
  advbench::Outcome out;
  if (opts.workload == "apb800-m32" || opts.workload == "sales45-m32") {
    out = advbench::RunAdvise(opts);
  } else if (opts.workload == "serve-tpch-m8") {
    out = advbench::RunServe(opts);
  } else {
    return advbench::Usage(argv[0], "unknown workload '" + opts.workload + "'");
  }
  if (!opts.trace) out.values["peak_rss_mb"] = advbench::PeakRssMb();
  advbench::Print(opts, out);
  return 0;
}
