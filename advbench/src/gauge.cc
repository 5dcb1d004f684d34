#include "gauge.h"

#include <cstdint>

#include "bench.h"

namespace advbench {

namespace {

volatile double kernel_sink = 0;  ///< keeps the kernel's result alive

/// Random read-modify-writes over a 256 KiB table (cache-resident) and a
/// 4 MiB table (beyond the private caches), with a dependent integer and
/// floating-point chain. The work is the same on every call: no branch or
/// index depends on the tables' contents.
double KernelMs() {
  static std::vector<uint32_t> small(size_t{1} << 16), large(size_t{1} << 20);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  double acc = 0;
  auto walk = [&x, &acc](std::vector<uint32_t>& table, int steps) {
    const uint64_t mask = table.size() - 1;
    for (int i = 0; i < steps; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      uint32_t& slot = table[x & mask];
      acc += static_cast<double>(slot & 1023) * 1e-3;
      slot = static_cast<uint32_t>(x >> 32);
      if (x & 1) acc *= 0.999999;
    }
  };
  const double t0 = NowMs();
  walk(small, 2000000);
  walk(large, 1500000);
  kernel_sink = acc;
  return NowMs() - t0;
}

}  // namespace

SpeedGauge::SpeedGauge() {
  KernelMs();  // first touch of the tables
  kernel_ms_.push_back(KernelMs());
}

double SpeedGauge::Next() {
  const double before = kernel_ms_.back();
  kernel_ms_.push_back(KernelMs());
  return kReferenceKernelMs / (0.5 * (before + kernel_ms_.back()));
}

}  // namespace advbench
