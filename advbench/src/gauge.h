// Host-speed gauge. The CPU speed of a shared virtual machine drifts by 10
// to 40% over seconds to minutes, and a compute-bound loop's CPU time drifts
// with its wall time, so neither can tell a program change from the host's
// phase. The gauge times a fixed benchmark-owned kernel, which shares no
// code with the advisor, at both ends of every timed op, and rescales the
// op's wall time to the speed at which the kernel takes kReferenceKernelMs:
//
//   reported ms = wall ms x kReferenceKernelMs / mean(kernel ms before, after)
//
// A change to the advisor moves the wall time and not the kernel, so it
// moves the reported time by the same factor.

#ifndef ADVBENCH_GAUGE_H_
#define ADVBENCH_GAUGE_H_

#include <vector>

namespace advbench {

/// The kernel's time (ms) at the reference speed. It is about its median
/// time on the 4-vCPU Xeon VM (g++ 12, RelWithDebInfo) the benchmark was
/// built on, so reported times read close to that host's wall times.
inline constexpr double kReferenceKernelMs = 35.0;

class SpeedGauge {
 public:
  /// Times the kernel once, which opens the first interval.
  SpeedGauge();

  /// Times the kernel again, closing the interval since the previous call,
  /// and returns the factor that rescales a wall time measured in that
  /// interval to the reference speed.
  double Next();

  /// Every kernel time measured so far, ms.
  const std::vector<double>& kernel_ms() const { return kernel_ms_; }

 private:
  std::vector<double> kernel_ms_;
};

}  // namespace advbench

#endif  // ADVBENCH_GAUGE_H_
