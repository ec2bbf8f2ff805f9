// Small measurement helpers shared by the perfbench workloads: clocks,
// quantiles, process facts (peak RSS, CPU model), dataset fingerprints and
// deltas of the counters the library already keeps in its MetricsRegistry.
#ifndef PERFBENCH_UTIL_H_
#define PERFBENCH_UTIL_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "linalg/matrix.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double SecondsSince(Clock::time_point start) {
  return SecondsBetween(start, Clock::now());
}

/// Linear-interpolation quantile (the "type 7" estimator) of `samples`;
/// q in [0, 1]. Returns 0 for an empty sample.
double Quantile(std::vector<double> samples, double q);
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// Cuts `samples` into consecutive windows of `window` values and returns
/// the median over the windows of each window's q-quantile; the quantile of
/// all samples when there is no full window.
double WindowedQuantile(const std::vector<double>& samples, size_t window,
                        double q);

/// Peak resident set of this process (VmHWM) in MiB; 0 if unreadable.
double PeakRssMiB();

/// Resident set of this process right now (VmRSS) in MiB; 0 if unreadable.
double RssMiB();

/// Lowers the peak resident set to the current one (writes "5" to
/// /proc/self/clear_refs), so that later PeakRssMiB() readings leave out
/// what was freed before. False if the kernel refused.
bool ResetPeakRss();

/// "model name" from /proc/cpuinfo, or "unknown".
std::string CpuModel();

/// FNV-1a over the shape and the raw bytes of a matrix, as hex.
std::string Fingerprint(const cohere::Matrix& m);

/// SplitMix64: the seeded stream every workload draws its choices from.
uint64_t SplitMix64(uint64_t* state);

/// Snapshot of a fixed set of registry counters; Delta() reads how far one
/// has moved since the snapshot.
class CounterDelta {
 public:
  explicit CounterDelta(std::vector<std::string> names);
  uint64_t Delta(const std::string& name) const;

 private:
  std::vector<std::pair<std::string, uint64_t>> start_;
};

}  // namespace perfbench

#endif  // PERFBENCH_UTIL_H_
