#include "util.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "common/check.h"
#include "obs/metrics.h"

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + (samples[hi] - samples[lo]) * frac;
}

double WindowedQuantile(const std::vector<double>& samples, size_t window,
                        double q) {
  std::vector<double> per_window;
  for (size_t begin = 0; window > 0 && begin + window <= samples.size();
       begin += window) {
    per_window.push_back(Quantile(
        std::vector<double>(samples.begin() + begin,
                            samples.begin() + begin + window),
        q));
  }
  return per_window.empty() ? Quantile(samples, q) : Median(per_window);
}

namespace {

// A "Vm...:" line of /proc/self/status, in MiB.
double StatusMiB(const std::string& key) {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) {
      double kib = 0.0;
      std::sscanf(line.c_str() + key.size(), "%lf", &kib);
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace

double PeakRssMiB() { return StatusMiB("VmHWM:"); }

double RssMiB() { return StatusMiB("VmRSS:"); }

bool ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.flush();
  return static_cast<bool>(clear);
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

std::string Fingerprint(const cohere::Matrix& m) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const void* data, size_t bytes) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < bytes; ++i) {
      h ^= p[i];
      h *= 1099511628211ULL;
    }
  };
  const uint64_t rows = m.rows();
  const uint64_t cols = m.cols();
  mix(&rows, sizeof(rows));
  mix(&cols, sizeof(cols));
  mix(m.data(), rows * cols * sizeof(double));
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
  return buf;
}

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

CounterDelta::CounterDelta(std::vector<std::string> names) {
  cohere::obs::MetricsRegistry& registry =
      cohere::obs::MetricsRegistry::Global();
  for (std::string& name : names) {
    const uint64_t value = registry.GetCounter(name)->Value();
    start_.emplace_back(std::move(name), value);
  }
}

uint64_t CounterDelta::Delta(const std::string& name) const {
  for (const auto& [counter, start] : start_) {
    if (counter == name) {
      return cohere::obs::MetricsRegistry::Global().GetCounter(name)->Value() -
             start;
    }
  }
  COHERE_CHECK_MSG(false, ("counter not in the snapshot: " + name).c_str());
  return 0;
}

}  // namespace perfbench
