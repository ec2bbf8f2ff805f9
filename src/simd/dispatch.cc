#include "simd/dispatch.h"

#include <atomic>
#include <cstdlib>

#include "obs/metrics.h"
#include "simd/kernel_tables.h"
#include "simd/kernels.h"
#include "simd/kernels_internal.h"

namespace cohere {
namespace simd {
namespace {

obs::Gauge* DispatchGauge() {
  static obs::Gauge* gauge =
      obs::MetricsRegistry::Global().GetGauge("simd.dispatch_level");
  return gauge;
}

Level Detect() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  // The AVX2 translation unit is compiled with -mavx2 -mfma (the fast-math
  // pair kernels use FMA), so selecting it requires both cpuid bits.
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma")) {
    return Level::kAvx2;
  }
  if (__builtin_cpu_supports("sse2")) return Level::kSse2;
#endif
  return Level::kScalar;
}

Level ClampToDetected(Level level) {
  return static_cast<int>(level) <= static_cast<int>(DetectedLevel())
             ? level
             : DetectedLevel();
}

Level ResolveFromEnvironment() {
  Level level = DetectedLevel();
  if (const char* env = std::getenv("COHERE_SIMD")) {
    Level requested;
    if (ParseLevel(env, &requested)) {
      // A request above what the CPU supports clamps down (the tier1 kernel
      // leg forces levels on machines that may lack them).
      level = ClampToDetected(requested);
    }
  }
  return level;
}

// The active level is resolved once (first use) and only changed thereafter
// by SetActiveLevelForTest. Relaxed atomics: dispatch consumers only need
// a consistent enum value, and the kernel tables are immutable statics.
std::atomic<int>& ActiveLevelStorage() {
  static std::atomic<int> active{-1};
  return active;
}

}  // namespace

const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSse2:
      return "sse2";
    case Level::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool ParseLevel(const std::string& text, Level* out) {
  if (text == "scalar") {
    *out = Level::kScalar;
    return true;
  }
  if (text == "sse2") {
    *out = Level::kSse2;
    return true;
  }
  if (text == "avx2") {
    *out = Level::kAvx2;
    return true;
  }
  return false;
}

Level DetectedLevel() {
  static const Level detected = Detect();
  return detected;
}

Level ActiveLevel() {
  std::atomic<int>& storage = ActiveLevelStorage();
  int level = storage.load(std::memory_order_relaxed);
  if (level < 0) {
    const Level resolved = ResolveFromEnvironment();
    level = static_cast<int>(resolved);
    storage.store(level, std::memory_order_relaxed);
    DispatchGauge()->Set(static_cast<double>(level));
  }
  return static_cast<Level>(level);
}

Level SetActiveLevelForTest(Level level) {
  const Level installed = ClampToDetected(level);
  ActiveLevelStorage().store(static_cast<int>(installed),
                             std::memory_order_relaxed);
  DispatchGauge()->Set(static_cast<double>(installed));
  return installed;
}

const KernelTable& KernelsFor(Level level) {
  switch (level) {
    case Level::kSse2:
      return internal::Sse2Kernels();
    case Level::kAvx2:
      return internal::Avx2Kernels();
    case Level::kScalar:
      break;
  }
  return internal::ScalarKernels();
}

const KernelTable& ActiveKernels() { return KernelsFor(ActiveLevel()); }

double L2Squared(const double* a, const double* b, size_t n) {
  return internal::L2Row(a, b, n);
}

void CountKernel(KernelId id, uint64_t calls) {
  if (!obs::MetricsRegistry::Enabled()) return;
  static obs::Counter* counters[static_cast<size_t>(KernelId::kCount)] = {
      obs::MetricsRegistry::Global().GetCounter("simd.kernel.l2_block"),
      obs::MetricsRegistry::Global().GetCounter("simd.kernel.l1_block"),
      obs::MetricsRegistry::Global().GetCounter("simd.kernel.linf_block"),
      obs::MetricsRegistry::Global().GetCounter("simd.kernel.cosine_block"),
      obs::MetricsRegistry::Global().GetCounter(
          "simd.kernel.fractional_block"),
      obs::MetricsRegistry::Global().GetCounter("simd.kernel.va_bounds"),
  };
  counters[static_cast<size_t>(id)]->Increment(calls);
}

}  // namespace simd
}  // namespace cohere
