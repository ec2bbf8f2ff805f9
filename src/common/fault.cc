#include "common/fault.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <mutex>

#include "common/logging.h"
#include "common/splitmix64.h"
#include "common/string_util.h"

namespace cohere {
namespace fault {
namespace {

// Number of currently-armed points. Constant-initialized so AnyArmed() is
// safe during static initialization from any TU.
std::atomic<int> g_armed_count{0};

struct Registry {
  std::mutex mu;
  // Pointers are leaked so call-site statics stay valid forever.
  std::map<std::string, FaultPoint*> points;
};

Registry& GlobalRegistry() {
  static Registry* registry = new Registry();
  return *registry;
}

// Parses the COHERE_FAULT environment spec once, before main. The TU is
// always linked (metrics/parallel reference this file), so env arming works
// for every binary that links cohere_common.
bool ApplyEnvSpec() {
  const char* spec = std::getenv("COHERE_FAULT");
  if (spec == nullptr || spec[0] == '\0') return false;
  const Status status = ArmFromSpec(spec);
  if (!status.ok()) {
    COHERE_LOG(Warning) << "ignoring malformed COHERE_FAULT entry: "
                        << status.ToString();
  }
  return true;
}

const bool g_env_applied = ApplyEnvSpec();

}  // namespace

bool FaultPoint::ShouldFire() {
  if (!armed_.load(std::memory_order_relaxed)) return false;
  const std::uint64_t ordinal = draws_.fetch_add(1, std::memory_order_relaxed);
  if (!always_.load(std::memory_order_relaxed)) {
    const std::uint64_t draw =
        SplitMix64(seed_.load(std::memory_order_relaxed) ^
                   (0x9e3779b97f4a7c15ull * (ordinal + 1)));
    if (draw >= threshold_.load(std::memory_order_relaxed)) return false;
  }
  triggers_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool AnyArmed() {
  return g_armed_count.load(std::memory_order_relaxed) > 0;
}

FaultPoint* Point(const std::string& name) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.points.find(name);
  if (it == registry.points.end()) {
    it = registry.points.emplace(name, new FaultPoint(name)).first;
  }
  return it->second;
}

void Arm(const std::string& name, double probability, std::uint64_t seed) {
  FaultPoint* point = Point(name);
  probability = std::clamp(probability, 0.0, 1.0);
  point->always_.store(probability >= 1.0, std::memory_order_relaxed);
  point->threshold_.store(
      static_cast<std::uint64_t>(
          probability * 18446744073709551615.0 /* 2^64 - 1 */),
      std::memory_order_relaxed);
  point->seed_.store(seed, std::memory_order_relaxed);
  point->draws_.store(0, std::memory_order_relaxed);
  if (!point->armed_.exchange(true, std::memory_order_relaxed)) {
    g_armed_count.fetch_add(1, std::memory_order_relaxed);
  }
}

void Disarm(const std::string& name) {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  auto it = registry.points.find(name);
  if (it == registry.points.end()) return;
  if (it->second->armed_.exchange(false, std::memory_order_relaxed)) {
    g_armed_count.fetch_sub(1, std::memory_order_relaxed);
  }
}

void DisarmAll() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (auto& entry : registry.points) {
    if (entry.second->armed_.exchange(false, std::memory_order_relaxed)) {
      g_armed_count.fetch_sub(1, std::memory_order_relaxed);
    }
  }
}

void ResetCounters() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  for (auto& entry : registry.points) {
    entry.second->draws_.store(0, std::memory_order_relaxed);
    entry.second->triggers_.store(0, std::memory_order_relaxed);
  }
}

std::vector<PointInfo> Points() {
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  std::vector<PointInfo> out;
  out.reserve(registry.points.size());
  for (const auto& entry : registry.points) {
    PointInfo info;
    info.name = entry.first;
    info.armed = entry.second->armed();
    info.triggers = entry.second->triggers();
    out.push_back(std::move(info));
  }
  return out;  // std::map iteration is already name-sorted.
}

namespace {

// A spec may only name points code can actually draw from: the wired-in
// catalog, anything already registered programmatically, or the `test.`
// namespace unit tests use for synthetic points. Everything else is a typo
// and must fail loudly instead of arming a point nobody fires.
bool IsArmableName(const std::string& name) {
  if (name.rfind("test.", 0) == 0) return true;
  const std::vector<std::string> known = KnownPoints();
  if (std::binary_search(known.begin(), known.end(), name)) return true;
  Registry& registry = GlobalRegistry();
  std::lock_guard<std::mutex> lock(registry.mu);
  return registry.points.find(name) != registry.points.end();
}

}  // namespace

Status ArmFromSpec(const std::string& spec) {
  for (const std::string& raw : Split(spec, ',')) {
    const std::string entry(Trim(raw));
    if (entry.empty()) continue;
    const std::vector<std::string> parts = Split(entry, ':');
    if (parts.empty() || Trim(parts[0]).empty() || parts.size() > 3) {
      return Status::InvalidArgument(
          "bad fault spec entry '" + entry +
          "' (want point[:probability[:seed]])");
    }
    const std::string name(Trim(parts[0]));
    if (!IsArmableName(name)) {
      return Status::InvalidArgument(
          "unknown fault point '" + name + "' in '" + entry +
          "' (want a catalog point, a registered point, or a test.* name)");
    }
    double probability = 1.0;
    std::uint64_t seed = 0;
    if (parts.size() >= 2) {
      Result<double> parsed = ParseDouble(Trim(parts[1]));
      if (!parsed.ok() || !(*parsed >= 0.0) || !(*parsed <= 1.0)) {
        return Status::InvalidArgument(
            "bad fault probability in '" + entry + "' (want [0,1])");
      }
      probability = *parsed;
    }
    if (parts.size() == 3) {
      Result<long long> parsed = ParseInt(Trim(parts[2]));
      if (!parsed.ok() || *parsed < 0) {
        return Status::InvalidArgument(
            "bad fault seed in '" + entry + "' (want a non-negative integer)");
      }
      seed = static_cast<std::uint64_t>(*parsed);
    }
    Arm(name, probability, seed);
  }
  return Status::Ok();
}

std::vector<std::string> KnownPoints() {
  std::vector<std::string> points = {
      kPointLoaderIo,       kPointDynamicRefit,   kPointJacobiEigen,
      kPointPowerIteration, kPointSymmetricEigen, kPointSvd,
      kPointParallelDispatch, kPointReductionFit, kPointSnapshotPublish,
      kPointCacheInsertPressure, kPointAdmissionShed,
  };
  std::sort(points.begin(), points.end());
  return points;
}

}  // namespace fault
}  // namespace cohere
