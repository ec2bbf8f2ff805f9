// The four perfbench workloads. Each builds its inputs from the seed,
// drives one of the library's engine facades with one closed-loop client,
// checks sampled answers against a brute-force scan of the same snapshot,
// and reports either the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run). See perfbench/README.md.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Fixed size of the shared thread pool (QueryBatch fan-out, multi-probe
/// fan-out and the parallel fitting kernels), so results do not depend on
/// the host's core count. One thread runs every pool task inline on the
/// client: on a shared host, waking pool workers adds millisecond tails
/// that swamp the work being measured.
constexpr size_t kPoolThreads = 1;

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Test hook: perturb the first checked answer by one ulp, so the output
  /// check must fail.
  bool corrupt_answer = false;
  /// Where a traced run writes its spans; empty = do not write.
  std::string trace_path;
};

struct MetricValue {
  std::string name;
  std::string unit;
  double value = 0.0;
};

struct RunResult {
  std::vector<MetricValue> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Facts about the run (inputs, environment, deterministic outcomes),
  /// as (key, JSON value) pairs.
  std::vector<std::pair<std::string, std::string>> facts;
  /// Human-readable notes: failed checks and, for a traced run, the
  /// attribution report.
  std::vector<std::string> notes;
};

const std::vector<std::string>& WorkloadNames();

/// Runs one workload; false if the name is unknown.
bool RunWorkload(const RunOptions& options, RunResult* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
