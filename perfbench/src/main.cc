// perfbench: runs one workload and prints its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE] [--corrupt-answer]
//
// Standard output ends with one JSON line {"correct", "attempted",
// "failed", "metrics"}; the line before it is {"facts": {...}} with the
// environment, the input fingerprints and the deterministic outcomes.
// Exit code 0 when every operation succeeded and every checked answer
// matched the brute-force reference, 1 otherwise, 2 on bad arguments.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/parallel.h"
#include "simd/dispatch.h"
#include "util.h"
#include "workloads.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] "
               "[--corrupt-answer]\n",
               message);
  return 2;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--corrupt-answer") {
      options.corrupt_answer = true;
      continue;
    }
    const char* v = value();
    if (v == nullptr) return Usage(("missing value for " + arg).c_str());
    char* end = nullptr;
    if (arg == "--workload") {
      options.workload = v;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(v, &end, 10);
      have_seed = end != v && *end == '\0';
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(v, &end);
      have_seconds = end != v && *end == '\0' && options.seconds > 0.0;
    } else if (arg == "--trace") {
      have_trace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      options.trace = std::strcmp(v, "1") == 0;
    } else if (arg == "--trace-out") {
      options.trace_path = v;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return Usage("--workload, --seed, --seconds and --trace are required");
  }

  cohere::SetParallelThreadCount(perfbench::kPoolThreads);
  perfbench::RunResult result;
  if (!perfbench::RunWorkload(options, &result)) {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  for (const std::string& note : result.notes) {
    std::fprintf(stderr, "%s\n", note.c_str());
  }

  std::string facts = "{\"facts\": {\"workload\": " +
                      JsonString(options.workload) +
                      ", \"seed\": " + std::to_string(options.seed) +
                      ", \"trace\": " + (options.trace ? "1" : "0") +
                      ", \"pool_threads\": " +
                      std::to_string(cohere::ParallelThreadCount()) +
                      ", \"simd_level\": " +
                      JsonString(cohere::simd::LevelName(
                          cohere::simd::ActiveLevel())) +
                      ", \"simd_detected\": " +
                      JsonString(cohere::simd::LevelName(
                          cohere::simd::DetectedLevel())) +
                      ", \"cpu\": " + JsonString(perfbench::CpuModel());
  for (const auto& [key, json] : result.facts) {
    facts += ", " + JsonString(key) + ": " + json;
  }
  std::printf("%s}}\n", facts.c_str());

  const bool correct = result.failed == 0;
  std::string line = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::MetricValue& m = result.metrics[i];
    line += (i == 0 ? "" : ", ") + JsonString(m.name) + ": {\"value\": " +
            JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) + "}";
  }
  std::printf("%s}}\n", line.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
