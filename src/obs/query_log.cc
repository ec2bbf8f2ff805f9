#include "obs/query_log.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>

#include "common/splitmix64.h"
#include "obs/metrics.h"

namespace cohere {
namespace obs {

namespace {

using Clock = std::chrono::steady_clock;

}  // namespace

std::atomic<bool> QueryLog::enabled_{false};

struct QueryLog::Impl {
  // One ring slot: payload plus a release-published ready flag so readers
  // can copy concurrently with writers without tearing.
  struct Slot {
    std::atomic<uint32_t> ready{0};
    QueryEvent event;
  };

  // Configuration (written only by Start, between workloads).
  QueryLogOptions options;
  Clock::time_point epoch = Clock::now();
  uint64_t sample_threshold_bits = 0;  // hash < threshold => captured

  // Ring buffer: fetch_add ticket per sampled-in event; tickets >= capacity
  // are dropped (keep-oldest: the surviving prefix is an unbiased head).
  std::unique_ptr<Slot[]> slots;
  size_t capacity = 0;
  std::atomic<uint64_t> next_slot{0};
  std::atomic<uint64_t> dropped{0};

  std::atomic<uint64_t> offered{0};
  std::atomic<uint64_t> sampled_out{0};

  // Registry counters mirroring the local accounting, so the drop rate is
  // visible in every exposition format without draining the ring.
  Counter* events_metric = nullptr;
  Counter* dropped_metric = nullptr;
  Counter* sampled_out_metric = nullptr;
};

QueryLog::Impl& QueryLog::impl() const {
  // Leaked for the same reason as MetricsRegistry: queries may complete
  // during static destruction.
  static Impl* impl = new Impl();
  return *impl;
}

QueryLog& QueryLog::Global() {
  static QueryLog* log = new QueryLog();
  return *log;
}

void QueryLog::Start(const QueryLogOptions& options) {
  Impl& state = impl();
  Stop();
  state.options = options;
  if (state.capacity != options.ring_capacity) {
    state.slots = std::make_unique<Impl::Slot[]>(options.ring_capacity);
    state.capacity = options.ring_capacity;
  }
  const double p = std::min(std::max(options.sample_probability, 0.0), 1.0);
  // Top 53 hash bits against p * 2^53; exact for p in {0, 1}.
  state.sample_threshold_bits = static_cast<uint64_t>(p * 9007199254740992.0);
  state.events_metric = MetricsRegistry::Global().GetCounter("query_log.events");
  state.dropped_metric =
      MetricsRegistry::Global().GetCounter("query_log.dropped");
  state.sampled_out_metric =
      MetricsRegistry::Global().GetCounter("query_log.sampled_out");
  Clear();
  state.epoch = Clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void QueryLog::Stop() { enabled_.store(false, std::memory_order_relaxed); }

void QueryLog::Clear() {
  Impl& state = impl();
  for (size_t i = 0; i < state.capacity; ++i) {
    state.slots[i].ready.store(0, std::memory_order_relaxed);
  }
  state.next_slot.store(0, std::memory_order_relaxed);
  state.dropped.store(0, std::memory_order_relaxed);
  state.offered.store(0, std::memory_order_relaxed);
  state.sampled_out.store(0, std::memory_order_relaxed);
}

void QueryLog::Record(QueryEvent event) {
  Impl& state = impl();
  if (state.capacity == 0) return;  // enabled without Start(): ignore
  const bool metrics_on =
      state.events_metric != nullptr && MetricsRegistry::Enabled();
  const uint64_t seq = state.offered.fetch_add(1, std::memory_order_relaxed);
  bool keep = true;
  if (state.sample_threshold_bits >= 9007199254740992ULL) {
    keep = true;
  } else if (state.sample_threshold_bits == 0) {
    keep = false;
  } else {
    const uint64_t hash = SplitMix64(state.options.sample_seed ^
                                     (seq * 0x2545f4914f6cdd1dULL + 1));
    keep = (hash >> 11) < state.sample_threshold_bits;
  }
  if (!keep) {
    state.sampled_out.fetch_add(1, std::memory_order_relaxed);
    if (metrics_on) state.sampled_out_metric->Increment();
    return;
  }
  event.sequence = seq;
  event.t_us = std::chrono::duration<double, std::micro>(Clock::now() -
                                                         state.epoch)
                   .count();
  const uint64_t ticket =
      state.next_slot.fetch_add(1, std::memory_order_relaxed);
  if (ticket < state.capacity) {
    Impl::Slot& slot = state.slots[ticket];
    slot.event = event;
    slot.ready.store(1, std::memory_order_release);
    if (metrics_on) state.events_metric->Increment();
  } else {
    state.dropped.fetch_add(1, std::memory_order_relaxed);
    if (metrics_on) state.dropped_metric->Increment();
  }
}

uint64_t QueryLog::OfferedCount() const {
  return impl().offered.load(std::memory_order_relaxed);
}

uint64_t QueryLog::CapturedCount() const {
  Impl& state = impl();
  const uint64_t tickets = state.next_slot.load(std::memory_order_relaxed);
  return std::min<uint64_t>(tickets, state.capacity);
}

uint64_t QueryLog::DroppedCount() const {
  return impl().dropped.load(std::memory_order_relaxed);
}

uint64_t QueryLog::SampledOutCount() const {
  return impl().sampled_out.load(std::memory_order_relaxed);
}

std::vector<QueryEvent> QueryLog::Events() const {
  Impl& state = impl();
  const uint64_t n = CapturedCount();
  std::vector<QueryEvent> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    // Acquire pairs with the writer's release so the payload read is safe;
    // unpublished tickets are skipped.
    if (state.slots[i].ready.load(std::memory_order_acquire) != 0) {
      out.push_back(state.slots[i].event);
    }
  }
  return out;
}

std::string QueryLog::ToJsonl() const {
  const std::vector<QueryEvent> events = Events();
  std::string out;
  out.reserve(events.size() * 200);
  char buf[512];
  for (const QueryEvent& e : events) {
    std::snprintf(
        buf, sizeof(buf),
        "{\"scope\": \"%s\", \"sequence\": %llu, \"snapshot_version\": %llu, "
        "\"t_us\": %.3f, \"k\": %u, \"cache_hit\": %s, \"truncated\": %s, "
        "\"distance_evaluations\": %llu, \"nodes_visited\": %llu, "
        "\"candidates_refined\": %llu, \"latency_us\": %.3f}\n",
        e.scope != nullptr ? e.scope : "",
        static_cast<unsigned long long>(e.sequence),
        static_cast<unsigned long long>(e.snapshot_version), e.t_us, e.k,
        e.cache_hit ? "true" : "false", e.truncated ? "true" : "false",
        static_cast<unsigned long long>(e.distance_evaluations),
        static_cast<unsigned long long>(e.nodes_visited),
        static_cast<unsigned long long>(e.candidates_refined), e.latency_us);
    out += buf;
  }
  return out;
}

Status QueryLog::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open query log output file: " + path);
  }
  const std::string jsonl = ToJsonl();
  const size_t written = std::fwrite(jsonl.data(), 1, jsonl.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != jsonl.size() || !closed) {
    return Status::IoError("short write to query log output file: " + path);
  }
  return Status::Ok();
}

}  // namespace obs
}  // namespace cohere
