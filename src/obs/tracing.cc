#include "obs/tracing.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <set>

#include "common/check.h"
#include "common/splitmix64.h"

namespace cohere {
namespace obs {

namespace {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point since, Clock::time_point now) {
  return std::chrono::duration<double, std::micro>(now - since).count();
}

// Per-thread span context. The parent stack holds the ids of the open
// captured spans; `depth` counts every open span (captured or not) so the
// root/sampling decision stays correct past kMaxTraceDepth.
struct ThreadContext {
  uint64_t parent_stack[kMaxTraceDepth];
  size_t depth = 0;
  bool capturing = false;
};

ThreadContext& Context() {
  thread_local ThreadContext ctx;
  return ctx;
}

uint32_t CurrentTraceThreadId() {
  static std::atomic<uint32_t> next{1};
  thread_local const uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

}  // namespace

std::atomic<bool> Tracer::enabled_{false};

struct Tracer::Impl {
  // One ring slot: payload plus a release-published ready flag so readers
  // can copy concurrently with writers without tearing.
  struct Slot {
    std::atomic<uint32_t> ready{0};
    SpanRecord record;
  };

  // Configuration (written only by Start, between workloads).
  TracerOptions options;
  Clock::time_point epoch = Clock::now();
  uint64_t sample_threshold_bits = 0;  // hash < threshold => captured

  // Ring buffer: fetch_add ticket per event; tickets >= capacity are
  // dropped (keep-oldest preserves parents of already-captured spans).
  std::unique_ptr<Slot[]> slots;
  size_t capacity = 0;
  std::atomic<uint64_t> next_slot{0};
  std::atomic<uint64_t> dropped{0};

  std::atomic<uint64_t> next_id{1};
  std::atomic<uint64_t> sample_seq{0};
  std::atomic<uint64_t> slow_count{0};

  // Slow-query log: slow roots are rare, so a small mutexed deque is fine.
  std::mutex slow_mu;
  std::deque<SpanRecord> slow_log;

  Counter* slow_queries_metric = nullptr;
};

Tracer::Impl& Tracer::impl() const {
  // Leaked for the same reason as MetricsRegistry: spans may close during
  // static destruction.
  static Impl* impl = new Impl();
  return *impl;
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();
  return *tracer;
}

void Tracer::Start(const TracerOptions& options) {
  Impl& state = impl();
  Stop();
  state.options = options;
  if (state.capacity != options.ring_capacity) {
    state.slots = std::make_unique<Impl::Slot[]>(options.ring_capacity);
    state.capacity = options.ring_capacity;
  }
  const double p = std::clamp(options.sample_probability, 0.0, 1.0);
  // Map probability onto the top 53 bits of the hash; 2^53 keeps the
  // comparison exact for p in {0, 1}.
  state.sample_threshold_bits =
      static_cast<uint64_t>(p * 9007199254740992.0);  // p * 2^53
  slow_query_us_.store(options.slow_query_us, std::memory_order_relaxed);
  state.slow_queries_metric =
      MetricsRegistry::Global().GetCounter("trace.slow_queries");
  Clear();
  state.epoch = Clock::now();
  enabled_.store(true, std::memory_order_relaxed);
}

void Tracer::Stop() { enabled_.store(false, std::memory_order_relaxed); }

void Tracer::EnableSlowQueryCapture(double slow_query_us) {
  if (!Enabled()) {
    TracerOptions options;
    options.sample_probability = 0.0;
    options.slow_query_us = slow_query_us;
    Start(options);
    return;
  }
  slow_query_us_.store(slow_query_us, std::memory_order_relaxed);
}

void Tracer::Clear() {
  Impl& state = impl();
  for (size_t i = 0; i < state.capacity; ++i) {
    state.slots[i].ready.store(0, std::memory_order_relaxed);
  }
  state.next_slot.store(0, std::memory_order_relaxed);
  state.dropped.store(0, std::memory_order_relaxed);
  state.next_id.store(1, std::memory_order_relaxed);
  state.sample_seq.store(0, std::memory_order_relaxed);
  state.slow_count.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(state.slow_mu);
  state.slow_log.clear();
}

bool Tracer::SampleDecision() {
  Impl& state = impl();
  if (state.sample_threshold_bits >= 9007199254740992ULL) return true;
  if (state.sample_threshold_bits == 0) return false;
  const uint64_t seq =
      state.sample_seq.fetch_add(1, std::memory_order_relaxed);
  const uint64_t hash = SplitMix64(state.options.sample_seed ^
                                   (seq * 0x2545f4914f6cdd1dULL + 1));
  return (hash >> 11) < state.sample_threshold_bits;
}

void Tracer::OpenSpan(TraceSpan* span) {
  Impl& state = impl();
  if (state.capacity == 0) return;  // enabled without Start(): ignore
  ThreadContext& ctx = Context();
  span->opened_ = true;
  span->root_ = ctx.depth == 0;
  if (span->root_) ctx.capturing = SampleDecision();
  span->recorded_ = ctx.capturing && ctx.depth < kMaxTraceDepth;
  if (span->recorded_) {
    span->id_ = state.next_id.fetch_add(1, std::memory_order_relaxed);
    span->parent_id_ = span->root_ ? 0 : ctx.parent_stack[ctx.depth - 1];
    ctx.parent_stack[ctx.depth] = span->id_;
  }
  ++ctx.depth;
  // Roots are timed even when unsampled so the slow-query log can see them —
  // but only while a finite threshold makes that observable.
  const bool timed =
      span->recorded_ ||
      (span->root_ &&
       std::isfinite(slow_query_us_.load(std::memory_order_relaxed)));
  if (timed) {
    if (!span->has_start_) {
      span->start_ = Clock::now();
      span->has_start_ = true;
    }
    span->start_us_ = MicrosSince(state.epoch, span->start_);
  }
}

void Tracer::CloseSpan(TraceSpan* span) {
  Impl& state = impl();
  ThreadContext& ctx = Context();
  if (ctx.depth > 0) --ctx.depth;
  if (ctx.depth == 0) ctx.capturing = false;
  if (!span->recorded_ && !(span->root_ && span->has_start_)) return;

  const double duration_us = MicrosSince(span->start_, Clock::now());
  const bool slow =
      span->root_ &&
      duration_us >= slow_query_us_.load(std::memory_order_relaxed);

  SpanRecord record;
  record.name = span->name_;
  record.id = span->id_;
  record.parent_id = span->parent_id_;
  record.thread_id = CurrentTraceThreadId();
  record.slow = slow;
  record.start_us = span->start_us_;
  record.duration_us = duration_us;
  record.num_args = span->num_args_;
  for (size_t i = 0; i < span->num_args_; ++i) record.args[i] = span->args_[i];

  if (span->recorded_) {
    const uint64_t ticket =
        state.next_slot.fetch_add(1, std::memory_order_relaxed);
    if (ticket < state.capacity) {
      Impl::Slot& slot = state.slots[ticket];
      slot.record = record;
      slot.ready.store(1, std::memory_order_release);
    } else {
      state.dropped.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (slow) {
    if (record.id == 0) {
      record.id = state.next_id.fetch_add(1, std::memory_order_relaxed);
    }
    RecordSlow(record);
  }
}

void Tracer::RecordSlow(const SpanRecord& record) {
  Impl& state = impl();
  state.slow_count.fetch_add(1, std::memory_order_relaxed);
  if (state.slow_queries_metric != nullptr && MetricsRegistry::Enabled()) {
    state.slow_queries_metric->Increment();
  }
  std::lock_guard<std::mutex> lock(state.slow_mu);
  state.slow_log.push_back(record);
  while (state.slow_log.size() > kSlowLogCapacity) {
    state.slow_log.pop_front();
  }
}

uint64_t Tracer::CapturedCount() const {
  Impl& state = impl();
  const uint64_t tickets = state.next_slot.load(std::memory_order_relaxed);
  return std::min<uint64_t>(tickets, state.capacity);
}

uint64_t Tracer::DroppedCount() const {
  return impl().dropped.load(std::memory_order_relaxed);
}

uint64_t Tracer::SlowCount() const {
  return impl().slow_count.load(std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::CapturedSpans() const {
  Impl& state = impl();
  const uint64_t n = CapturedCount();
  std::vector<SpanRecord> out;
  out.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    // Skip tickets whose writer has not published yet; acquire pairs with
    // the writer's release so the payload read is safe.
    if (state.slots[i].ready.load(std::memory_order_acquire) != 0) {
      out.push_back(state.slots[i].record);
    }
  }
  return out;
}

std::vector<SpanRecord> Tracer::SlowQueries() const {
  Impl& state = impl();
  std::lock_guard<std::mutex> lock(state.slow_mu);
  return {state.slow_log.begin(), state.slow_log.end()};
}

namespace {

void AppendChromeEvent(std::string* out, const SpanRecord& record, int pid,
                       bool first) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s    {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                "\"ts\": %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": %u, "
                "\"args\": {\"id\": %llu, \"parent\": %llu",
                first ? "" : ",\n", record.name,
                pid == 2 ? "cohere.slow" : "cohere", record.start_us,
                record.duration_us, pid, record.thread_id,
                static_cast<unsigned long long>(record.id),
                static_cast<unsigned long long>(record.parent_id));
  *out += buf;
  for (size_t i = 0; i < record.num_args; ++i) {
    std::snprintf(buf, sizeof(buf), ", \"%s\": %.6g", record.args[i].key,
                  record.args[i].value);
    *out += buf;
  }
  *out += "}}";
}

}  // namespace

std::string Tracer::ToChromeTraceJson() const {
  const std::vector<SpanRecord> spans = CapturedSpans();
  const std::vector<SpanRecord> slow = SlowQueries();

  std::string out = "{\n  \"traceEvents\": [\n";
  out +=
      "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"args\": {\"name\": \"cohere\"}},\n"
      "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 2, "
      "\"args\": {\"name\": \"cohere slow queries\"}}";
  for (const SpanRecord& record : spans) {
    AppendChromeEvent(&out, record, /*pid=*/1, /*first=*/false);
  }
  for (const SpanRecord& record : slow) {
    AppendChromeEvent(&out, record, /*pid=*/2, /*first=*/false);
  }
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "\n  ],\n  \"otherData\": {\"dropped_events\": %llu, "
                "\"slow_queries\": %llu},\n  \"displayTimeUnit\": \"ms\"\n}\n",
                static_cast<unsigned long long>(DroppedCount()),
                static_cast<unsigned long long>(SlowCount()));
  out += buf;
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return Status::IoError("cannot open trace output file: " + path);
  }
  const std::string json = ToChromeTraceJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool closed = std::fclose(f) == 0;
  if (written != json.size() || !closed) {
    return Status::IoError("short write to trace output file: " + path);
  }
  return Status::Ok();
}

const char* Tracer::InternName(const std::string& name) {
  struct Table {
    std::mutex mu;
    std::set<std::string> names;
  };
  // Leaked: interned pointers are embedded in ring records that may be
  // exported during static destruction.
  static Table* table = new Table();
  std::lock_guard<std::mutex> lock(table->mu);
  return table->names.insert(name).first->c_str();
}

namespace {

// COHERE_TRACE=1 starts the process tracing with full sampling;
// COHERE_TRACE_SLOW_US=<µs> starts (or augments) it with a slow-query
// threshold. With only the threshold set, sampling stays at 0 — the
// slow-query log alone is captured.
struct TracerEnvInit {
  TracerEnvInit() {
    const char* trace = std::getenv("COHERE_TRACE");
    const bool want_trace = trace != nullptr && std::strcmp(trace, "0") != 0 &&
                            std::strcmp(trace, "off") != 0;
    double slow_us = std::numeric_limits<double>::infinity();
    const char* slow = std::getenv("COHERE_TRACE_SLOW_US");
    if (slow != nullptr) {
      char* end = nullptr;
      const double parsed = std::strtod(slow, &end);
      if (end != slow && std::isfinite(parsed) && parsed >= 0.0) {
        slow_us = parsed;
      }
    }
    if (want_trace || std::isfinite(slow_us)) {
      TracerOptions options;
      options.sample_probability = want_trace ? 1.0 : 0.0;
      options.slow_query_us = slow_us;
      Tracer::Global().Start(options);
    }
  }
};
TracerEnvInit tracer_env_init;

}  // namespace

}  // namespace obs
}  // namespace cohere
