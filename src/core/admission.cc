#include "core/admission.h"

#include <algorithm>
#include <chrono>
#include <cmath>

#include "common/check.h"
#include "common/fault.h"
#include "common/splitmix64.h"

namespace cohere {
namespace {

uint64_t SteadyNowUs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

AdmissionController::AdmissionController(std::string scope,
                                         const AdmissionOptions& options,
                                         obs::WindowClock clock)
    : scope_(std::move(scope)), options_(options), clock_(std::move(clock)) {
  completions_window_.emplace(&completions_, options_.breaker_window, clock_);
  failures_window_.emplace(&failures_, options_.breaker_window, clock_);
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  m_admitted_ = registry.GetCounter("admission.admitted");
  m_queued_ = registry.GetCounter("admission.queued");
  m_shed_ = registry.GetCounter("admission.shed");
  m_rejected_ = registry.GetCounter("admission.rejected");
  m_breaker_open_ = registry.GetCounter("admission.breaker_open");
  g_queue_depth_ = registry.GetGauge("admission.queue_depth");
  g_brownout_level_ = registry.GetGauge("admission.brownout_level");
}

uint64_t AdmissionController::NowUs() const {
  return clock_ ? clock_() : SteadyNowUs();
}

void AdmissionController::AdvanceBreakerLocked(uint64_t now_us) {
  if (breaker_ == Breaker::kOpen) {
    if (now_us >= breaker_open_until_us_) {
      breaker_ = Breaker::kHalfOpen;
      half_open_granted_ = 0;
      half_open_pending_ = 0;
      half_open_failed_ = false;
    }
    return;
  }
  if (breaker_ != Breaker::kClosed) return;
  // WindowValue() rotates the buckets to the clock's current time, so the
  // ratio below always covers exactly the configured window.
  const uint64_t completions = completions_window_->WindowValue();
  if (completions < options_.breaker_min_samples) return;
  const uint64_t failures = failures_window_->WindowValue();
  const double ratio =
      static_cast<double>(failures) / static_cast<double>(completions);
  if (ratio >= options_.breaker_failure_ratio) {
    breaker_ = Breaker::kOpen;
    breaker_open_until_us_ =
        now_us + static_cast<uint64_t>(std::max(0.0, options_.breaker_open_us));
    ++totals_.breaker_trips;
    if (obs::MetricsRegistry::Enabled()) m_breaker_open_->Increment();
  }
}

size_t AdmissionController::BrownoutLevelLocked() const {
  if (pressure_ewma_ >= options_.brownout_l2_pressure) return 2;
  if (pressure_ewma_ >= options_.brownout_l1_pressure) return 1;
  return 0;
}

void AdmissionController::ApplyBrownout(size_t level, AdmissionGrant* grant) {
  grant->brownout_level = level;
  if (level >= 1) grant->rerank_cap = options_.brownout_rerank_cap;
  if (level >= 2) grant->probe_limit = 1;
}

void AdmissionController::RecordGaugesLocked() {
  if (!obs::MetricsRegistry::Enabled()) return;
  g_queue_depth_->Set(static_cast<double>(waiting_));
  g_brownout_level_->Set(static_cast<double>(BrownoutLevelLocked()));
}

AdmissionGrant AdmissionController::Admit(double remaining_budget_us) {
  std::unique_lock<std::mutex> lock(mu_);
  const uint64_t now = NowUs();
  ++totals_.offered;
  AdvanceBreakerLocked(now);
  // Queue pressure feeds the ladder before this arrival's own fate is
  // decided, so sustained backlog degrades the *next* queries too.
  const double occupancy =
      options_.max_queue == 0
          ? (waiting_ > 0 ? 1.0 : 0.0)
          : std::min(1.0, static_cast<double>(waiting_) /
                              static_cast<double>(options_.max_queue));
  pressure_ewma_ = options_.ewma_alpha * occupancy +
                   (1.0 - options_.ewma_alpha) * pressure_ewma_;

  AdmissionGrant grant;
  const bool enabled = obs::MetricsRegistry::Enabled();
  if (COHERE_INJECT_FAULT(fault::kPointAdmissionShed)) {
    ++totals_.shed;
    if (enabled) m_shed_->Increment();
    grant.status = Status::ResourceExhausted(
        scope_ + ": query shed (injected admission fault)");
    RecordGaugesLocked();
    return grant;
  }
  if (breaker_ == Breaker::kOpen ||
      (breaker_ == Breaker::kHalfOpen &&
       half_open_granted_ >= options_.breaker_half_open_probes)) {
    ++totals_.rejected;
    if (enabled) m_rejected_->Increment();
    grant.status = Status::ResourceExhausted(
        scope_ + ": circuit breaker open (windowed failure rate exceeded)");
    RecordGaugesLocked();
    return grant;
  }
  // Feasibility gate: a query whose remaining budget is already below the
  // expected service time cannot finish in time — shed it now instead of
  // letting it rot in the queue (no queue-collapse).
  if (remaining_budget_us > 0.0 && service_ewma_us_ > 0.0 &&
      remaining_budget_us < service_ewma_us_) {
    ++totals_.shed;
    if (enabled) m_shed_->Increment();
    grant.status = Status::ResourceExhausted(
        scope_ + ": query shed (remaining deadline below expected service "
                 "time)");
    RecordGaugesLocked();
    return grant;
  }

  auto admit_now = [&]() {
    ++inflight_;
    ++totals_.admitted;
    if (enabled) m_admitted_->Increment();
    if (breaker_ == Breaker::kHalfOpen) {
      ++half_open_granted_;
      ++half_open_pending_;
    }
    const size_t level = BrownoutLevelLocked();
    ApplyBrownout(level, &grant);
    if (level > 0) ++totals_.brownout_queries;
    grant.admitted = true;
    RecordGaugesLocked();
  };

  if (inflight_ < options_.max_concurrency) {
    admit_now();
    return grant;
  }
  if (waiting_ >= options_.max_queue) {
    ++totals_.shed;
    if (enabled) m_shed_->Increment();
    grant.status =
        Status::ResourceExhausted(scope_ + ": query shed (wait queue full)");
    RecordGaugesLocked();
    return grant;
  }

  // Queue with an absolute expiry: the query's own remaining deadline when
  // it has one, else the configured default wait. The condition variable
  // always uses the real steady clock — an injected test clock only drives
  // breaker/EWMA bookkeeping, never blocks a waiter forever.
  ++waiting_;
  ++totals_.queued;
  grant.queued = true;
  if (enabled) m_queued_->Increment();
  RecordGaugesLocked();
  const double wait_budget_us = remaining_budget_us > 0.0
                                    ? remaining_budget_us
                                    : options_.default_queue_wait_us;
  const auto expiry =
      std::chrono::steady_clock::now() +
      std::chrono::microseconds(
          static_cast<int64_t>(std::max(1.0, wait_budget_us)));
  const bool got_slot = cv_.wait_until(lock, expiry, [&] {
    return inflight_ < options_.max_concurrency;
  });
  --waiting_;
  if (!got_slot) {
    ++totals_.shed;
    if (enabled) m_shed_->Increment();
    grant.status = Status::ResourceExhausted(
        scope_ + ": query shed (deadline expired while queued)");
    RecordGaugesLocked();
    return grant;
  }
  admit_now();
  return grant;
}

void AdmissionController::Release(double latency_us, bool success) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    COHERE_CHECK_MSG(inflight_ > 0, "Release without a matching Admit");
    --inflight_;
    if (latency_us >= 0.0 && std::isfinite(latency_us)) {
      service_ewma_us_ = service_ewma_us_ == 0.0
                             ? latency_us
                             : options_.ewma_alpha * latency_us +
                                   (1.0 - options_.ewma_alpha) *
                                       service_ewma_us_;
    }
    completions_.Increment();
    if (!success) failures_.Increment();
    const uint64_t now = NowUs();
    if (breaker_ == Breaker::kHalfOpen && half_open_pending_ > 0) {
      // Completions during HalfOpen are the probe verdicts: one failure
      // re-opens immediately; all probes succeeding re-closes with fresh
      // windows (pre-trip failures must not instantly re-trip).
      --half_open_pending_;
      if (!success) half_open_failed_ = true;
      if (half_open_failed_) {
        breaker_ = Breaker::kOpen;
        breaker_open_until_us_ =
            now +
            static_cast<uint64_t>(std::max(0.0, options_.breaker_open_us));
        ++totals_.breaker_trips;
        if (obs::MetricsRegistry::Enabled()) m_breaker_open_->Increment();
      } else if (half_open_pending_ == 0 &&
                 half_open_granted_ >= options_.breaker_half_open_probes) {
        breaker_ = Breaker::kClosed;
        completions_window_.emplace(&completions_, options_.breaker_window,
                                    clock_);
        failures_window_.emplace(&failures_, options_.breaker_window, clock_);
      }
    } else {
      AdvanceBreakerLocked(now);
    }
    RecordGaugesLocked();
  }
  cv_.notify_one();
}

AdmissionTotals AdmissionController::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  return totals_;
}

size_t AdmissionController::BrownoutLevel() const {
  std::lock_guard<std::mutex> lock(mu_);
  return BrownoutLevelLocked();
}

std::string AdmissionController::BreakerState() const {
  std::lock_guard<std::mutex> lock(mu_);
  switch (breaker_) {
    case Breaker::kClosed:
      return "closed";
    case Breaker::kOpen:
      return "open";
    case Breaker::kHalfOpen:
      return "half_open";
  }
  return "unknown";
}

// --- RetryPolicy -----------------------------------------------------------

RetryPolicy::RetryPolicy(const RetryPolicyOptions& options,
                         obs::WindowClock clock)
    : options_(options), clock_(std::move(clock)),
      tokens_(options.budget_tokens) {
  m_retries_ = obs::MetricsRegistry::Global().GetCounter("admission.retries");
}

uint64_t RetryPolicy::NowUs() const {
  return clock_ ? clock_() : SteadyNowUs();
}

size_t RetryPolicy::CappedExponentialSteps(size_t base, size_t cap,
                                           size_t consecutive_failures) {
  if (consecutive_failures == 0 || base == 0) return 0;
  const size_t shift = std::min<size_t>(consecutive_failures - 1, 16);
  return std::min(cap, base << shift);
}

double RetryPolicy::BackoffUs(size_t attempt) {
  if (attempt == 0) attempt = 1;
  double raw = options_.base_backoff_us;
  for (size_t i = 1; i < attempt && raw < options_.max_backoff_us; ++i) {
    raw *= 2.0;
  }
  raw = std::min(raw, options_.max_backoff_us);
  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t draw =
      SplitMix64(options_.seed ^ (0x9e3779b97f4a7c15ull * (++draws_)));
  // 53 high bits -> uniform [0, 1); jitter spreads retries over [0.5, 1.0)
  // of the capped exponential step.
  const double unit =
      static_cast<double>(draw >> 11) * (1.0 / 9007199254740992.0);
  return raw * (0.5 + 0.5 * unit);
}

void RetryPolicy::RefillLocked(uint64_t now_us) {
  if (!refill_initialized_) {
    refill_initialized_ = true;
    last_refill_us_ = now_us;
    return;
  }
  if (now_us <= last_refill_us_) return;
  const double elapsed_s =
      static_cast<double>(now_us - last_refill_us_) / 1e6;
  tokens_ = std::min(options_.budget_tokens,
                     tokens_ + elapsed_s * options_.tokens_per_second);
  last_refill_us_ = now_us;
}

bool RetryPolicy::AcquireRetry(size_t attempt) {
  if (attempt == 0 || attempt >= options_.max_attempts) return false;
  std::lock_guard<std::mutex> lock(mu_);
  RefillLocked(NowUs());
  if (tokens_ < 1.0) return false;
  tokens_ -= 1.0;
  if (obs::MetricsRegistry::Enabled()) m_retries_->Increment();
  return true;
}

double RetryPolicy::TokensAvailable() {
  std::lock_guard<std::mutex> lock(mu_);
  RefillLocked(NowUs());
  return tokens_;
}

}  // namespace cohere
