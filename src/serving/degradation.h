#pragma once

#include <cstdint>
#include <string>

#include "metrics/slo.h"
#include "sim/time.h"

namespace olympian::serving {

using metrics::RequestStatus;

const char* ToString(RequestStatus status);

// Exponential backoff; the serving loop jitters each backoff by
// server.cc's kRetryJitter.
struct RetryPolicy {
  int max_retries = 2;
  sim::Duration base_backoff = sim::Duration::Millis(2);
  double multiplier = 2.0;

  sim::Duration BackoffFor(int attempt) const;  // attempt is 1-based
};

// Consecutive-failure circuit breaker, one per model key. `failure_threshold`
// of 0 disables it.
struct CircuitBreakerOptions {
  int failure_threshold = 0;
  sim::Duration cooldown = sim::Duration::Millis(50);
};

// Classic three-state breaker: `failure_threshold` consecutive failures trip
// it open; requests fail fast until `cooldown` elapses; then one trial
// request is let through (half-open) and its outcome closes or re-opens the
// breaker. Protects the pool from burning threads on a model whose kernels
// are failing repeatedly (e.g. during a fault window).
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(CircuitBreakerOptions options) : options_(options) {}

  // May transition kOpen -> kHalfOpen when the cooldown has elapsed. In
  // half-open state only the single trial request is admitted.
  bool AllowRequest(sim::TimePoint now);
  void OnSuccess();
  // Returns true when this failure tripped the breaker open.
  bool OnFailure(sim::TimePoint now);

  State state() const { return state_; }
  std::uint64_t opens() const { return opens_; }

 private:
  CircuitBreakerOptions options_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  bool trial_in_flight_ = false;
  sim::TimePoint open_until_;
  std::uint64_t opens_ = 0;
};

// Knobs for the serving layer's graceful-degradation machinery. Defaults
// preserve the legacy fail-stop behaviour (no shedding, no breaker); the
// retry policy only engages when faults actually produce request failures.
struct DegradationOptions {
  RetryPolicy retry;
  CircuitBreakerOptions breaker;
  // Admission-control watermark as a fraction of the thread pool
  // (busy + queued over pool size). A new request arriving at or above the
  // watermark is rejected instead of stalling the server (which answers
  // after server.cc's kRejectBackoff); 0 disables.
  double admission_watermark = 0.0;
};

}  // namespace olympian::serving
