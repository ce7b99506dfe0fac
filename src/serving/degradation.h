#pragma once

#include "metrics/slo.h"
#include "sim/time.h"

namespace olympian::serving {

using metrics::RequestStatus;

const char* ToString(RequestStatus status);

// Exponential backoff: doubling per attempt keeps the default two retries
// within 3 x base_backoff; the serving loop jitters each backoff by
// server.cc's kRetryJitter.
struct RetryPolicy {
  static constexpr double kBackoffMultiplier = 2.0;
  int max_retries = 2;
  sim::Duration base_backoff = sim::Duration::Millis(2);

  sim::Duration BackoffFor(int attempt) const;  // attempt is 1-based
};

// Knobs for the serving layer's graceful-degradation machinery. Defaults
// preserve the legacy fail-stop behaviour (no shedding); the retry policy
// only engages when faults actually produce request failures.
struct DegradationOptions {
  RetryPolicy retry;
  // Admission-control watermark as a fraction of the thread pool
  // (busy + queued over pool size). A new request arriving at or above the
  // watermark is rejected instead of stalling the server (which answers
  // after server.cc's kRejectBackoff); 0 disables.
  double admission_watermark = 0.0;
};

}  // namespace olympian::serving
