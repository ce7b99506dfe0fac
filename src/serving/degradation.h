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

// Knobs for the serving layer's graceful-degradation machinery. The retry
// policy only engages when faults actually produce request failures. The
// server sheds no load: a pool exhausted by suspended gangs stalls, as the
// paper's §4.3 reports, and Experiment::Run throws ServerStalled.
struct DegradationOptions {
  RetryPolicy retry;
};

}  // namespace olympian::serving
