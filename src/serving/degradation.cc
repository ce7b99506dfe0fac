#include "serving/degradation.h"

#include <cmath>

namespace olympian::serving {

const char* ToString(RequestStatus status) {
  switch (status) {
    case RequestStatus::kOk:
      return "ok";
    case RequestStatus::kTimedOut:
      return "timed_out";
    case RequestStatus::kRejected:
      return "rejected";
    case RequestStatus::kFailedRetried:
      return "failed_retried";
    case RequestStatus::kFailed:
      return "failed";
  }
  return "unknown";
}

sim::Duration RetryPolicy::BackoffFor(int attempt) const {
  return base_backoff * std::pow(kBackoffMultiplier, attempt - 1);
}

}  // namespace olympian::serving
