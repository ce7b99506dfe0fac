#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "metrics/stats.h"

namespace olympian::metrics {

// Terminal outcome of one inference request (one batch run), shared by the
// serving layer (re-exported as serving::RequestStatus) and the SLO fold.
// The values are stable: fingerprints hash them.
enum class RequestStatus : std::uint8_t {
  kOk = 0,           // succeeded on the first attempt
  kTimedOut,         // cancelled by its deadline (possibly mid-retry)
  kRejected,         // no usable device or server, or brownout-shed
  kFailedRetried,    // succeeded, but only after >= 1 retry
  kFailed,           // exhausted the retry budget
};

// Availability objective used for error-budget burn; 0.999 = "three
// nines", i.e. a 0.1% error budget.
inline constexpr double kAvailabilityTarget = 0.999;
static_assert(kAvailabilityTarget < 1.0);  // a nonempty error budget

// Folded service-level view of a run: availability, latency quantiles,
// error-budget burn, and goodput — overall and per model.
struct SloReport {
  double window_seconds = 0.0;

  std::uint64_t total = 0;
  std::uint64_t succeeded = 0;   // kOk + kFailedRetried
  std::uint64_t retried_ok = 0;  // kFailedRetried only
  std::uint64_t timed_out = 0;
  std::uint64_t rejected = 0;
  std::uint64_t failed = 0;

  double availability = 1.0;       // succeeded / total; 1.0 with no traffic
  double availability_target = kAvailabilityTarget;
  // Fraction of the error budget consumed: (1 - availability) /
  // (1 - target). 1.0 means the budget is exactly spent; >1 means the SLO
  // is violated.
  double error_budget_burn = 0.0;

  // Latency statistics over *successful* requests (failures would skew the
  // distribution toward the retry/deadline plumbing, not service quality).
  double mean_ms = 0.0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double p999_ms = 0.0;
  double max_ms = 0.0;

  double goodput_rps = 0.0;  // succeeded / window

  struct ModelRow {
    std::string model;
    std::uint64_t total = 0;
    std::uint64_t succeeded = 0;
    double availability = 1.0;
    double p50_ms = 0.0;
    double p95_ms = 0.0;
    double p99_ms = 0.0;
    double p999_ms = 0.0;
    double max_ms = 0.0;
    double goodput_rps = 0.0;
  };
  std::vector<ModelRow> per_model;  // sorted by model name

  void Print(std::ostream& os) const;
};

// Accumulates per-request observations (from ClientResult vectors, bench
// sweeps, or live serving) and folds them into an SloReport. Percentiles
// are exact (metrics::Series keeps every value).
class SloAccumulator {
 public:
  void Add(std::string_view model, double latency_ms, RequestStatus status);
  // Pools another accumulator's observations into this one (bench sweeps
  // merge per-case accumulators into the artifact-level report).
  void Merge(const SloAccumulator& other);

  bool empty() const { return models_.empty(); }
  std::uint64_t total() const;

  SloReport Report(double window_seconds) const;

 private:
  struct PerModel {
    std::string model;
    Series success_latency_ms;
    std::uint64_t counts[5] = {};  // indexed by RequestStatus
  };
  PerModel& ModelSlot(std::string_view model);
  std::vector<PerModel> models_;  // sorted by name, small N
};

}  // namespace olympian::metrics
