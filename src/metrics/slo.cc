#include "metrics/slo.h"

#include <algorithm>
#include <ostream>

namespace olympian::metrics {

SloAccumulator::PerModel& SloAccumulator::ModelSlot(std::string_view model) {
  const auto it = std::lower_bound(
      models_.begin(), models_.end(), model,
      [](const PerModel& m, std::string_view name) { return m.model < name; });
  if (it != models_.end() && it->model == model) return *it;
  return *models_.insert(it, PerModel{std::string(model), {}, {}});
}

void SloAccumulator::Add(std::string_view model, double latency_ms,
                         RequestOutcome outcome) {
  PerModel& slot = ModelSlot(model);
  ++slot.counts[static_cast<std::size_t>(outcome)];
  if (outcome == RequestOutcome::kSuccess ||
      outcome == RequestOutcome::kRetriedSuccess) {
    slot.success_latency_ms.Add(latency_ms);
  }
}

void SloAccumulator::Merge(const SloAccumulator& other) {
  for (const PerModel& src : other.models_) {
    PerModel& dst = ModelSlot(src.model);
    for (std::size_t i = 0; i < 5; ++i) dst.counts[i] += src.counts[i];
    for (const double v : src.success_latency_ms.values()) {
      dst.success_latency_ms.Add(v);
    }
  }
}

std::uint64_t SloAccumulator::total() const {
  std::uint64_t n = 0;
  for (const PerModel& m : models_) {
    for (const std::uint64_t c : m.counts) n += c;
  }
  return n;
}

SloReport SloAccumulator::Report(double window_seconds) const {
  SloReport r;
  r.window_seconds = window_seconds;

  Series all_latency;
  for (const PerModel& m : models_) {
    SloReport::ModelRow row;
    row.model = m.model;
    const std::uint64_t ok =
        m.counts[static_cast<std::size_t>(RequestOutcome::kSuccess)] +
        m.counts[static_cast<std::size_t>(RequestOutcome::kRetriedSuccess)];
    for (const std::uint64_t c : m.counts) row.total += c;
    row.succeeded = ok;
    row.availability =
        row.total == 0
            ? 1.0
            : static_cast<double>(ok) / static_cast<double>(row.total);
    if (!m.success_latency_ms.empty()) {
      row.p50_ms = m.success_latency_ms.Percentile(50);
      row.p95_ms = m.success_latency_ms.Percentile(95);
      row.p99_ms = m.success_latency_ms.Percentile(99);
      row.p999_ms = m.success_latency_ms.Percentile(99.9);
      row.max_ms = m.success_latency_ms.Max();
    }
    row.goodput_rps = window_seconds > 0.0
                          ? static_cast<double>(ok) / window_seconds
                          : 0.0;
    r.per_model.push_back(std::move(row));

    r.retried_ok +=
        m.counts[static_cast<std::size_t>(RequestOutcome::kRetriedSuccess)];
    r.timed_out += m.counts[static_cast<std::size_t>(RequestOutcome::kTimedOut)];
    r.rejected += m.counts[static_cast<std::size_t>(RequestOutcome::kRejected)];
    r.failed += m.counts[static_cast<std::size_t>(RequestOutcome::kFailed)];
    for (const double v : m.success_latency_ms.values()) all_latency.Add(v);
  }
  for (const SloReport::ModelRow& row : r.per_model) {
    r.total += row.total;
    r.succeeded += row.succeeded;
  }
  r.availability = r.total == 0 ? 1.0
                                : static_cast<double>(r.succeeded) /
                                      static_cast<double>(r.total);
  r.error_budget_burn = (1.0 - r.availability) / (1.0 - kAvailabilityTarget);
  if (!all_latency.empty()) {
    r.mean_ms = all_latency.Mean();
    r.p50_ms = all_latency.Percentile(50);
    r.p95_ms = all_latency.Percentile(95);
    r.p99_ms = all_latency.Percentile(99);
    r.p999_ms = all_latency.Percentile(99.9);
    r.max_ms = all_latency.Max();
  }
  r.goodput_rps = window_seconds > 0.0
                      ? static_cast<double>(r.succeeded) / window_seconds
                      : 0.0;
  return r;
}

void SloReport::Print(std::ostream& os) const {
  os << "SLO report (window " << window_seconds << "s, target "
     << availability_target << ")\n"
     << "  requests: " << total << " total, " << succeeded << " ok ("
     << retried_ok << " after retry), " << timed_out << " timed out, "
     << rejected << " rejected, " << failed << " failed\n"
     << "  availability: " << availability << "  error-budget burn: "
     << error_budget_burn << '\n'
     << "  latency ms (successes): mean " << mean_ms << "  p50 " << p50_ms
     << "  p95 " << p95_ms << "  p99 " << p99_ms << "  p99.9 " << p999_ms
     << "  max " << max_ms << '\n'
     << "  goodput: " << goodput_rps << " rps\n";
  for (const ModelRow& m : per_model) {
    os << "    model " << m.model << ": " << m.succeeded << '/' << m.total
       << " ok, p50 " << m.p50_ms << "ms p95 " << m.p95_ms << "ms p99 "
       << m.p99_ms << "ms, " << m.goodput_rps << " rps\n";
  }
}

}  // namespace olympian::metrics
