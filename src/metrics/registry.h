#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace olympian::metrics {

// One (key, value) label pair; a metric name plus a distinct label set is
// one time series in the Prometheus data model.
using Label = std::pair<std::string, std::string>;
using Labels = std::vector<Label>;

// Labeled metric registry: counters, log-bucketed histograms, and windowed
// time series keyed by (name, labels).
//
// Usage pattern: look a handle up once (Get* allocates on first use and
// returns a reference that is stable for the registry's lifetime), then
// hit the handle on the hot path — Counter::Inc / Histogram::Observe /
// TimeSeries::Sample are branch-plus-store cheap and allocation-free apart
// from amortized vector growth, which callers avoid by reserving.
//
// Exports: Prometheus text exposition format (WritePrometheus) and a
// compact JSON timeline of the sampled series (WriteJsonTimeline), the
// latter matching what bench::TimelineJson embeds into BENCH_*.json.
//
// Storage is a std::map over rendered keys, so iteration — and therefore
// every export — is deterministically ordered regardless of registration
// order.
class MetricRegistry {
 public:
  // Monotonic counter.
  class Counter {
   public:
    void Inc(std::uint64_t n = 1) { value_ += n; }
    // Bridge entry point: overwrite with an externally maintained monotonic
    // value (e.g. a ServingCounters field). Idempotent, so periodic
    // re-exports never double-count.
    void Set(std::uint64_t v) { value_ = v; }
    std::uint64_t value() const { return value_; }

   private:
    std::uint64_t value_ = 0;
  };

  // Log-bucketed histogram. Every histogram shares one bucket layout
  // (registry.cc): upper bounds grow geometrically, giving constant relative
  // error across many orders of magnitude with a few dozen buckets.
  class Histogram {
   public:
    Histogram();

    void Observe(double v);

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double min() const { return min_; }
    double max() const { return max_; }
    // Upper bounds, one per finite bucket; counts_ has one extra overflow
    // (+Inf) slot at the end. Bucket counts are NON-cumulative here; the
    // Prometheus export accumulates.
    const std::vector<double>& bounds() const { return bounds_; }
    const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }
    // Quantile estimate (q in [0,1]) by linear interpolation inside the
    // containing bucket, clamped to the observed min/max.
    double Quantile(double q) const;

   private:
    std::vector<double> bounds_;
    std::vector<std::uint64_t> counts_;  // bounds_.size() + 1 (overflow)
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
  };

  // Append-only series of (virtual time, value) samples, written by the
  // sampler process on its virtual-clock cadence.
  class TimeSeries {
   public:
    TimeSeries() { points_.reserve(kReserve); }
    void Sample(sim::TimePoint t, double v) {
      points_.emplace_back(t.nanos(), v);
    }
    const std::vector<std::pair<std::int64_t, double>>& points() const {
      return points_;
    }
    bool empty() const { return points_.empty(); }
    double last() const { return points_.empty() ? 0.0 : points_.back().second; }

   private:
    static constexpr std::size_t kReserve = 1024;
    std::vector<std::pair<std::int64_t, double>> points_;
  };

  // Lookup-or-create. References are stable for the registry's lifetime.
  Counter& GetCounter(std::string_view name, const Labels& labels = {});
  Histogram& GetHistogram(std::string_view name, const Labels& labels = {});
  TimeSeries& GetSeries(std::string_view name, const Labels& labels = {});

  // Lookup-only (nullptr when absent); for tests and report builders.
  const Counter* FindCounter(std::string_view name,
                             const Labels& labels = {}) const;
  const Histogram* FindHistogram(std::string_view name,
                                 const Labels& labels = {}) const;
  const TimeSeries* FindSeries(std::string_view name,
                               const Labels& labels = {}) const;

  // Deterministically ordered views over every registered instrument; the
  // string is the rendered label block (`{k="v",...}` or empty).
  std::vector<std::tuple<std::string, std::string, const Counter*>>
  Counters() const;
  std::vector<std::tuple<std::string, std::string, const TimeSeries*>>
  Series() const;

  // Prometheus text exposition format 0.0.4: counters as `_total`-style
  // monotonic values, histograms with cumulative `_bucket{le=...}`
  // rows ending in `+Inf` plus `_sum`/`_count`, and each time series'
  // latest sample as a gauge.
  void WritePrometheus(std::ostream& os) const;

  // Compact JSON timeline: {"series":[{"name":...,"labels":{...},
  // "points":[[t_ns,value],...]},...]} — the machine-readable companion of
  // the sampler output, consumed by bench::TimelineJson and the tour
  // example.
  void WriteJsonTimeline(std::ostream& os) const;

 private:
  struct Key {
    std::string name;
    std::string labels;  // rendered `{k="v",...}`, empty when unlabeled
    auto operator<=>(const Key&) const = default;
  };
  static std::string RenderLabels(const Labels& labels);

  template <typename T>
  T& GetOrCreate(std::map<Key, std::unique_ptr<T>>& family,
                 std::string_view name, const Labels& labels);
  template <typename T>
  const T* Find(const std::map<Key, std::unique_ptr<T>>& family,
                std::string_view name, const Labels& labels) const;

  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
  std::map<Key, std::unique_ptr<TimeSeries>> series_;
};

}  // namespace olympian::metrics
