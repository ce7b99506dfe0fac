#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/time.h"

namespace olympian::metrics {

// A collection of scalar observations with summary statistics.
//
// Stores all values, so percentiles and CDFs are exact.
class Series {
 public:
  void Add(double v) { values_.push_back(v); }
  void AddDuration(sim::Duration d) { values_.push_back(d.micros()); }

  std::size_t count() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Sum() const;
  double Mean() const;
  // Sample standard deviation (n-1 denominator); 0 for fewer than 2 values.
  double Stddev() const;
  // Coefficient of variation: stddev / mean.
  double Cv() const;
  double Min() const;
  double Max() const;
  // Nearest-rank percentile, p in [0, 100].
  double Percentile(double p) const;

  // Empirical CDF evaluated at `x`: fraction of values <= x.
  double CdfAt(double x) const;

  const std::vector<double>& values() const { return values_; }

 private:
  std::vector<double>& MutableSorted() const;
  std::vector<double> values_;
  mutable std::vector<double> sorted_;  // lazy cache, invalidated by size
};

}  // namespace olympian::metrics
