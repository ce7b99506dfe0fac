#include "metrics/stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace olympian::metrics {

std::vector<double>& Series::MutableSorted() const {
  if (sorted_.size() != values_.size()) {
    sorted_ = values_;
    std::sort(sorted_.begin(), sorted_.end());
  }
  return sorted_;
}

double Series::Sum() const {
  double s = 0;
  for (double v : values_) s += v;
  return s;
}

double Series::Mean() const {
  if (values_.empty()) return 0.0;
  return Sum() / static_cast<double>(values_.size());
}

double Series::Stddev() const {
  if (values_.size() < 2) return 0.0;
  const double m = Mean();
  double acc = 0;
  for (double v : values_) acc += (v - m) * (v - m);
  return std::sqrt(acc / static_cast<double>(values_.size() - 1));
}

double Series::Cv() const {
  const double m = Mean();
  return m == 0.0 ? 0.0 : Stddev() / m;
}

double Series::Min() const {
  if (values_.empty()) throw std::out_of_range("Series::Min on empty series");
  return *std::min_element(values_.begin(), values_.end());
}

double Series::Max() const {
  if (values_.empty()) throw std::out_of_range("Series::Max on empty series");
  return *std::max_element(values_.begin(), values_.end());
}

double Series::Percentile(double p) const {
  if (values_.empty()) {
    throw std::out_of_range("Series::Percentile on empty series");
  }
  const auto& s = MutableSorted();
  if (p <= 0) return s.front();
  if (p >= 100) return s.back();
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(s.size())));
  return s[std::min(rank == 0 ? 0 : rank - 1, s.size() - 1)];
}

double Series::CdfAt(double x) const {
  if (values_.empty()) return 0.0;
  const auto& s = MutableSorted();
  const auto it = std::upper_bound(s.begin(), s.end(), x);
  return static_cast<double>(it - s.begin()) / static_cast<double>(s.size());
}

}  // namespace olympian::metrics
