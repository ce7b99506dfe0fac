#include "metrics/registry.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <ostream>

namespace olympian::metrics {

// ---------------------------------------------------------------------------
// Histogram

namespace {
// Bucket layout: upper bounds grow from kFirstBound by kGrowth per bucket,
// covering 1us .. ~18 minutes when observing milliseconds.
constexpr double kFirstBound = 0.001;
constexpr double kGrowth = 1.6;
constexpr int kNumBuckets = 44;
}  // namespace

MetricRegistry::Histogram::Histogram() {
  bounds_.reserve(static_cast<std::size_t>(kNumBuckets));
  double bound = kFirstBound;
  for (int i = 0; i < kNumBuckets; ++i) {
    bounds_.push_back(bound);
    bound *= kGrowth;
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void MetricRegistry::Histogram::Observe(double v) {
  if (count_ == 0) {
    min_ = max_ = v;
  } else {
    min_ = std::min(min_, v);
    max_ = std::max(max_, v);
  }
  ++count_;
  sum_ += v;
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
}

void MetricRegistry::Histogram::MergeFrom(const Histogram& src) {
  if (src.count_ == 0) return;
  min_ = count_ == 0 ? src.min_ : std::min(min_, src.min_);
  max_ = count_ == 0 ? src.max_ : std::max(max_, src.max_);
  count_ += src.count_;
  sum_ += src.sum_;
  for (std::size_t i = 0; i < counts_.size(); ++i) counts_[i] += src.counts_[i];
}

double MetricRegistry::Histogram::Quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(count_);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double lo_seen = static_cast<double>(seen);
    seen += counts_[i];
    if (static_cast<double>(seen) < rank) continue;
    // Interpolate inside bucket i between its lower and upper bound.
    const double lower = i == 0 ? min_ : bounds_[i - 1];
    const double upper = i < bounds_.size() ? bounds_[i] : max_;
    const double frac =
        counts_[i] == 0
            ? 0.0
            : (rank - lo_seen) / static_cast<double>(counts_[i]);
    return std::clamp(lower + frac * (upper - lower), min_, max_);
  }
  return max_;
}

// ---------------------------------------------------------------------------
// Registry plumbing

std::string MetricRegistry::RenderLabels(const Labels& labels) {
  if (labels.empty()) return {};
  // Sorted so {a=1,b=2} and {b=2,a=1} are the same series.
  Labels sorted = labels;
  std::sort(sorted.begin(), sorted.end());
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : sorted) {
    if (!first) out += ',';
    first = false;
    out += k;
    out += "=\"";
    for (const char c : v) {
      if (c == '\\' || c == '"') out += '\\';
      if (c == '\n') {
        out += "\\n";
        continue;
      }
      out += c;
    }
    out += '"';
  }
  out += '}';
  return out;
}

namespace {

// Splits a rendered label block `{k="v",...}` into its `k="v"` items.
// Values can contain commas and escaped quotes, so the scan is quote-aware.
std::vector<std::string> SplitLabelItems(const std::string& rendered) {
  std::vector<std::string> items;
  if (rendered.size() < 2) return items;  // "" or "{}"
  std::size_t start = 1;  // past '{'
  bool in_quotes = false;
  for (std::size_t i = 1; i + 1 < rendered.size(); ++i) {
    const char c = rendered[i];
    if (in_quotes) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_quotes = false;
      }
      continue;
    }
    if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      items.push_back(rendered.substr(start, i - start));
      start = i + 1;
    }
  }
  items.push_back(rendered.substr(start, rendered.size() - 1 - start));
  return items;
}

// Merges two rendered label blocks into one, keeping items sorted (label
// keys are [a-zA-Z0-9_]* and '=' sorts below all of them, so comparing
// whole `k="v"` items orders by key exactly as RenderLabels does).
std::string SpliceLabels(const std::string& a, const std::string& b) {
  if (a.empty() || a == "{}") return b;
  if (b.empty() || b == "{}") return a;
  std::vector<std::string> items = SplitLabelItems(a);
  const std::vector<std::string> extra = SplitLabelItems(b);
  items.insert(items.end(), extra.begin(), extra.end());
  std::sort(items.begin(), items.end());
  std::string out = "{";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  out += '}';
  return out;
}

}  // namespace

void MetricRegistry::MergeFrom(const MetricRegistry& src, const Labels& extra) {
  const std::string extra_rendered = RenderLabels(extra);
  for (const auto& [key, c] : src.counters_) {
    Key merged{key.name, SpliceLabels(key.labels, extra_rendered)};
    auto it = counters_.find(merged);
    if (it == counters_.end()) {
      it = counters_.emplace(std::move(merged), std::make_unique<Counter>())
               .first;
    }
    it->second->Inc(c->value());
  }
  for (const auto& [key, g] : src.gauges_) {
    Key merged{key.name, SpliceLabels(key.labels, extra_rendered)};
    auto it = gauges_.find(merged);
    if (it == gauges_.end()) {
      it = gauges_.emplace(std::move(merged), std::make_unique<Gauge>()).first;
    }
    it->second->Set(g->value());
  }
  for (const auto& [key, h] : src.histograms_) {
    Key merged{key.name, SpliceLabels(key.labels, extra_rendered)};
    auto it = histograms_.find(merged);
    if (it == histograms_.end()) {
      // A fresh destination is a copy of the source, counts included.
      histograms_.emplace(std::move(merged), std::make_unique<Histogram>(*h));
      continue;
    }
    it->second->MergeFrom(*h);
  }
  for (const auto& [key, s] : src.series_) {
    Key merged{key.name, SpliceLabels(key.labels, extra_rendered)};
    auto it = series_.find(merged);
    if (it == series_.end()) {
      it = series_.emplace(std::move(merged), std::make_unique<TimeSeries>())
               .first;
    }
    it->second->MergeFrom(*s);
  }
}

template <typename T>
T& MetricRegistry::GetOrCreate(std::map<Key, std::unique_ptr<T>>& family,
                               std::string_view name, const Labels& labels) {
  Key key{std::string(name), RenderLabels(labels)};
  auto it = family.find(key);
  if (it == family.end()) {
    it = family.emplace(std::move(key), std::make_unique<T>()).first;
  }
  return *it->second;
}

template <typename T>
const T* MetricRegistry::Find(const std::map<Key, std::unique_ptr<T>>& family,
                              std::string_view name,
                              const Labels& labels) const {
  const auto it = family.find(Key{std::string(name), RenderLabels(labels)});
  return it == family.end() ? nullptr : it->second.get();
}

MetricRegistry::Counter& MetricRegistry::GetCounter(std::string_view name,
                                                    const Labels& labels) {
  return GetOrCreate(counters_, name, labels);
}

MetricRegistry::Gauge& MetricRegistry::GetGauge(std::string_view name,
                                                const Labels& labels) {
  return GetOrCreate(gauges_, name, labels);
}

MetricRegistry::Histogram& MetricRegistry::GetHistogram(std::string_view name,
                                                        const Labels& labels) {
  return GetOrCreate(histograms_, name, labels);
}

MetricRegistry::TimeSeries& MetricRegistry::GetSeries(std::string_view name,
                                                      const Labels& labels) {
  return GetOrCreate(series_, name, labels);
}

const MetricRegistry::Counter* MetricRegistry::FindCounter(
    std::string_view name, const Labels& labels) const {
  return Find(counters_, name, labels);
}

const MetricRegistry::Gauge* MetricRegistry::FindGauge(
    std::string_view name, const Labels& labels) const {
  return Find(gauges_, name, labels);
}

const MetricRegistry::Histogram* MetricRegistry::FindHistogram(
    std::string_view name, const Labels& labels) const {
  return Find(histograms_, name, labels);
}

const MetricRegistry::TimeSeries* MetricRegistry::FindSeries(
    std::string_view name, const Labels& labels) const {
  return Find(series_, name, labels);
}

std::vector<std::tuple<std::string, std::string, const MetricRegistry::Counter*>>
MetricRegistry::Counters() const {
  std::vector<std::tuple<std::string, std::string, const Counter*>> out;
  out.reserve(counters_.size());
  for (const auto& [key, c] : counters_) {
    out.emplace_back(key.name, key.labels, c.get());
  }
  return out;
}

std::vector<
    std::tuple<std::string, std::string, const MetricRegistry::TimeSeries*>>
MetricRegistry::Series() const {
  std::vector<std::tuple<std::string, std::string, const TimeSeries*>> out;
  out.reserve(series_.size());
  for (const auto& [key, s] : series_) {
    out.emplace_back(key.name, key.labels, s.get());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Exports

namespace {

void WriteDouble(std::ostream& os, double v) {
  if (std::isinf(v)) {
    os << (v > 0 ? "+Inf" : "-Inf");
    return;
  }
  os << v;
}

// Emits one `# TYPE` header per metric family; entries arrive sorted by
// name, so a family's series are contiguous.
void TypeHeader(std::ostream& os, std::string& last_family,
                const std::string& name, const char* type) {
  if (name == last_family) return;
  last_family = name;
  os << "# TYPE " << name << ' ' << type << '\n';
}

}  // namespace

void MetricRegistry::WritePrometheus(std::ostream& os) const {
  // Full round-trip precision: the default 6 significant digits would
  // silently truncate large histogram sums and long counters-as-doubles.
  const std::streamsize saved_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  std::string last;
  for (const auto& [key, c] : counters_) {
    TypeHeader(os, last, key.name, "counter");
    os << key.name << key.labels << ' ' << c->value() << '\n';
  }
  last.clear();
  for (const auto& [key, g] : gauges_) {
    TypeHeader(os, last, key.name, "gauge");
    os << key.name << key.labels << ' ';
    WriteDouble(os, g->value());
    os << '\n';
  }
  last.clear();
  for (const auto& [key, h] : histograms_) {
    TypeHeader(os, last, key.name, "histogram");
    // `le` joins any user labels inside the braces.
    const std::string& lbl = key.labels;
    const std::string prefix =
        lbl.empty() ? key.name + "_bucket{le=\""
                    : key.name + "_bucket" + lbl.substr(0, lbl.size() - 1) +
                          ",le=\"";
    std::uint64_t cum = 0;
    const auto& counts = h->bucket_counts();
    const auto& bounds = h->bounds();
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cum += counts[i];
      os << prefix << bounds[i] << "\"} " << cum << '\n';
    }
    cum += counts[bounds.size()];
    os << prefix << "+Inf\"} " << cum << '\n';
    os << key.name << "_sum" << lbl << ' ';
    WriteDouble(os, h->sum());
    os << '\n';
    os << key.name << "_count" << lbl << ' ' << h->count() << '\n';
  }
  last.clear();
  for (const auto& [key, s] : series_) {
    TypeHeader(os, last, key.name, "gauge");
    os << key.name << key.labels << ' ';
    WriteDouble(os, s->last());
    os << '\n';
  }
  os.precision(saved_precision);
}

void MetricRegistry::WriteJsonTimeline(std::ostream& os) const {
  const std::streamsize saved_precision =
      os.precision(std::numeric_limits<double>::max_digits10);
  os << "{\"series\":[";
  bool first_series = true;
  for (const auto& [key, s] : series_) {
    if (!first_series) os << ',';
    first_series = false;
    os << "\n{\"name\":\"" << key.name << "\",\"labels\":{";
    // Re-render `{k="v",...}` as JSON object members.
    bool first_label = true;
    const std::string& lbl = key.labels;
    std::size_t i = 1;  // skip '{'
    while (i < lbl.size() && lbl[i] != '}') {
      const std::size_t eq = lbl.find('=', i);
      if (eq == std::string::npos) break;
      if (!first_label) os << ',';
      first_label = false;
      os << '"' << lbl.substr(i, eq - i) << "\":";
      std::size_t j = eq + 1;  // at opening quote
      // Value is already escaped for Prometheus, which matches JSON
      // escaping for `\` and `"`; copy through the closing quote.
      os << '"';
      ++j;
      while (j < lbl.size()) {
        if (lbl[j] == '\\' && j + 1 < lbl.size()) {
          os << lbl[j] << lbl[j + 1];
          j += 2;
          continue;
        }
        if (lbl[j] == '"') break;
        os << lbl[j];
        ++j;
      }
      os << '"';
      i = j + 1;
      if (i < lbl.size() && lbl[i] == ',') ++i;
    }
    os << "},\"points\":[";
    bool first_point = true;
    for (const auto& [t_ns, v] : s->points()) {
      if (!first_point) os << ',';
      first_point = false;
      os << '[' << t_ns << ',';
      if (std::isfinite(v)) {
        os << v;
      } else {
        os << "null";
      }
      os << ']';
    }
    os << "]}";
  }
  os << "\n]}\n";
  os.precision(saved_precision);
}

}  // namespace olympian::metrics
