#include "metrics/table.h"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

namespace olympian::metrics {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::AddRow(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table row width mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::Num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::Pct(double fraction, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f%%", precision, fraction * 100.0);
  return buf;
}

void Table::Print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    widths[c] = headers_[c].size();
    for (const auto& row : rows_) widths[c] = std::max(widths[c], row[c].size());
  }
  auto line = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << "  " << cells[c];
      for (std::size_t pad = cells[c].size(); pad < widths[c]; ++pad) os << ' ';
    }
    os << '\n';
  };
  line(headers_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << "  ";
  for (std::size_t i = 2; i < total; ++i) os << '-';
  os << '\n';
  for (const auto& row : rows_) line(row);
}

}  // namespace olympian::metrics
