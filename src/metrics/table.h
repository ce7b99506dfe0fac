#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace olympian::metrics {

// Fixed-width console table, used by every bench binary to print the rows a
// paper table/figure reports.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  // Append one row; cells are preformatted strings. Must match header count.
  void AddRow(std::vector<std::string> cells);

  // Convenience formatters.
  static std::string Num(double v, int precision = 2);
  static std::string Pct(double fraction, int precision = 1);

  void Print(std::ostream& os) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace olympian::metrics
