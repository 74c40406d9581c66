#include "core/table.hpp"

#include <iomanip>
#include <ostream>
#include <sstream>

#include "core/error.hpp"

namespace cimnav::core {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  CIMNAV_REQUIRE(!headers_.empty(), "table needs at least one column");
}

void Table::add_row(std::vector<Cell> cells) {
  CIMNAV_REQUIRE(cells.size() == headers_.size(),
                 "row length must match header count");
  rows_.push_back(std::move(cells));
}

void Table::set_precision(int digits) {
  CIMNAV_REQUIRE(digits >= 0 && digits <= 17, "precision out of range");
  precision_ = digits;
}

std::string Table::format_cell(const Cell& c) const {
  if (const auto* s = std::get_if<std::string>(&c)) return *s;
  std::ostringstream os;
  os << std::setprecision(precision_) << std::fixed << std::get<double>(c);
  return os.str();
}

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c)
    widths[c] = headers_[c].size();
  std::vector<std::vector<std::string>> formatted;
  formatted.reserve(rows_.size());
  for (const auto& row : rows_) {
    std::vector<std::string> f;
    f.reserve(row.size());
    for (std::size_t c = 0; c < row.size(); ++c) {
      f.push_back(format_cell(row[c]));
      widths[c] = std::max(widths[c], f.back().size());
    }
    formatted.push_back(std::move(f));
  }
  auto emit = [&](const std::vector<std::string>& cells) {
    for (std::size_t c = 0; c < cells.size(); ++c) {
      os << std::setw(static_cast<int>(widths[c])) << cells[c];
      os << (c + 1 < cells.size() ? "  " : "");
    }
    os << '\n';
  };
  emit(headers_);
  std::size_t rule = 0;
  for (std::size_t c = 0; c < widths.size(); ++c)
    rule += widths[c] + (c + 1 < widths.size() ? 2 : 0);
  os << std::string(rule, '-') << '\n';
  for (const auto& row : formatted) emit(row);
}

}  // namespace cimnav::core
