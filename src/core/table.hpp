// Plain-text table / CSV emission used by every bench binary so that the
// reproduced figures print as aligned, greppable series.
#pragma once

#include <iosfwd>
#include <string>
#include <variant>
#include <vector>

namespace cimnav::core {

/// A cell is either text or a number (numbers are formatted with a
/// configurable precision).
using Cell = std::variant<std::string, double>;

/// Column-aligned table builder. Rows may be added incrementally; printing
/// pads each column to its widest cell.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends a row. Its length must match the header count.
  void add_row(std::vector<Cell> cells);

  /// Number of digits after the decimal point used for numeric cells.
  void set_precision(int digits);

  std::size_t rows() const { return rows_.size(); }
  std::size_t columns() const { return headers_.size(); }

  /// Pretty-prints with column alignment and a separator rule.
  void print(std::ostream& os) const;


 private:
  std::string format_cell(const Cell& c) const;

  std::vector<std::string> headers_;
  std::vector<std::vector<Cell>> rows_;
  int precision_ = 4;
};

}  // namespace cimnav::core
