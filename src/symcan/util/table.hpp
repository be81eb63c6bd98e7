#pragma once

// Lightweight aligned-text table printer: analyze/prob verdict tables,
// and the paper-style result tables benches and examples print.

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "symcan/util/time.hpp"

namespace symcan {

/// Collects rows of cells and prints them with aligned columns. Typed
/// appenders format each cell straight into one flat buffer.
class TextTable {
 public:
  /// Set the header row. Resets any previously set header.
  void header(const std::vector<std::string>& cells);

  /// Append a data row. Rows may have differing lengths.
  void row(const std::vector<std::string>& cells);

  /// Typed cells of the open data row; end_row() closes it.
  TextTable& cell(std::string_view text);
  TextTable& cell(Duration d);           ///< append_duration spelling
  TextTable& cell_id(std::uint32_t id);  ///< "0x%03X": upper case, >= 3 digits
  TextTable& cell_int(std::int64_t v);
  void end_row();

  /// Append the table to `out`, with a separator line beneath the header.
  void render(std::string& out) const;
  void print(std::ostream& os) const;

  /// Data rows; the header does not count.
  std::size_t row_count() const { return rows_.size(); }

 private:
  using Span = std::pair<std::size_t, std::size_t>;  ///< [first, last) cell indices

  TextTable& close_cell() {
    ends_.push_back(text_.size());
    return *this;
  }

  std::string text_;                  ///< every cell, back to back
  std::vector<std::size_t> ends_{0};  ///< cell i is text_[ends_[i], ends_[i + 1])
  std::vector<Span> rows_;
  Span header_{0, 0};
  std::size_t open_ = 0;  ///< first cell of the open row
};

/// printf-style helper returning std::string.
std::string strprintf(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// printf-style append onto `out`. Formats through a stack buffer, so a
/// short piece costs no allocation beyond `out`'s own growth.
void appendf(std::string& out, const char* fmt, ...) __attribute__((format(printf, 2, 3)));

/// Render an ASCII sparkline/bar of `value` within [0, maxv] using `width`
/// '#' characters; used for textual figure rendering.
std::string ascii_bar(double value, double maxv, int width);

}  // namespace symcan
