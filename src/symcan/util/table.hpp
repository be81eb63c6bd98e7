#pragma once

// Lightweight aligned-text table printer used by benches and examples to
// render paper-style result tables on stdout.

#include <ostream>
#include <string>
#include <vector>

namespace symcan {

/// Collects rows of string cells and prints them with aligned columns.
class TextTable {
 public:
  /// Set the header row. Resets any previously set header.
  void header(std::vector<std::string> cells);

  /// Append a data row. Rows may have differing lengths.
  void row(std::vector<std::string> cells);

  /// Render with a separator line beneath the header.
  void print(std::ostream& os) const;

  std::size_t row_count() const { return rows_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
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
