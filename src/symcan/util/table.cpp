#include "symcan/util/table.hpp"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace symcan {

void TextTable::header(const std::vector<std::string>& cells) {
  const std::size_t first = ends_.size() - 1;
  for (const std::string& c : cells) cell(c);
  header_ = {first, ends_.size() - 1};
  open_ = ends_.size() - 1;
}

void TextTable::row(const std::vector<std::string>& cells) {
  for (const std::string& c : cells) cell(c);
  end_row();
}

TextTable& TextTable::cell(std::string_view text) {
  text_ += text;
  return close_cell();
}

TextTable& TextTable::cell(Duration d) {
  append_duration(text_, d);
  return close_cell();
}

TextTable& TextTable::cell_id(std::uint32_t id) {
  char buf[8];
  const auto digits = static_cast<std::size_t>(std::bit_width(id) + 3) / 4;
  const std::size_t n = std::max<std::size_t>(3, digits);
  for (std::size_t i = 0; i < n; ++i) buf[n - 1 - i] = "0123456789ABCDEF"[(id >> (4 * i)) & 0xF];
  (text_ += "0x").append(buf, n);
  return close_cell();
}

TextTable& TextTable::cell_int(std::int64_t v) {
  char buf[24];
  text_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
  return close_cell();
}

void TextTable::end_row() {
  rows_.emplace_back(open_, ends_.size() - 1);
  open_ = ends_.size() - 1;
}

void TextTable::render(std::string& out) const {
  std::vector<std::size_t> width;
  auto widen = [&](Span r) {
    if (r.second - r.first > width.size()) width.resize(r.second - r.first, 0);
    for (std::size_t i = r.first; i < r.second; ++i)
      width[i - r.first] = std::max(width[i - r.first], ends_[i + 1] - ends_[i]);
  };
  widen(header_);
  for (const Span& r : rows_) widen(r);

  std::size_t line = 0;
  for (std::size_t i = 0; i < width.size(); ++i) line += width[i] + (i + 1 < width.size() ? 2 : 0);
  out.reserve(out.size() + (rows_.size() + 2) * (line + 1));
  auto emit = [&](Span r) {
    for (std::size_t i = r.first; i < r.second; ++i) {
      const std::size_t len = ends_[i + 1] - ends_[i];
      out.append(text_, ends_[i], len);
      if (i + 1 < r.second) out.append(width[i - r.first] - len + 2, ' ');
    }
    out += '\n';
  };
  if (header_.second > header_.first) {
    emit(header_);
    out.append(line, '-');
    out += '\n';
  }
  for (const Span& r : rows_) emit(r);
}

void TextTable::print(std::ostream& os) const {
  std::string out;
  render(out);
  os.write(out.data(), static_cast<std::streamsize>(out.size()));
}

std::string strprintf(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

void appendf(std::string& out, const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  char buf[256];
  const int n = std::vsnprintf(buf, sizeof buf, fmt, ap);
  va_end(ap);
  if (n < 0) {
    va_end(ap2);
    return;
  }
  if (static_cast<std::size_t>(n) < sizeof buf) {
    out.append(buf, static_cast<std::size_t>(n));
  } else {
    // Hostile-length names (escaped message names in JSON) overflow the
    // stack buffer; re-render into a right-sized heap one.
    std::string big(static_cast<std::size_t>(n) + 1, '\0');
    std::vsnprintf(big.data(), big.size(), fmt, ap2);
    big.resize(static_cast<std::size_t>(n));
    out += big;
  }
  va_end(ap2);
}

std::string ascii_bar(double value, double maxv, int width) {
  if (maxv <= 0 || width <= 0) return {};
  double frac = value / maxv;
  frac = std::clamp(frac, 0.0, 1.0);
  const int n = static_cast<int>(frac * width + 0.5);
  return std::string(static_cast<std::size_t>(n), '#');
}

}  // namespace symcan
