#include "symcan/util/table.hpp"

#include <algorithm>
#include <cstdarg>
#include <cstdio>

namespace symcan {

void TextTable::header(std::vector<std::string> cells) { header_ = std::move(cells); }

void TextTable::row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> width;
  auto widen = [&](const std::vector<std::string>& r) {
    if (r.size() > width.size()) width.resize(r.size(), 0);
    for (std::size_t i = 0; i < r.size(); ++i) width[i] = std::max(width[i], r[i].size());
  };
  if (!header_.empty()) widen(header_);
  for (const auto& r : rows_) widen(r);

  auto emit = [&](const std::vector<std::string>& r) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      os << r[i];
      if (i + 1 < r.size()) os << std::string(width[i] - r[i].size() + 2, ' ');
    }
    os << '\n';
  };
  if (!header_.empty()) {
    emit(header_);
    std::size_t total = 0;
    for (std::size_t i = 0; i < width.size(); ++i) total += width[i] + (i + 1 < width.size() ? 2 : 0);
    os << std::string(total, '-') << '\n';
  }
  for (const auto& r : rows_) emit(r);
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
