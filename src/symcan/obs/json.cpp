#include "symcan/obs/json.hpp"

#include <cmath>
#include <cstdio>

namespace symcan::obs {

void JsonOut::quoted(std::string_view s) {
  out_ += '"';
  const char* p = s.data();
  const char* const end = p + s.size();
  while (p != end) {
    // Each run of plain bytes is one append.
    const char* const run = p;
    while (p != end && *p != '"' && *p != '\\' && static_cast<unsigned char>(*p) >= 0x20) ++p;
    out_.append(run, p);
    if (p == end) break;
    const char c = *p++;
    switch (c) {
      case '"': out_ += "\\\""; break;
      case '\\': out_ += "\\\\"; break;
      case '\b': out_ += "\\b"; break;
      case '\f': out_ += "\\f"; break;
      case '\n': out_ += "\\n"; break;
      case '\r': out_ += "\\r"; break;
      case '\t': out_ += "\\t"; break;
      default: {  // the other control bytes
        constexpr char kHex[] = "0123456789abcdef";
        const auto u = static_cast<unsigned char>(c);
        const char esc[] = {'\\', 'u', '0', '0', kHex[u >> 4], kHex[u & 0xF]};
        out_.append(esc, sizeof esc);
      }
    }
  }
  out_ += '"';
}

void JsonOut::number(double v) {
  if (!std::isfinite(v)) {
    out_.append("null");
    return;
  }
  // %.17g, not the shortest round-trip form: the goldens hold
  // 0.10000000000000001 where std::to_chars would print 0.1.
  char buf[32];
  out_.append(buf, static_cast<std::size_t>(std::snprintf(buf, sizeof buf, "%.17g", v)));
}

}  // namespace symcan::obs
