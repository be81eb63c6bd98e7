#include "symcan/util/jsonl.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace symcan::jsonl {

void append_utf8(std::string& out, std::uint32_t cp) {
  if (cp < 0x80) {
    out.push_back(static_cast<char>(cp));
  } else if (cp < 0x800) {
    out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else if (cp < 0x10000) {
    // Lone surrogates are encoded as-is (WTF-8): the exporters pass
    // bytes >= 0x20 through raw, so this keeps parse/serialize an
    // identity even on inputs no sane recorder writes.
    out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  } else {
    out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
    out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
  }
}

namespace {

/// Four hex digits after \u; returns 0x110000 on failure.
std::uint32_t parse_hex4(Cursor& c) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    if (c.done()) return 0x110000;
    const char ch = *c.p++;
    v <<= 4;
    if (ch >= '0' && ch <= '9') v |= static_cast<std::uint32_t>(ch - '0');
    else if (ch >= 'a' && ch <= 'f') v |= static_cast<std::uint32_t>(ch - 'a' + 10);
    else if (ch >= 'A' && ch <= 'F') v |= static_cast<std::uint32_t>(ch - 'A' + 10);
    else return 0x110000;
  }
  return v;
}

}  // namespace

bool parse_string(Cursor& c, std::size_t line_no, const char* what, std::string& out,
                  Diagnostics& diags) {
  if (!c.eat('"')) {
    diags.error(line_no, std::string("expected string for ") + what);
    return false;
  }
  out.clear();
  while (true) {
    const char* const run = c.p;
    while (!c.done() && *c.p != '"' && *c.p != '\\' && static_cast<unsigned char>(*c.p) >= 0x20)
      ++c.p;
    out.append(run, c.p);
    if (c.done()) {
      diags.error(line_no, std::string("unterminated string for ") + what);
      return false;
    }
    const char ch = *c.p++;
    if (ch == '"') return true;
    if (ch != '\\') {
      diags.error(line_no, std::string("raw control character in string for ") + what);
      return false;
    }
    if (c.done()) {
      diags.error(line_no, std::string("dangling escape in string for ") + what);
      return false;
    }
    const char esc = *c.p++;
    switch (esc) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': {
        std::uint32_t cp = parse_hex4(c);
        if (cp > 0x10FFFF) {
          diags.error(line_no, std::string("bad \\u escape in string for ") + what);
          return false;
        }
        if (cp >= 0xD800 && cp <= 0xDBFF && c.end - c.p >= 6 && c.p[0] == '\\' && c.p[1] == 'u') {
          // High surrogate followed by a \u escape: try to pair them.
          Cursor save = c;
          c.p += 2;
          const std::uint32_t lo = parse_hex4(c);
          if (lo >= 0xDC00 && lo <= 0xDFFF) {
            cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
          } else {
            c = save;  // Not a low surrogate; emit the lone high one.
          }
        }
        append_utf8(out, cp);
        break;
      }
      default:
        diags.error(line_no, std::string("unknown escape '\\") + esc + "' in string for " + what);
        return false;
    }
  }
}

bool parse_i64(Cursor& c, std::size_t line_no, const char* what, std::int64_t& out,
               Diagnostics& diags) {
  c.skip_ws();
  const char* begin = c.p;
  if (c.p != c.end && *c.p == '-') ++c.p;
  while (c.p != c.end && *c.p >= '0' && *c.p <= '9') ++c.p;
  // JSON permits fractions and exponents; the line grammars do not.
  if (c.p != c.end && (*c.p == '.' || *c.p == 'e' || *c.p == 'E')) {
    diags.error(line_no, std::string(what) + " must be an integer");
    return false;
  }
  std::int64_t v = 0;
  const auto res = std::from_chars(begin, c.p, v);
  if (res.ec != std::errc{} || res.ptr != c.p || begin == c.p) {
    diags.error(line_no, std::string("bad integer for ") + what);
    return false;
  }
  out = v;
  return true;
}

bool parse_double(Cursor& c, std::size_t line_no, const char* what, double& out,
                  Diagnostics& diags) {
  c.skip_ws();
  const char* begin = c.p;
  // Consume exactly JSON number syntax (so `nan`, `inf`, `0x..` never
  // reach from_chars) and let from_chars do the value conversion.
  if (c.p != c.end && *c.p == '-') ++c.p;
  while (c.p != c.end && *c.p >= '0' && *c.p <= '9') ++c.p;
  if (c.p != c.end && *c.p == '.') {
    ++c.p;
    while (c.p != c.end && *c.p >= '0' && *c.p <= '9') ++c.p;
  }
  if (c.p != c.end && (*c.p == 'e' || *c.p == 'E')) {
    ++c.p;
    if (c.p != c.end && (*c.p == '+' || *c.p == '-')) ++c.p;
    while (c.p != c.end && *c.p >= '0' && *c.p <= '9') ++c.p;
  }
  double v = 0;
  const auto res = std::from_chars(begin, c.p, v);
  if (res.ec != std::errc{} || res.ptr != c.p || begin == c.p || !std::isfinite(v)) {
    diags.error(line_no, std::string("bad number for ") + what);
    return false;
  }
  out = v;
  return true;
}

bool parse_bool(Cursor& c, std::size_t line_no, const char* what, bool& out, Diagnostics& diags) {
  c.skip_ws();
  const auto match = [&](const char* lit, std::size_t n) {
    if (static_cast<std::size_t>(c.end - c.p) < n) return false;
    for (std::size_t i = 0; i < n; ++i)
      if (c.p[i] != lit[i]) return false;
    c.p += n;
    return true;
  };
  if (match("true", 4)) {
    out = true;
    return true;
  }
  if (match("false", 5)) {
    out = false;
    return true;
  }
  diags.error(line_no, std::string("expected true or false for ") + what);
  return false;
}

bool skip_scalar(Cursor& c, std::size_t line_no, Diagnostics& diags) {
  c.skip_ws();
  if (c.done()) {
    diags.error(line_no, "missing value");
    return false;
  }
  const char ch = c.peek();
  if (ch == '"') {
    std::string ignored;
    return parse_string(c, line_no, "unknown key", ignored, diags);
  }
  if (ch == '{' || ch == '[') {
    diags.error(line_no, "nested containers are not part of the line format");
    return false;
  }
  // Number / true / false / null: consume the bare token.
  const char* begin = c.p;
  while (!c.done() && *c.p != ',' && *c.p != '}' && *c.p != ' ' && *c.p != '\t' && *c.p != '\r')
    ++c.p;
  if (begin == c.p) {
    diags.error(line_no, "missing value");
    return false;
  }
  return true;
}

std::optional<std::uint64_t> read_object(std::string_view line, std::size_t line_no,
                                         Diagnostics& diags,
                                         std::span<const std::string_view> keys,
                                         ValueReader read_value) {
  Cursor c{line.data(), line.data() + line.size()};
  if (!c.eat('{')) {
    diags.error(line_no, "expected a JSON object");
    return std::nullopt;
  }
  std::uint64_t seen = 0;
  std::string key;
  if (!c.eat('}')) {
    while (true) {
      if (!parse_string(c, line_no, "key", key, diags)) return std::nullopt;
      if (!c.eat(':')) {
        diags.error(line_no, "expected ':' after key \"" + key + "\"");
        return std::nullopt;
      }
      const auto i = static_cast<std::size_t>(std::find(keys.begin(), keys.end(), key) -
                                              keys.begin());
      if (i == keys.size()) {
        diags.warning(line_no, "unknown key \"" + key + "\" ignored");
        if (!skip_scalar(c, line_no, diags)) return std::nullopt;
        if (diags.policy() == DiagnosticPolicy::kStrict) return std::nullopt;
      } else {
        const std::uint64_t bit = std::uint64_t{1} << i;
        if (seen & bit) {
          diags.error(line_no, "duplicate key \"" + key + "\"");
          return std::nullopt;
        }
        if (!read_value.call(read_value.fn, i, c)) return std::nullopt;
        seen |= bit;
      }
      if (c.eat(',')) continue;
      if (c.eat('}')) break;
      diags.error(line_no, "expected ',' or '}'");
      return std::nullopt;
    }
  }
  c.skip_ws();
  if (!c.done()) {
    diags.error(line_no, "trailing characters after object");
    return std::nullopt;
  }
  return seen;
}

}  // namespace symcan::jsonl
