#pragma once

// The one reader for the JSONL trust boundaries (stream/trace_reader.cpp,
// serve/request.cpp). Both accept "one flat JSON object per line"
// grammars, and both must turn every malformed construct into a
// line-numbered diagnostic — never a crash, never a silently skewed value.
// read_object owns the object loop both grammars share: the braces, key
// and ':' parsing, duplicate keys, unknown keys (a warning, the value
// skipped, the line stopped under strict), the ',' or '}' separator and
// trailing characters. A caller passes its key list and reads only the
// values it knows; its own post-checks (missing keys, kind rules) run on
// the mask of keys seen. The escape and number handling lives here too.
//
// These are deliberately not a general JSON parser: values are scalars
// only (the readers reject nested containers where their grammars do not
// allow them), numbers are parsed to exact integers or round-trip
// doubles, and \uXXXX escapes (including surrogate pairs; lone
// surrogates as WTF-8) decode to UTF-8 so parse ∘ serialize ∘ parse is
// the identity the fuzz harnesses check.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>

#include "symcan/util/diagnostics.hpp"

namespace symcan::jsonl {

/// Cursor over one line; all helpers leave the cursor after what they
/// consumed and report failures through the line's diagnostics.
struct Cursor {
  const char* p;
  const char* end;

  bool done() const { return p == end; }
  char peek() const { return *p; }
  void skip_ws() {
    while (p != end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
  }
  bool eat(char c) {
    skip_ws();
    if (p == end || *p != c) return false;
    ++p;
    return true;
  }
};

/// Append one code point as UTF-8 (lone surrogates as WTF-8, keeping
/// parse/serialize an identity even on inputs no sane writer produces).
void append_utf8(std::string& out, std::uint32_t cp);

/// A quoted JSON string with full escape handling. `what` names the
/// field in diagnostics ("key", "matrix_csv", ...).
bool parse_string(Cursor& c, std::size_t line_no, const char* what, std::string& out,
                  Diagnostics& diags);

/// A strict integer: JSON permits fractions and exponents, the JSONL
/// grammars here do not, so `1.5` and `1e9` are diagnosed.
bool parse_i64(Cursor& c, std::size_t line_no, const char* what, std::int64_t& out,
               Diagnostics& diags);

/// A finite JSON number (integer or fraction/exponent form).
bool parse_double(Cursor& c, std::size_t line_no, const char* what, double& out,
                  Diagnostics& diags);

/// The literals true / false.
bool parse_bool(Cursor& c, std::size_t line_no, const char* what, bool& out, Diagnostics& diags);

/// Skip a scalar value of an unknown key; nested containers are rejected
/// (nothing in the line grammars nests, and skipping them faithfully
/// would turn these readers into full JSON parsers).
bool skip_scalar(Cursor& c, std::size_t line_no, Diagnostics& diags);

/// read_object's value hook, `bool(std::size_t index, Cursor&)`, held by
/// reference (no allocation): it reads the value of keys[index] at the
/// cursor and returns false, after diagnosing, when the value is unusable.
struct ValueReader {
  template <class F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, ValueReader>)
  ValueReader(F&& f)  // implicit: callers pass a lambda
      : fn{&f}, call{[](void* g, std::size_t i, Cursor& c) {
          return (*static_cast<std::remove_reference_t<F>*>(g))(i, c);
        }} {}

  void* fn;
  bool (*call)(void*, std::size_t, Cursor&);
};

/// One flat object spanning the whole line. A key in `keys` (at most 64)
/// has its value read by `read_value`; the first bad value stops the
/// line. Returns the mask of keys seen (bit i for keys[i]), or nullopt
/// once the line has failed (already diagnosed).
std::optional<std::uint64_t> read_object(std::string_view line, std::size_t line_no,
                                         Diagnostics& diags,
                                         std::span<const std::string_view> keys,
                                         ValueReader read_value);

}  // namespace symcan::jsonl
