#pragma once

// The one JSON writer. Every JSON document symcan emits (wire responses,
// telemetry, trace and stats exports, metrics, bench results) goes
// through JsonOut, which appends to a caller's string and places every
// comma, colon and line break itself:
//
//   JsonOut w{out};
//   w.begin_object().field("id", "a").key("rows").begin_array();
//   for (int r : {1, 2}) w.value(r);
//   w.end_array().end_object();  // {"id":"a","rows":[1,2]}
//
// Strings are escaped: '"', '\\' and every control byte; other bytes,
// UTF-8 included, pass through. Integers print exactly. Doubles print
// as %.17g, which round-trips, and NaN or Inf print as null.
//
// Two layouts. Compact writes no whitespace. Spaced writes `"k": v` and
// ", " between items, and a container begun with `lines` puts each item
// on its own line, indented two spaces per enclosing `lines` container;
// the metrics, Chrome-trace and bench files use it.

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace symcan::obs {

class JsonOut {
 public:
  enum class Layout { kCompact, kSpaced };

  explicit JsonOut(std::string& out, Layout layout = Layout::kCompact)
      : out_{out}, spaced_{layout == Layout::kSpaced} {}

  /// `lines` takes effect in the spaced layout only. Containers nest at
  /// most 63 deep.
  JsonOut& begin_object(bool lines = false) { return open('{', lines); }
  JsonOut& end_object() { return close('}'); }
  JsonOut& begin_array(bool lines = false) { return open('[', lines); }
  JsonOut& end_array() { return close(']'); }

  JsonOut& key(std::string_view k) {
    separate();
    quoted(k);
    out_.append(spaced_ ? ": " : ":");
    state_ = kBare;
    return *this;
  }

  /// Writes bool, integer, floating-point and string values.
  template <class T>
  JsonOut& value(const T& v) {
    separate();
    if constexpr (std::is_same_v<T, bool>) {
      out_.append(v ? "true" : "false");
    } else if constexpr (std::is_integral_v<T>) {
      char buf[24];
      out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    } else if constexpr (std::is_floating_point_v<T>) {
      number(static_cast<double>(v));
    } else {
      quoted(v);
    }
    state_ = kItem;
    return *this;
  }

  template <class T>
  JsonOut& field(std::string_view k, const T& v) {
    return key(k).value(v);
  }

  /// Splices in a value that is already JSON, verbatim.
  JsonOut& raw(std::string_view json) {
    separate();
    out_.append(json);
    state_ = kItem;
    return *this;
  }

  /// Ends a JSONL record: a line break, after which the next value starts
  /// a new top-level document.
  JsonOut& end_line() {
    out_ += '\n';
    state_ = kBare;
    return *this;
  }

 private:
  /// What precedes the next key or value: nothing (top level, or after a
  /// key), the first item of a container, or a later item.
  enum State : std::uint8_t { kBare, kFirst, kItem };

  bool lines() const { return (lines_ >> depth_ & 1) != 0; }

  void separate() {
    if (state_ == kBare) return;
    if (state_ == kItem) out_ += ',';
    if (lines())
      newline(level_);
    else if (spaced_ && state_ == kItem)
      out_ += ' ';
  }

  void newline(int level) {
    out_ += '\n';
    out_.append(static_cast<std::size_t>(2 * level), ' ');
  }

  JsonOut& open(char bracket, bool lines) {
    separate();
    out_ += bracket;
    ++depth_;
    lines = lines && spaced_;
    lines_ = (lines_ & ~(std::uint64_t{1} << depth_)) | (std::uint64_t{lines} << depth_);
    level_ += lines ? 1 : 0;
    state_ = kFirst;
    return *this;
  }

  JsonOut& close(char bracket) {
    if (lines()) {
      --level_;
      if (state_ != kFirst) newline(level_);
    }
    --depth_;
    out_ += bracket;
    state_ = kItem;
    return *this;
  }

  void quoted(std::string_view s);
  void number(double v);

  std::string& out_;
  const bool spaced_;
  State state_ = kBare;
  int depth_ = 0;            ///< Open containers.
  int level_ = 0;            ///< Open `lines` containers: the indent.
  std::uint64_t lines_ = 0;  ///< Bit d: the container at depth d is `lines`.
};

}  // namespace symcan::obs
