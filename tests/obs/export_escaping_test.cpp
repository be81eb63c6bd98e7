// The JSON writer, obs::JsonOut, pinned against hostile names. Metric,
// message and ECU names flow from user-controlled inputs (CSV / DBC
// files) straight into every JSON exporter; a single unescaped quote or
// control byte silently corrupts the whole document for downstream
// tools. These tests pin the writer's escaping, numbers and separators
// byte-for-byte and prove the exporters route every name through it.

#include "symcan/obs/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "symcan/obs/export.hpp"

#include "symcan/sim/trace.hpp"
#include "symcan/sim/trace_export.hpp"

namespace symcan {
namespace {

// Minimal well-formedness scan: inside strings, escapes must be legal and
// control bytes absent; outside, braces/brackets must balance. Catches
// exactly the corruption unescaped names cause without a full parser.
bool json_well_formed(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (static_cast<unsigned char>(c) < 0x20) return false;  // raw control byte
      if (c == '\\') {
        if (++i >= s.size()) return false;
        const char e = s[i];
        if (e == 'u') {
          if (i + 4 >= s.size()) return false;
          for (std::size_t k = 1; k <= 4; ++k)
            if (!isxdigit(static_cast<unsigned char>(s[i + k]))) return false;
          i += 4;
        } else if (e != '"' && e != '\\' && e != '/' && e != 'b' && e != 'f' && e != 'n' &&
                   e != 'r' && e != 't') {
          return false;
        }
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

const char kHostile[] = "a\"b\\c\nd\te\x01" "f, \"}], ";

/// `v` as the one value of a compact document.
template <class T>
std::string json(const T& v) {
  std::string out;
  obs::JsonOut{out}.value(v);
  return out;
}

TEST(JsonEscape, PinnedByteForByte) {
  EXPECT_EQ(json("plain_name-42"), "\"plain_name-42\"");
  EXPECT_EQ(json("\""), "\"\\\"\"");
  EXPECT_EQ(json("\\"), "\"\\\\\"");
  EXPECT_EQ(json("\b\f\n\r\t"), "\"\\b\\f\\n\\r\\t\"");
  // Other control bytes take the \u00XX form.
  EXPECT_EQ(json(std::string(1, '\x01')), "\"\\u0001\"");
  EXPECT_EQ(json(std::string(1, '\x1f')), "\"\\u001f\"");
  // Non-ASCII bytes (UTF-8 continuation etc.) pass through untouched.
  EXPECT_EQ(json("\xc3\xa9"), "\"\xc3\xa9\"");
  EXPECT_EQ(json(kHostile), "\"a\\\"b\\\\c\\nd\\te\\u0001f, \\\"}], \"");
}

TEST(JsonOut, EmptyAndNestedContainers) {
  EXPECT_EQ(json(std::string()), "\"\"");
  std::string out;
  obs::JsonOut w{out};
  w.begin_object().end_object().end_line();
  w.begin_array().end_array().end_line();
  w.begin_object().key("a").begin_array().end_array().key("b").begin_object().end_object();
  w.key("c").begin_array().begin_array().end_array().begin_array().begin_object().end_object();
  w.end_array().end_array().end_object();
  EXPECT_EQ(out, "{}\n[]\n{\"a\":[],\"b\":{},\"c\":[[],[{}]]}");
}

TEST(JsonOut, CommasFollowARawFragment) {
  std::string out;
  obs::JsonOut w{out};
  w.begin_array().raw("{\"x\":1}").value(2).raw("[]").end_array().end_line();
  w.begin_object().key("h").raw("{}").field("n", 3).end_object();
  EXPECT_EQ(out, "[{\"x\":1},2,[]]\n{\"h\":{},\"n\":3}");
}

TEST(JsonOut, IntegersPrintExactlyAtTheirLimits) {
  EXPECT_EQ(json(std::numeric_limits<std::int64_t>::min()), "-9223372036854775808");
  EXPECT_EQ(json(std::numeric_limits<std::int64_t>::max()), "9223372036854775807");
  EXPECT_EQ(json(std::numeric_limits<std::uint64_t>::max()), "18446744073709551615");
  EXPECT_EQ(json(0), "0");
  EXPECT_EQ(json(true), "true");
  EXPECT_EQ(json(false), "false");
}

TEST(JsonOut, NonFiniteDoublesPrintNull) {
  EXPECT_EQ(json(std::nan("")), "null");
  EXPECT_EQ(json(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(json(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonOut, DoublesPrintSeventeenSignificantDigits) {
  EXPECT_EQ(json(0.1), "0.10000000000000001");
  EXPECT_EQ(json(4.0), "4");
  EXPECT_EQ(json(-1.5), "-1.5");
  EXPECT_EQ(json(1e300), "1.0000000000000001e+300");
}

TEST(JsonOut, SpacedLayoutBreaksOnlyLinesContainers) {
  std::string out;
  obs::JsonOut w{out, obs::JsonOut::Layout::kSpaced};
  w.begin_object(true).key("empty").begin_object(true).end_object();
  w.key("rows").begin_array(true);
  w.begin_object().field("a", 1).field("b", "x").end_object();
  w.begin_array().value(1).value(2).end_array();
  w.end_array().field("n", 0.5).end_object().end_line();
  EXPECT_EQ(out,
            "{\n  \"empty\": {},\n  \"rows\": [\n    {\"a\": 1, \"b\": \"x\"},\n    [1, 2]\n  ],"
            "\n  \"n\": 0.5\n}\n");
}

TEST(JsonEscape, MetricsExportSurvivesHostileMetricNames) {
  obs::MetricsRegistry reg;
  reg.counter(kHostile).add(3);
  reg.histogram(std::string("h") + kHostile).observe(1.5);
  reg.gauge("ok").set(1);
  const std::string json = obs::metrics_to_json(reg);
  EXPECT_TRUE(json_well_formed(json)) << json;
  EXPECT_NE(json.find("a\\\"b\\\\c\\nd\\te\\u0001f"), std::string::npos);
  EXPECT_EQ(json.find(std::string("\"") + kHostile), std::string::npos);
}

TEST(JsonEscape, SimTraceExportersSurviveHostileMessageNames) {
  Trace trace;
  trace.record(Duration::us(10), TraceEventType::kRelease, kHostile, 0);
  trace.record(Duration::us(20), TraceEventType::kTxStart, kHostile, 0);
  trace.record(Duration::us(30), TraceEventType::kTxEnd, kHostile, 0);

  const std::string jsonl = trace_to_jsonl(trace);
  // Each line must be well-formed on its own.
  std::size_t start = 0;
  int lines = 0;
  while (start < jsonl.size()) {
    std::size_t end = jsonl.find('\n', start);
    if (end == std::string::npos) end = jsonl.size();
    const std::string line = jsonl.substr(start, end - start);
    EXPECT_TRUE(json_well_formed(line)) << line;
    ++lines;
    start = end + 1;
  }
  EXPECT_EQ(lines, 3);
  EXPECT_NE(jsonl.find("a\\\"b\\\\c"), std::string::npos);

  // Names with ';' or line breaks can no longer enter a KMatrix at all
  // (validate() rejects them to keep the CSV round-trip invertible), so
  // the matrix path gets the worst name that can legally exist there:
  // quotes, backslashes, tabs and control bytes still flow to JSON.
  const std::string hostile_in_matrix = "a\"b\\c\td\x01e, \"}], ";
  KMatrix km{"bus", BitTiming{500'000}};
  EcuNode node;
  node.name = "ecu\"with\\quotes";
  km.add_node(node);
  CanMessage m;
  m.name = hostile_in_matrix;
  m.id = 0x10;
  m.payload_bytes = 8;
  m.period = Duration::ms(10);
  m.sender = node.name;
  km.add_message(m);

  const std::string chrome = sim_trace_to_chrome_json(trace, km);
  EXPECT_TRUE(json_well_formed(chrome)) << chrome;
  EXPECT_NE(chrome.find("ecu\\\"with\\\\quotes"), std::string::npos);
  EXPECT_NE(chrome.find("a\\\"b\\\\c"), std::string::npos);
}

}  // namespace
}  // namespace symcan
