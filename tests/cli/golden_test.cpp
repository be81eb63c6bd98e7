// Golden-file regression tests for the CLI's machine-readable outputs:
// the --metrics-out JSON exports and the markdown analysis report. The
// goldens live in tests/cli/golden/ (SYMCAN_GOLDEN_DIR) and are compared
// structurally for JSON — objects are key-order-insensitive, keys and
// string values must match exactly, numbers only by being numbers (timing
// metrics vary run to run) — and byte-exactly for text outputs, which
// derive from integer-exact analysis only.
//
// All inputs come from the checked-in case-study matrix
// (SYMCAN_CASE_STUDY_CSV), so the goldens do not depend on the random
// generator. To regenerate after an intentional output change:
//   SYMCAN_UPDATE_GOLDEN=1 ctest --test-dir build -R cli_golden

#include "symcan/cli/commands.hpp"

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

namespace symcan::cli {
namespace {

// --- Minimal JSON model + recursive-descent parser (tests only). ---

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  std::string text;  ///< kString: the value; kNumber: the literal.
  std::vector<Json> items;
  std::map<std::string, Json> fields;  ///< Ordered map => order-insensitive.
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& s) : s_{s} {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != s_.size()) throw std::runtime_error("trailing JSON content at " + where());
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() && std::isspace(static_cast<unsigned char>(s_[pos_]))) ++pos_;
  }
  char peek() {
    skip_ws();
    if (pos_ >= s_.size()) throw std::runtime_error("unexpected end of JSON");
    return s_[pos_];
  }
  void expect(char c) {
    if (peek() != c)
      throw std::runtime_error(std::string("expected '") + c + "' at " + where());
    ++pos_;
  }
  std::string where() const { return "offset " + std::to_string(pos_); }

  Json value() {
    switch (peek()) {
      case '{':
        return object();
      case '[':
        return array();
      case '"':
        return string_value();
      case 't':
      case 'f':
        return boolean();
      case 'n':
        literal("null");
        return Json{};
      default:
        return number();
    }
  }

  Json object() {
    Json v;
    v.kind = Json::Kind::kObject;
    expect('{');
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      const std::string key = parse_string();
      expect(':');
      v.fields[key] = value();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    Json v;
    v.kind = Json::Kind::kArray;
    expect('[');
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items.push_back(value());
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  Json string_value() {
    Json v;
    v.kind = Json::Kind::kString;
    v.text = parse_string();
    return v;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\' && pos_ + 1 < s_.size()) {
        out += s_[pos_];
        ++pos_;  // keep escapes verbatim; equality is all we need
      }
      out += s_[pos_++];
    }
    if (pos_ >= s_.size()) throw std::runtime_error("unterminated string");
    ++pos_;  // closing quote
    return out;
  }

  Json boolean() {
    Json v;
    v.kind = Json::Kind::kBool;
    if (s_[pos_] == 't') {
      literal("true");
      v.boolean = true;
    } else {
      literal("false");
    }
    return v;
  }

  Json number() {
    Json v;
    v.kind = Json::Kind::kNumber;
    const std::size_t start = pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) || s_[pos_] == '-' ||
            s_[pos_] == '+' || s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E'))
      ++pos_;
    if (pos_ == start) throw std::runtime_error("not a JSON value at " + where());
    v.text = s_.substr(start, pos_ - start);
    return v;
  }

  void literal(const char* word) {
    for (const char* c = word; *c; ++c)
      if (pos_ >= s_.size() || s_[pos_++] != *c)
        throw std::runtime_error(std::string("bad literal, expected ") + word);
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

/// Structural comparison; differences are reported with a JSON-pointer-ish
/// path so a golden mismatch names the exact key.
void diff_json(const Json& want, const Json& got, const std::string& path,
               std::vector<std::string>& out) {
  if (want.kind != got.kind) {
    out.push_back(path + ": kind mismatch");
    return;
  }
  switch (want.kind) {
    case Json::Kind::kNull:
      break;
    case Json::Kind::kNumber:
      break;  // numbers match by type only (timings vary)
    case Json::Kind::kBool:
      if (want.boolean != got.boolean) out.push_back(path + ": bool mismatch");
      break;
    case Json::Kind::kString:
      if (want.text != got.text)
        out.push_back(path + ": \"" + got.text + "\" != golden \"" + want.text + "\"");
      break;
    case Json::Kind::kArray:
      if (want.items.size() != got.items.size()) {
        out.push_back(path + ": array size " + std::to_string(got.items.size()) +
                      " != golden " + std::to_string(want.items.size()));
        break;
      }
      for (std::size_t i = 0; i < want.items.size(); ++i)
        diff_json(want.items[i], got.items[i], path + "/" + std::to_string(i), out);
      break;
    case Json::Kind::kObject:
      for (const auto& [key, sub] : want.fields) {
        const auto it = got.fields.find(key);
        if (it == got.fields.end()) {
          out.push_back(path + "/" + key + ": missing");
          continue;
        }
        diff_json(sub, it->second, path + "/" + key, out);
      }
      for (const auto& [key, sub] : got.fields) {
        (void)sub;
        if (!want.fields.count(key)) out.push_back(path + "/" + key + ": unexpected key");
      }
      break;
  }
}

class GoldenTest : public ::testing::Test {
 protected:
  static std::string golden_path(const std::string& name) {
    return std::string(SYMCAN_GOLDEN_DIR) + "/" + name;
  }

  static bool update_mode() {
    const char* v = std::getenv("SYMCAN_UPDATE_GOLDEN");
    return v && std::string(v) == "1";
  }

  static std::string slurp(const std::string& file) {
    std::ifstream f{file};
    if (!f) throw std::runtime_error("cannot read " + file);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
  }

  int run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return run_cli(args, out_, err_);
  }

  /// Compare `actual` against the named golden (or rewrite it).
  void check_text(const std::string& name, const std::string& actual) {
    if (update_mode()) {
      std::ofstream f{golden_path(name)};
      f << actual;
      return;
    }
    EXPECT_EQ(actual, slurp(golden_path(name))) << name << " drifted; run with "
                                                << "SYMCAN_UPDATE_GOLDEN=1 if intentional";
  }

  void check_json(const std::string& name, const std::string& actual) {
    if (update_mode()) {
      std::ofstream f{golden_path(name)};
      f << actual;
      return;
    }
    const Json want = JsonParser{slurp(golden_path(name))}.parse();
    const Json got = JsonParser{actual}.parse();
    std::vector<std::string> diffs;
    diff_json(want, got, "", diffs);
    for (const std::string& d : diffs)
      ADD_FAILURE() << name << d << "; run with SYMCAN_UPDATE_GOLDEN=1 if intentional";
  }

  std::string matrix_ = SYMCAN_CASE_STUDY_CSV;
  std::string trace_ = SYMCAN_CASE_STUDY_TRACE;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(GoldenTest, AnalyzeMetricsJson) {
  const std::string metrics = ::testing::TempDir() + "/symcan_golden_analyze.json";
  // Exit 1 just means the matrix has deadline misses under the default
  // assumptions; the metrics export is written either way.
  const int rc = run({"analyze", matrix_, "--metrics-out", metrics});
  ASSERT_TRUE(rc == 0 || rc == 1) << err_.str();
  check_json("analyze_metrics.json", slurp(metrics));
  std::remove(metrics.c_str());
}

TEST_F(GoldenTest, SweepMetricsJsonIncludesCacheCounters) {
  // The sweep drives IncrementalRta, so its metrics export is where the
  // rta.cache.* counters surface; the golden pins the full key set.
  const std::string metrics = ::testing::TempDir() + "/symcan_golden_sweep.json";
  ASSERT_EQ(run({"sweep", matrix_, "--worst-case", "--from", "0", "--to", "0.2", "--step", "0.1",
                 "--jobs", "2", "--metrics-out", metrics}),
            0)
      << err_.str();
  const std::string text = slurp(metrics);
  EXPECT_NE(text.find("rta.cache.hits"), std::string::npos);
  EXPECT_NE(text.find("rta.cache.misses"), std::string::npos);
  check_json("sweep_metrics.json", text);
  std::remove(metrics.c_str());
}

TEST_F(GoldenTest, SweepCsvSeries) {
  ASSERT_EQ(run({"sweep", matrix_, "--worst-case", "--from", "0", "--to", "0.3", "--step", "0.1",
                 "--jobs", "2"}),
            0)
      << err_.str();
  check_text("sweep_series.csv", out_.str());
}

TEST_F(GoldenTest, ReportMarkdown) {
  const int rc = run({"report", matrix_, "--jitter", "0.25", "--jobs", "2"});
  ASSERT_TRUE(rc == 0 || rc == 1) << err_.str();
  check_text("report.md", out_.str());
}

TEST_F(GoldenTest, ExplainText) {
  // M16 is the lowest-priority case-study message: richest interference
  // breakdown. Text derives from integer-exact analysis only, so it is
  // pinned byte for byte.
  ASSERT_EQ(run({"explain", matrix_, "M16", "--worst-case"}), 0) << err_.str();
  check_text("explain.txt", out_.str());
}

TEST_F(GoldenTest, ExplainJson) {
  ASSERT_EQ(run({"explain", matrix_, "M16", "--worst-case", "--json"}), 0) << err_.str();
  check_json("explain.json", out_.str());
}

TEST_F(GoldenTest, AnalyzeProbText) {
  // Non-degenerate probabilities, so the fault ladder, both luck deltas
  // and the residue rounding all reach the rendered table.
  const int rc = run({"analyze", matrix_, "--prob", "--worst-case", "--fault-ppm", "1000",
                      "--stuff-ppm", "500000", "--jitter-ppm", "250000"});
  ASSERT_TRUE(rc == 0 || rc == 1) << err_.str();
  check_text("analyze_prob.txt", out_.str());
}

TEST_F(GoldenTest, AnalyzeDefaultText) {
  // The plain verdict table: ids, three durations per row in adaptive
  // units and the verdict column, pinned byte for byte.
  const int rc = run({"analyze", matrix_});
  ASSERT_TRUE(rc == 0 || rc == 1) << err_.str();
  check_text("analyze_default.txt", out_.str());
}

TEST_F(GoldenTest, AnalyzeWorstCaseText) {
  const int rc = run({"analyze", matrix_, "--worst-case"});
  ASSERT_TRUE(rc == 0 || rc == 1) << err_.str();
  check_text("analyze_worst_case.txt", out_.str());
}

TEST_F(GoldenTest, AnalyzeBestCaseText) {
  const int rc = run({"analyze", matrix_, "--best-case"});
  ASSERT_TRUE(rc == 0 || rc == 1) << err_.str();
  check_text("analyze_best_case.txt", out_.str());
}

TEST_F(GoldenTest, AnalyzeWorstCaseJitterText) {
  // Jitter-shortened deadlines give four- and five-digit fractions
  // ("6.1712 ms"), so the significant-digit rounding reaches the table.
  const int rc = run({"analyze", matrix_, "--worst-case", "--jitter", "0.3", "--override-known"});
  ASSERT_TRUE(rc == 0 || rc == 1) << err_.str();
  check_text("analyze_worst_case_jitter.txt", out_.str());
}

TEST_F(GoldenTest, MonitorHealthTableOverCommittedTrace) {
  // The committed trace (data/case_study_trace.jsonl) was recorded with
  // `simulate --millis 120 --seed 5 --errors sporadic --error-gap-ms 10`;
  // the monitor invocation passes the matching error process so its
  // bounds soundly dominate the recording. Everything downstream is
  // integer-exact, so the health table is pinned byte for byte.
  ASSERT_EQ(run({"monitor", matrix_, "--from-trace", trace_, "--errors", "sporadic",
                 "--error-gap-ms", "10"}),
            0)
      << err_.str();
  check_text("monitor.txt", out_.str());
}

TEST_F(GoldenTest, MonitorHealthEventsJsonlOverCommittedTrace) {
  const std::string events = ::testing::TempDir() + "/symcan_golden_monitor_events.jsonl";
  ASSERT_EQ(run({"monitor", matrix_, "--from-trace", trace_, "--errors", "sporadic",
                 "--error-gap-ms", "10", "--events-jsonl", events}),
            0)
      << err_.str();
  check_text("monitor_events.jsonl", slurp(events));
  std::remove(events.c_str());
}

TEST_F(GoldenTest, BudgetText) {
  // The case study's joint fraction is 9 %, so the joint bisection and
  // every message's individual search run to their tolerance.
  ASSERT_EQ(run({"budget", matrix_}), 0) << err_.str();
  check_text("budget.txt", out_.str());
}

TEST_F(GoldenTest, SensitivityText) {
  // Several messages' tolerable-jitter searches end inside (0, 100 %),
  // through the shared RTA memo.
  ASSERT_EQ(run({"sensitivity", matrix_}), 0) << err_.str();
  check_text("sensitivity.txt", out_.str());
}

TEST_F(GoldenTest, UsageText) {
  // The help text lists every option the CLI accepts, so any change to
  // that surface shows up as a diff of this file.
  ASSERT_EQ(run({"--help"}), 0) << err_.str();
  check_text("usage.txt", out_.str());
}

TEST_F(GoldenTest, ReportMarkdownIdenticalAtDefaultJobs) {
  // The report must not depend on the worker count: the hardware width
  // renders the same bytes as --jobs 2.
  const int rc = run({"report", matrix_, "--jitter", "0.25"});
  ASSERT_TRUE(rc == 0 || rc == 1) << err_.str();
  check_text("report.md", out_.str());
}

}  // namespace
}  // namespace symcan::cli
