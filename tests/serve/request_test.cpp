#include "symcan/serve/request.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "symcan/obs/json.hpp"
#include "symcan/util/jsonl.hpp"

namespace symcan::serve {
namespace {

std::optional<ServeRequest> parse(const std::string& line,
                                  DiagnosticPolicy policy = DiagnosticPolicy::kLenient,
                                  std::size_t line_no = 1, Diagnostics* out_diags = nullptr) {
  Diagnostics diags{policy, "serve request"};
  auto req = request_from_jsonl(line, line_no, diags);
  if (out_diags) *out_diags = diags;
  return req;
}

/// parse ∘ serialize ∘ parse must be the identity on accepted requests.
void expect_round_trip(const ServeRequest& req) {
  const std::string wire = request_to_jsonl(req);
  SCOPED_TRACE(wire);
  Diagnostics diags;
  const auto back = request_from_jsonl(wire, 1, diags);
  ASSERT_TRUE(back.has_value()) << diags.format();
  EXPECT_TRUE(diags.ok()) << diags.format();
  EXPECT_EQ(*back, req);
  // Canonical form is a fixed point of serialization.
  EXPECT_EQ(request_to_jsonl(*back), wire);
}

TEST(ServeRequestTest, MinimalAnalyzeParses) {
  const auto req = parse(R"({"id":"r1","kind":"analyze","matrix_csv":"csv-bytes"})");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->id, "r1");
  EXPECT_EQ(req->kind, RequestKind::kAnalyze);
  EXPECT_EQ(req->matrix_csv, "csv-bytes");
  EXPECT_EQ(req->preset, pipeline::AssumptionPreset::kDefault);
  EXPECT_FALSE(req->jitter.has_value());
  EXPECT_FALSE(req->seed.has_value());
  EXPECT_EQ(req->millis, 2000);
}

TEST(ServeRequestTest, RoundTripEveryKind) {
  ServeRequest analyze;
  analyze.id = "a";
  analyze.kind = RequestKind::kAnalyze;
  analyze.matrix_csv = "bus,msg\n\"quoted\"\n";
  analyze.preset = pipeline::AssumptionPreset::kWorstCase;
  analyze.jitter = 0.1;
  analyze.override_known = true;
  expect_round_trip(analyze);

  ServeRequest explain;
  explain.id = "e";
  explain.kind = RequestKind::kExplain;
  explain.matrix_csv = "csv";
  explain.message = "EngineTorque";
  explain.json = true;
  explain.preset = pipeline::AssumptionPreset::kBestCase;
  expect_round_trip(explain);

  ServeRequest validate;
  validate.id = "v";
  validate.kind = RequestKind::kValidate;
  validate.matrix_csv = "csv";
  validate.millis = 250;
  validate.seed = 42;
  validate.errors = "sporadic";
  validate.error_gap_ms = 55;
  validate.json = true;
  expect_round_trip(validate);

  ServeRequest optimize;
  optimize.id = "o";
  optimize.kind = RequestKind::kOptimize;
  optimize.matrix_csv = "csv";
  optimize.seed = 11;
  optimize.generations = 3;
  optimize.population = 8;
  optimize.target_jitter = 0.5;
  expect_round_trip(optimize);

  ServeRequest prob;
  prob.id = "p";
  prob.kind = RequestKind::kProb;
  prob.matrix_csv = "csv";
  prob.preset = pipeline::AssumptionPreset::kWorstCase;
  prob.fault_ppm = 250'000;
  prob.stuff_ppm = 900'000;
  prob.jitter_ppm = 0;
  prob.max_rungs = 32;
  expect_round_trip(prob);

  ServeRequest health;
  health.id = "h";
  health.kind = RequestKind::kHealth;
  expect_round_trip(health);

  ServeRequest telemetry;
  telemetry.id = "t";
  telemetry.kind = RequestKind::kTelemetry;
  expect_round_trip(telemetry);

  ServeRequest telemetry_dump;
  telemetry_dump.id = "td";
  telemetry_dump.kind = RequestKind::kTelemetry;
  telemetry_dump.dump = true;
  expect_round_trip(telemetry_dump);
}

TEST(ServeRequestTest, TelemetryKindRules) {
  // Telemetry carries no matrix, like health.
  EXPECT_FALSE(parse(R"({"id":"x","kind":"telemetry","matrix_csv":"c"})"));
  const auto req = parse(R"({"id":"x","kind":"telemetry","dump":true})");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->kind, RequestKind::kTelemetry);
  EXPECT_TRUE(req->dump);
  // dump belongs to telemetry only.
  EXPECT_FALSE(parse(R"({"id":"x","kind":"health","dump":true})"));
  EXPECT_FALSE(parse(R"({"id":"x","kind":"analyze","matrix_csv":"c","dump":true})"));
  // dump:false is the default and stays off the wire.
  ServeRequest plain;
  plain.id = "x";
  plain.kind = RequestKind::kTelemetry;
  EXPECT_EQ(request_to_jsonl(plain), R"({"id":"x","kind":"telemetry"})");
}

TEST(ServeRequestTest, ProbKindRules) {
  // Minimal prob request: ppm knobs default to the degenerate certain
  // values that reproduce the deterministic analysis.
  const auto req = parse(R"({"id":"p","kind":"prob","matrix_csv":"c"})");
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->kind, RequestKind::kProb);
  EXPECT_EQ(req->fault_ppm, 1'000'000);
  EXPECT_EQ(req->stuff_ppm, 1'000'000);
  EXPECT_EQ(req->jitter_ppm, 1'000'000);
  EXPECT_EQ(req->max_rungs, 96);
  // Default knobs stay off the wire.
  ServeRequest minimal;
  minimal.id = "p";
  minimal.kind = RequestKind::kProb;
  minimal.matrix_csv = "c";
  EXPECT_EQ(request_to_jsonl(minimal), R"({"id":"p","kind":"prob","matrix_csv":"c"})");
  // The ppm knobs belong to prob only.
  EXPECT_FALSE(parse(R"({"id":"x","kind":"analyze","matrix_csv":"c","fault_ppm":5})"));
  EXPECT_FALSE(parse(R"({"id":"x","kind":"validate","matrix_csv":"c","stuff_ppm":5})"));
  EXPECT_FALSE(parse(R"({"id":"x","kind":"optimize","matrix_csv":"c","max_rungs":8})"));
  // Range validation: ppm in [0, 1000000], max_rungs in [1, 4096].
  EXPECT_FALSE(parse(R"({"id":"x","kind":"prob","matrix_csv":"c","fault_ppm":1000001})"));
  EXPECT_FALSE(parse(R"({"id":"x","kind":"prob","matrix_csv":"c","jitter_ppm":-1})"));
  EXPECT_FALSE(parse(R"({"id":"x","kind":"prob","matrix_csv":"c","max_rungs":0})"));
  EXPECT_FALSE(parse(R"({"id":"x","kind":"prob","matrix_csv":"c","max_rungs":4097})"));
  // Like every matrix-carrying kind, prob requires one and takes a preset.
  EXPECT_FALSE(parse(R"({"id":"x","kind":"prob"})"));
  EXPECT_TRUE(parse(R"({"id":"x","kind":"prob","matrix_csv":"c","preset":"worst-case"})"));
}

TEST(ServeRequestTest, DefaultsAreOmittedFromTheWire) {
  ServeRequest req;
  req.id = "d";
  req.kind = RequestKind::kValidate;
  req.matrix_csv = "csv";
  const std::string wire = request_to_jsonl(req);
  EXPECT_EQ(wire, R"({"id":"d","kind":"validate","matrix_csv":"csv"})");
  expect_round_trip(req);
}

TEST(ServeRequestTest, MissingIdOrKindIsAnError) {
  Diagnostics diags;
  EXPECT_FALSE(parse(R"({"kind":"health"})", DiagnosticPolicy::kLenient, 1, &diags));
  EXPECT_NE(diags.format().find("missing key \"id\""), std::string::npos);
  EXPECT_FALSE(parse(R"({"id":"x"})", DiagnosticPolicy::kLenient, 1, &diags));
  EXPECT_NE(diags.format().find("missing key \"kind\""), std::string::npos);
}

TEST(ServeRequestTest, DuplicateKeyIsAnError) {
  Diagnostics diags;
  EXPECT_FALSE(parse(R"({"id":"x","id":"y","kind":"health"})", DiagnosticPolicy::kLenient, 1,
                     &diags));
  EXPECT_NE(diags.format().find("duplicate key \"id\""), std::string::npos);
}

TEST(ServeRequestTest, KindRulesRejectForeignKeys) {
  // millis belongs to validate only.
  EXPECT_FALSE(parse(R"({"id":"x","kind":"analyze","matrix_csv":"c","millis":100})"));
  // preset is refused for validate (a best-case "violation" is meaningless).
  EXPECT_FALSE(parse(R"({"id":"x","kind":"validate","matrix_csv":"c","preset":"best-case"})"));
  // generations belongs to optimize only.
  EXPECT_FALSE(parse(R"({"id":"x","kind":"validate","matrix_csv":"c","generations":5})"));
  // message belongs to explain only, and is required there.
  EXPECT_FALSE(parse(R"({"id":"x","kind":"analyze","matrix_csv":"c","message":"m"})"));
  EXPECT_FALSE(parse(R"({"id":"x","kind":"explain","matrix_csv":"c"})"));
  // health carries no matrix.
  EXPECT_FALSE(parse(R"({"id":"x","kind":"health","matrix_csv":"c"})"));
  // Everything else needs one.
  EXPECT_FALSE(parse(R"({"id":"x","kind":"analyze"})"));
}

TEST(ServeRequestTest, ValueValidation) {
  EXPECT_FALSE(parse(R"({"id":"x","kind":"analyze","matrix_csv":"c","jitter":-0.5})"));
  EXPECT_FALSE(parse(R"({"id":"x","kind":"validate","matrix_csv":"c","millis":0})"));
  EXPECT_FALSE(parse(R"({"id":"x","kind":"validate","matrix_csv":"c","seed":-1})"));
  EXPECT_FALSE(parse(R"({"id":"x","kind":"validate","matrix_csv":"c","errors":"cosmic"})"));
  EXPECT_FALSE(parse(R"({"id":"x","kind":"validate","matrix_csv":"c","error_gap_ms":0})"));
  EXPECT_FALSE(parse(R"({"id":"x","kind":"optimize","matrix_csv":"c","generations":2000000})"));
  EXPECT_FALSE(parse(R"({"id":"x","kind":"optimize","matrix_csv":"c","population":0})"));
  EXPECT_FALSE(parse(R"({"id":"x","kind":"bogus","matrix_csv":"c"})"));
  EXPECT_FALSE(parse(R"({"id":"x","kind":"analyze","matrix_csv":"c","preset":"pessimal"})"));
}

TEST(ServeRequestTest, MalformedJsonIsAnError) {
  EXPECT_FALSE(parse("not json"));
  EXPECT_FALSE(parse(R"({"id":"x")"));
  EXPECT_FALSE(parse(R"({"id":"x","kind":"health"} trailing)"));
  EXPECT_FALSE(parse(R"({"id":"x" "kind":"health"})"));
  EXPECT_FALSE(parse(""));
}

TEST(ServeRequestTest, DiagnosticsCarryTheStreamLineNumber) {
  Diagnostics diags;
  EXPECT_FALSE(parse(R"({"id":"x"})", DiagnosticPolicy::kLenient, 17, &diags));
  ASSERT_FALSE(diags.entries().empty());
  EXPECT_EQ(diags.entries().front().line, 17u);
}

TEST(ServeRequestTest, UnknownKeyWarnsLenientFailsStrict) {
  Diagnostics lenient;
  const auto req = parse(R"({"id":"x","kind":"health","future_knob":7})",
                         DiagnosticPolicy::kLenient, 1, &lenient);
  ASSERT_TRUE(req.has_value());
  EXPECT_TRUE(lenient.ok());
  EXPECT_EQ(lenient.warning_count(), 1u);

  // Strict fails on a superset of lenient: the warning escalates.
  Diagnostics strict;
  EXPECT_FALSE(parse(R"({"id":"x","kind":"health","future_knob":7})", DiagnosticPolicy::kStrict,
                     1, &strict));
  EXPECT_FALSE(strict.ok());
}

TEST(ServeRequestTest, EscapedStringsSurvive) {
  ServeRequest req;
  req.id = "tab\tnewline\nquote\"backslash\\";
  req.kind = RequestKind::kExplain;
  req.matrix_csv = "line1\r\nline2";
  req.message = "naïve ünïcode";
  expect_round_trip(req);
}

TEST(ServeRequestTest, EveryEscapeClassRoundTrips) {
  // Every control byte, both mandatory escapes, DEL and multi-byte UTF-8
  // (2-, 3- and 4-byte sequences), each between runs of plain bytes so
  // run copying and escape handling alternate.
  std::string hostile;
  for (int b = 0x00; b < 0x20; ++b) {
    hostile += "ab";
    hostile += static_cast<char>(b);
  }
  hostile += "q\"q\\q\x7Fq\xC3\xA9q\xE2\x82\xACq\xF0\x9D\x84\x9E";
  hostile += "\"\\";

  std::string quoted;
  obs::JsonOut{quoted}.value(hostile);
  for (const char c : quoted) EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << quoted;
  EXPECT_NE(quoted.find("\\u0000"), std::string::npos);
  EXPECT_NE(quoted.find("\\u001f"), std::string::npos);
  EXPECT_NE(quoted.find("\\n"), std::string::npos);
  EXPECT_EQ(quoted.substr(quoted.size() - 5), "\\\"\\\\\"");

  jsonl::Cursor c{quoted.data(), quoted.data() + quoted.size()};
  Diagnostics diags;
  std::string back = "stale";
  ASSERT_TRUE(jsonl::parse_string(c, 1, "id", back, diags)) << diags.format();
  EXPECT_TRUE(c.done());
  EXPECT_EQ(back, hostile);

  ServeRequest req;
  req.id = hostile;
  req.kind = RequestKind::kExplain;
  req.matrix_csv = hostile + "\n" + hostile;
  req.message = hostile;
  expect_round_trip(req);
}

TEST(ServeRequestTest, BrokenStringsKeepTheirDiagnostics) {
  Diagnostics diags;
  EXPECT_FALSE(parse(R"({"id":"abc\)", DiagnosticPolicy::kLenient, 1, &diags).has_value());
  EXPECT_NE(diags.format().find("dangling escape in string for"), std::string::npos)
      << diags.format();
  EXPECT_FALSE(parse(R"({"id":"abc)", DiagnosticPolicy::kLenient, 1, &diags).has_value());
  EXPECT_NE(diags.format().find("unterminated string for"), std::string::npos) << diags.format();
  EXPECT_FALSE(parse("{\"id\":\"a\tb\"}", DiagnosticPolicy::kLenient, 1, &diags).has_value());
  EXPECT_NE(diags.format().find("raw control character in string for"), std::string::npos)
      << diags.format();
}

TEST(ServeRequestTest, ResponseSerializationShapes) {
  ServeResponse ok;
  ok.id = "r1";
  ok.kind = RequestKind::kAnalyze;
  ok.status = ResponseStatus::kOk;
  ok.output = "bus B: fine\n";
  EXPECT_EQ(response_to_jsonl(ok),
            R"({"id":"r1","kind":"analyze","status":"ok","exit_code":0,"output":"bus B: fine\n"})");

  Diagnostics diags{DiagnosticPolicy::kLenient, "serve request"};
  diags.error(3, "missing key \"kind\"");
  const ServeResponse bad = invalid_response("r2", diags);
  EXPECT_EQ(bad.exit_code, 2);
  const std::string wire = response_to_jsonl(bad);
  EXPECT_NE(wire.find(R"("status":"invalid")"), std::string::npos);
  EXPECT_NE(wire.find(R"("line":3)"), std::string::npos);
  EXPECT_NE(wire.find(R"("severity":"error")"), std::string::npos);

  ServeResponse health;
  health.id = "h";
  health.kind = RequestKind::kHealth;
  health.health_json = R"({"mode":"full"})";
  EXPECT_NE(response_to_jsonl(health).find(R"("health":{"mode":"full"})"), std::string::npos);

  // A telemetry payload rides the same field under its own wire key.
  ServeResponse telemetry;
  telemetry.id = "t";
  telemetry.kind = RequestKind::kTelemetry;
  telemetry.health_json = R"({"uptime_ms":1})";
  EXPECT_NE(response_to_jsonl(telemetry).find(R"("telemetry":{"uptime_ms":1})"),
            std::string::npos);
}

}  // namespace
}  // namespace symcan::serve
