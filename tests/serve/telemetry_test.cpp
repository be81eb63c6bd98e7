#include "symcan/serve/telemetry.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "symcan/can/kmatrix_io.hpp"
#include "symcan/serve/core.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan::serve {
namespace {

std::string small_matrix_csv(std::uint64_t seed = 42) {
  PowertrainConfig cfg;
  cfg.seed = seed;
  cfg.message_count = 12;
  return kmatrix_to_csv(generate_powertrain(cfg));
}

ServeRequest analyze_request(const std::string& csv, const std::string& id) {
  ServeRequest req;
  req.id = id;
  req.kind = RequestKind::kAnalyze;
  req.matrix_csv = csv;
  return req;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

struct TempPath {
  std::string path;
  explicit TempPath(const char* name)
      : path(std::string(::testing::TempDir()) + name) {}
  ~TempPath() { std::remove(path.c_str()); }
};

TEST(RequestTelemetryTest, SetIdTruncatesAndTerminates) {
  RequestTelemetry t;
  t.set_id("short");
  EXPECT_STREQ(t.id, "short");
  t.set_id(std::string(100, 'x'));
  EXPECT_EQ(std::string(t.id).size(), sizeof t.id - 1);
  t.set_id("");
  EXPECT_STREQ(t.id, "");
}

TEST(RequestTelemetryTest, SetIdCutsBetweenUtf8Characters) {
  RequestTelemetry t;
  // A two-byte character at bytes 38-39 would be split by a 39-byte cut.
  t.set_id(std::string(38, 'x') + "\xc3\xa9");
  EXPECT_EQ(std::string(t.id), std::string(38, 'x'));
  // A four-byte character starting at byte 36.
  t.set_id(std::string(36, 'x') + "\xf0\x9f\x98\x80" + "tail");
  EXPECT_EQ(std::string(t.id), std::string(36, 'x'));
  // A character that ends exactly at the cut is kept whole.
  t.set_id(std::string(37, 'x') + "\xc3\xa9" + "tail");
  EXPECT_EQ(std::string(t.id), std::string(37, 'x') + "\xc3\xa9");
  // The escaped id in the flight-recorder line stays whole characters.
  t.set_id(std::string(38, 'x') + "\xc3\xa9");
  EXPECT_NE(telemetry_to_jsonl(t).find("\"id\":\"" + std::string(38, 'x') + "\""),
            std::string::npos);
}

TEST(RequestTelemetryTest, JsonlCarriesTheDecomposition) {
  RequestTelemetry t;
  t.set_id("r1");
  t.kind = RequestKind::kAnalyze;
  t.outcome = ResponseStatus::kOk;
  t.start_ns = 200;
  t.finish_ns = 450;
  t.flow = 9;
  t.matrix_cache = 1;
  t.response_bytes = 33;
  const std::string line = telemetry_to_jsonl(t);
  for (const char* frag :
       {"\"id\":\"r1\"", "\"kind\":\"analyze\"", "\"outcome\":\"ok\"",
        "\"start_ns\":200", "\"finish_ns\":450", "\"queue_wait_ns\":0,",
        "\"service_ns\":250", "\"batch_id\":9,", "\"flow\":9,", "\"matrix_cache\":1",
        "\"response_bytes\":33"})
    EXPECT_NE(line.find(frag), std::string::npos) << frag << " in " << line;
  EXPECT_EQ(line.find("enqueue_ns"), std::string::npos) << line;
}

TEST(FlightRecorderTest, RejectsZeroCapacity) {
  EXPECT_THROW(FlightRecorder{0}, std::invalid_argument);
}

TEST(FlightRecorderTest, KeepsTheLastNOldestFirst) {
  FlightRecorder fr{3};
  for (int i = 0; i < 5; ++i) {
    RequestTelemetry t;
    t.set_id("r" + std::to_string(i));
    fr.record(t);
  }
  EXPECT_EQ(fr.recorded(), 5);
  const std::vector<RequestTelemetry> snap = fr.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_STREQ(snap[0].id, "r2");
  EXPECT_STREQ(snap[1].id, "r3");
  EXPECT_STREQ(snap[2].id, "r4");
}

TEST(FlightRecorderTest, DumpJsonlHasOneLinePerRetainedRecord) {
  FlightRecorder fr{8};
  for (int i = 0; i < 4; ++i) {
    RequestTelemetry t;
    t.set_id("d" + std::to_string(i));
    fr.record(t);
  }
  const std::string dump = fr.dump_jsonl();
  std::istringstream in(dump);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    EXPECT_NE(line.find("\"id\":\"d" + std::to_string(lines) + "\""), std::string::npos)
        << line;
    ++lines;
  }
  EXPECT_EQ(lines, 4);
}

// Every served request carries a complete record whose service time is
// its whole start->finish span, in integer nanoseconds, through the path
// the stdio loop runs: one handle() call per request.
TEST(ServeTelemetryTest, HandlePathRecordsAnExactDecomposition) {
  ServeCore core;
  const std::string csv = small_matrix_csv();
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(core.handle(analyze_request(csv, "q" + std::to_string(i))).status,
              ResponseStatus::kOk);

  const std::vector<RequestTelemetry> records = core.flight_recorder().snapshot();
  ASSERT_EQ(records.size(), 4u);
  std::set<std::uint64_t> flows;
  for (const RequestTelemetry& t : records) {
    SCOPED_TRACE(t.id);
    EXPECT_GT(t.start_ns, 0);
    EXPECT_GE(t.finish_ns, t.start_ns);
    EXPECT_EQ(t.service_ns(), t.finish_ns - t.start_ns);
    EXPECT_EQ(t.outcome, ResponseStatus::kOk);
    EXPECT_GT(t.response_bytes, 0u);
    flows.insert(t.flow);
  }
  // Distinct flow ids: each request is its own trace tree.
  EXPECT_EQ(flows, (std::set<std::uint64_t>{1, 2, 3, 4}));
  // Same CSV four times: first parse misses the memo, the rest hit.
  int hits = 0, misses = 0;
  for (const RequestTelemetry& t : records) {
    if (t.matrix_cache == 1) ++hits;
    if (t.matrix_cache == 0) ++misses;
  }
  EXPECT_EQ(misses, 1);
  EXPECT_EQ(hits, 3);
}

// handle() answers on the calling thread, so the flight JSONL reports no
// queue wait and each record as a batch of one named by its flow.
TEST(ServeTelemetryTest, DirectHandleHasZeroQueueWait) {
  const TempPath dump{"symcan_flight_direct_handle.jsonl"};
  ServeConfig cfg;
  cfg.telemetry.flight_path = dump.path;
  ServeCore core{cfg};
  core.handle(analyze_request(small_matrix_csv(), "h1"));
  ASSERT_TRUE(core.dump_flight("test"));
  const std::vector<RequestTelemetry> records = core.flight_recorder().snapshot();
  ASSERT_EQ(records.size(), 1u);
  const std::string contents = read_file(dump.path);
  const std::string service = "\"service_ns\":" + std::to_string(records[0].service_ns()) + ",";
  const std::string batch = "\"batch_id\":" + std::to_string(records[0].flow) + ",";
  for (const std::string& frag : {std::string{"\"queue_wait_ns\":0,"}, service, batch})
    EXPECT_NE(contents.find(frag), std::string::npos) << frag << " in " << contents;
}

TEST(ServeTelemetryTest, TelemetryRequestWithDumpFlushesTheRecorder) {
  const TempPath dump{"symcan_flight_req.jsonl"};
  ServeConfig cfg;
  cfg.telemetry.flight_path = dump.path;
  ServeCore core{cfg};
  core.handle(analyze_request(small_matrix_csv(), "a1"));

  ServeRequest req;
  req.id = "t1";
  req.kind = RequestKind::kTelemetry;
  req.dump = true;
  const ServeResponse resp = core.handle(req);
  EXPECT_EQ(resp.status, ResponseStatus::kOk);

  const std::string contents = read_file(dump.path);
  EXPECT_NE(contents.find("\"reason\":\"request\""), std::string::npos) << contents;
  EXPECT_NE(contents.find("\"id\":\"a1\""), std::string::npos) << contents;
}

TEST(ServeTelemetryTest, DumpWithoutAPathReportsFalse) {
  ServeCore core;
  core.handle(analyze_request(small_matrix_csv(), "a1"));
  EXPECT_FALSE(core.dump_flight("test"));
  // But a configured path succeeds and counts.
  const TempPath dump{"symcan_flight_direct.jsonl"};
  ServeConfig cfg;
  cfg.telemetry.flight_path = dump.path;
  ServeCore core2{cfg};
  core2.handle(analyze_request(small_matrix_csv(), "a2"));
  EXPECT_TRUE(core2.dump_flight("test"));
  EXPECT_NE(core2.telemetry_json().find("\"dumps\":1"), std::string::npos);
}

// An unschedulable analyze is a normal answer, not an incident: it
// writes no flight file on the request thread. Only a telemetry request
// with dump:true and shutdown dump.
TEST(ServeTelemetryTest, AnUnschedulableAnalyzeWritesNoFlightFile) {
  const TempPath dump{"symcan_flight_unschedulable.jsonl"};
  std::remove(dump.path.c_str());
  PowertrainConfig pc;
  pc.message_count = 12;
  KMatrix km = generate_powertrain(pc);
  // A 1 us deadline no frame can meet.
  km.messages().front().deadline_policy = DeadlinePolicy::kExplicit;
  km.messages().front().explicit_deadline = Duration::us(1);
  ServeConfig cfg;
  cfg.telemetry.flight_path = dump.path;
  ServeCore core{cfg};
  const ServeResponse resp = core.handle(analyze_request(kmatrix_to_csv(km), "late"));
  ASSERT_EQ(resp.exit_code, 1) << resp.output;
  EXPECT_FALSE(std::ifstream{dump.path}.good()) << read_file(dump.path);
  EXPECT_NE(core.telemetry_json().find("\"dumps\":0"), std::string::npos);
}

TEST(ServeTelemetryTest, SloBurnAppearsAfterSlowRequests) {
  ServeConfig cfg;
  cfg.telemetry.slo.analyze_ms = 0;  // disabled kinds emit no entry
  ServeCore core{cfg};
  core.handle(analyze_request(small_matrix_csv(), "a1"));
  const std::string json = core.telemetry_json();
  EXPECT_EQ(json.find("\"analyze\":{\"target_ms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"validate\":{\"target_ms\":2000"), std::string::npos) << json;
}

}  // namespace
}  // namespace symcan::serve
