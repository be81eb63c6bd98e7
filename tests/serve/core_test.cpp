#include "symcan/serve/core.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "symcan/can/kmatrix_io.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan::serve {
namespace {

std::string small_matrix_csv(std::uint64_t seed = 42) {
  PowertrainConfig cfg;
  cfg.seed = seed;
  cfg.message_count = 12;
  return kmatrix_to_csv(generate_powertrain(cfg));
}

ServeRequest analyze_request(const std::string& csv, const std::string& id = "a1") {
  ServeRequest req;
  req.id = id;
  req.kind = RequestKind::kAnalyze;
  req.matrix_csv = csv;
  return req;
}

TEST(ServeCoreTest, AnalyzeProducesOutputAndCounts) {
  ServeCore core;
  const ServeResponse resp = core.handle(analyze_request(small_matrix_csv()));
  EXPECT_EQ(resp.id, "a1");
  EXPECT_EQ(resp.kind, RequestKind::kAnalyze);
  ASSERT_TRUE(resp.status == ResponseStatus::kOk || resp.status == ResponseStatus::kFailed);
  EXPECT_NE(resp.output.find("bus "), std::string::npos);
  EXPECT_NE(resp.output.find("misses:"), std::string::npos);
  EXPECT_EQ(resp.exit_code, resp.status == ResponseStatus::kOk ? 0 : 1);
  EXPECT_EQ(core.handled(), 1);
}

TEST(ServeCoreTest, MalformedMatrixYieldsInvalidNotThrow) {
  ServeCore core;
  const ServeResponse resp = core.handle(analyze_request("definitely,not,a\nkmatrix"));
  EXPECT_EQ(resp.status, ResponseStatus::kInvalid);
  EXPECT_EQ(resp.exit_code, 2);
  EXPECT_FALSE(resp.diagnostics.empty());
  EXPECT_EQ(core.handled(), 1);
}

TEST(ServeCoreTest, UnknownExplainTargetYieldsInvalid) {
  ServeCore core;
  ServeRequest req;
  req.id = "e1";
  req.kind = RequestKind::kExplain;
  req.matrix_csv = small_matrix_csv();
  req.message = "NoSuchMessage";
  const ServeResponse resp = core.handle(req);
  EXPECT_EQ(resp.status, ResponseStatus::kInvalid);
  EXPECT_EQ(resp.exit_code, 2);
  ASSERT_FALSE(resp.diagnostics.empty());
  EXPECT_NE(resp.diagnostics.front().message.find("NoSuchMessage"), std::string::npos);
}

TEST(ServeCoreTest, HealthReportsTheWholeDashboard) {
  ServeCore core;
  ServeRequest req;
  req.id = "h1";
  req.kind = RequestKind::kHealth;
  const ServeResponse resp = core.handle(req);
  EXPECT_EQ(resp.status, ResponseStatus::kOk);
  for (const char* key :
       {"\"ring\"", "\"rta_cache\"", "\"matrix_cache\"", "\"requests\"",
        "\"uptime_ms\"", "\"build\"", "\"window\"", "\"slo\"", "\"flight_recorder\""})
    EXPECT_NE(resp.health_json.find(key), std::string::npos) << key;
}

TEST(ServeCoreTest, TelemetryKindReturnsWindowedStats) {
  ServeConfig cfg;
  cfg.build_info = "symcan-test";
  ServeCore core{cfg};
  core.handle(analyze_request(small_matrix_csv(), "t0"));

  ServeRequest req;
  req.id = "t1";
  req.kind = RequestKind::kTelemetry;
  const ServeResponse resp = core.handle(req);
  EXPECT_EQ(resp.status, ResponseStatus::kOk);
  EXPECT_EQ(resp.exit_code, 0);
  for (const char* key :
       {"\"uptime_ms\"", "\"window\"", "\"windowed_total\"", "\"rate_per_sec\"",
        "\"service_us\"", "\"p95\"", "\"slo\"", "\"analyze\"", "\"burn_rate\"",
        "\"flight_recorder\""})
    EXPECT_NE(resp.health_json.find(key), std::string::npos) << key << " in " << resp.health_json;
  // The analyze request above must already be visible in the window.
  EXPECT_EQ(resp.health_json.find("\"windowed_total\":0,"), std::string::npos) << resp.health_json;
}

TEST(ServeCoreTest, BatchIsBitIdenticalToOneAtATime) {
  const std::string csv_a = small_matrix_csv(1);
  const std::string csv_b = small_matrix_csv(2);
  std::vector<ServeRequest> reqs;
  for (int i = 0; i < 6; ++i) {
    ServeRequest req = analyze_request(i % 2 ? csv_a : csv_b, "b" + std::to_string(i));
    if (i == 3) {
      req.kind = RequestKind::kValidate;
      req.millis = 50;
    }
    reqs.push_back(std::move(req));
  }

  ServeCore batched;
  const std::vector<ServeResponse> batch = batched.handle_batch(reqs);

  ServeCore oneshot;
  ASSERT_EQ(batch.size(), reqs.size());
  for (std::size_t i = 0; i < reqs.size(); ++i) {
    const ServeResponse solo = oneshot.handle(reqs[i]);
    SCOPED_TRACE(reqs[i].id);
    EXPECT_EQ(batch[i].id, solo.id);
    EXPECT_EQ(batch[i].status, solo.status);
    EXPECT_EQ(batch[i].exit_code, solo.exit_code);
    EXPECT_EQ(batch[i].output, solo.output);
  }
}

TEST(ServeCoreTest, RepeatSubmissionsHitBothCaches) {
  ServeCore core;
  const std::string csv = small_matrix_csv();
  const ServeResponse first = core.handle(analyze_request(csv, "c1"));
  const ServeResponse second = core.handle(analyze_request(csv, "c2"));
  EXPECT_EQ(first.output, second.output);
  EXPECT_EQ(first.exit_code, second.exit_code);

  const std::string health = core.health_json();
  // Second pass recalled the parsed matrix and the per-message RTA entries.
  EXPECT_NE(health.find("\"matrix_cache\":{\"capacity\":64,\"size\":1,\"hits\":1,\"misses\":1}"),
            std::string::npos)
      << health;
  EXPECT_GT(core.rta_cache().stats().hits, 0);
}

TEST(ServeCoreTest, HandleAnswersOnTheCallingThreadAsABatchOfOne) {
  ServeCore core;
  for (const char* id : {"q1", "q2"}) {
    const ServeResponse resp = core.handle(analyze_request("csv", id));
    EXPECT_EQ(resp.id, id);
    EXPECT_EQ(resp.status, ResponseStatus::kInvalid);
  }
  // Each call drew a fresh flow id and batch id and was enqueued at its
  // start, whatever its outcome.
  const std::vector<RequestTelemetry> records = core.flight_recorder().snapshot();
  ASSERT_EQ(records.size(), 2u);
  std::set<std::uint64_t> flows, batches;
  for (const RequestTelemetry& t : records) {
    EXPECT_GT(t.enqueue_ns, 0);
    EXPECT_EQ(t.queue_wait_ns(), 0);
    flows.insert(t.flow);
    batches.insert(t.batch_id);
  }
  EXPECT_EQ(flows.size(), 2u);
  EXPECT_EQ(flows.count(0), 0u);
  EXPECT_EQ(batches, (std::set<std::uint64_t>{1, 2}));
}

}  // namespace
}  // namespace symcan::serve
