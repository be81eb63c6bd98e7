// The service's headline determinism promise: a serve response for
// analyze / prob / explain / validate is byte-for-byte what the one-shot CLI
// prints for the same question, and `serve --stdio` emits exactly the
// bytes the in-process ServeCore produces. Labeled `determinism` so CI
// also runs it under TSan.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "symcan/can/kmatrix_io.hpp"
#include "symcan/cli/commands.hpp"
#include "symcan/serve/core.hpp"
#include "symcan/serve/request.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan::serve {
namespace {

class ServeDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    PowertrainConfig cfg = PowertrainConfig::case_study();
    cfg.message_count = 16;
    cfg.ecu_count = 4;
    cfg.target_utilization = 0.40;
    const KMatrix km = generate_powertrain(cfg);
    csv_ = kmatrix_to_csv(km);
    message_ = km.messages().front().name;
    path_ = ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_serve_diff.csv";
    save_kmatrix(km, path_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  struct CliRun {
    int exit_code = 0;
    std::string out;
  };

  CliRun run_cli_args(const std::vector<std::string>& args) {
    std::ostringstream out, err;
    const int rc = cli::run_cli(args, out, err);
    EXPECT_EQ(err.str(), "") << "CLI wrote to stderr for " << args.front();
    return {rc, out.str()};
  }

  /// The differential check itself: same question via both doors, same
  /// bytes and same exit code out.
  void expect_matches_cli(const ServeRequest& req, const std::vector<std::string>& cli_args) {
    SCOPED_TRACE(request_to_jsonl(req));
    ServeCore core;
    const ServeResponse resp = core.handle(req);
    const CliRun cli = run_cli_args(cli_args);
    EXPECT_EQ(resp.output, cli.out);
    EXPECT_EQ(resp.exit_code, cli.exit_code);
    ASSERT_TRUE(resp.status == ResponseStatus::kOk || resp.status == ResponseStatus::kFailed);
  }

  ServeRequest base_request(RequestKind kind) {
    ServeRequest req;
    req.id = "diff";
    req.kind = kind;
    req.matrix_csv = csv_;
    return req;
  }

  std::string csv_;
  std::string message_;
  std::string path_;
};

TEST_F(ServeDifferentialTest, AnalyzeDefaultPreset) {
  expect_matches_cli(base_request(RequestKind::kAnalyze), {"analyze", path_});
}

TEST_F(ServeDifferentialTest, AnalyzeWorstCaseWithJitter) {
  ServeRequest req = base_request(RequestKind::kAnalyze);
  req.preset = pipeline::AssumptionPreset::kWorstCase;
  req.jitter = 0.25;
  expect_matches_cli(req, {"analyze", path_, "--worst-case", "--jitter", "0.25"});
}

TEST_F(ServeDifferentialTest, AnalyzeBestCaseOverrideKnown) {
  ServeRequest req = base_request(RequestKind::kAnalyze);
  req.preset = pipeline::AssumptionPreset::kBestCase;
  req.jitter = 0.10;
  req.override_known = true;
  expect_matches_cli(req,
                     {"analyze", path_, "--best-case", "--jitter", "0.10", "--override-known"});
}

TEST_F(ServeDifferentialTest, ProbMatchesCliColdAndWarm) {
  // The serve side solves rung ladders through the shared ladder cache,
  // the CLI through the uncached analysis; both answers must be the same
  // bytes, and so must a second, cache-served answer.
  ServeRequest req = base_request(RequestKind::kProb);
  req.preset = pipeline::AssumptionPreset::kWorstCase;
  req.fault_ppm = 1000;
  req.stuff_ppm = 500'000;
  req.jitter_ppm = 250'000;
  const std::vector<std::string> args = {"analyze",      path_,    "--prob",       "--worst-case",
                                         "--fault-ppm",  "1000",   "--stuff-ppm",  "500000",
                                         "--jitter-ppm", "250000"};
  expect_matches_cli(req, args);
  ServeCore core;
  const ServeResponse cold = core.handle(req);
  const ServeResponse warm = core.handle(req);
  EXPECT_GT(core.rta_cache().prob_stats().hits, 0);
  EXPECT_EQ(warm.output, run_cli_args(args).out);
  EXPECT_EQ(cold.output, warm.output);
  // Capped ladders take a different cache key and must still match.
  req.max_rungs = 2;
  expect_matches_cli(req, {"analyze", path_, "--prob", "--worst-case", "--fault-ppm", "1000",
                           "--stuff-ppm", "500000", "--jitter-ppm", "250000", "--max-rungs",
                           "2"});
}

TEST_F(ServeDifferentialTest, ExplainTextAndJson) {
  ServeRequest req = base_request(RequestKind::kExplain);
  req.message = message_;
  expect_matches_cli(req, {"explain", path_, message_});
  req.json = true;
  req.preset = pipeline::AssumptionPreset::kWorstCase;
  expect_matches_cli(req, {"explain", path_, message_, "--worst-case", "--json"});
}

TEST_F(ServeDifferentialTest, ValidateSeededShortRun) {
  ServeRequest req = base_request(RequestKind::kValidate);
  req.millis = 200;
  req.seed = 5;
  expect_matches_cli(req, {"validate", path_, "--millis", "200", "--seed", "5"});
}

TEST_F(ServeDifferentialTest, ValidateJsonWithSporadicErrors) {
  ServeRequest req = base_request(RequestKind::kValidate);
  req.millis = 200;
  req.seed = 9;
  req.errors = "sporadic";
  req.json = true;
  expect_matches_cli(
      req, {"validate", path_, "--millis", "200", "--seed", "9", "--errors", "sporadic",
            "--json"});
  // An explicit gap must match the CLI's --error-gap-ms spelling too.
  req.error_gap_ms = 55;
  expect_matches_cli(req, {"validate", path_, "--millis", "200", "--seed", "9", "--errors",
                           "sporadic", "--error-gap-ms", "55", "--json"});
}

TEST_F(ServeDifferentialTest, CachedSecondAnswerIsByteIdentical) {
  // One core, same request twice: the second answer comes out of the
  // sharded RTA cache and the matrix memo, and must not differ by a bit.
  ServeCore core;
  const ServeRequest req = base_request(RequestKind::kAnalyze);
  const ServeResponse cold = core.handle(req);
  const ServeResponse warm = core.handle(req);
  EXPECT_GT(core.rta_cache().stats().hits, 0);
  EXPECT_EQ(cold.output, warm.output);
  EXPECT_EQ(cold.exit_code, warm.exit_code);
}

TEST_F(ServeDifferentialTest, StdioTransportEmitsExactlyServeCoreBytes) {
  std::vector<ServeRequest> reqs;
  reqs.push_back(base_request(RequestKind::kAnalyze));
  reqs.back().id = "r1";
  reqs.push_back(base_request(RequestKind::kExplain));
  reqs.back().id = "r2";
  reqs.back().message = message_;
  reqs.push_back(base_request(RequestKind::kValidate));
  reqs.back().id = "r3";
  reqs.back().millis = 200;

  std::string stdin_text;
  for (const ServeRequest& r : reqs) stdin_text += request_to_jsonl(r) + "\n";

  // Expected bytes: a fresh core handling the same sequence in order
  // (health is excluded here — its counters depend on transport
  // bookkeeping by design).
  std::string expected;
  {
    ServeCore core;
    for (const ServeRequest& r : reqs) expected += response_to_jsonl(core.handle(r)) + "\n";
  }

  std::istringstream in{stdin_text};
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_cli({"serve", "--stdio"}, in, out, err), 0);
  EXPECT_EQ(err.str(), "");
  EXPECT_EQ(out.str(), expected);
}

TEST_F(ServeDifferentialTest, StdioRunsAreReproducible) {
  ServeRequest req = base_request(RequestKind::kValidate);
  req.id = "rep";
  req.millis = 200;
  req.seed = 3;
  const std::string stdin_text = request_to_jsonl(req) + "\n";

  std::string first;
  for (int round = 0; round < 2; ++round) {
    std::istringstream in{stdin_text};
    std::ostringstream out, err;
    EXPECT_EQ(cli::run_cli({"serve", "--stdio", "--jobs", "2"}, in, out, err), 0);
    if (round == 0)
      first = out.str();
    else
      EXPECT_EQ(out.str(), first);
  }
}

}  // namespace
}  // namespace symcan::serve
