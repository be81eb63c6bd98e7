#include "symcan/cli/commands.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "symcan/can/kmatrix_io.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan::cli {
namespace {

/// ctest runs every test of this binary as its own process, many in
/// parallel, so fixed temp file names race: one process's TearDown can
/// delete a file another is still reading. Pid-unique names keep the
/// processes apart.
std::string temp_name(const std::string& name) {
  return ::testing::TempDir() + "/" + std::to_string(::getpid()) + "_" + name;
}

/// Fixture providing a small matrix on disk and captured streams.
class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = temp_name("symcan_cli_test.csv");
    PowertrainConfig cfg = PowertrainConfig::case_study();
    cfg.message_count = 16;
    cfg.ecu_count = 4;
    cfg.target_utilization = 0.40;
    save_kmatrix(generate_powertrain(cfg), path_);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  int run(std::vector<std::string> args) {
    out_.str("");
    err_.str("");
    return run_cli(args, out_, err_);
  }

  static std::string slurp(const std::string& file) {
    std::ifstream f{file};
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
  }

  std::string path_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, NoArgsPrintsUsageWithError) {
  EXPECT_EQ(run({}), 2);
  EXPECT_NE(out_.str().find("usage:"), std::string::npos);
}

TEST_F(CliTest, HelpPrintsUsageSuccessfully) {
  EXPECT_EQ(run({"help"}), 0);
  EXPECT_NE(out_.str().find("optimize"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  EXPECT_EQ(run({"frobnicate"}), 2);
  EXPECT_NE(err_.str().find("unknown command"), std::string::npos);
}

TEST_F(CliTest, GenerateWritesParsableMatrix) {
  const std::string out_path = temp_name("symcan_cli_gen.csv");
  EXPECT_EQ(run({"generate", "--messages", "12", "--ecus", "3", "--out", out_path}), 0);
  const KMatrix km = load_kmatrix(out_path);
  EXPECT_EQ(km.size(), 12u);
  std::remove(out_path.c_str());
}

TEST_F(CliTest, GenerateToStdout) {
  EXPECT_EQ(run({"generate", "--messages", "8", "--ecus", "3"}), 0);
  const KMatrix km = kmatrix_from_csv(out_.str());
  EXPECT_EQ(km.size(), 8u);
}

TEST_F(CliTest, GenerateWithOffsets) {
  EXPECT_EQ(run({"generate", "--messages", "8", "--ecus", "3", "--tt-offsets"}), 0);
  const KMatrix km = kmatrix_from_csv(out_.str());
  for (const auto& m : km.messages()) EXPECT_TRUE(m.tt_offset.has_value());
}

TEST_F(CliTest, AnalyzeSchedulableReturnsZero) {
  EXPECT_EQ(run({"analyze", path_}), 0);
  EXPECT_NE(out_.str().find("misses: 0/"), std::string::npos);
  EXPECT_NE(out_.str().find("wcrt"), std::string::npos);
}

TEST_F(CliTest, AnalyzeMissingFileFails) {
  EXPECT_EQ(run({"analyze", "/no/such/file.csv"}), 2);
  EXPECT_FALSE(err_.str().empty());
}

TEST_F(CliTest, AnalyzeWorstCaseWithHighJitterReportsMisses) {
  const int rc = run({"analyze", path_, "--worst-case", "--jitter", "0.9", "--override-known"});
  // 40% bus at 90% jitter under burst errors: expect misses (exit 1), but
  // accept a robust matrix too; the point is the command runs.
  EXPECT_TRUE(rc == 0 || rc == 1);
  EXPECT_NE(out_.str().find("misses:"), std::string::npos);
}

TEST_F(CliTest, SweepEmitsCsvSeries) {
  EXPECT_EQ(run({"sweep", path_, "--worst-case", "--from", "0", "--to", "0.2", "--step", "0.1"}),
            0);
  const std::string text = out_.str();
  EXPECT_NE(text.find("jitter_fraction,miss_fraction,miss_count"), std::string::npos);
  int lines = 0;
  for (char c : text)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 4);  // header + 3 points
}

TEST_F(CliTest, SensitivityListsEveryMessage) {
  EXPECT_EQ(run({"sensitivity", path_, "--best-case"}), 0);
  const KMatrix km = load_kmatrix(path_);
  for (const auto& m : km.messages())
    EXPECT_NE(out_.str().find(m.name), std::string::npos) << m.name;
}

TEST_F(CliTest, OptimizeWritesValidMatrix) {
  const std::string out_path = temp_name("symcan_cli_opt.csv");
  const int rc = run({"optimize", path_, "--generations", "4", "--population", "8", "--out",
                      out_path});
  EXPECT_TRUE(rc == 0 || rc == 1);
  const KMatrix km = load_kmatrix(out_path);
  EXPECT_EQ(km.size(), 16u);
  std::remove(out_path.c_str());
}

TEST_F(CliTest, SimulateReportsStats) {
  EXPECT_EQ(run({"simulate", path_, "--millis", "200", "--errors", "sporadic"}), 0);
  EXPECT_NE(out_.str().find("activations"), std::string::npos);
  EXPECT_NE(out_.str().find("simulated"), std::string::npos);
}

TEST_F(CliTest, SimulateRejectsBadErrorKind) {
  EXPECT_EQ(run({"simulate", path_, "--errors", "cosmic"}), 2);
  EXPECT_NE(err_.str().find("--errors"), std::string::npos);
}

TEST_F(CliTest, ExtendReportsHeadroom) {
  EXPECT_EQ(run({"extend", path_, "--best-case"}), 0);
  EXPECT_NE(out_.str().find("headroom:"), std::string::npos);
}

TEST_F(CliTest, ReportEmitsMarkdownSummary) {
  const int rc = run({"report", path_, "--jitter", "0.1"});
  EXPECT_TRUE(rc == 0 || rc == 1);
  const std::string text = out_.str();
  EXPECT_NE(text.find("# Network integration report"), std::string::npos);
  EXPECT_NE(text.find("bus load"), std::string::npos);
  EXPECT_NE(text.find("schedulability"), std::string::npos);
  if (rc == 0) {
    EXPECT_NE(text.find("Jitter budgets"), std::string::npos);
    EXPECT_NE(text.find("Extensibility"), std::string::npos);
  }
}

TEST_F(CliTest, ReportListsMissesWhenUnschedulable) {
  const int rc =
      run({"report", path_, "--worst-case", "--jitter", "0.95", "--override-known"});
  if (rc == 1) EXPECT_NE(out_.str().find("## Deadline misses"), std::string::npos);
}

TEST_F(CliTest, BudgetListsEveryMessage) {
  EXPECT_EQ(run({"budget", path_}), 0);
  const std::string text = out_.str();
  EXPECT_NE(text.find("jointly safe uniform jitter"), std::string::npos);
  const KMatrix km = load_kmatrix(path_);
  for (const auto& m : km.messages())
    EXPECT_NE(text.find(m.name), std::string::npos) << m.name;
}

TEST_F(CliTest, BudgetFailsOnUnschedulableBaseline) {
  // Worst-case assumptions with the matrix's jitters forced sky-high.
  const int rc = run({"budget", path_, "--worst-case", "--jitter", "0.95", "--override-known"});
  if (rc == 2) EXPECT_NE(err_.str().find("not schedulable"), std::string::npos);
}

TEST_F(CliTest, RtaCacheCapacityIsValidated) {
  EXPECT_EQ(run({"sweep", path_, "--rta-cache-capacity", "1024"}), 0);
  EXPECT_EQ(run({"sweep", path_, "--rta-cache-capacity", "0"}), 2);
  EXPECT_EQ(run({"sweep", path_, "--rta-cache-capacity", "-5"}), 2);
  EXPECT_EQ(run({"sweep", path_, "--rta-cache-capacity", "lots"}), 2);
}

TEST_F(CliTest, ServeRequiresStdio) {
  std::istringstream in;
  EXPECT_EQ(run_cli({"serve"}, in, out_, err_), 2);
  EXPECT_NE(err_.str().find("--stdio"), std::string::npos);
}

TEST_F(CliTest, ServeValidatesItsKnobsBeforeReadingRequests) {
  // Garbage knobs exit 2 up front; stdin is never touched.
  const std::vector<std::vector<std::string>> bad = {
      {"serve", "--stdio", "--serve-shards", "0"},
      {"serve", "--stdio", "--serve-shards", "many"},
      {"serve", "--stdio", "--ring-capacity", "-1"},
      {"serve", "--stdio", "--overflow", "fifo"},
      {"serve", "--stdio", "--block-deadline-ms", "0"},
      {"serve", "--stdio", "--batch", "0"},
      {"serve", "--stdio", "--matrix-cache", "nope"},
      {"serve", "--stdio", "--rta-cache-capacity", "0"},
      {"serve", "--stdio", "--jobs", "100000"},
      {"serve", "--stdio", "--flight-capacity", "65537"},
      {"serve", "--stdio", "--window-buckets", "4097"},
      {"serve", "--stdio", "--window-bucket-ms", "86400001"},
      {"serve", "--stdio", "--window-bucket-ms", "10000000000000"},
      {"serve", "--stdio", "--frobnicate", "1"},
  };
  for (const auto& args : bad) {
    std::istringstream in{"{\"id\":\"x\",\"kind\":\"health\"}\n"};
    out_.str("");
    err_.str("");
    EXPECT_EQ(run_cli(args, in, out_, err_), 2) << args[2];
    EXPECT_EQ(out_.str(), "") << args[2];
  }
}

TEST_F(CliTest, ServeAcceptsEachAllocationCap) {
  std::istringstream in{"{\"id\":\"x\",\"kind\":\"health\"}\n"};
  EXPECT_EQ(run_cli({"serve", "--stdio", "--jobs", "1", "--flight-capacity", "65536",
                     "--window-buckets", "4096", "--window-bucket-ms", "86400000"},
                    in, out_, err_),
            0)
      << err_.str();
  EXPECT_NE(out_.str().find("\"status\":\"ok\""), std::string::npos) << out_.str();
  EXPECT_NE(out_.str().find("\"capacity\":65536"), std::string::npos) << out_.str();
  EXPECT_NE(out_.str().find("\"window_ms\":353894400000"), std::string::npos) << out_.str();
}

TEST_F(CliTest, ServeRejectsDegenerateSloObjective) {
  // Regression: objective 1.0 used to reach the SLO trackers, where the
  // zero error allowance turned burn rates into inf/nan in health JSON.
  // Now the whole closed boundary exits 2 before any request is read.
  for (const std::string objective : {"1.0", "0.0", "-0.25", "1.5", "nope"}) {
    std::istringstream in{"{\"id\":\"x\",\"kind\":\"health\"}\n"};
    out_.str("");
    err_.str("");
    EXPECT_EQ(run_cli({"serve", "--stdio", "--slo-objective", objective}, in, out_, err_), 2)
        << objective;
    EXPECT_EQ(out_.str(), "") << objective;
    EXPECT_FALSE(err_.str().empty()) << objective;
  }
  std::istringstream in{"{\"id\":\"ok\",\"kind\":\"health\"}\n"};
  out_.str("");
  err_.str("");
  // 0.5 is exactly representable, so the JSON spelling is stable.
  EXPECT_EQ(run_cli({"serve", "--stdio", "--slo-objective", "0.5"}, in, out_, err_), 0);
  EXPECT_NE(out_.str().find("\"objective\":0.5"), std::string::npos);
}

TEST_F(CliTest, AnalyzeProbDefaultsMatchDeterministicVerdicts) {
  // Degenerate ppm defaults: the probabilistic table must agree with the
  // deterministic one on the verdict count and exit code.
  EXPECT_EQ(run({"analyze", path_, "--prob"}), 0);
  const std::string text = out_.str();
  EXPECT_NE(text.find("miss ppm"), std::string::npos);
  EXPECT_NE(text.find("at-risk: 0/"), std::string::npos);
}

TEST_F(CliTest, AnalyzeProbValidatesPpmRange) {
  EXPECT_EQ(run({"analyze", path_, "--prob", "--fault-ppm", "1000001"}), 2);
  EXPECT_EQ(run({"analyze", path_, "--prob", "--fault-ppm", "-1"}), 2);
  EXPECT_EQ(run({"analyze", path_, "--prob", "--max-rungs", "0"}), 2);
}

TEST_F(CliTest, SweepProbEmitsCsvSeries) {
  EXPECT_EQ(run({"sweep", path_, "--prob", "--points", "3", "--from-ppm", "1000000", "--to-ppm",
                 "100"}),
            0);
  const std::string text = out_.str();
  EXPECT_NE(text.find("fault_ppm,at_risk_fraction,worst_miss_ppm"), std::string::npos);
  int lines = 0;
  for (char c : text)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 4);  // header + 3 points
}

TEST_F(CliTest, ServeStdioAnswersRequestsAndExitsAtEof) {
  std::istringstream in{"{\"id\":\"h1\",\"kind\":\"health\"}\n"};
  EXPECT_EQ(run_cli({"serve", "--stdio"}, in, out_, err_), 0);
  EXPECT_NE(out_.str().find("\"id\":\"h1\""), std::string::npos);
  EXPECT_NE(out_.str().find("\"status\":\"ok\""), std::string::npos);
  EXPECT_NE(out_.str().find("\"shards\":8"), std::string::npos);
  EXPECT_EQ(err_.str(), "");

  std::istringstream empty;
  out_.str("");
  EXPECT_EQ(run_cli({"serve", "--stdio"}, empty, out_, err_), 0);
  EXPECT_EQ(out_.str(), "");
}

TEST_F(CliTest, ServeStdioReportsMalformedRequestLines) {
  std::istringstream in{"this is not json\n{\"id\":\"h2\",\"kind\":\"health\"}\n"};
  EXPECT_EQ(run_cli({"serve", "--stdio"}, in, out_, err_), 0);
  const std::string text = out_.str();
  EXPECT_NE(text.find("\"status\":\"invalid\""), std::string::npos);
  EXPECT_NE(text.find("\"line\":1"), std::string::npos);
  // The service survives the bad line; the next request is answered.
  EXPECT_NE(text.find("\"id\":\"h2\""), std::string::npos);
}

TEST_F(CliTest, UnknownOptionIsRejected) {
  // Besides a typo: tile size, cache on/off, serve shard count and
  // monitor chunk size never changed an answer, so they are not options.
  const std::vector<std::vector<std::string>> unknown = {
      {"analyze", path_, "--tpyo", "3"},
      {"sweep", path_, "--tile", "4"},
      {"optimize", path_, "--rta-cache", "off"},
      {"monitor", path_, "--millis", "50", "--chunk", "17"},
      {"serve", "--stdio", "--serve-shards", "4"},
  };
  for (const auto& args : unknown) {
    const std::string& flag = args[args.size() - 2];
    std::istringstream in{"{\"id\":\"x\",\"kind\":\"health\"}\n"};
    out_.str("");
    err_.str("");
    EXPECT_EQ(run_cli(args, in, out_, err_), 2) << flag;
    EXPECT_EQ(out_.str(), "") << flag;
    EXPECT_NE(err_.str().find("unknown option " + flag), std::string::npos) << err_.str();
  }
}

TEST_F(CliTest, VersionPrintsProjectAndBuildConfiguration) {
  EXPECT_EQ(run({"version"}), 0);
  EXPECT_NE(out_.str().find("symcan "), std::string::npos);
  EXPECT_NE(out_.str().find("sanitizer:"), std::string::npos);
  EXPECT_NE(out_.str().find("build:"), std::string::npos);
  EXPECT_EQ(run({"--version"}), 0);
  EXPECT_EQ(out_.str(), version_string() + "\n");
}

TEST_F(CliTest, JobsRejectsNegativeAndGarbage) {
  EXPECT_EQ(run({"sweep", path_, "--jobs", "-2"}), 2);
  EXPECT_NE(err_.str().find("--jobs"), std::string::npos);
  EXPECT_EQ(run({"sweep", path_, "--jobs", "two"}), 2);
  EXPECT_NE(err_.str().find("not an integer"), std::string::npos);
  // Above the documented 256 — including values that would wrap in an
  // int to 1 thread or to a negative "use the hardware" width — every
  // command exits 2 before it builds an executor.
  for (const std::string jobs : {"257", "100000", "2147483648", "4294967297"}) {
    for (const std::string command : {"sweep", "sensitivity", "optimize", "extend", "report"}) {
      err_.str("");
      EXPECT_EQ(run({command, path_, "--jobs", jobs}), 2) << command << " --jobs " << jobs;
      EXPECT_NE(err_.str().find("--jobs must be <= 256"), std::string::npos) << err_.str();
    }
    EXPECT_EQ(run({"analyze", path_, "--prob", "--jobs", jobs}), 2) << jobs;
  }
}

TEST_F(CliTest, GenerateRejectsNonPositiveSizes) {
  EXPECT_EQ(run({"generate", "--messages", "0"}), 2);
  EXPECT_NE(err_.str().find("--messages"), std::string::npos);
  EXPECT_EQ(run({"generate", "--ecus", "-1"}), 2);
  EXPECT_NE(err_.str().find("--ecus"), std::string::npos);
}

TEST_F(CliTest, AnalyzeExportsTraceAndMetrics) {
  const std::string trace = temp_name("symcan_cli_trace.json");
  const std::string metrics = temp_name("symcan_cli_metrics.json");
  EXPECT_EQ(run({"analyze", path_, "--trace-out", trace, "--metrics-out", metrics}), 0);
  const std::string t = slurp(trace);
  EXPECT_NE(t.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(t.find("rta.can.analyze"), std::string::npos);
  EXPECT_NE(t.find("\"ph\": \"X\""), std::string::npos);
  const std::string m = slurp(metrics);
  EXPECT_NE(m.find("rta.can.fixedpoint_iterations"), std::string::npos);
  EXPECT_NE(m.find("rta.can.iterations_per_message"), std::string::npos);
  std::remove(trace.c_str());
  std::remove(metrics.c_str());
}

TEST_F(CliTest, SweepWithJobsExportsParallelMetrics) {
  const std::string metrics = temp_name("symcan_cli_sweep_metrics.json");
  EXPECT_EQ(run({"sweep", path_, "--jobs", "2", "--from", "0", "--to", "0.1", "--step", "0.05",
                 "--metrics-out", metrics}),
            0);
  const std::string m = slurp(metrics);
  EXPECT_NE(m.find("parallel.tasks"), std::string::npos);
  EXPECT_NE(m.find("parallel.task_us"), std::string::npos);
  EXPECT_NE(m.find("\"sweep.jitter\""), std::string::npos);
  std::remove(metrics.c_str());
}

TEST_F(CliTest, OptimizeExportsPerGenerationSeries) {
  const std::string metrics = temp_name("symcan_cli_opt_metrics.json");
  const int rc = run({"optimize", path_, "--generations", "2", "--population", "8",
                      "--metrics-out", metrics, "--out",
                      temp_name("symcan_cli_opt2.csv")});
  EXPECT_TRUE(rc == 0 || rc == 1);
  const std::string m = slurp(metrics);
  EXPECT_NE(m.find("\"ga.generations\""), std::string::npos);
  EXPECT_NE(m.find("best_misses"), std::string::npos);
  EXPECT_NE(m.find("eval_ms"), std::string::npos);
  std::remove(metrics.c_str());
  std::remove((temp_name("symcan_cli_opt2.csv")).c_str());
}

TEST_F(CliTest, ExplainDecomposesOneMessage) {
  const KMatrix km = load_kmatrix(path_);
  const std::string name = km.messages().back().name;
  EXPECT_EQ(run({"explain", path_, name, "--worst-case"}), 0);
  const std::string text = out_.str();
  EXPECT_NE(text.find("message " + name), std::string::npos);
  EXPECT_NE(text.find("breakdown of the bound"), std::string::npos);
  EXPECT_NE(text.find("sum of parts == wcrt"), std::string::npos);
}

TEST_F(CliTest, ExplainJsonCarriesTheSumCheck) {
  const KMatrix km = load_kmatrix(path_);
  EXPECT_EQ(run({"explain", path_, km.messages().front().name, "--json"}), 0);
  const std::string json = out_.str();
  EXPECT_NE(json.find("\"sum_check\":true"), std::string::npos);
  EXPECT_NE(json.find("\"wcrt_ns\":"), std::string::npos);
  EXPECT_NE(json.find("\"interference\":["), std::string::npos);
}

TEST_F(CliTest, ExplainUnknownMessageFails) {
  EXPECT_EQ(run({"explain", path_, "no-such-message"}), 2);
  EXPECT_NE(err_.str().find("no-such-message"), std::string::npos);
}

TEST_F(CliTest, ValidateFindsNoViolationsOnSoundPairing) {
  EXPECT_EQ(run({"validate", path_, "--millis", "200", "--errors", "sporadic"}), 0);
  EXPECT_NE(out_.str().find("0 violations"), std::string::npos);
  EXPECT_EQ(out_.str().find("<-- VIOLATION"), std::string::npos);
}

TEST_F(CliTest, MonitorSimulatedBusPrintsHealthTable) {
  // Sound bounds pairing (same as validate): no message may cross its
  // bound, so the exit code is 0 and every message gets a state column.
  EXPECT_EQ(run({"monitor", path_, "--millis", "200", "--errors", "sporadic"}), 0);
  EXPECT_NE(out_.str().find("stream: "), std::string::npos);
  EXPECT_NE(out_.str().find("0 messages over bound"), std::string::npos);
  EXPECT_NE(out_.str().find("state"), std::string::npos);
}

TEST_F(CliTest, MonitorExportsStatsJsonAndEventsJsonl) {
  const std::string stats = temp_name("symcan_cli_monitor_stats.json");
  const std::string events = temp_name("symcan_cli_monitor_events.jsonl");
  EXPECT_EQ(run({"monitor", path_, "--millis", "200", "--json", "--stats-json", stats,
                 "--events-jsonl", events}),
            0);
  EXPECT_NE(out_.str().find("\"frames\":"), std::string::npos);
  const std::string s = slurp(stats);
  EXPECT_NE(s.find("\"messages\":["), std::string::npos);
  EXPECT_NE(s.find("\"active\":["), std::string::npos);
  std::remove(stats.c_str());
  std::remove(events.c_str());
}

TEST_F(CliTest, MonitorFromTraceMatchesLiveSimulation) {
  // Exporting the simulated trace and replaying it through --from-trace
  // must produce the identical health table: the JSONL roundtrip is
  // nanosecond-exact.
  const std::string jsonl = temp_name("symcan_cli_monitor_trace.jsonl");
  ASSERT_EQ(run({"simulate", path_, "--millis", "200", "--trace-jsonl", jsonl}), 0);
  ASSERT_EQ(run({"monitor", path_, "--millis", "200"}), 0);
  const std::string live = out_.str();
  ASSERT_EQ(run({"monitor", path_, "--from-trace", jsonl}), 0);
  EXPECT_EQ(out_.str(), live);
  std::remove(jsonl.c_str());
}

TEST_F(CliTest, MonitorMalformedTraceExitsTwoWithLineDiagnostics) {
  const std::string bad = temp_name("symcan_cli_monitor_bad.jsonl");
  {
    std::ofstream f{bad};
    f << "{\"t_ns\":0,\"type\":\"release\",\"message\":\"ok\",\"instance\":0}\n"
      << "definitely not json\n";
  }
  EXPECT_EQ(run({"monitor", path_, "--from-trace", bad}), 2);
  EXPECT_NE(err_.str().find(" line 2"), std::string::npos) << err_.str();
  EXPECT_NE(err_.str().find("error"), std::string::npos);
  std::remove(bad.c_str());
}

TEST_F(CliTest, SimulateExportsTraceAndStats) {
  const std::string jsonl = temp_name("symcan_cli_sim.jsonl");
  const std::string chrome = temp_name("symcan_cli_sim_chrome.json");
  const std::string stats = temp_name("symcan_cli_sim_stats.json");
  EXPECT_EQ(run({"simulate", path_, "--millis", "100", "--trace-jsonl", jsonl, "--trace-chrome",
                 chrome, "--stats-json", stats}),
            0);
  const std::string l = slurp(jsonl);
  EXPECT_NE(l.find("\"type\":\"tx_end\""), std::string::npos);
  const std::string c = slurp(chrome);
  EXPECT_NE(c.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(c.find("\"name\": \"bus\""), std::string::npos);
  const std::string s = slurp(stats);
  EXPECT_NE(s.find("\"average_utilization\""), std::string::npos);
  EXPECT_NE(s.find("\"messages\":["), std::string::npos);
  std::remove(jsonl.c_str());
  std::remove(chrome.c_str());
  std::remove(stats.c_str());
}

TEST_F(CliTest, SimulateStatsTableOnStdout) {
  EXPECT_EQ(run({"simulate", path_, "--millis", "100", "--stats", "--window-ms", "20"}), 0);
  EXPECT_NE(out_.str().find("bus utilization avg"), std::string::npos);
}

TEST_F(CliTest, TraceOutRejectsOptionLikePath) {
  EXPECT_EQ(run({"analyze", path_, "--trace-out", "--metrics-out", "m.json"}), 2);
  EXPECT_NE(err_.str().find("--trace-out"), std::string::npos);
}

TEST_F(CliTest, MetricsOutFailsCleanlyOnUnwritablePath) {
  EXPECT_EQ(run({"analyze", path_, "--metrics-out", "/no/such/dir/m.json"}), 2);
  EXPECT_NE(err_.str().find("cannot open"), std::string::npos);
}

/// Writes `text` to a temp file and returns its path; removed in TearDown
/// by the caller via std::remove.
std::string write_temp(const std::string& name, const std::string& text) {
  const std::string p = temp_name(name);
  std::ofstream f{p};
  f << text;
  return p;
}

TEST_F(CliTest, MalformedMatrixExitsTwoWithLineDiagnostics) {
  const std::string bad = write_temp("symcan_cli_bad.csv",
                                     "bus,a,500000\n"
                                     "node,A,fullCAN,1,0\n"
                                     "msg,m,4096,standard,9,0,0,0,period,-,A,A,0,-\n");
  EXPECT_EQ(run({"analyze", bad}), 2);
  const std::string e = err_.str();
  EXPECT_NE(e.find("error(s)"), std::string::npos) << e;
  EXPECT_NE(e.find(" line 3"), std::string::npos) << e;
  EXPECT_NE(e.find("K-Matrix CSV"), std::string::npos) << e;
  std::remove(bad.c_str());
}

TEST_F(CliTest, MalformedDbcExitsTwoWithLineDiagnostics) {
  const std::string bad = write_temp("symcan_cli_bad.dbc",
                                     "BU_: ENG\n"
                                     "BO_ 4096 M1: 8 ENG\n");
  EXPECT_EQ(run({"import", bad, "--dbc"}), 2);
  const std::string e = err_.str();
  EXPECT_NE(e.find("error(s)"), std::string::npos) << e;
  EXPECT_NE(e.find("DBC line 2"), std::string::npos) << e;
  std::remove(bad.c_str());
}

TEST_F(CliTest, MalformedInputReportsEveryErrorNotJustTheFirst) {
  const std::string bad = write_temp("symcan_cli_multi.csv",
                                     "bus,a,500000\n"
                                     "node,A,fullCAN,0,0\n"
                                     "msg,m,4096,standard,8,10000000,0,0,period,-,A,A,0,-\n"
                                     "msg,n,1,standard,9,10000000,0,0,period,-,A,A,0,-\n");
  EXPECT_EQ(run({"analyze", bad}), 2);
  const std::string e = err_.str();
  EXPECT_NE(e.find("3 error(s)"), std::string::npos) << e;
  EXPECT_NE(e.find(" line 2"), std::string::npos) << e;
  EXPECT_NE(e.find(" line 3"), std::string::npos) << e;
  EXPECT_NE(e.find(" line 4"), std::string::npos) << e;
  std::remove(bad.c_str());
}

TEST_F(CliTest, StrictFlagEscalatesWarningsToExitTwo) {
  // Gateway flag '2' is a lenient warning (treated as 0) but a strict error.
  const std::string warn = write_temp("symcan_cli_warn.csv",
                                      "bus,a,500000\n"
                                      "node,A,fullCAN,1,2\n");
  EXPECT_EQ(run({"analyze", warn}), 0) << err_.str();
  EXPECT_EQ(run({"analyze", warn, "--strict"}), 2);
  EXPECT_NE(err_.str().find("error(s)"), std::string::npos) << err_.str();
  std::remove(warn.c_str());
}

TEST_F(CliTest, StrictFlagAppliesToDbcImport) {
  const std::string warn = write_temp("symcan_cli_warn.dbc",
                                      "BU_: ENG GW\n"
                                      "BO_ 256 M1: 8 ENG\n"
                                      "BA_ \"GenMsgCycleTime\" BO_ 256 0;\n");
  EXPECT_EQ(run({"import", warn, "--dbc"}), 0) << err_.str();
  EXPECT_EQ(run({"import", warn, "--dbc", "--strict"}), 2);
  std::remove(warn.c_str());
}

TEST_F(CliTest, MissingFileFailsWithoutLineDiagnostics) {
  // A missing file is an environment error, not a parse error: no
  // line-numbered diagnostics block.
  EXPECT_EQ(run({"analyze", "/no/such/symcan_file.csv"}), 2);
  EXPECT_NE(err_.str().find("cannot open"), std::string::npos) << err_.str();
  EXPECT_EQ(err_.str().find("error(s)"), std::string::npos) << err_.str();
}

}  // namespace
}  // namespace symcan::cli
