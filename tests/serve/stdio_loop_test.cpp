// The stdio transport's loop contract (serve/server.hpp): a closed-loop
// client is answered request by request, the transcript is in arrival
// order whatever the thread width, --batch bounds how far the reader runs
// ahead of the writer, every line is answered exactly once at every
// --batch bound, one request in flight changes no answer, a tied input
// stream is flushed only by the writer, and the Prometheus scrape file
// ends with the whole run's counts. Labeled `determinism` so
// CI also runs it under TSan.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "symcan/can/kmatrix_io.hpp"
#include "symcan/cli/commands.hpp"
#include "symcan/obs/obs.hpp"
#include "symcan/serve/core.hpp"
#include "symcan/serve/request.hpp"
#include "symcan/serve/server.hpp"
#include "symcan/workload/powertrain.hpp"

namespace symcan::serve {
namespace {

using namespace std::chrono_literals;

std::string small_matrix_csv() {
  PowertrainConfig cfg = PowertrainConfig::case_study();
  cfg.message_count = 16;
  cfg.ecu_count = 4;
  cfg.target_utilization = 0.40;
  return kmatrix_to_csv(generate_powertrain(cfg));
}

std::string analyze_line(const std::string& csv, const std::string& id) {
  ServeRequest req;
  req.id = id;
  req.kind = RequestKind::kAnalyze;
  req.matrix_csv = csv;
  return request_to_jsonl(req);
}

/// A validate request whose simulation takes far longer than an analyze.
std::string slow_line(const std::string& csv, const std::string& id) {
  ServeRequest req;
  req.id = id;
  req.kind = RequestKind::kValidate;
  req.matrix_csv = csv;
  req.millis = 10'000;
  req.seed = 3;
  return request_to_jsonl(req);
}

/// What the input and output buffers of one run share: how many response
/// lines have been written so far.
struct Progress {
  std::mutex m;
  std::condition_variable cv;
  std::size_t written = 0;
  bool give_up = false;  ///< Set by the timeout guard: release EOF.
};

/// Hands the server one line per underflow. Line k (0-based) is released
/// only once gate[k] responses have been written; it records the largest
/// distance between lines released and responses written.
class GatedInput : public std::streambuf {
 public:
  GatedInput(std::vector<std::string> lines, std::vector<std::size_t> gate, Progress& p)
      : lines_{std::move(lines)}, gate_{std::move(gate)}, p_{p} {}

  std::size_t max_ahead() const { return max_ahead_; }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ >= lines_.size()) return traits_type::eof();
    {
      std::unique_lock<std::mutex> lock(p_.m);
      p_.cv.wait(lock, [&] { return p_.give_up || p_.written >= gate_[next_]; });
      if (p_.give_up) return traits_type::eof();
      const std::size_t ahead = next_ + 1 - p_.written;
      if (ahead > max_ahead_) max_ahead_ = ahead;
    }
    buf_ = lines_[next_++] + "\n";
    setg(buf_.data(), buf_.data(), buf_.data() + buf_.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  std::vector<std::string> lines_;
  std::vector<std::size_t> gate_;
  Progress& p_;
  std::size_t next_ = 0;
  std::size_t max_ahead_ = 0;  ///< Written by the reading thread only.
  std::string buf_;
};

/// Collects the transcript and counts response lines as they complete.
class CountingOutput : public std::streambuf {
 public:
  explicit CountingOutput(Progress& p) : p_{p} {}

  std::string text() {
    std::lock_guard<std::mutex> lock(p_.m);
    return text_;
  }

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return traits_type::not_eof(c);
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    std::size_t lines = 0;
    for (std::streamsize i = 0; i < n; ++i) lines += s[i] == '\n';
    {
      std::lock_guard<std::mutex> lock(p_.m);
      text_.append(s, static_cast<std::size_t>(n));
      p_.written += lines;
    }
    if (lines > 0) p_.cv.notify_all();
    return n;
  }

 private:
  Progress& p_;
  std::string text_;  ///< Guarded by p_.m.
};

struct ServeRun {
  bool finished_in_time = false;
  int exit_code = -1;
  std::string transcript;
  std::size_t max_ahead = 0;
};

/// Runs `symcan serve --stdio <args>` over `lines` with line k held back
/// until gate[k] responses are out. A run that has not finished after 5 s
/// is released with EOF and reported as not finished, so a server that
/// waits for more input before answering fails instead of hanging.
ServeRun serve(const std::vector<std::string>& lines, const std::vector<std::size_t>& gate,
          const std::vector<std::string>& args) {
  Progress p;
  GatedInput in_buf{lines, gate, p};
  CountingOutput out_buf{p};
  std::istream in{&in_buf};
  std::ostream out{&out_buf};
  std::vector<std::string> argv = {"serve", "--stdio"};
  argv.insert(argv.end(), args.begin(), args.end());
  auto done = std::async(std::launch::async, [&] {
    std::ostringstream err;
    return cli::run_cli(argv, in, out, err);
  });
  ServeRun r;
  r.finished_in_time = done.wait_for(5s) == std::future_status::ready;
  if (!r.finished_in_time) {
    {
      std::lock_guard<std::mutex> lock(p.m);
      p.give_up = true;
    }
    p.cv.notify_all();
  }
  r.exit_code = done.get();
  r.transcript = out_buf.text();
  r.max_ahead = in_buf.max_ahead();
  return r;
}

/// Closed loop: line k waits for response k - 1.
std::vector<std::size_t> closed_loop(std::size_t n) {
  std::vector<std::size_t> gate(n);
  for (std::size_t k = 0; k < n; ++k) gate[k] = k;
  return gate;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream in{text};
  for (std::string line; std::getline(in, line);) out.push_back(line);
  return out;
}

std::string field(const std::string& line, const std::string& key) {
  const std::string head = "\"" + key + "\":\"";
  const std::size_t b = line.find(head);
  if (b == std::string::npos) return {};
  const std::size_t from = b + head.size();
  return line.substr(from, line.find('"', from) - from);
}

std::int64_t int_field(const std::string& text, const std::string& section,
                       const std::string& key) {
  const std::size_t sec = text.find("\"" + section + "\":{");
  EXPECT_NE(sec, std::string::npos) << section;
  const std::string head = "\"" + key + "\":";
  const std::size_t at = text.find(head, sec);
  EXPECT_NE(at, std::string::npos) << key;
  return std::stoll(text.substr(at + head.size()));
}

class StdioLoopTest : public ::testing::TestWithParam<int> {
 protected:
  std::string csv_ = small_matrix_csv();
};

TEST_P(StdioLoopTest, ClosedLoopClientIsAnsweredRequestByRequest) {
  std::vector<std::string> lines;
  for (int i = 0; i < 6; ++i) lines.push_back(analyze_line(csv_, "c" + std::to_string(i)));
  lines.push_back(R"({"id":"c-health","kind":"health"})");
  const ServeRun r =
      serve(lines, closed_loop(lines.size()), {"--jobs", std::to_string(GetParam())});
  ASSERT_TRUE(r.finished_in_time) << "the server waited for input it had not been sent";
  EXPECT_EQ(r.exit_code, 0);
  const std::vector<std::string> out = split_lines(r.transcript);
  ASSERT_EQ(out.size(), lines.size());
  for (std::size_t k = 0; k + 1 < lines.size(); ++k) {
    EXPECT_EQ(field(out[k], "id"), "c" + std::to_string(k));
    EXPECT_NE(field(out[k], "status"), "invalid");
  }
  EXPECT_EQ(field(out.back(), "id"), "c-health");
  EXPECT_EQ(r.max_ahead, 1u);
}

/// A transcript buffer that counts its sync() calls: one per flush.
class SyncCountingOutput : public std::stringbuf {
 public:
  std::atomic<int> syncs{0};

 protected:
  int sync() override {
    syncs.fetch_add(1, std::memory_order_relaxed);
    return 0;
  }
};

// `in` tied to `out` (as std::cin is to std::cout) would flush `out` from
// the reading thread before every line, outside the writer's lock. The
// loop unties it for the run, so only the writer flushes: at most once
// per answered line. The tie is back in place afterwards.
TEST_P(StdioLoopTest, TiedInputIsFlushedOnlyByTheWriter) {
  constexpr int kRequests = 8;
  std::string input;
  for (int i = 0; i < kRequests; ++i) input += analyze_line(csv_, "t" + std::to_string(i)) + "\n";
  std::istringstream in{input};
  SyncCountingOutput out_buf;
  std::ostream out{&out_buf};
  in.tie(&out);
  ServeConfig cfg;
  cfg.jobs = GetParam();
  ServeCore core{cfg};
  EXPECT_EQ(run_stdio_serve(core, in, out), 0);
  EXPECT_EQ(in.tie(), &out);
  const std::size_t answered = split_lines(out_buf.str()).size();
  EXPECT_EQ(answered, static_cast<std::size_t>(kRequests));
  EXPECT_LE(static_cast<std::size_t>(out_buf.syncs.load()), answered);
}

INSTANTIATE_TEST_SUITE_P(Jobs, StdioLoopTest, ::testing::Values(1, 4));

// A line the wire parser rejects is answered by the core like any other
// invalid request: the response echoes the id and kind read before the
// line failed, and the line is counted and recorded.
TEST(StdioRejectedLineTest, KeepsItsIdAndKindAndIsCounted) {
  std::istringstream in{R"({"id":"e1","kind":"explain","matrix_csv":"c"})"
                        "\n"
                        R"({"id":"k1","kind":"frobnicate"})"
                        "\n"
                        "not json\n"
                        R"({"id":"half\q","kind":"analyze"})"
                        "\n"
                        R"({"id":"h","kind":"health"})"
                        "\n"};
  std::ostringstream out;
  ServeConfig cfg;
  cfg.jobs = 1;
  ServeCore core{cfg};
  ASSERT_EQ(run_stdio_serve(core, in, out), 0);
  const std::vector<std::string> lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 5u);
  EXPECT_EQ(field(lines[0], "id"), "e1");
  EXPECT_EQ(field(lines[0], "kind"), "explain");
  EXPECT_EQ(field(lines[0], "status"), "invalid");
  EXPECT_NE(lines[0].find(R"(missing key \"message\" for explain request)"), std::string::npos)
      << lines[0];
  // The kind never parsed, so the answer carries the default kind.
  EXPECT_EQ(field(lines[1], "id"), "k1");
  EXPECT_EQ(field(lines[1], "kind"), "analyze");
  EXPECT_EQ(field(lines[2], "id"), "");
  EXPECT_EQ(field(lines[2], "status"), "invalid");
  // An id that fails to parse is not echoed in part.
  EXPECT_EQ(field(lines[3], "id"), "");
  EXPECT_EQ(int_field(lines[4], "requests", "invalid"), 4);
  EXPECT_EQ(int_field(lines[4], "requests", "handled"), 4);
  EXPECT_EQ(core.handled(), 5);
  EXPECT_EQ(core.flight_recorder().recorded(), 5);
  const std::string flight = core.flight_recorder().dump_jsonl();
  EXPECT_NE(flight.find(R"("id":"e1","kind":"explain","outcome":"invalid","exit_code":2)"),
            std::string::npos)
      << flight;
}

/// A slow head-of-line request, a malformed line, then fast requests.
std::vector<std::string> ordering_lines(const std::string& csv) {
  std::vector<std::string> lines = {slow_line(csv, "slow"), "this is not json"};
  for (int i = 0; i < 8; ++i) lines.push_back(analyze_line(csv, "f" + std::to_string(i)));
  return lines;
}

constexpr std::size_t kBatch = 3;

ServeRun ordering_run(const std::vector<std::string>& lines, int jobs) {
  return serve(lines, std::vector<std::size_t>(lines.size(), 0),
               {"--jobs", std::to_string(jobs), "--batch", std::to_string(kBatch)});
}

TEST(StdioLoopOrderingTest, ResponsesFollowArrivalOrderWithTheInvalidLineInPlace) {
  const std::vector<std::string> lines = ordering_lines(small_matrix_csv());
  const ServeRun r = ordering_run(lines, 4);
  ASSERT_TRUE(r.finished_in_time);
  const std::vector<std::string> out = split_lines(r.transcript);
  ASSERT_EQ(out.size(), lines.size());
  EXPECT_EQ(field(out[0], "id"), "slow");
  EXPECT_EQ(field(out[0], "status"), "ok");
  EXPECT_EQ(field(out[1], "status"), "invalid");
  EXPECT_NE(out[1].find("\"line\":2"), std::string::npos) << out[1];
  for (std::size_t k = 2; k < out.size(); ++k)
    EXPECT_EQ(field(out[k], "id"), "f" + std::to_string(k - 2));
  EXPECT_LE(r.max_ahead, kBatch);
}

TEST(StdioLoopOrderingTest, TranscriptIsIdenticalAcrossWidthsAndRuns) {
  const std::vector<std::string> lines = ordering_lines(small_matrix_csv());
  const ServeRun serial = ordering_run(lines, 1);
  ASSERT_TRUE(serial.finished_in_time);
  ASSERT_EQ(split_lines(serial.transcript).size(), lines.size());
  EXPECT_LE(serial.max_ahead, kBatch);
  for (int round = 0; round < 20; ++round) {
    SCOPED_TRACE(round);
    const ServeRun r = ordering_run(lines, 4);
    ASSERT_TRUE(r.finished_in_time);
    EXPECT_EQ(r.transcript, serial.transcript);
    EXPECT_LE(r.max_ahead, kBatch);
  }
}

class StdioAdmissionTest : public ::testing::TestWithParam<int> {};

TEST_P(StdioAdmissionTest, EveryLineIsAnsweredOnceInItsPlace) {
  const std::string csv = small_matrix_csv();
  std::vector<std::string> lines;
  constexpr std::size_t kRequests = 24;
  for (std::size_t i = 0; i < kRequests; ++i)
    lines.push_back(analyze_line(csv, "a" + std::to_string(i)));
  lines.push_back(R"({"id":"a-health","kind":"health"})");
  // Everything at once, except that health waits for every earlier answer
  // so its counters are read at a quiescent point.
  std::vector<std::size_t> gate(lines.size(), 0);
  gate.back() = kRequests;
  const ServeRun r =
      serve(lines, gate, {"--jobs", "4", "--batch", std::to_string(GetParam())});
  ASSERT_TRUE(r.finished_in_time);
  const std::vector<std::string> out = split_lines(r.transcript);
  ASSERT_EQ(out.size(), lines.size());
  std::map<std::string, int> answered;
  for (const std::string& line : out) ++answered[field(line, "id")];
  for (std::size_t i = 0; i < kRequests; ++i)
    EXPECT_EQ(answered["a" + std::to_string(i)], 1) << "a" << i;
  for (std::size_t k = 0; k < kRequests; ++k) {
    EXPECT_EQ(field(out[k], "id"), "a" + std::to_string(k));
    const std::string status = field(out[k], "status");
    EXPECT_TRUE(status == "ok" || status == "failed") << out[k];
  }

  const std::string& health = out.back();
  ASSERT_EQ(field(health, "id"), "a-health");
  EXPECT_EQ(int_field(health, "requests", "handled"), static_cast<std::int64_t>(kRequests));
}

INSTANTIATE_TEST_SUITE_P(Batch, StdioAdmissionTest, ::testing::Values(1, 2, 32));

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// The transcript of `symcan serve --stdio <args>` over the whole of
/// `input`, without the health and telemetry lines (their counters and
/// clocks are the only bytes allowed to differ between runs).
std::vector<std::string> answers_without_health(const std::string& input,
                                                const std::vector<std::string>& args) {
  std::vector<std::string> argv = {"serve", "--stdio"};
  argv.insert(argv.end(), args.begin(), args.end());
  std::istringstream in{input};
  std::ostringstream out, err;
  EXPECT_EQ(cli::run_cli(argv, in, out, err), 0) << err.str();
  std::vector<std::string> kept;
  for (std::string& line : split_lines(out.str())) {
    const std::string kind = field(line, "kind");
    if (kind != "health" && kind != "telemetry") kept.push_back(std::move(line));
  }
  return kept;
}

TEST(StdioTranscriptTest, OneRequestInFlightGetsTheSameAnswersAsTheDefaults) {
  // With one thread and --batch 1 at most one request is ever in flight;
  // the answers must not depend on that.
  const std::string input = read_file(SYMCAN_SERVE_REQUESTS_JSONL);
  const std::vector<std::string> tight =
      answers_without_health(input, {"--jobs", "1", "--batch", "1"});
  const std::vector<std::string> defaults = answers_without_health(input, {});
  ASSERT_EQ(tight.size(), 7u);
  ASSERT_EQ(defaults.size(), tight.size());
  for (std::size_t k = 0; k < tight.size(); ++k) EXPECT_EQ(tight[k], defaults[k]) << k;
}

/// The value of `symcan_serve_requests_total` in a scrape file, or -1.
long long scraped_requests(const std::string& path) {
  const std::string text = read_file(path);
  const std::string head = "\nsymcan_serve_requests_total ";
  const std::size_t at = text.find(head);
  return at == std::string::npos ? -1 : std::stoll(text.substr(at + head.size()));
}

/// Reads the scrape file each time a response line completes.
class ScrapeWatcher : public std::streambuf {
 public:
  explicit ScrapeWatcher(std::string path) : path_{std::move(path)} {}
  std::vector<long long> seen;

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::to_char_type(c) == '\n') seen.push_back(scraped_requests(path_));
    return c;
  }

 private:
  std::string path_;
};

TEST(StdioScrapeTest, FileIsRewrittenOncePerWindowBucketAndAtShutdown) {
  const std::string path = ::testing::TempDir() + "stdio_loop_scrape.prom";
  std::remove(path.c_str());
  ServeConfig cfg;
  cfg.jobs = 1;
  cfg.metrics_prom_path = path;
  cfg.telemetry.window_bucket_ms = 3'600'000;  // One bucket spans the whole run.
  const std::string csv = small_matrix_csv();
  constexpr int kRequests = 5;
  std::string input;
  for (int i = 0; i < kRequests; ++i) input += analyze_line(csv, "p" + std::to_string(i)) + "\n";

  obs::reset();
  obs::set_enabled(true);
  std::istringstream in{input};
  ScrapeWatcher watcher{path};
  std::ostream out{&watcher};
  {
    ServeCore core{cfg};
    EXPECT_EQ(run_stdio_serve(core, in, out), 0);
  }
  obs::set_enabled(false);

  // The first answer wrote the bucket's one snapshot; later answers in
  // the same bucket leave it alone; shutdown writes the final counts.
  ASSERT_EQ(watcher.seen.size(), static_cast<std::size_t>(kRequests));
  for (std::size_t k = 1; k < watcher.seen.size(); ++k) EXPECT_EQ(watcher.seen[k], 1) << k;
  EXPECT_EQ(scraped_requests(path), kRequests);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace symcan::serve
