// serve_hot / serve_cold: request streams through `symcan serve --stdio`.
//
// Each invocation calls cli::run_cli({"serve", "--stdio", ...}) with an
// input stream that releases request lines at their scheduled times and
// an output stream that timestamps and checks every response line as it
// is written, so the library runs exactly as the installed binary does,
// with its defaults (8 cache shards, batch 32, matrix memo 64) and
// --jobs kWidth. The first batch of every invocation is an unmeasured
// warm-up (it starts the worker pool and, on serve_hot, fills the memo
// and the verdict/ladder caches); the measured schedule starts when the
// server asks for the line after it.
//
// serve_hot cycles 32 distinct requests over 8 matrices, so after the
// warm-up every request hits the memo and the caches. serve_cold gives
// every request of an invocation its own matrix, so every request
// misses both and inserts into them.

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string_view>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "symcan/analysis/columnar.hpp"
#include "symcan/analysis/incremental_rta.hpp"
#include "symcan/analysis/provenance.hpp"
#include "symcan/can/kmatrix_io.hpp"
#include "symcan/cli/commands.hpp"
#include "symcan/pipeline/stages.hpp"
#include "symcan/serve/core.hpp"
#include "symcan/serve/request.hpp"
#include "symcan/util/parallel.hpp"
#include "symcan/util/rng.hpp"
#include "symcan/workload/powertrain.hpp"

namespace perfbench {
namespace {

using namespace symcan;

/// The serve default --batch; the warm-up prefix is exactly one batch.
constexpr std::size_t kBatch = 32;
/// Fixed offered rates of the open-loop phase (requests/s): a fifth of
/// the all-at-once throughput on a quiet 4-vCPU host and under half of it
/// when the host steals a quarter of the CPU time, so the latency is
/// service plus batch fill, not a growing queue.
constexpr double kHotRate = 2000;
constexpr double kColdRate = 400;
/// Distinct matrices of serve_cold; no matrix repeats within one
/// invocation, and every invocation starts a fresh server.
constexpr std::size_t kColdPool = 1024;
/// The run is flagged invalid if the generator released lines later than
/// this after their due time (median over the phase): a generator that
/// cannot hold its schedule. Single late wake-ups on a shared host do not
/// invalidate a run; their lateness is part of the latency, which counts
/// from the scheduled send time.
constexpr double kMaxGenLagMs = 1.0;
/// The generator sleeps until this long before a line is due, then spins.
constexpr auto kSpin = std::chrono::milliseconds(1);

/// One distinct request: its wire line and expected response, each split
/// around the id so per-line ids cost no re-serialization.
struct Distinct {
  serve::ServeRequest req;
  serve::ServeResponse reference;  ///< The expected answer (id "@").
  std::string line_tail;           ///< Request line after the id, newline included.
  std::string response_tail;       ///< Expected response line after the id.
};

/// The text before and after a "@" placeholder id in a serialized line.
std::string tail_after_id(const std::string& line) {
  const std::string head = "{\"id\":\"@";
  if (line.compare(0, head.size(), head) != 0)
    throw std::logic_error("unexpected wire line: " + line.substr(0, 40));
  return line.substr(head.size());
}

constexpr std::string_view kIdHead = "{\"id\":\"";

/// The reference answer: the cache-off one-shot pipeline stage on a
/// freshly parsed matrix, exactly what `symcan analyze|explain` prints.
serve::ServeResponse reference_response(const serve::ServeRequest& r) {
  KMatrix km = kmatrix_from_csv(r.matrix_csv);
  if (r.jitter) pipeline::apply_matrix_spec(km, {*r.jitter, r.override_known});
  const CanRtaConfig cfg = pipeline::assumptions_for(r.preset);
  std::ostringstream out;
  int rc = 0;
  switch (r.kind) {
    case serve::RequestKind::kAnalyze:
      rc = pipeline::render_analyze(km, cfg, out, nullptr);
      break;
    case serve::RequestKind::kProb: {
      pipeline::ProbSpec spec;
      spec.fault_ppm = r.fault_ppm;
      spec.jobs = 1;
      rc = pipeline::render_prob(km, cfg, spec, out, nullptr);
      break;
    }
    case serve::RequestKind::kExplain:
      rc = pipeline::render_explain(km, cfg, r.message, r.json, out);
      break;
    default:
      throw std::logic_error("unexpected request kind");
  }
  serve::ServeResponse resp;
  resp.id = "@";
  resp.kind = r.kind;
  resp.status = rc == 0 ? serve::ResponseStatus::kOk : serve::ResponseStatus::kFailed;
  resp.exit_code = rc;
  resp.output = out.str();
  return resp;
}

/// Kind mix of both serve workloads: 60 % analyze, 25 % prob, 15 % explain.
serve::RequestKind pick_kind(Rng& rng) {
  const double u = rng.uniform_real(0, 1);
  if (u < 0.60) return serve::RequestKind::kAnalyze;
  if (u < 0.85) return serve::RequestKind::kProb;
  return serve::RequestKind::kExplain;
}

/// One request of `kind` on `km`. `pick`, in [0, 1), chooses what the
/// kind leaves open: the analyze preset (lower half default, upper half
/// worst case), the prob fault rate, or the explain target by priority
/// rank (0 the highest priority).
serve::ServeRequest make_request(serve::RequestKind kind, const KMatrix& km, double pick) {
  serve::ServeRequest r;
  r.kind = kind;
  r.matrix_csv = kmatrix_to_csv(km);
  switch (kind) {
    case serve::RequestKind::kAnalyze:
      r.preset = pick < 0.5 ? pipeline::AssumptionPreset::kDefault
                            : pipeline::AssumptionPreset::kWorstCase;
      break;
    case serve::RequestKind::kProb: {
      // Worst-case assumptions carry the burst error model, so the fault
      // probability shapes real rung ladders; never the degenerate 1e6.
      static constexpr std::int64_t kPpm[] = {100, 1000, 10000};
      r.preset = pipeline::AssumptionPreset::kWorstCase;
      r.fault_ppm = kPpm[std::min<std::size_t>(2, static_cast<std::size_t>(pick * 3))];
      break;
    }
    default: {
      std::vector<const CanMessage*> by_priority;
      for (const CanMessage& m : km.messages()) by_priority.push_back(&m);
      std::sort(by_priority.begin(), by_priority.end(),
                [](const CanMessage* a, const CanMessage* b) { return a->id < b->id; });
      const auto rank = std::min(by_priority.size() - 1,
                                 static_cast<std::size_t>(pick * static_cast<double>(km.size())));
      r.message = by_priority[rank]->name;
      break;
    }
  }
  return r;
}

Distinct finish_distinct(serve::ServeRequest r) {
  Distinct d;
  r.id = "@";
  d.line_tail = tail_after_id(serve::request_to_jsonl(r)) + "\n";
  d.reference = reference_response(r);
  d.response_tail = tail_after_id(serve::response_to_jsonl(d.reference));
  r.id.clear();
  d.req = std::move(r);
  return d;
}

struct Inputs {
  std::vector<Distinct> distinct;
  /// serve_hot: the 32 warm-up requests are distinct[0..32).
  std::vector<std::uint32_t> hot_analyze, hot_prob, hot_explain;
};

/// serve_hot: 8 seeded case-study-sized power-train matrices (56
/// messages, 65 % load), 4 distinct requests each (analyze, prob, two
/// explains) — exactly one warm-up batch. The seed draws the matrices; the
/// request set has the same make-up on every seed: presets and fault rates
/// are spread evenly over the matrices and the 16 explain targets sit at
/// evenly spaced priority ranks. An uncached explain costs more the lower
/// its target's priority, so randomly drawn targets would make the
/// workload's cost, and its set-up, depend on the seed.
Inputs make_hot_inputs(std::uint64_t seed) {
  std::vector<serve::ServeRequest> reqs;
  Inputs in;
  for (std::uint64_t m = 0; m < 8; ++m) {
    PowertrainConfig pc = PowertrainConfig::case_study();
    pc.seed = stream_seed(seed, 2, m);
    pc.target_utilization = 0.65;
    const KMatrix km = generate_powertrain(pc);
    const auto add = [&](serve::RequestKind k, double pick, std::vector<std::uint32_t>& bucket) {
      bucket.push_back(static_cast<std::uint32_t>(reqs.size()));
      reqs.push_back(make_request(k, km, pick));
    };
    const double slot = static_cast<double>(m);
    add(serve::RequestKind::kAnalyze, (slot + 0.5) / 8, in.hot_analyze);
    add(serve::RequestKind::kProb, (slot + 0.5) / 8, in.hot_prob);
    add(serve::RequestKind::kExplain, (2 * slot + 0.5) / 16, in.hot_explain);
    add(serve::RequestKind::kExplain, (2 * slot + 1.5) / 16, in.hot_explain);
  }
  ParallelExecutor exec{kWidth};
  in.distinct =
      exec.parallel_map(reqs, [](const serve::ServeRequest& r) { return finish_distinct(r); });
  return in;
}

/// serve_cold: kColdPool distinct matrices of 40-120 messages at 0.50-0.75
/// utilization, some with an assumed jitter, each with one request.
Inputs make_cold_inputs(std::uint64_t seed) {
  std::vector<std::size_t> idx(kColdPool);
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  ParallelExecutor exec{kWidth};
  Inputs in;
  in.distinct = exec.parallel_map(idx, [&](std::size_t i) {
    Rng rng{stream_seed(seed, 3, i)};
    PowertrainConfig pc;
    pc.seed = stream_seed(seed, 4, i);
    pc.message_count = static_cast<int>(rng.uniform_int(40, 120));
    pc.target_utilization = rng.uniform_real(0.50, 0.75);
    const KMatrix km = generate_powertrain(pc);
    const serve::RequestKind kind = pick_kind(rng);  // before the pick: draw order fixed
    serve::ServeRequest r = make_request(kind, km, rng.uniform_real(0, 1));
    if (rng.chance(0.3)) r.jitter = rng.uniform_real(0.05, 0.30);
    return finish_distinct(std::move(r));
  });
  return in;
}

// ---------------------------------------------------------------------------
// One serve invocation.

struct Line {
  std::int64_t distinct = -1;  ///< -1: a trailing health request.
  std::string id;
  double due_s = 0;  ///< From the schedule base; the warm-up batch is due at once.
};

struct Outcome {
  std::vector<Clock::time_point> release;  ///< When each line was handed over.
  std::vector<Clock::time_point> answered;  ///< When its response line was written.
  Clock::time_point base{};                ///< Schedule base (after the warm-up).
  std::vector<double> lag_ms;              ///< Generator lateness of waited lines.
  std::vector<bool> ok;                    ///< Response matched its expected bytes.
  std::string health;                      ///< The health response, if one was sent.
  std::size_t unexpected = 0;              ///< Response lines beyond the requests.
};

/// Releases each line at base + due; the base is fixed when the server
/// first asks for a line after the warm-up batch.
class ScheduledInput : public std::streambuf {
 public:
  ScheduledInput(const std::vector<Line>& lines, const std::vector<Distinct>& distinct,
                 Outcome& out)
      : lines_{lines}, distinct_{distinct}, out_{out} {
    out_.release.resize(lines.size());
  }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (next_ >= lines_.size()) return traits_type::eof();
    const Line& l = lines_[next_];
    if (next_ == kBatch) out_.base = Clock::now();
    if (next_ >= kBatch) {
      const auto due = out_.base + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(l.due_s));
      if (Clock::now() < due) {
        if (due - Clock::now() > kSpin) std::this_thread::sleep_until(due - kSpin);
        while (Clock::now() < due) {
        }
        out_.lag_ms.push_back(
            std::chrono::duration<double, std::milli>(Clock::now() - due).count());
      }
    }
    buf_.assign(kIdHead);
    buf_ += l.id;
    if (l.distinct >= 0)
      buf_ += distinct_[static_cast<std::size_t>(l.distinct)].line_tail;
    else
      buf_ += "\",\"kind\":\"health\"}\n";
    out_.release[next_++] = Clock::now();
    setg(buf_.data(), buf_.data(), buf_.data() + buf_.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  const std::vector<Line>& lines_;
  const std::vector<Distinct>& distinct_;
  Outcome& out_;
  std::size_t next_ = 0;
  std::string buf_;
};

/// Stamps every response line when its newline is written and compares
/// it with the expected bytes of the request in the same position.
class CheckedOutput : public std::streambuf {
 public:
  CheckedOutput(const std::vector<Line>& lines, const std::vector<Distinct>& distinct,
                Outcome& out)
      : lines_{lines}, distinct_{distinct}, out_{out} {
    out_.answered.resize(lines.size());
    out_.ok.resize(lines.size());
  }

 protected:
  int_type overflow(int_type c) override {
    if (traits_type::eq_int_type(c, traits_type::eof())) return traits_type::not_eof(c);
    const char ch = traits_type::to_char_type(c);
    xsputn(&ch, 1);
    return c;
  }

  std::streamsize xsputn(const char* s, std::streamsize n) override {
    const char* end = s + n;
    while (s < end) {
      const char* nl = std::find(s, end, '\n');
      cur_.append(s, nl);
      if (nl == end) break;
      finish_line();
      s = nl + 1;
    }
    return n;
  }

 private:
  void finish_line() {
    const auto now = Clock::now();
    if (next_ >= lines_.size()) {
      ++out_.unexpected;
    } else {
      const Line& l = lines_[next_];
      out_.answered[next_] = now;
      if (l.distinct < 0) {
        out_.health = cur_;
        out_.ok[next_] = true;
      } else {
        out_.ok[next_] = matches(l);
        if (!out_.ok[next_])
          std::cerr << "perfbench: response " << l.id << " differs: " << cur_.substr(0, 160)
                    << "\n";
      }
    }
    ++next_;
    cur_.clear();
  }

  bool matches(const Line& l) const {
    const std::string& tail = distinct_[static_cast<std::size_t>(l.distinct)].response_tail;
    const std::string_view got{cur_};
    return got.size() == kIdHead.size() + l.id.size() + tail.size() &&
           got.substr(0, kIdHead.size()) == kIdHead &&
           got.substr(kIdHead.size(), l.id.size()) == l.id &&
           got.substr(kIdHead.size() + l.id.size()) == tail;
  }

  const std::vector<Line>& lines_;
  const std::vector<Distinct>& distinct_;
  Outcome& out_;
  std::size_t next_ = 0;
  std::string cur_;
};

/// Runs one `symcan serve --stdio` over `lines`. Every request line is
/// one checked operation of `result`.
Outcome serve_once(const std::vector<Line>& lines, const std::vector<Distinct>& distinct,
                   Result& result, const std::string& flight_path = {}) {
  Outcome out;
  ScheduledInput in_buf{lines, distinct, out};
  CheckedOutput out_buf{lines, distinct, out};
  std::istream in{&in_buf};
  std::ostream os{&out_buf};
  std::ostringstream err;
  std::vector<std::string> argv = {"serve", "--stdio", "--jobs", std::to_string(kWidth)};
  if (!flight_path.empty()) {
    argv.insert(argv.end(), {"--flight-recorder", flight_path, "--flight-capacity",
                             std::to_string(lines.size() + 64)});
  }
  const auto t0 = Clock::now();
  const int rc = cli::run_cli(argv, in, os, err);
  record_span("serve.invocation", t0, Clock::now());
  if (rc != 0) throw std::runtime_error("serve exited " + std::to_string(rc) + ": " + err.str());
  // Missing, mismatched, shed, rejected and invalid answers all fail the
  // byte comparison.
  for (std::size_t i = 0; i < lines.size(); ++i)
    result.check(out.ok[i], "response to " + lines[i].id);
  result.check(out.unexpected == 0, "no responses beyond the requests");
  return out;
}

/// The warm-up batch plus `count` measured lines spaced 1/rate apart
/// (rate 0: all due at once). `next_distinct` picks each line's request.
template <typename Pick>
std::vector<Line> schedule(std::size_t count, double rate, const std::vector<std::uint32_t>& warm,
                           Pick&& next_distinct) {
  std::vector<Line> lines;
  lines.reserve(warm.size() + count + 1);
  for (std::size_t i = 0; i < warm.size(); ++i)
    lines.push_back(Line{warm[i], "w" + std::to_string(i), 0.0});
  for (std::size_t i = 0; i < count; ++i)
    lines.push_back(Line{static_cast<std::int64_t>(next_distinct()), "m" + std::to_string(i),
                         rate > 0 ? static_cast<double>(i) / rate : 0.0});
  return lines;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::time_point due_at(const Outcome& o, const Line& l) {
  return o.base +
         std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(l.due_s));
}

/// Scheduled-send-to-response latencies (ms) of the measured lines.
std::vector<double> latencies_ms(const std::vector<Line>& lines, const Outcome& o) {
  std::vector<double> v;
  for (std::size_t i = kBatch; i < lines.size(); ++i)
    if (lines[i].distinct >= 0) v.push_back(ms_between(due_at(o, lines[i]), o.answered[i]));
  return v;
}

/// Throughput of the measured lines of an all-at-once invocation.
double replay_rps(const std::vector<Line>& lines, const Outcome& o) {
  const double secs = seconds_between(o.release[kBatch], o.answered.back());
  return secs > 0 ? static_cast<double>(lines.size() - kBatch) / secs : 0.0;
}

/// Integer field `key` inside the JSON object that follows `section`.
std::int64_t json_int(const std::string& s, const std::string& section, const std::string& key) {
  std::size_t pos = 0;
  if (!section.empty()) {
    pos = s.find("\"" + section + "\":{");
    if (pos == std::string::npos) throw std::runtime_error("health: no section " + section);
  }
  pos = s.find("\"" + key + "\":", pos);
  if (pos == std::string::npos) throw std::runtime_error("health: no field " + key);
  return std::stoll(s.substr(pos + key.size() + 3));
}

std::string json_str(const std::string& s, const std::string& key) {
  const std::size_t pos = s.find("\"" + key + "\":\"");
  if (pos == std::string::npos) return {};
  const std::size_t b = pos + key.size() + 4;
  return s.substr(b, s.find('"', b) - b);
}

struct FlightRecord {
  std::string id;
  std::int64_t queue_wait_ns = 0, service_ns = 0, batch_id = 0, matrix_cache = -1;
};

std::unordered_map<std::string, FlightRecord> read_flight(const std::string& path) {
  std::ifstream f{path};
  std::unordered_map<std::string, FlightRecord> out;
  std::string line;
  while (std::getline(f, line)) {
    if (line.find("\"service_ns\"") == std::string::npos) continue;
    FlightRecord r;
    r.id = json_str(line, "id");
    r.queue_wait_ns = json_int(line, "", "queue_wait_ns");
    r.service_ns = json_int(line, "", "service_ns");
    r.batch_id = json_int(line, "", "batch_id");
    r.matrix_cache = json_int(line, "", "matrix_cache");
    out[r.id] = r;
  }
  return out;
}

double ratio(std::int64_t num, std::int64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

// ---------------------------------------------------------------------------
// The workload.

class ServeBench {
 public:
  ServeBench(const Options& opt, bool hot, Result& result)
      : opt_{opt}, hot_{hot}, result_{result}, rng_{stream_seed(opt.seed, 5)} {}

  void run() {
    const double setup = median_seconds(kSetupRepeats, [&] {
      in_ = hot_ ? make_hot_inputs(opt_.seed) : make_cold_inputs(opt_.seed);
    });
    const auto t0 = Clock::now();
    if (!opt_.trace) {
      result_.metric("setup_s", setup);
      open_loop_phase(0.5 * opt_.seconds);
      result_.metric("rps", replay_phase(deadline(t0, 1.0)));
    } else {
      traced_run(t0);
    }
  }

 private:
  Clock::time_point deadline(Clock::time_point t0, double share) const {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(share * opt_.seconds));
  }
  double rate() const { return hot_ ? kHotRate : kColdRate; }

  /// The warm-up batch and the next measured request of an invocation.
  /// serve_hot draws from the 32 distinct requests by the kind mix;
  /// serve_cold walks the pool, so no matrix repeats in one invocation.
  std::vector<std::uint32_t> warm_set() {
    std::vector<std::uint32_t> w;
    for (std::size_t i = 0; i < kBatch; ++i)
      w.push_back(hot_ ? static_cast<std::uint32_t>(i) : take_cold());
    return w;
  }
  std::uint32_t next_request() {
    if (!hot_) return take_cold();
    switch (pick_kind(rng_)) {
      case serve::RequestKind::kAnalyze: return in_.hot_analyze[rng_.index(in_.hot_analyze.size())];
      case serve::RequestKind::kProb: return in_.hot_prob[rng_.index(in_.hot_prob.size())];
      default: return in_.hot_explain[rng_.index(in_.hot_explain.size())];
    }
  }
  std::uint32_t take_cold() { return static_cast<std::uint32_t>(cold_next_++ % kColdPool); }
  /// Measured lines one invocation may carry (serve_cold: the pool less
  /// the warm-up, so nothing repeats).
  std::size_t max_lines() const { return hot_ ? 4096 : kColdPool - kBatch; }

  std::vector<Line> invocation(std::size_t count, double r) {
    const std::vector<std::uint32_t> warm = warm_set();
    return schedule(std::min(count, max_lines()), r, warm, [&] { return next_request(); });
  }

  /// Open loop at the fixed rate for `secs`: p50_ms / p90_ms.
  void open_loop_phase(double secs) {
    std::vector<double> lat, lag;
    auto total = static_cast<std::size_t>(rate() * secs);
    while (total > 0) {
      const std::vector<Line> lines = invocation(total, rate());
      total -= lines.size() - kBatch;
      const Outcome o = serve_once(lines, in_.distinct, result_);
      const std::vector<double> l = latencies_ms(lines, o);
      lat.insert(lat.end(), l.begin(), l.end());
      lag.insert(lag.end(), o.lag_ms.begin(), o.lag_ms.end());
    }
    check_lag(lag);
    result_.metric("p50_ms", quantile(lat, 0.50));
    result_.metric("p90_ms", quantile(lat, 0.90));
  }

  /// All-at-once invocations until `until`: median requests/s.
  double replay_phase(Clock::time_point until, const std::string& flight = {}) {
    std::vector<double> rps;
    do {
      const std::vector<Line> lines = invocation(max_lines(), 0.0);
      const Outcome o = serve_once(lines, in_.distinct, result_, flight);
      rps.push_back(replay_rps(lines, o));
      if (tracing()) request_spans(lines, o, false);
    } while (Clock::now() < until || rps.size() < 3);
    return median(rps);
  }

  static void check_lag(const std::vector<double>& lag_ms) {
    const double p50 = median(lag_ms);
    if (p50 > kMaxGenLagMs)
      throw InvalidRun("generator lag median " + std::to_string(p50) + " ms exceeds " +
                       std::to_string(kMaxGenLagMs) + " ms");
  }

  /// One span per request, from its due (or release) time to its answer.
  void request_spans(const std::vector<Line>& lines, const Outcome& o, bool from_due) {
    for (std::size_t i = kBatch; i < lines.size(); ++i) {
      if (lines[i].distinct < 0) continue;
      record_span("serve.request", from_due ? due_at(o, lines[i]) : o.release[i], o.answered[i],
                  i + 1);
    }
  }

  void traced_run(Clock::time_point t0) {
    // Tracing overhead: the same replay work untraced, then traced (span
    // per request plus a flight recorder holding every record).
    set_tracing(false);
    const CpuMeter cpu;
    const double rps_plain = replay_phase(deadline(t0, 0.15));
    result_.metric("util.cpu_util", cpu.value());
    set_tracing(true);
    std::filesystem::create_directories(".bench_out");
    const std::string flight = ".bench_out/flight-" + opt_.workload + ".jsonl";
    const double rps_traced = replay_phase(deadline(t0, 0.3), flight);
    result_.metric("bench.tracing_overhead", rps_traced > 0 ? rps_plain / rps_traced - 1 : 0);

    // Open loop with telemetry: flight recorder sized to the run and a
    // final health request.
    std::vector<Line> lines =
        invocation(static_cast<std::size_t>(rate() * 0.25 * opt_.seconds), rate());
    lines.push_back(Line{-1, "health", lines.back().due_s + 1.0 / rate()});
    const Outcome o = serve_once(lines, in_.distinct, result_, flight);
    check_lag(o.lag_ms);
    request_spans(lines, o, true);
    const auto records = read_flight(flight);
    telemetry_metrics(lines, o, records);

    set_tracing(false);
    result_.metric("serve.rps_at_slo", rps_at_slo(deadline(t0, 0.85), rps_plain));
    set_tracing(true);
    stage_replay(lines, records, deadline(t0, 1.0));
  }

  void telemetry_metrics(const std::vector<Line>& lines, const Outcome& o,
                         const std::unordered_map<std::string, FlightRecord>& flight) {
    std::vector<double> wait, service;
    std::map<std::int64_t, int> batch_sizes;
    for (std::size_t i = kBatch; i < lines.size(); ++i) {
      if (lines[i].distinct < 0) continue;
      const auto it = flight.find(lines[i].id);
      if (it == flight.end()) continue;
      wait.push_back(static_cast<double>(it->second.queue_wait_ns) / 1e6);
      service.push_back(static_cast<double>(it->second.service_ns) / 1e6);
      ++batch_sizes[it->second.batch_id];
    }
    result_.metric("serve.queue_wait_ms.p50", quantile(wait, 0.50));
    result_.metric("serve.queue_wait_ms.p99", quantile(wait, 0.99));
    result_.metric("serve.service_ms.p50", quantile(service, 0.50));
    result_.metric("serve.service_ms.p99", quantile(service, 0.99));
    std::vector<double> sizes;
    for (const auto& [id, n] : batch_sizes) sizes.push_back(n);
    result_.metric("serve.batch_size", mean(sizes));
    result_.metric("serve.latency_ms.p99", quantile(latencies_ms(lines, o), 0.99));

    // Batch fill: the server reads batch_max lines before it answers any,
    // so a batch dispatches when its last line arrives. Batch k holds
    // lines [32k, 32k + 32); the warm-up batch is k = 0.
    std::vector<double> fill;
    for (std::size_t first = kBatch; first < lines.size(); first += kBatch) {
      const std::size_t last = std::min(first + kBatch, lines.size()) - 1;
      fill.push_back(ms_between(due_at(o, lines[first]), o.release[last]));
    }
    result_.metric("serve.batch_fill_ms.p50", quantile(fill, 0.50));
    result_.metric("serve.batch_fill_ms.p99", quantile(fill, 0.99));
    result_.metric("bench.gen_lag_ms", quantile(o.lag_ms, 0.99));

    const std::string& h = o.health;
    result_.check(!h.empty(), "health request answered");
    if (h.empty()) return;
    const auto hit_ratio = [&](const char* section) {
      const std::int64_t hits = json_int(h, section, "hits");
      return ratio(hits, hits + json_int(h, section, "misses"));
    };
    result_.metric("serve.matrix_memo.hit_ratio", hit_ratio("matrix_cache"));
    result_.metric("analysis.rta_cache.hit_ratio", hit_ratio("rta_cache"));
    result_.metric("serve.shed", static_cast<double>(json_int(h, "requests", "shed")));
    result_.metric("serve.rejected",
                   static_cast<double>(json_int(h, "ring", "rejected") +
                                       json_int(h, "ring", "timed_out") +
                                       json_int(h, "ring", "dropped_oldest")));
    result_.metric("serve.invalid", static_cast<double>(json_int(h, "requests", "invalid")));
  }

  /// Highest offered rate at which >= 99 % of requests meet their kind's
  /// default SloTargets with no growing backlog. Too low a rate fails too,
  /// since a batch waits for 32 lines, so the search starts inside the
  /// feasible band at a share of the all-at-once throughput and bisects up
  /// to 1.5x that throughput.
  double rps_at_slo(Clock::time_point until, double capacity) {
    const serve::SloTargets slo{};
    const auto probe = [&](double r) {
      const auto n = static_cast<std::size_t>(std::max(256.0, r * 0.02 * opt_.seconds));
      const std::vector<Line> lines = invocation(n, r);
      const Outcome o = serve_once(lines, in_.distinct, result_);
      std::size_t met = 0, total = 0;
      std::vector<double> late_ms;  // read lateness over the last quarter
      for (std::size_t i = kBatch; i < lines.size(); ++i) {
        const Line& l = lines[i];
        const auto kind = in_.distinct[static_cast<std::size_t>(l.distinct)].req.kind;
        met += ms_between(due_at(o, l), o.answered[i]) <= static_cast<double>(slo.for_kind(kind));
        ++total;
        if (4 * (i - kBatch) >= 3 * (lines.size() - kBatch))
          late_ms.push_back(ms_between(due_at(o, l), o.release[i]));
      }
      // A server that keeps up reads each line within one batch interval
      // of its due time; one that falls behind reads ever later.
      const bool keeps_up = median(late_ms) <= 1e3 * static_cast<double>(kBatch) / r;
      return static_cast<double>(met) >= 0.99 * static_cast<double>(total) && keeps_up;
    };
    double lo = 0, hi = 1.5 * capacity;
    for (const double share : {0.5, 0.7, 0.85}) {
      if (probe(share * capacity)) {
        lo = share * capacity;
        break;
      }
    }
    if (lo == 0) return 0;
    for (int i = 0; i < 8 && Clock::now() < until && hi / lo > 1.02; ++i) {
      const double mid = std::sqrt(lo * hi);
      (probe(mid) ? lo : hi) = mid;
    }
    return lo;
  }

  /// Replays the stages of sampled open-loop requests by direct calls, in
  /// the order the core runs them, against caches configured like the
  /// server's, and decomposes the measured service time.
  void stage_replay(const std::vector<Line>& lines,
                    const std::unordered_map<std::string, FlightRecord>& flight,
                    Clock::time_point until) {
    RtaCacheConfig cc;
    cc.shards = 8;
    IncrementalRta layer_cache{cc};  // per-layer timings
    IncrementalRta stage_cache{cc};  // the stage as the core calls it
    std::unordered_map<std::uint32_t, KMatrix> parsed;
    std::vector<double> wire_parse, wire_write, parse, validate, pack, solve, analyze, prob,
        explain, r_analyze, r_prob, r_explain, service, stages, stage_us;

    const auto prepare = [&](std::uint32_t d) -> KMatrix {
      auto it = parsed.find(d);
      if (it == parsed.end())
        it = parsed.emplace(d, kmatrix_from_csv(in_.distinct[d].req.matrix_csv)).first;
      KMatrix km = it->second;
      const serve::ServeRequest& r = in_.distinct[d].req;
      if (r.jitter) pipeline::apply_matrix_spec(km, {*r.jitter, r.override_known});
      return km;
    };
    const auto prob_spec = [](const serve::ServeRequest& r) {
      pipeline::ProbSpec s;
      s.fault_ppm = r.fault_ppm;
      s.jobs = 1;
      return s;
    };
    const auto run_stage = [&](const serve::ServeRequest& r, const KMatrix& km,
                               IncrementalRta& cache, std::vector<double>& samples) {
      std::ostringstream out;
      const CanRtaConfig cfg = pipeline::assumptions_for(r.preset);
      return timed("pipeline.render", samples, [&] {
        switch (r.kind) {
          case serve::RequestKind::kAnalyze: return pipeline::render_analyze(km, cfg, out, &cache);
          case serve::RequestKind::kProb:
            return pipeline::render_prob(km, cfg, prob_spec(r), out, &cache);
          default: return pipeline::render_explain(km, cfg, r.message, r.json, out);
        }
      });
    };

    // The server answered the warm-up batch before any measured request;
    // give the replay caches the same history, untimed.
    for (std::size_t i = 0; i < kBatch; ++i) {
      const auto d = static_cast<std::uint32_t>(lines[i].distinct);
      const KMatrix km = prepare(d);
      run_stage(in_.distinct[d].req, km, layer_cache, stage_us);
      run_stage(in_.distinct[d].req, km, stage_cache, stage_us);
    }
    const RtaCacheStats ladder0 = layer_cache.prob_stats();

    // At least kMinSamples requests, then until the run's time is up.
    constexpr std::size_t kMinSamples = 64;
    for (std::size_t i = kBatch;
         i < lines.size() && (service.size() < kMinSamples || Clock::now() < until); ++i) {
      if (lines[i].distinct < 0) continue;
      const auto it = flight.find(lines[i].id);
      if (it == flight.end()) continue;
      const auto d = static_cast<std::uint32_t>(lines[i].distinct);
      const serve::ServeRequest& r = in_.distinct[d].req;
      const std::string wire = std::string(kIdHead) + lines[i].id + in_.distinct[d].line_tail;

      Diagnostics diags{DiagnosticPolicy::kLenient, "serve request"};
      timed("serve.wire_parse", wire_parse, [&] {
        return serve::request_from_jsonl(wire.substr(0, wire.size() - 1), i + 1, diags);
      });

      double stage_sum = 0;
      if (it->second.matrix_cache == 0) {  // the server parsed this one
        Diagnostics kd{DiagnosticPolicy::kLenient, "K-Matrix CSV"};
        const auto km =
            timed("can.parse", parse, [&] { return kmatrix_from_csv(r.matrix_csv, kd); });
        stage_sum += parse.back();
        if (km) timed("can.validate", validate, [&] { km->validate(); });
      }
      const KMatrix km = prepare(d);
      const CanRtaConfig cfg = pipeline::assumptions_for(r.preset);
      switch (r.kind) {
        case serve::RequestKind::kAnalyze:
          timed("analysis.analyze", analyze, [&] { return layer_cache.analyze(km, cfg); });
          run_stage(r, km, layer_cache, r_analyze);
          if (pack.size() < 64) {
            analysis::ColumnarBus bus;
            timed("analysis.pack", pack, [&] { analysis::pack_bus(km, cfg, bus); });
            timed("analysis.solve", solve, [&] {
              for (std::size_t m = 0; m < bus.size(); ++m) analysis::solve_columnar(bus, m);
            });
          }
          break;
        case serve::RequestKind::kProb: {
          ProbRtaConfig pc;
          pc.rta = cfg;
          pc.fault_ppm = r.fault_ppm;
          timed("analysis.prob", prob, [&] { return layer_cache.analyze_prob(km, pc); });
          run_stage(r, km, layer_cache, r_prob);
          break;
        }
        default: {
          const auto index = analysis::find_message(km, r.message);
          timed("analysis.explain", explain,
                [&] { return analysis::explain_message(km, cfg, index.value()); });
          run_stage(r, km, layer_cache, r_explain);
          break;
        }
      }
      run_stage(r, km, stage_cache, stage_us);
      stage_sum += stage_us.back();

      serve::ServeResponse resp = in_.distinct[d].reference;
      resp.id = lines[i].id;
      timed("serve.wire_write", wire_write, [&] { return serve::response_to_jsonl(resp); });

      service.push_back(static_cast<double>(it->second.service_ns) / 1e3);
      stages.push_back(stage_sum);
    }

    result_.metric("serve.wire_parse_us", mean(wire_parse));
    result_.metric("serve.wire_write_us", mean(wire_write));
    result_.metric("can.parse_us", mean(parse));
    result_.metric("can.validate_us", mean(validate));
    result_.metric("analysis.pack_us", mean(pack));
    result_.metric("analysis.solve_us", mean(solve));
    result_.metric("analysis.analyze_us", mean(analyze));
    result_.metric("analysis.prob_us", mean(prob));
    result_.metric("analysis.explain_us", mean(explain));
    result_.metric("pipeline.render_analyze_us", mean(r_analyze));
    result_.metric("pipeline.render_prob_us", mean(r_prob));
    result_.metric("pipeline.render_explain_us", mean(r_explain));
    const RtaCacheStats ladder = layer_cache.prob_stats();
    result_.metric("analysis.prob_ladder.hit_ratio",
                   ratio(ladder.hits - ladder0.hits, ladder.lookups() - ladder0.lookups()));
    // Exact identity over the sample: service = stages + unattributed.
    result_.metric("serve.service_mean_us", mean(service));
    result_.metric("serve.stages_us", mean(stages));
    result_.metric("serve.unattributed_us", mean(service) - mean(stages));
  }

  const Options& opt_;
  const bool hot_;
  Result& result_;
  Rng rng_;
  Inputs in_;
  std::size_t cold_next_ = 0;
};

}  // namespace

void run_serve(const Options& opt, bool hot, Result& result) {
  ServeBench{opt, hot, result}.run();
}

}  // namespace perfbench
