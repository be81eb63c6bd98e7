#include "symcan/serve/server.hpp"

#include <condition_variable>
#include <deque>
#include <istream>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>

#include "symcan/obs/export.hpp"
#include "symcan/obs/obs.hpp"
#include "symcan/obs/prometheus.hpp"
#include "symcan/util/parallel.hpp"

namespace symcan::serve {

namespace {

bool blank(const std::string& line) {
  for (const char c : line)
    if (c != ' ' && c != '\t' && c != '\r') return false;
  return true;
}

/// The state one run_stdio_serve call shares between its threads.
class StdioLoop {
 public:
  StdioLoop(ServeCore& core, std::istream& in, std::ostream& out)
      : core_{core}, in_{in}, out_{out}, window_{core.config().batch_max} {}

  /// One thread's share of the loop; returns at EOF. An exception stops
  /// every thread (the unanswered line would stall the writer forever).
  void run() {
    try {
      std::string text;
      std::size_t line_no = 0;
      std::uint64_t seq = 0;
      while (read_line(text, line_no, seq)) serve_line(text, line_no, seq);
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(write_m_);
        aborted_ = true;
      }
      written_cv_.notify_all();
      throw;
    }
  }

  /// Rewrite the Prometheus scrape file (no-op without a path).
  void write_scrape() const {
    if (core_.config().metrics_prom_path.empty()) return;
    try {
      obs::write_file(core_.config().metrics_prom_path,
                      obs::metrics_to_prometheus(obs::metrics()));
    } catch (const std::exception&) {
      // Scrape-file trouble must not take the service down.
    }
  }

 private:
  /// Under the read token: wait for room in the window, then read the
  /// next non-blank line and give it the next arrival number.
  bool read_line(std::string& text, std::size_t& line_no, std::uint64_t& seq) {
    std::lock_guard<std::mutex> token(read_m_);
    if (eof_) return false;
    {
      std::unique_lock<std::mutex> lock(write_m_);
      written_cv_.wait(lock, [&] { return aborted_ || next_seq_ - written_ < window_; });
      if (aborted_) return false;
    }
    while (std::getline(in_, text)) {
      ++line_no_;
      if (!text.empty() && text.back() == '\r') text.pop_back();
      if (blank(text)) continue;
      line_no = line_no_;
      seq = next_seq_++;
      return true;
    }
    eof_ = true;
    return false;
  }

  /// Outside the token: parse and answer on this thread.
  void serve_line(const std::string& text, std::size_t line_no, std::uint64_t seq) {
    Diagnostics diags{core_.config().policy, "serve request"};
    const auto req = request_from_jsonl(text, line_no, diags);
    answer(seq, req ? core_.handle(*req) : invalid_response("", diags));
  }

  /// The in-order writer: park the response at its arrival number, then
  /// emit and flush every consecutive finished one.
  void answer(std::uint64_t seq, const ServeResponse& resp) {
    std::string line = response_to_jsonl(resp);
    line += '\n';
    std::lock_guard<std::mutex> lock(write_m_);
    const std::size_t slot = seq - written_;
    if (pending_.size() <= slot) pending_.resize(slot + 1);
    pending_[slot] = std::move(line);
    if (slot != 0) return;  // An earlier response is still being worked on.
    while (!pending_.empty() && pending_.front()) {
      out_ << *pending_.front();
      pending_.pop_front();
      ++written_;
    }
    out_.flush();
    written_cv_.notify_all();

    // Periodic Prometheus exposition: at most once per telemetry window
    // bucket, so an external collector reads a fresh snapshot without a
    // file rewrite per request.
    if (core_.config().metrics_prom_path.empty()) return;
    const std::int64_t now = core_.now_ns();
    if (now >= next_scrape_ns_) {
      next_scrape_ns_ = now + core_.config().telemetry.window_bucket_ms * 1'000'000;
      write_scrape();
    }
  }

  ServeCore& core_;
  std::istream& in_;
  std::ostream& out_;
  const std::size_t window_;

  std::mutex read_m_;           ///< The read token.
  std::size_t line_no_ = 0;     ///< Guarded by read_m_.
  std::uint64_t next_seq_ = 0;  ///< Guarded by read_m_.
  bool eof_ = false;            ///< Guarded by read_m_.

  std::mutex write_m_;  ///< Guards out_ and the fields below.
  std::condition_variable written_cv_;
  /// Finished responses by arrival number, starting at written_.
  std::deque<std::optional<std::string>> pending_;
  std::uint64_t written_ = 0;
  std::int64_t next_scrape_ns_ = 0;
  bool aborted_ = false;
};

}  // namespace

int run_stdio_serve(ServeCore& core, std::istream& in, std::ostream& out) {
  // Untie `in` for the run (see server.hpp); the old tie comes back on
  // return.
  struct Untie {
    std::istream& in;
    std::ostream* const tie;
    ~Untie() { in.tie(tie); }
  } untie{in, in.tie(nullptr)};
  StdioLoop loop{core, in, out};
  ParallelExecutor pool{core.config().jobs};
  pool.parallel_map_indexed(static_cast<std::size_t>(pool.threads()), [&](std::size_t) {
    loop.run();
    return 0;
  });
  // The scrape file ends with the whole run's counts, and shutdown is one
  // of the flight recorder's dump triggers: the last N requests are
  // exactly what a post-mortem wants.
  loop.write_scrape();
  core.dump_flight("shutdown");
  return 0;
}

}  // namespace symcan::serve
