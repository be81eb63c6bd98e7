#include "symcan/sim/trace.hpp"

#include <algorithm>
#include <map>
#include <sstream>

namespace symcan {

const char* to_string(TraceEventType t) {
  switch (t) {
    case TraceEventType::kRelease:
      return "release";
    case TraceEventType::kTxStart:
      return "tx-start";
    case TraceEventType::kTxEnd:
      return "tx-end";
    case TraceEventType::kError:
      return "error";
    case TraceEventType::kRetransmit:
      return "retransmit";
    case TraceEventType::kLoss:
      return "loss";
  }
  return "?";
}

void Trace::record(Duration time, TraceEventType type, const std::string& message,
                   std::int64_t instance) {
  events_.push_back(TraceEvent{time, type, message, instance});
}

void Trace::record(Duration time, TraceEventType type, std::string&& message,
                   std::int64_t instance) {
  events_.push_back(TraceEvent{time, type, std::move(message), instance});
}

std::string Trace::to_text() const {
  std::ostringstream os;
  for (const auto& e : events_) {
    os << to_string(e.time) << "  " << to_string(e.type) << "  " << e.message << "#" << e.instance
       << '\n';
  }
  return os.str();
}

std::string Trace::to_gantt(Duration from, Duration to, Duration resolution) const {
  if (resolution <= Duration::zero() || to <= from) return {};
  const std::size_t cols =
      static_cast<std::size_t>(ceil_div(to - from, resolution));

  // Stable row order: first appearance in the trace.
  std::vector<std::string> order;
  std::map<std::string, std::size_t> row_of;
  for (const auto& e : events_) {
    if (!row_of.contains(e.message)) {
      row_of[e.message] = order.size();
      order.push_back(e.message);
    }
  }
  std::vector<std::string> rows(order.size(), std::string(cols, ' '));

  auto col_of = [&](Duration t) -> std::int64_t { return floor_div(t - from, resolution); };
  auto paint = [&](std::size_t row, std::int64_t c0, std::int64_t c1, char ch) {
    const std::int64_t lo = std::max<std::int64_t>(c0, 0);
    const std::int64_t hi = std::min<std::int64_t>(c1, static_cast<std::int64_t>(cols) - 1);
    for (std::int64_t c = lo; c <= hi; ++c) {
      char& cell = rows[row][static_cast<std::size_t>(c)];
      // Do not let waiting dots overwrite stronger marks.
      if (ch == '.' && cell != ' ') continue;
      cell = ch;
    }
  };

  // Track per (message, instance) lifecycle to paint spans.
  struct Open {
    Duration release = Duration::zero();
    Duration tx_start = Duration::zero();
    bool transmitting = false;
  };
  std::map<std::pair<std::string, std::int64_t>, Open> open;
  for (const auto& e : events_) {
    const std::size_t row = row_of[e.message];
    const auto key = std::make_pair(e.message, e.instance);
    switch (e.type) {
      case TraceEventType::kRelease:
        open[key] = Open{e.time, e.time, false};
        break;
      case TraceEventType::kTxStart:
        if (auto it = open.find(key); it != open.end()) {
          paint(row, col_of(it->second.release), col_of(e.time) - 1, '.');
          it->second.tx_start = e.time;
          it->second.transmitting = true;
        }
        break;
      case TraceEventType::kTxEnd:
        if (auto it = open.find(key); it != open.end()) {
          paint(row, col_of(it->second.tx_start), col_of(e.time), '=');
          open.erase(it);
        }
        break;
      case TraceEventType::kError:
        if (auto it = open.find(key); it != open.end()) {
          paint(row, col_of(it->second.tx_start), col_of(e.time), '=');
          paint(row, col_of(e.time), col_of(e.time), '!');
          it->second.transmitting = false;
          it->second.tx_start = e.time;  // waiting resumes here
        }
        break;
      case TraceEventType::kRetransmit:
        break;
      case TraceEventType::kLoss:
        paint(row, col_of(e.time), col_of(e.time), 'X');
        open.erase(key);
        break;
    }
  }

  std::size_t name_w = 0;
  for (const auto& n : order) name_w = std::max(name_w, n.size());
  std::ostringstream os;
  os << "time: " << to_string(from) << " .. " << to_string(to) << ", 1 col = "
     << to_string(resolution) << "  (= tx, . queued, ! error, X loss)\n";
  for (std::size_t r = 0; r < rows.size(); ++r) {
    os << order[r] << std::string(name_w - order[r].size() + 1, ' ') << '|' << rows[r] << "|\n";
  }
  return os.str();
}

}  // namespace symcan
