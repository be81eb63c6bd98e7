#include "symcan/sim/trace_export.hpp"

#include <map>
#include <string>

#include "symcan/obs/json.hpp"

namespace symcan {

const char* event_type_slug(TraceEventType t) {
  switch (t) {
    case TraceEventType::kRelease: return "release";
    case TraceEventType::kTxStart: return "tx_start";
    case TraceEventType::kTxEnd: return "tx_end";
    case TraceEventType::kError: return "error";
    case TraceEventType::kRetransmit: return "retransmit";
    case TraceEventType::kLoss: return "loss";
  }
  return "?";
}

namespace {

double to_us(Duration d) { return static_cast<double>(d.count_ns()) / 1000.0; }

}  // namespace

std::string trace_to_jsonl(const Trace& trace) {
  std::string out;
  obs::JsonOut w{out};
  for (const TraceEvent& e : trace.events()) {
    w.begin_object().field("t_ns", e.time.count_ns()).field("type", event_type_slug(e.type));
    w.field("message", e.message).field("instance", e.instance).end_object().end_line();
  }
  return out;
}

std::string sim_trace_to_chrome_json(const Trace& trace, const KMatrix& km) {
  // Track layout: tid 0 is the bus; each ECU (in KMatrix node order) gets
  // the next tid; names that resolve to no sender share a "?" track.
  std::string out;
  obs::JsonOut w{out, obs::JsonOut::Layout::kSpaced};
  const auto thread_name = [&](int tid, const std::string& name) {
    w.begin_object().field("name", "thread_name").field("ph", "M").field("pid", 1);
    w.field("tid", tid).key("args").begin_object().field("name", name).end_object().end_object();
  };
  w.begin_object().key("traceEvents").begin_array(true);
  thread_name(0, "bus");
  std::map<std::string, int> ecu_tid;    // ECU name -> tid
  std::map<std::string, int> sender_of;  // message name -> tid
  for (const auto& m : km.messages()) {
    const int tid = static_cast<int>(ecu_tid.size()) + 1;
    const auto [it, inserted] = ecu_tid.emplace(m.sender, tid);
    if (inserted) thread_name(tid, m.sender);
    sender_of.emplace(m.name, it->second);
  }
  const int unknown_tid = static_cast<int>(ecu_tid.size()) + 1;
  const auto instant = [](const TraceEvent& e) {
    return e.type == TraceEventType::kRelease || e.type == TraceEventType::kLoss ||
           e.type == TraceEventType::kRetransmit;
  };
  const auto& events = trace.events();
  for (const TraceEvent& e : events) {
    if (instant(e) && sender_of.count(e.message) == 0) {
      thread_name(unknown_tid, "?");
      break;
    }
  }

  // The bus is serial, so each kTxStart terminates at the next
  // kTxEnd/kError; a following kTxStart first means the trace was cut
  // mid-transmission.
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    if (e.type == TraceEventType::kTxStart) {
      Duration end = e.time;
      const char* outcome = "cut";  // Trace ended mid-transmission.
      for (std::size_t j = i + 1; j < events.size(); ++j) {
        if (events[j].type == TraceEventType::kTxStart) break;
        if (events[j].type == TraceEventType::kTxEnd || events[j].type == TraceEventType::kError) {
          end = events[j].time;
          outcome = events[j].type == TraceEventType::kTxEnd ? "ok" : "error";
          break;
        }
      }
      w.begin_object().field("name", e.message).field("cat", "tx").field("ph", "X");
      w.field("ts", to_us(e.time)).field("dur", to_us(end - e.time)).field("pid", 1);
      w.field("tid", 0).key("args").begin_object().field("instance", e.instance);
      w.field("outcome", outcome).end_object().end_object();
    } else if (instant(e)) {
      const auto it = sender_of.find(e.message);
      w.begin_object().field("name", e.message).field("cat", event_type_slug(e.type));
      w.field("ph", "i").field("s", "t").field("ts", to_us(e.time)).field("pid", 1);
      w.field("tid", it != sender_of.end() ? it->second : unknown_tid);
      w.key("args").begin_object().field("instance", e.instance).end_object().end_object();
    }
  }
  w.end_array().field("displayTimeUnit", "ms").end_object().end_line();
  return out;
}

}  // namespace symcan
