#include "symcan/analysis/provenance.hpp"

#include <algorithm>
#include <cinttypes>

#include "symcan/analysis/columnar.hpp"
#include "symcan/can/kmatrix.hpp"
#include "symcan/model/event_model.hpp"
#include "symcan/obs/export.hpp"
#include "symcan/util/table.hpp"

namespace symcan::analysis {

Duration Provenance::sum_of_parts() const {
  return bus_blocking + intra_node_blocking + preceding_instances + interference_total +
         error_overhead + own_cost - arrival_credit;
}

Provenance explain_message(const KMatrix& km, const CanRtaConfig& cfg, std::size_t index) {
  static thread_local ColumnarBus bus;
  std::vector<ContextLabels> labels;
  const std::size_t row[] = {index};
  pack_bus(km, cfg, bus, row, &labels);
  const ContextLabels& names = labels.front();
  SolveTrace trace;

  Provenance p;
  p.result = solve_columnar(bus, 0, *bus.errors, trace);
  p.name = p.result.name = km.messages()[index].name;
  p.id = p.result.id = km.messages()[index].id;
  p.blocking_frame = names.blocking_frame;
  p.bus_blocking = names.bus_blocking;
  p.intra_node_blocking = names.intra_node_blocking;
  p.own_cost = bus.cost[0];
  p.busy_iterates = std::move(trace.busy_iterates);
  if (p.result.diverged) return p;  // No finite window to decompose.

  // Re-evaluate every term of the window recurrence at the recorded
  // fixed point w(q*). Because w* satisfies the recurrence exactly, the
  // terms sum back to w* in integer arithmetic — no residual, no
  // rounding — and each share is precisely what the solver charged.
  const Duration w = trace.critical_window;
  const Duration probe = w + bus.timing.bit_time();
  p.critical_instance = trace.critical_instance;
  p.critical_window = w;
  p.window_iterates = std::move(trace.window_iterates);
  p.preceding_instances = trace.critical_instance * bus.cost[0];
  p.arrival_credit =
      delta_min(trace.critical_instance + 1, bus.act_period[0], bus.act_jitter[0], bus.act_dmin[0]);
  p.error_overhead = bus.errors->overhead(w + bus.cost[0], bus.max_retx[0], bus.timing);

  // Entries analyzed through event models, offset-group fallbacks
  // included, decompose into per-release counts.
  for (std::size_t k = bus.hp_begin[0]; k < bus.hp_begin[1]; ++k) {
    InterferenceShare s;
    s.name = names.hp[k - bus.hp_begin[0]];
    s.preemptions = eta_plus(probe, bus.hp_period[k], bus.hp_jitter[k], bus.hp_dmin[k]);
    s.contribution = s.preemptions * bus.hp_cost[k];
    p.interference.push_back(std::move(s));
  }
  // Offset-group demand is bounded jointly over the hyperperiod; it has
  // no exact per-member split, so each group is one share.
  for (std::size_t g = bus.tt_begin[0]; g < bus.tt_begin[1]; ++g) {
    InterferenceShare s;
    s.name = names.tt_sender[g - bus.tt_begin[0]];
    s.members = names.tt_members[g - bus.tt_begin[0]];
    s.offset_group = true;
    s.contribution = bus.tt_groups[g].interference(probe);
    p.interference.push_back(std::move(s));
  }
  std::sort(p.interference.begin(), p.interference.end(),
            [](const InterferenceShare& a, const InterferenceShare& b) {
              if (a.contribution != b.contribution) return a.contribution > b.contribution;
              return a.name < b.name;
            });
  for (const auto& s : p.interference) p.interference_total += s.contribution;
  return p;
}

std::optional<std::size_t> find_message(const KMatrix& km, std::string_view name) {
  const auto& msgs = km.messages();
  for (std::size_t i = 0; i < msgs.size(); ++i)
    if (msgs[i].name == name) return i;
  return std::nullopt;
}

namespace {

/// "a -> b -> ... -> z", eliding the middle of long trajectories.
std::string iterates_to_text(const std::vector<Duration>& xs) {
  std::string out;
  constexpr std::size_t kHead = 4, kTail = 2;
  if (xs.size() <= kHead + kTail + 1) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i) out += " -> ";
      out += to_string(xs[i]);
    }
    return out;
  }
  for (std::size_t i = 0; i < kHead; ++i) {
    out += to_string(xs[i]);
    out += " -> ";
  }
  appendf(out, "... (%zu elided) ", xs.size() - kHead - kTail);
  for (std::size_t i = xs.size() - kTail; i < xs.size(); ++i) {
    out += "-> ";
    out += to_string(xs[i]);
    if (i + 1 < xs.size()) out += " ";
  }
  return out;
}

std::string iterates_to_json(const std::vector<Duration>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ",";
    appendf(out, "%" PRId64, xs[i].count_ns());
  }
  out += "]";
  return out;
}

}  // namespace

std::string provenance_to_text(const Provenance& p) {
  std::string out;
  const MessageResult& r = p.result;
  appendf(out, "message %s (id 0x%X)\n", p.name.c_str(), p.id);
  if (r.diverged) {
    appendf(out, "verdict: DIVERGED — busy period exceeds the analysis horizon\n");
    appendf(out, "convergence: busy period %s\n", iterates_to_text(p.busy_iterates).c_str());
    return out;
  }
  appendf(out, "verdict: %s  (wcrt %s vs deadline %s, slack %s)\n",
          r.schedulable ? "schedulable" : "DEADLINE MISS", to_string(r.wcrt).c_str(),
          to_string(r.deadline).c_str(), to_string(r.slack()).c_str());
  appendf(out, "busy period: %s  (%" PRId64 " instances, %" PRId64 " fixed-point iterations)\n",
          to_string(r.busy_period).c_str(), r.instances, r.fixedpoint_iterations);
  appendf(out, "critical instance: q* = %" PRId64 "  (window w* = %s)\n", p.critical_instance,
          to_string(p.critical_window).c_str());
  out += "breakdown of the bound:\n";
  appendf(out, "  blocking             %12s", to_string(p.bus_blocking + p.intra_node_blocking).c_str());
  if (!p.blocking_frame.empty())
    appendf(out, "   frame '%s' (bus %s + intra-node %s)", p.blocking_frame.c_str(),
            to_string(p.bus_blocking).c_str(), to_string(p.intra_node_blocking).c_str());
  out += "\n";
  appendf(out, "  preceding instances  %12s   %" PRId64 " x %s\n",
          to_string(p.preceding_instances).c_str(), p.critical_instance,
          to_string(p.own_cost).c_str());
  appendf(out, "  interference         %12s\n", to_string(p.interference_total).c_str());
  for (const auto& s : p.interference) {
    if (s.offset_group) {
      appendf(out, "    %-18s %12s   offset group, %zu members\n", s.name.c_str(),
              to_string(s.contribution).c_str(), s.members.size());
    } else {
      appendf(out, "    %-18s %12s   %" PRId64 " preemptions\n", s.name.c_str(),
              to_string(s.contribution).c_str(), s.preemptions);
    }
  }
  appendf(out, "  error overhead       %12s\n", to_string(p.error_overhead).c_str());
  appendf(out, "  own transmission     %12s\n", to_string(p.own_cost).c_str());
  appendf(out, "  arrival credit       %12s\n", to_string(-p.arrival_credit).c_str());
  appendf(out, "  = bound              %12s   (sum of parts %s wcrt)\n",
          to_string(p.sum_of_parts()).c_str(), p.sum_check() ? "==" : "!=");
  appendf(out, "convergence: busy period %s\n", iterates_to_text(p.busy_iterates).c_str());
  appendf(out, "convergence: window q*   %s\n", iterates_to_text(p.window_iterates).c_str());
  return out;
}

std::string provenance_to_json(const Provenance& p) {
  const MessageResult& r = p.result;
  std::string out = "{";
  appendf(out, "\"message\":\"%s\",", obs::json_escape(p.name).c_str());
  appendf(out, "\"id\":%u,", p.id);
  appendf(out, "\"schedulable\":%s,", r.schedulable ? "true" : "false");
  appendf(out, "\"diverged\":%s,", r.diverged ? "true" : "false");
  appendf(out, "\"wcrt_ns\":%" PRId64 ",", r.wcrt.count_ns());
  appendf(out, "\"bcrt_ns\":%" PRId64 ",", r.bcrt.count_ns());
  appendf(out, "\"deadline_ns\":%" PRId64 ",", r.deadline.count_ns());
  appendf(out, "\"busy_period_ns\":%" PRId64 ",", r.busy_period.count_ns());
  appendf(out, "\"instances\":%" PRId64 ",", r.instances);
  appendf(out, "\"fixedpoint_iterations\":%" PRId64 ",", r.fixedpoint_iterations);
  out += "\"breakdown\":{";
  appendf(out, "\"blocking_frame\":\"%s\",", obs::json_escape(p.blocking_frame).c_str());
  appendf(out, "\"bus_blocking_ns\":%" PRId64 ",", p.bus_blocking.count_ns());
  appendf(out, "\"intra_node_blocking_ns\":%" PRId64 ",", p.intra_node_blocking.count_ns());
  appendf(out, "\"critical_instance\":%" PRId64 ",", p.critical_instance);
  appendf(out, "\"critical_window_ns\":%" PRId64 ",", p.critical_window.count_ns());
  appendf(out, "\"preceding_instances_ns\":%" PRId64 ",", p.preceding_instances.count_ns());
  out += "\"interference\":[";
  for (std::size_t i = 0; i < p.interference.size(); ++i) {
    const InterferenceShare& s = p.interference[i];
    if (i) out += ",";
    out += "{";
    appendf(out, "\"name\":\"%s\",", obs::json_escape(s.name).c_str());
    appendf(out, "\"offset_group\":%s,", s.offset_group ? "true" : "false");
    if (s.offset_group) {
      out += "\"members\":[";
      for (std::size_t j = 0; j < s.members.size(); ++j) {
        if (j) out += ",";
        appendf(out, "\"%s\"", obs::json_escape(s.members[j]).c_str());
      }
      out += "],";
    } else {
      appendf(out, "\"preemptions\":%" PRId64 ",", s.preemptions);
    }
    appendf(out, "\"contribution_ns\":%" PRId64 "}", s.contribution.count_ns());
  }
  out += "],";
  appendf(out, "\"interference_total_ns\":%" PRId64 ",", p.interference_total.count_ns());
  appendf(out, "\"error_overhead_ns\":%" PRId64 ",", p.error_overhead.count_ns());
  appendf(out, "\"own_cost_ns\":%" PRId64 ",", p.own_cost.count_ns());
  appendf(out, "\"arrival_credit_ns\":%" PRId64 ",", p.arrival_credit.count_ns());
  appendf(out, "\"sum_of_parts_ns\":%" PRId64 ",", p.sum_of_parts().count_ns());
  appendf(out, "\"sum_check\":%s},", p.sum_check() ? "true" : "false");
  appendf(out, "\"busy_iterates_ns\":%s,", iterates_to_json(p.busy_iterates).c_str());
  appendf(out, "\"window_iterates_ns\":%s}", iterates_to_json(p.window_iterates).c_str());
  return out;
}

}  // namespace symcan::analysis
